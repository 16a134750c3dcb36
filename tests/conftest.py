"""Shared fixtures: small analytic problems with known geometry, and
synthetic evaluated rows."""

import numpy as np
import pytest

from cpso.handlers import ChtConfig, replacement_mask, sort_keys
from cpso.problem import BatchEval, Problem, Tolerances
from cpso.swarm import Swarm, initial_positions


def make_toy1() -> Problem:
    """Minimize x1 + x2 subject to x1 + x2 <= 1 on the box [-2, 2]^2.

    The feasible region covers exactly 71.875% of the box area.
    """
    return Problem(
        name="toy1",
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
        objective=lambda x: x[:, 0] + x[:, 1],
        inequalities=(lambda x: x[:, 0] + x[:, 1] - 1.0,),
    )


def make_toy_eq() -> Problem:
    """Minimize x1 + x2 subject to x1 - x2 = 0 on the box [-2, 2]^2."""
    return Problem(
        name="toy-eq",
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
        objective=lambda x: x[:, 0] + x[:, 1],
        equalities=(lambda x: x[:, 0] - x[:, 1],),
    )


def make_halfline(limit: float = 0.0, lower: float = -100.0, upper: float = 100.0):
    """1-D problem: minimize x subject to x <= limit."""
    return Problem(
        name="halfline",
        lower=np.array([lower]),
        upper=np.array([upper]),
        objective=lambda x: x[:, 0],
        inequalities=(lambda x, c=limit: x[:, 0] - c,),
    )


def start_swarm(problem, config, cht, max_attempts_per_particle=1_000_000) -> Swarm:
    """A one-run swarm of ``config``, built as the harness builds a group."""
    rng, positions, rejected = initial_positions(
        problem, config, cht, max_attempts_per_particle
    )
    return Swarm(problem, config, cht, [rng], positions, [rejected])


def batch(conflict, ineq=0.0, eq=0.0, box=0.0) -> BatchEval:
    """Synthesize evaluated rows from violation amounts.

    One row per entry of ``conflict``; each row has one inequality, one
    equality and one box term, given as a scalar for every row or one
    value per row.  Positions are zero.
    """
    conflict = np.atleast_1d(np.asarray(conflict, dtype=float))
    m = conflict.size
    ineq, eq, box = (
        np.broadcast_to(np.asarray(a, dtype=float), (m,)).reshape(m, 1).copy()
        for a in (ineq, eq, box)
    )
    return BatchEval(
        positions=np.zeros((m, 1)),
        conflict=conflict,
        ineq_violations=ineq,
        eq_violations=eq,
        box_violations=box,
        cv=(ineq + eq + box)[:, 0],
    )


def random_batch(rng, m) -> BatchEval:
    """``m`` random rows: normal conflicts, about half of the rows feasible
    and the rest violating their inequality by 1e-9 to 2."""
    conflict = rng.normal(size=m)
    ineq = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(1e-9, 2.0, m))
    return batch(conflict, ineq=ineq)


def replaces(kind, inc, cand, rng=None, prob=0.9, tol=Tolerances()):
    """Replacement mask of technique ``kind``: memories ``inc``, candidates ``cand``."""
    cht = ChtConfig(kind, prob=prob)

    def keys(ev):
        return sort_keys(cht, ev, ev.feasible(tol))

    return replacement_mask(cht, cand, keys(cand), inc, keys(inc), [rng])


class FixedRng:
    """Generator stand-in that fills every uniform draw with a constant."""

    def __init__(self, value: float):
        self.value = value

    def random(self, out):
        out.fill(self.value)
        return out


@pytest.fixture
def toy1():
    return make_toy1()


@pytest.fixture
def toy_eq():
    return make_toy_eq()
