"""Shared fixtures: small analytic problems with known geometry, and
synthetic evaluated rows."""

import dataclasses
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

from cpso.handlers import ChtConfig, repair_moves, replacement_mask, sort_keys
from cpso.problem import BatchEval, Problem, Tolerances, _raw_batch
from cpso.swarm import Swarm, initial_positions

Vectorized = Callable[[np.ndarray], np.ndarray]


def from_functions(
    name: str,
    lower: np.ndarray,
    upper: np.ndarray,
    objective: Vectorized,
    inequalities: tuple = (),
    equalities: tuple = (),
    **kwargs,
) -> Problem:
    """A problem whose functions are separate vectorized callables,
    ``(m, n) -> (m,)``, joined into one term kernel that calls each
    of them once per batch."""
    functions = (objective, *inequalities, *equalities)

    def terms(x, first):
        raw = np.empty((len(functions) - first, len(x)))
        for k, f in enumerate(functions[first:]):
            raw[k] = f(x)
        return raw

    return Problem(name, lower, upper, terms, len(inequalities), len(equalities), **kwargs)


def make_toy1() -> Problem:
    """Minimize x1 + x2 subject to x1 + x2 <= 1 on the box [-2, 2]^2.

    The feasible region covers exactly 71.875% of the box area.
    """
    return from_functions(
        name="toy1",
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
        objective=lambda x: x[:, 0] + x[:, 1],
        inequalities=(lambda x: x[:, 0] + x[:, 1] - 1.0,),
    )


def make_toy_eq() -> Problem:
    """Minimize x1 + x2 subject to x1 - x2 = 0 on the box [-2, 2]^2."""
    return from_functions(
        name="toy-eq",
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
        objective=lambda x: x[:, 0] + x[:, 1],
        equalities=(lambda x: x[:, 0] - x[:, 1],),
    )


def make_halfline(limit: float = 0.0, lower: float = -100.0, upper: float = 100.0):
    """1-D problem: minimize x subject to x <= limit."""
    return from_functions(
        name="halfline",
        lower=np.array([lower]),
        upper=np.array([upper]),
        objective=lambda x: x[:, 0],
        inequalities=(lambda x, c=limit: x[:, 0] - c,),
    )


def with_term(problem: Problem, k: int, f) -> Problem:
    """``problem`` with its term ``k`` (0 the objective, 1.. the
    inequalities, then the equalities) computed by ``f``, wherever the
    kernel is asked for that term."""

    def terms(x, first):
        out = problem.terms(x, first)
        if k >= first:
            out[k - first] = f(x)
        return out

    return dataclasses.replace(problem, terms=terms)


def start_swarm(problem, config, cht, max_attempts_per_particle=1_000_000) -> Swarm:
    """A one-run swarm of ``config``, built as the harness builds a group."""
    rng, positions, rejected = initial_positions(
        problem, config, cht, max_attempts_per_particle
    )
    return Swarm(problem, config, cht, [rng], positions, [rejected])


def repair_rows(x_old, v, problem, tolerances, variant, rng, max_trials):
    """Repair one run's moves ``x_old + v``, whose full steps must all be
    infeasible, in place as a swarm step hands them to ``repair_moves``.

    Returns what the repair wrote and returned: every move's
    ``positions`` and ``velocities``, ``accepted`` and
    ``trials_charged``, and the accepted moves' ``raw`` columns and
    ``box`` rows.
    """
    x_old = np.array(x_old, dtype=float)
    v_new = np.array(v, dtype=float)
    x_new, raw, box, feasible = _raw_batch(problem, problem._snap(x_old + v_new), tolerances)
    assert not feasible.any()
    rows = np.arange(len(x_old))
    accepted, charged = repair_moves(
        rows, x_old, x_new, v_new, raw, box, problem, tolerances, variant,
        [rng], np.zeros(len(rows), dtype=np.intp), max_trials,
    )
    return SimpleNamespace(
        positions=x_new, velocities=v_new, accepted=accepted,
        trials_charged=charged, raw=raw[:, accepted], box=box[accepted],
    )


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
