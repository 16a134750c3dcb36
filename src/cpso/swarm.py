"""Particle swarm state machine with pluggable topologies and strategies.

The swarm advances synchronously: every neighbourhood-best lookup in
step ``t`` reads memories as they stood at the end of step ``t - 1``, so
the processing order of particles within a step is immaterial.  A step
applies the technique's rules from :mod:`cpso.handlers` to all particles
at once, and :func:`lbest_index` picks every neighbourhood best.

Randomness contract (per step, one generator per run):

1. One ``rng.random((size, dimension, 2))`` block, consumed in C order:
   particle-major, then dimension, with the individuality draw before
   the sociality draw in each dimension.
2. For the probabilistic-memory techniques, one ``rng.random(k)`` block
   for the k particles whose memory comparison involves an infeasible
   point: one uniform per such particle, in ascending index order.  It
   holds the same values as k scalar draws taken particle by particle.
3. For repair with random factors, one ``(k, max_repair_trials)``
   uniform block for the k particles needing repair: one row per such
   particle, in ascending index order.  It holds the same values as k
   per-particle blocks of ``max_repair_trials`` uniforms.

Initialization draws one ``(size, dimension)`` uniform block, or, when
the technique needs a feasible start, one stream of uniform candidates
consumed in chunks of 256 rows per particle: each particle keeps the
first feasible candidate of its chunks, and the next particle starts at
the following chunk.  The stream is drawn and evaluated in blocks of up
to 16 chunks, but the generator is left where drawing it one chunk at a
time leaves it: consecutive uniform blocks hold the same values as one
block of their total size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .handlers import (
    ChtConfig,
    penalized_batch,
    priority_keys,
    repair_moves,
    replacement_mask,
)
from .problem import (
    BatchEval,
    EvaluatedPoint,
    EvaluationFault,
    Problem,
    Tolerances,
    evaluate_batch,
)

_INIT_CHUNK = 256
# Largest feasible-initialization block, in chunks.  Each evaluate_batch
# call has a fixed cost that a bigger block spreads over more rows, but
# a block's temporaries add to peak memory: a 64-chunk cap ran the
# perfbench table-30run workload ~1% faster at 4.2% more peak RSS.
_INIT_BLOCK_CHUNKS = 16


class InitializationFailure(RuntimeError):
    """A particle could not be seeded feasibly within the attempt budget."""


@dataclass(frozen=True)
class CoefficientSet:
    """Inertia ``w``, individuality ``iw`` and sociality ``sw`` weights."""

    w: float
    iw: float
    sw: float


COEFFICIENT_PRESETS = (
    CoefficientSet(0.5, 2.0, 2.0),
    CoefficientSet(0.7298, 1.49609, 1.49609),
    CoefficientSet(0.7, 2.0, 2.0),
)


def assign_coefficients(particle_index: int, swarm_size: int) -> CoefficientSet:
    """Coefficient preset by contiguous index thirds.

    The first third of indices gets the first preset and so on; when the
    size is not divisible by three the remainder joins the last third.
    """
    if not 0 <= particle_index < swarm_size:
        raise ValueError("particle index out of range")
    third = swarm_size // 3
    if particle_index < third:
        return COEFFICIENT_PRESETS[0]
    if particle_index < 2 * third:
        return COEFFICIENT_PRESETS[1]
    return COEFFICIENT_PRESETS[2]


@dataclass(frozen=True)
class Topology:
    """Neighbourhood structure over particle indices.

    kinds: ``ring`` (cyclic window of ``window`` indices centred on each
    particle, the extra neighbour on the successor side when the window
    is even), ``fully-connected``, and ``wheel`` (the hub sees everyone,
    spokes see themselves and the hub).
    """

    kind: str
    swarm_size: int
    window: int = 3
    hub: int = 0

    def __post_init__(self):
        if self.kind not in ("ring", "fully-connected", "wheel"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be positive")
        if self.kind == "ring":
            if not 3 <= self.window <= self.swarm_size:
                raise ValueError("ring window must be in [3, swarm_size]")
        if self.kind == "wheel" and not 0 <= self.hub < self.swarm_size:
            raise ValueError("wheel hub out of range")

    @classmethod
    def from_nn(cls, nn: int, swarm_size: int) -> "Topology":
        """Topology for ``nn`` neighbours per particle excluding itself."""
        if nn < 2:
            raise ValueError("nn must be >= 2")
        if nn >= swarm_size - 1:
            return cls("fully-connected", swarm_size)
        return cls("ring", swarm_size, window=nn + 1)

    def neighbor_matrix(self) -> np.ndarray:
        """Boolean ``(s, s)`` matrix; row i marks {i} and its neighbours."""
        s = self.swarm_size
        out = np.zeros((s, s), dtype=bool)
        if self.kind == "fully-connected":
            out[:] = True
        elif self.kind == "wheel":
            np.fill_diagonal(out, True)
            out[self.hub, :] = True
            out[:, self.hub] = True
        else:
            others = self.window - 1
            left = others // 2
            right = others - left
            idx = np.arange(s)
            for off in range(-left, right + 1):
                out[idx, (idx + off) % s] = True
        return out


@dataclass(frozen=True)
class SwarmConfig:
    size: int
    steps: int
    topology: Topology
    seed: object  # int or anything np.random.default_rng accepts
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        # Three sub-swarms must each be nonempty.
        if self.size < 3:
            raise ValueError("swarm size must be >= 3")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.topology.swarm_size != self.size:
            raise ValueError("topology size must match swarm size")


def lbest_index(
    neighbors: np.ndarray, primary: np.ndarray, secondary: np.ndarray
) -> np.ndarray:
    """Neighbourhood-best index for every row of ``neighbors``.

    Row ``i`` of the boolean ``(s, s)`` matrix marks the candidates of
    particle ``i``.  The winner has the smallest ``primary`` key, then
    the smallest ``secondary`` key, then the lowest index.  Keys may be
    infinite but not NaN.
    """
    p = np.where(neighbors, primary, np.inf)
    best = neighbors & (p == p.min(axis=1, keepdims=True))
    q = np.where(best, secondary, np.inf)
    best &= q == q.min(axis=1, keepdims=True)
    return best.argmax(axis=1)


class Swarm:
    """Mutable swarm state: positions, velocities, memories, counters.

    Build with :func:`init_swarm`.  ``evaluations`` counts every
    objective evaluation charged to the run, including initialization
    rejections and repair trials; ``repair_evaluations`` and
    ``init_evaluations`` break those out.
    """

    def __init__(
        self,
        problem: Problem,
        config: SwarmConfig,
        cht: ChtConfig,
        rng: np.random.Generator,
        positions: np.ndarray,
        init_evaluations: int,
    ):
        self.problem = problem
        self.config = config
        self.cht = cht
        self.rng = rng
        self.t = 0
        s = config.size
        self.positions = positions
        self.velocities = np.zeros_like(positions)
        coeffs = [assign_coefficients(i, s) for i in range(s)]
        self.w = np.array([c.w for c in coeffs])
        self.iw = np.array([c.iw for c in coeffs])
        self.sw = np.array([c.sw for c in coeffs])
        self.neighbors = config.topology.neighbor_matrix()
        self.current = evaluate_batch(problem, positions)
        self.init_evaluations = init_evaluations + s
        self.repair_evaluations = 0
        self.evaluations = self.init_evaluations
        self.pbest = self.current.copy()
        self.tolerances = self._tolerances_at(1 if cht.uses_rec else 0)

    # -- tolerance schedule -------------------------------------------------

    def _tolerances_at(self, t: int) -> Tolerances:
        base = self.config.tolerances
        if not self.cht.uses_rec or t < 1:
            return base
        eq = self.cht.rec.tolerance_at(t, self.config.steps)
        return Tolerances(ineq=base.ineq, eq=eq)

    # -- comparator keys ----------------------------------------------------

    def _keys(self, ev: BatchEval, tol: Tolerances) -> Tuple[np.ndarray, np.ndarray]:
        """Lexicographic sort keys (primary, secondary) for the technique.

        Penalty search orders by penalized conflict alone; every other
        technique orders by (infeasible flag, conflict-or-cv).
        """
        if self.cht.uses_penalty:
            return np.zeros(len(ev)), penalized_batch(ev)
        return priority_keys(ev, ev.feasible(tol))

    # -- stepping -----------------------------------------------------------

    def step(self) -> None:
        """Advance one synchronous step."""
        t = self.t + 1
        tol = self._tolerances_at(t)
        self.tolerances = tol

        # The memories do not change before the memory update, so their
        # keys serve both the lbest lookup and the incumbents' side there.
        keys = self._keys(self.pbest, tol)
        lbest = self.pbest.positions[lbest_index(self.neighbors, *keys)]
        s, n = self.positions.shape
        u = self.rng.random((s, n, 2))
        v_new = (
            self.w[:, None] * self.velocities
            + self.iw[:, None] * u[:, :, 0] * (self.pbest.positions - self.positions)
            + self.sw[:, None] * u[:, :, 1] * (lbest - self.positions)
        )
        vmax = self.problem.vmax
        np.clip(v_new, -vmax, vmax, out=v_new)

        x_new = self.problem.snap_to_grid(self.positions + v_new)
        new_eval = evaluate_batch(self.problem, x_new)
        self.evaluations += s
        feasible = None if self.cht.uses_penalty else new_eval.feasible(tol)

        if self.cht.is_repair:
            self._repair(x_new, v_new, new_eval, feasible, tol)
        self.positions = x_new
        self.velocities = v_new
        self.current = new_eval

        replace = replacement_mask(
            self.cht, new_eval, feasible, self.pbest, keys, self.rng
        )
        self.pbest.assign(replace, new_eval.take(replace))
        self.t = t

    def _repair(self, x_new, v_new, new_eval, feasible, tol) -> None:
        """Repair every infeasible move in place, all in one batch."""
        bad = np.flatnonzero(~feasible)
        if bad.size == 0:
            return
        rep = repair_moves(
            self.positions[bad],
            v_new[bad],
            new_eval.take(bad),
            self.problem,
            tol,
            self.cht.kind,
            self.rng,
            self.cht.max_repair_trials,
        )
        charged = int(rep.trials_charged.sum())  # full steps are already charged
        self.repair_evaluations += charged
        self.evaluations += charged
        x_new[bad] = rep.positions
        v_new[bad] = rep.velocities
        # A kept position keeps its evaluation.
        new_eval.assign(bad, self.current.take(bad))
        new_eval.assign(bad[rep.accepted], rep.evaluation)

    # -- results ------------------------------------------------------------

    def best(self) -> Tuple[int, EvaluatedPoint]:
        """Best memory under the technique's plain comparator.

        Returns ``(particle_index, point)``; ties keep the lowest index.
        """
        everyone = np.ones((1, self.config.size), dtype=bool)
        i = int(lbest_index(everyone, *self._keys(self.pbest, self.tolerances))[0])
        return i, self.pbest.point(i, self.tolerances)


def init_swarm(
    problem: Problem,
    config: SwarmConfig,
    cht: ChtConfig,
    max_attempts_per_particle: int = 1_000_000,
) -> Swarm:
    """Build a swarm: uniform positions, zero velocities, memories seeded.

    When the technique requires a feasible start, each particle takes
    the first candidate feasible under the tolerances in force at step 1
    (the relaxed equality tolerance when that schedule is active).  The
    candidates form one uniform stream, read in chunks of 256 rows per
    particle; a particle's search starts at the chunk boundary after the
    chunk where the previous particle found its position, and a chunk
    cut short by the attempt budget ends it.  The attempt count is the
    number of candidates read up to and including the accepted one;
    exceeding the budget raises :class:`InitializationFailure`.  The
    stream is drawn and evaluated in blocks of many chunks, and the
    generator is left exactly where drawing one chunk at a time leaves
    it.
    """
    rng = np.random.default_rng(config.seed)
    s = config.size
    tol0 = config.tolerances
    if cht.uses_rec:
        if cht.rec is None:
            raise ValueError("REC technique configured without a schedule")
        tol0 = Tolerances(
            ineq=tol0.ineq, eq=cht.rec.tolerance_at(1, config.steps)
        )

    if not cht.requires_feasible_init:
        positions = problem.sample_uniform(rng, s)
        return Swarm(problem, config, cht, rng, positions, init_evaluations=0)

    positions, extra = _feasible_positions(
        problem, rng, s, max_attempts_per_particle, tol0
    )
    return Swarm(problem, config, cht, rng, positions, init_evaluations=extra)


def _feasible_positions(
    problem: Problem,
    rng: np.random.Generator,
    size: int,
    budget: int,
    tol: Tolerances,
) -> Tuple[np.ndarray, int]:
    """Walk the particles through the candidate stream (see :func:`init_swarm`).

    Returns the positions and the rejected candidates, which cost one
    evaluation each; the accepted ones are charged by the swarm's
    initial batch evaluation.  ``rows`` buffers drawn candidates, with
    ``rows[c]`` the start of the current particle's next chunk and
    ``start`` the stream index of ``rows[0]``; a block of whole chunks
    is appended whenever the next chunk runs past its end.  A block
    evaluates rows that no chunk may read, so once a block's evaluation
    faults, chunks are evaluated one at a time as they are read: a fault
    is raised only from a chunk that is read, with its in-chunk index.
    """
    n = problem.dimension
    positions = np.empty((size, n))
    rows, feas = np.empty((0, n)), np.empty(0, dtype=bool)
    by_chunk = False
    start = c = 0
    state, block_at = rng.bit_generator.state, 0
    chunks, seeded = 0, True
    extra = 0
    i, left = 0, budget
    while i < size and left > 0:
        m = min(_INIT_CHUNK, left)
        if c + m > len(rows):
            # One chunk per particle still to seed (none reads less but
            # for a budget below a chunk), doubled after a block that
            # seeded nobody; never more rows than the particles could
            # still read.
            chunks = min(_INIT_BLOCK_CHUNKS, size - i if seeded else 2 * chunks)
            seeded = False
            tail = len(rows) - c
            count = min(chunks * _INIT_CHUNK, left + (size - i - 1) * budget - tail)
            state, block_at = rng.bit_generator.state, start + len(rows)
            block = problem.sample_uniform(rng, count)
            start += c
            rows = np.concatenate((rows[c:], block))
            if not by_chunk:
                try:
                    fresh = evaluate_batch(problem, block).feasible(tol)
                    feas = np.concatenate((feas[c:], fresh))
                except EvaluationFault:
                    by_chunk = True
            c = 0
            continue
        if by_chunk:
            span = m
            f = evaluate_batch(problem, rows[c : c + m]).feasible(tol)
        else:
            # Every whole chunk of this particle that lies in the buffer.
            if c + left <= len(rows):
                span = left
            else:
                span = (len(rows) - c) // _INIT_CHUNK * _INIT_CHUNK
            f = feas[c : c + span]
        k = int(f.argmax())
        if not f[k]:
            c += span
            left -= span
            continue
        positions[i] = rows[c + k]
        extra += budget - left + k
        c += min((k // _INIT_CHUNK + 1) * _INIT_CHUNK, left)
        i, left, seeded = i + 1, budget, True

    # Redraw only what was read of the last block, so the generator ends
    # where drawing chunk by chunk leaves it.
    rng.bit_generator.state = state
    rng.random((start + c - block_at, n))
    if i < size:
        raise InitializationFailure(
            f"particle {i} found no feasible position in "
            f"{budget} attempts on {problem.name}"
        )
    return positions, extra
