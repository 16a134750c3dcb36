"""Particle swarm state machine with pluggable topologies and strategies.

The swarm advances synchronously: every neighbourhood-best lookup in
step ``t`` reads memories as they stood at the end of step ``t - 1``, so
the processing order of particles within a step is immaterial.  A step
applies the technique's rules from :mod:`cpso.handlers` to all particles
at once, and :func:`lbest_index` picks every neighbourhood best from the
topology's neighbour lists.

A :class:`Swarm` holds one or more independent runs of one cell, their
rows one run after another, and steps them in lockstep: one evaluation,
one lbest ranking over every run's lists (offset to the run's rows),
shared repair batches and one memory update serve every run.  A step
evaluates all rows in one call, so whoever forms the group bounds its
rows; the harness keeps them within ``MAX_BATCH_ROWS`` but for a single
run of more particles, whose steps evaluate all of them.
Runs share nothing but the step index, and so the tolerance in force.
Each run draws from its own generator, as below, so a run ends exactly
where it ends stepping alone, whichever runs step with it.

Randomness contract (per step, one generator per run; every block, a
one-run swarm's included, is drawn run by run into place, each run's
rows from its own generator, by :func:`cpso.handlers.draw_per_run`):

1. One ``rng.random((size, dimension, 2))`` block, consumed in C order:
   particle-major, then dimension, with the individuality draw before
   the sociality draw in each dimension.
2. For the probabilistic-memory techniques, one ``rng.random(k)`` block
   for the k particles whose memory comparison involves an infeasible
   point: one uniform per such particle, in ascending index order.  It
   holds the same values as k scalar draws taken particle by particle.
3. For repair with random factors, one ``(k, max_repair_trials)``
   uniform block ``u`` for the k particles needing repair: one row per
   such particle, in ascending index order, and the factors are
   ``1.5 * u``.  It holds the same values as k per-particle blocks of
   ``max_repair_trials`` uniforms, and ``1.5 * u`` the same bits as
   ``rng.uniform(0.0, 1.5, ...)``.

Initialization draws one ``(size, dimension)`` uniform block, or, when
the technique needs a feasible start, one stream of uniform candidates
consumed in chunks of 256 rows per particle: each particle keeps the
first feasible candidate of its chunks, and the next particle starts at
the following chunk.  The stream is drawn and tested in blocks of up
to 16 chunks, but the generator is left where drawing it one chunk at a
time leaves it: consecutive uniform blocks hold the same values as one
block of their total size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .handlers import (
    ChtConfig,
    draw_per_run,
    repair_moves,
    replacement_mask,
    sort_keys,
)
from .problem import (
    MAX_BATCH_ROWS,
    EvaluationFault,
    Problem,
    Tolerances,
    _rowwise,
    evaluate_batch,
    sampled_mask,
)

_INIT_CHUNK = 256
# Largest feasible-initialization block, in chunks.  Each sampled_mask
# call has a fixed cost that a bigger block spreads over more rows, but
# a block's temporaries add to peak memory: a 64-chunk cap ran the
# perfbench table-30run workload ~1% faster at 4.2% more peak RSS.
# Init blocks (up to 16 * 256 = 4,096 rows) are not bound by
# MAX_BATCH_ROWS: that cap bounds the rows of a lockstep group, which
# the harness forms with at most MAX_BATCH_ROWS rows in all, while an
# init block belongs to one run and this cap bounds it.
_INIT_BLOCK_CHUNKS = 16


class InitializationFailure(RuntimeError):
    """A particle could not be seeded feasibly within the attempt budget.

    ``evaluations`` counts the candidates read before giving up, the
    accepted ones of the particles already seeded included: each cost
    one evaluation.
    """

    def __init__(self, message: str, evaluations: int):
        super().__init__(message)
        self.evaluations = evaluations


# Inertia ``w``, individuality ``iw`` and sociality ``sw`` weights of
# the three presets, one row each.  Each run's particles take them by
# contiguous index thirds; when the size is not divisible by three the
# remainder joins the last third.
COEFFICIENT_PRESETS = np.array(
    [[0.5, 2.0, 2.0], [0.7298, 1.49609, 1.49609], [0.7, 2.0, 2.0]]
)
COEFFICIENT_PRESETS.flags.writeable = False


@dataclass(frozen=True)
class Topology:
    """Neighbourhood structure over particle indices.

    kinds: ``ring`` (cyclic window of ``window`` indices centred on each
    particle, the extra neighbour on the successor side when the window
    is even) and ``fully-connected`` (one neighbourhood, shared by every
    particle).
    """

    kind: str
    swarm_size: int
    window: int = 3

    def __post_init__(self):
        if self.kind not in ("ring", "fully-connected"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be positive")
        if self.kind == "ring":
            if not 3 <= self.window <= self.swarm_size:
                raise ValueError("ring window must be in [3, swarm_size]")

    @classmethod
    def from_nn(cls, nn: int, swarm_size: int) -> "Topology":
        """Topology for ``nn`` neighbours per particle excluding itself."""
        if nn < 2:
            raise ValueError("nn must be >= 2")
        if nn >= swarm_size - 1:
            return cls("fully-connected", swarm_size)
        return cls("ring", swarm_size, window=nn + 1)

    @functools.cached_property
    def neighbors(self) -> np.ndarray:
        """Integer index lists: ``(s, window)`` for a ring, whose row i
        holds {i} and its neighbours, and ``(1, s)`` for the one shared
        neighbourhood of a fully connected swarm.

        Built once and read-only: the runs of a cell share one topology,
        and so one list.
        """
        s = self.swarm_size
        if self.kind == "fully-connected":
            out = np.arange(s)[None]
        else:
            left = (self.window - 1) // 2
            out = (np.arange(s)[:, None] + np.arange(-left, self.window - left)) % s
        out.flags.writeable = False
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
    candidates: np.ndarray, primary: np.ndarray, secondary: np.ndarray
) -> np.ndarray:
    """The best row among each row of ``candidates``.

    ``candidates`` is an integer ``(k, w)`` array whose row ``i`` lists
    rows of the keys; entry ``i`` of the result is the one among them
    with the smallest ``primary`` key, then the smallest ``secondary``
    key, then the lowest index.  Keys may be infinite but not NaN.

    The rows are ranked once by a stable sort on the two keys, so equal
    keys rank by index; each list's winner is then its candidate of
    lowest rank.  The lists may name rows of several runs, so one sort
    serves every run.  A list in Fortran order is gathered column by
    column, and each row's minimum taken across w columns of k entries.
    """
    order = np.lexsort((secondary, primary))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return order[rank[candidates].min(axis=1)]


class Swarm:
    """Mutable state of the runs of one cell, stepped in lockstep.

    The constructor builds the runs of ``rngs``, one generator per run,
    from their initial ``positions`` and ``init_evaluations``, the
    evaluations each run spent before its initial positions (rejected
    candidates), as :func:`initial_positions` gives them, and evaluates
    every run's initial positions in one batch.  With ``s``
    particles per run, the rows of ``positions``, ``velocities``,
    ``current``, ``pbest``, the coefficients and the masks are
    run-major: run ``r`` owns rows ``r * s`` to ``(r + 1) * s - 1``, so
    a one-run swarm has ``(s, n)`` arrays.  Run ``r`` draws from
    ``rngs[r]`` only, in the order of the module's randomness contract,
    so a run steps exactly as it would alone.

    ``run_evaluations`` counts, per run, every objective evaluation
    charged to it: ``run_init_evaluations`` (initialization, rejections
    included), one per particle and step, and ``run_repair_evaluations``
    (repair trials).  ``evaluations``, ``init_evaluations`` and
    ``repair_evaluations`` are their totals over the runs.
    ``current_feasible`` is the feasibility mask of ``current`` under
    ``tolerances`` (None for ``apm``), and ``pbest_primary`` and
    ``pbest_secondary`` are the memories' :func:`~cpso.handlers.sort_keys`
    under them, all kept up to date by each step.
    """

    def __init__(
        self,
        problem: Problem,
        config: SwarmConfig,
        cht: ChtConfig,
        rngs: Sequence[np.random.Generator],
        positions: np.ndarray,
        init_evaluations: Sequence[int],
    ):
        self.problem = problem
        self.config = config
        self.cht = cht
        self.rngs = list(rngs)
        self.t = 0
        s = config.size
        if len(positions) != len(self.rngs) * s:
            raise ValueError("positions must hold one row per particle of each run")
        self.positions = positions
        self.velocities = np.zeros_like(positions)
        preset = np.minimum(np.arange(s) // (s // 3), 2)
        coefficients = COEFFICIENT_PRESETS.T[:, np.tile(preset, len(self.rngs))]
        # Each particle's coefficients, repeated along its row: the velocity
        # update's products run one long loop each, not one short loop per row.
        self.w_rows, self.iw_rows, self.sw_rows = np.repeat(
            coefficients[:, :, None], positions.shape[1], axis=2
        )
        # lbest_index's candidates: every run's neighbour lists, naming rows
        # of all runs, in the Fortran order it gathers fastest; and how many
        # particles share a list (a fully connected run has one).
        lists = config.topology.neighbors
        firsts = np.arange(0, len(positions), s)[:, None, None]
        self._lbest = (
            np.asfortranarray((firsts + lists).reshape(-1, lists.shape[1])),
            s // len(lists),
        )
        # Rows per run: the blocks of every draw over all rows.
        self._run_rows = [s] * len(self.rngs)
        self.current = evaluate_batch(problem, positions)
        self.run_init_evaluations = np.asarray(init_evaluations, dtype=np.int64) + s
        self.run_repair_evaluations = np.zeros(len(self.rngs), dtype=np.int64)
        self.pbest = self.current.copy()
        self.tolerances = cht.tolerances_at(config.tolerances, 1, config.steps)
        # The current positions' feasibility mask (None for apm, which
        # never reads it) and the memories' sort keys, carried from step
        # to step.  Only a +rec schedule moves the tolerance, and only
        # a step that moves it recomputes the memories' keys.
        self.current_feasible = (
            None if cht.uses_penalty else self.current.feasible(self.tolerances)
        )
        self.pbest_primary, self.pbest_secondary = sort_keys(
            cht, self.pbest, self.current_feasible
        )

    @property
    def runs(self) -> int:
        return len(self.rngs)

    @property
    def run_evaluations(self) -> np.ndarray:
        steps = self.t * self.config.size
        return self.run_init_evaluations + steps + self.run_repair_evaluations

    @property
    def evaluations(self) -> int:
        return int(self.run_evaluations.sum())

    @property
    def init_evaluations(self) -> int:
        return int(self.run_init_evaluations.sum())

    @property
    def repair_evaluations(self) -> int:
        return int(self.run_repair_evaluations.sum())

    # -- stepping -----------------------------------------------------------

    def step(self) -> None:
        """Advance every run one synchronous step."""
        t = self.t + 1
        tol = self.cht.tolerances_at(self.config.tolerances, t, self.config.steps)
        if tol != self.tolerances:
            self.tolerances = tol
            self.pbest_primary, self.pbest_secondary = sort_keys(
                self.cht, self.pbest, self.pbest.feasible(tol)
            )
        # The memories do not change before the memory update, so their
        # keys serve both the lbest lookup and the incumbents' side there.
        keys = self.pbest_primary, self.pbest_secondary
        candidates, share = self._lbest
        best = lbest_index(candidates, *keys)
        lbest = self.pbest.positions[best.repeat(share) if share > 1 else best]
        m, n = self.positions.shape
        u = draw_per_run(self.rngs, self._run_rows, np.empty((m, n, 2)))
        v_new = (
            self.w_rows * self.velocities
            + self.iw_rows * u[:, :, 0] * (self.pbest.positions - self.positions)
            + self.sw_rows * u[:, :, 1] * (lbest - self.positions)
        )
        # np.clip(v_new, -vmax, vmax), bit for bit.
        _rowwise(np.maximum, v_new, self.problem, "-vmax", v_new)
        _rowwise(np.minimum, v_new, self.problem, "vmax", v_new)

        x_new = self.problem._snap(self.positions + v_new)
        new_eval = evaluate_batch(self.problem, x_new)
        feasible = None if self.cht.uses_penalty else new_eval.feasible(tol)

        if self.cht.is_repair:
            self._repair(x_new, v_new, new_eval, feasible, tol)
        cand_keys = sort_keys(self.cht, new_eval, feasible)
        self.positions = x_new
        self.velocities = v_new
        self.current = new_eval
        self.current_feasible = feasible

        replace = replacement_mask(
            self.cht, new_eval, cand_keys, self.pbest, keys, self.rngs
        )
        self.pbest.assign(replace, new_eval)
        np.copyto(self.pbest_primary, cand_keys[0], where=replace)
        np.copyto(self.pbest_secondary, cand_keys[1], where=replace)
        self.t = t

    def _repair(self, x_new, v_new, new_eval, feasible, tol) -> None:
        """Repair every infeasible move of every run in place.

        ``new_eval`` and its mask ``feasible`` are updated to describe
        the repaired positions.  The moves are repaired in batches whose
        trials fit one evaluation of ``MAX_BATCH_ROWS`` rows; each run's
        draws come in order, so the batches give the same results as one.
        """
        infeasible = np.flatnonzero(~feasible)
        moves = MAX_BATCH_ROWS // self.cht.max_repair_trials
        for a in range(0, infeasible.size, moves):
            bad = infeasible[a : a + moves]
            bad_runs = bad // self.config.size
            rep = repair_moves(
                self.positions[bad],
                v_new[bad],
                new_eval.take(bad),
                self.problem,
                tol,
                self.cht.kind,
                self.rngs,
                np.bincount(bad_runs, minlength=self.runs).tolist(),
                self.cht.max_repair_trials,
            )
            # Full steps are charged by the step count.
            self.run_repair_evaluations += np.bincount(
                bad_runs, weights=rep.trials_charged, minlength=self.runs
            ).astype(np.int64)
            x_new[bad] = rep.positions
            v_new[bad] = rep.velocities
            # A kept position keeps its evaluation; an accepted trial is feasible.
            kept = bad[~rep.accepted]
            if kept.size:
                new_eval.assign(kept, self.current.take(kept))
            new_eval.assign(bad[rep.accepted], rep.evaluation)
            feasible[bad] = rep.accepted | self.current_feasible[bad]
            # Freed before the next batch evaluates its trials: held, it
            # raised the peak RSS of 30 lockstep welded-beam bm runs (the
            # perfbench table-30run workload) by 128 KiB.
            del rep

    # -- results ------------------------------------------------------------

    def best_rows(self) -> np.ndarray:
        """Each run's best memory under the technique's plain comparator.

        Returns one row index of ``pbest`` per run, in run order; ties
        keep the lowest index.
        """
        runs = np.arange(len(self.positions)).reshape(-1, self.config.size)
        return lbest_index(runs, self.pbest_primary, self.pbest_secondary)


def initial_positions(
    problem: Problem,
    config: SwarmConfig,
    cht: ChtConfig,
    max_attempts_per_particle: int = 1_000_000,
) -> Tuple[np.random.Generator, np.ndarray, int]:
    """A run's start: ``(rng, positions, rejected)``, uniform in the box.

    ``rng`` is the run's generator, seeded by ``config.seed`` and left
    where initialization leaves it, and ``rejected`` counts the
    candidates rejected before the accepted positions, one evaluation
    each; the :class:`Swarm` built from them charges the accepted ones.

    When the technique requires a feasible start, each particle takes
    the first candidate feasible under the tolerances in force at step 1
    (the relaxed equality tolerance when that schedule is active).  The
    candidates form one uniform stream, read in chunks of 256 rows per
    particle; a particle's search starts at the chunk boundary after the
    chunk where the previous particle found its position, and a chunk
    cut short by the attempt budget ends it.  The attempt count is the
    number of candidates read up to and including the accepted one;
    exceeding the budget raises :class:`InitializationFailure`, which
    carries the evaluations spent.  The
    stream is drawn and tested in blocks of many chunks, and the
    generator is left exactly where drawing one chunk at a time leaves
    it.

    Candidates are tested with :func:`~cpso.problem.sampled_mask`, and
    each one read costs one evaluation.  The objective is evaluated at
    the accepted positions only, by the :class:`Swarm` constructor, so a
    non-finite objective at a rejected candidate raises nothing.
    """
    tol = cht.tolerances_at(config.tolerances, 1, config.steps)
    rng = np.random.default_rng(config.seed)
    if not cht.requires_feasible_init:
        return rng, problem.sample_uniform(rng, config.size), 0
    positions, rejected = _feasible_positions(
        problem, rng, config.size, max_attempts_per_particle, tol
    )
    return rng, positions, rejected


def _feasible_positions(
    problem: Problem,
    rng: np.random.Generator,
    size: int,
    budget: int,
    tol: Tolerances,
) -> Tuple[np.ndarray, int]:
    """Walk the particles through the candidate stream (see :func:`initial_positions`).

    Returns the positions and the rejected candidates, which cost one
    evaluation each; the accepted ones are charged by the swarm's
    initial batch evaluation.  Candidates are tested with
    :func:`~cpso.problem.sampled_mask`: a block or a chunk of drawn
    rows, never other points.  ``rows`` buffers drawn candidates, with
    ``rows[c]`` the start of the current particle's next chunk and
    ``start`` the stream index of ``rows[0]``; a block of whole chunks
    is appended whenever the next chunk runs past its end.
    A block tests rows that no chunk may read, so once a block's test
    faults, chunks are tested one at a time as they are read: a fault
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
                    fresh = sampled_mask(problem, block, tol)
                    feas = np.concatenate((feas[c:], fresh))
                except EvaluationFault:
                    by_chunk = True
            c = 0
            continue
        if by_chunk:
            span = m
            f = sampled_mask(problem, rows[c : c + m], tol)
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
            f"{budget} attempts on {problem.name}",
            evaluations=extra + i + budget,
        )
    return positions, extra
