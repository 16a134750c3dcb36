"""Constraint-handling strategies: comparisons, penalties and move repair.

Nine techniques are supported, selected by name:

========  ==========================================================
name      behaviour
========  ==========================================================
pf        feasible-only memories, feasible initial swarm required
pfpr      priority rules (feasible first, then conflict, then cv)
pfppr     priority rules applied with probability ``prob`` when an
          infeasible point is involved; conflict-only otherwise
pfpr+rec  pfpr with a time-decreasing equality tolerance
pfppr+rec pfppr with a time-decreasing equality tolerance
apm       additive penalty added to the conflict of infeasible points
bm        infeasible moves retried with the velocity halved each trial
bmem      retrial factors alternate 0.9, 1.1, 0.8, 1.2, ... down to
          0.1, 1.9 and finally 0.0 (keep position)
bmpem     retrial factors drawn uniformly from [0, 1.5)
========  ==========================================================

The probabilistic rule of ``pfppr`` applies only to personal-best
memory updates; neighbourhood-best lookups always use the plain rules.

Each rule has one implementation, which the swarm engine calls on all
particles at once: :func:`sort_keys` (how a technique ranks points:
:func:`priority_keys`, the priority comparison as sort keys, or
:func:`penalized_batch`, the ``apm`` penalty),
:meth:`ChtConfig.tolerances_at` (the tolerances in force at each step),
:func:`replacement_mask` (every technique's memory update) and
:func:`repair_moves` (the repair ladders, each batch's trials built as
one ``(k, T, n)`` block, taken in move-major order to their raw terms
and masked there by the tolerance rule; each accepted trial is written
into its move's rows of the step, to be finished with the other rows).

The rows they take belong to one or more runs, run after run, and
``rngs`` holds one generator per run.  Every random block, a one-run
block included, is drawn run by run into place, each run's rows from its
own generator, in run order (:func:`draw_per_run`): each run sees
exactly the draws it would see alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .problem import (
    BatchEval,
    Problem,
    RecSchedule,
    Tolerances,
    _raw_batch,
    _within,
)

KINDS = (
    "pf",
    "pfpr",
    "pfppr",
    "pfpr+rec",
    "pfppr+rec",
    "apm",
    "bm",
    "bmem",
    "bmpem",
)

_REPAIR_KINDS = ("bm", "bmem", "bmpem")
_DEFAULT_TRIALS = {"bm": 20, "bmem": 19, "bmpem": 19}

# apm charges ``_PENALTY_K * sum(violation ** _PENALTY_ALPHA)``.
_PENALTY_K = 1e6
_PENALTY_ALPHA = 2.0


@dataclass(frozen=True)
class ChtConfig:
    """Which technique to run, plus its tunables."""

    kind: str
    prob: float = 0.9
    rec: Optional[RecSchedule] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown CHT {self.kind!r}; valid names: {', '.join(KINDS)}"
            )
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError("prob must be in [0, 1]")

    @property
    def max_repair_trials(self) -> int:
        """Repair trials per infeasible move; 0 for non-repair techniques."""
        return _DEFAULT_TRIALS.get(self.kind, 0)

    @property
    def requires_feasible_init(self) -> bool:
        return self.kind in ("pf", "bm", "bmem", "bmpem")

    @property
    def is_repair(self) -> bool:
        return self.kind in _REPAIR_KINDS

    @property
    def uses_rec(self) -> bool:
        return self.kind.endswith("+rec")

    @property
    def uses_penalty(self) -> bool:
        return self.kind == "apm"

    @property
    def probabilistic_memory(self) -> bool:
        return self.kind in ("pfppr", "pfppr+rec")

    def tolerances_at(self, base: Tolerances, t: int, steps: int) -> Tolerances:
        """The tolerances in force at step ``t`` (1-based) of ``steps``.

        ``base`` holds throughout, except that a ``+rec`` technique's
        schedule sets the equality tolerance.
        """
        if not self.uses_rec:
            return base
        if self.rec is None:
            raise ValueError("REC technique configured without a schedule")
        return Tolerances(ineq=base.ineq, eq=self.rec.tolerance_at(t, steps))


def draw_per_run(
    rngs: Sequence[np.random.Generator], counts: Sequence[int], out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with uniforms, one block of rows per run; returns ``out``.

    Run ``r`` owns the next ``counts[r]`` rows of ``out``, in run order,
    and fills them with ``rngs[r].random``: the values and the generator
    state are those of ``rngs[r].random((counts[r], *out.shape[1:]))``.
    The counts must cover the rows of ``out`` exactly.
    """
    a = 0
    for g, c in zip(rngs, counts, strict=True):
        g.random(out=out[a : a + c])
        a += c
    if a != len(out):
        raise ValueError(f"run counts cover {a} rows, not {len(out)}")
    return out


def priority_keys(ev: BatchEval, feasible: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort keys ``(primary, secondary)`` of the priority rules.

    ``feasible`` is the rows' feasibility mask.  The primary key is 1.0
    for an infeasible row and 0.0 otherwise; the secondary key is the
    conflict of a feasible row and the cv of an infeasible one.  So
    feasible beats infeasible, then lower conflict (both feasible) or
    lower cv (both infeasible) wins, compared lexicographically.
    """
    return (~feasible).astype(float), np.where(feasible, ev.conflict, ev.cv)


def penalized_batch(ev: BatchEval) -> np.ndarray:
    """Conflict plus ``1e6 * sum(violation ** 2)`` over every term."""
    v = np.concatenate(
        (ev.ineq_violations, ev.eq_violations, ev.box_violations), axis=1
    )
    return ev.conflict + _PENALTY_K * (v**_PENALTY_ALPHA).sum(axis=1)


def sort_keys(
    cht: ChtConfig, ev: BatchEval, feasible: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows' lexicographic sort keys ``(primary, secondary)`` under ``cht``.

    ``apm`` ranks by penalized conflict alone (zeros, then
    :func:`penalized_batch`) and ignores ``feasible``, which may be
    None; every other technique ranks by :func:`priority_keys` under the
    mask ``feasible``.
    """
    if cht.uses_penalty:
        return np.zeros(len(ev)), penalized_batch(ev)
    return priority_keys(ev, feasible)


def replacement_mask(
    cht: ChtConfig,
    cand: BatchEval,
    cand_keys: Tuple[np.ndarray, np.ndarray],
    inc: BatchEval,
    inc_keys: Tuple[np.ndarray, np.ndarray],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Which memories ``inc`` the candidates ``cand`` replace, row by row.

    ``cand_keys`` and ``inc_keys`` are the candidates' and the memories'
    :func:`sort_keys`; the repair techniques compare conflicts alone and
    do not read them.  Ties keep the memory.

    - ``pf``: a feasible candidate (primary key 0) with lower conflict
      replaces.
    - ``bm``/``bmem``/``bmpem``: lower conflict replaces.
    - ``apm`` and the priority techniques: the candidate replaces when
      its keys are lower (for ``apm`` both primary keys are zero, so
      lower penalized conflict replaces).  The probabilistic ones draw
      one uniform for every row where an infeasible point is involved,
      in ascending row order, each run's from its own generator (the
      rows are run-major, the same number per run; see
      :func:`draw_per_run`); at or above ``cht.prob`` that row falls
      back to lower conflict.
    """
    lower_conflict = cand.conflict < inc.conflict
    if cht.is_repair:
        return lower_conflict
    cand_primary, cand_secondary = cand_keys
    if cht.kind == "pf":
        return (cand_primary == 0.0) & lower_conflict
    inc_primary, inc_secondary = inc_keys
    replace = (cand_primary < inc_primary) | (
        (cand_primary == inc_primary) & (cand_secondary < inc_secondary)
    )
    if cht.probabilistic_memory:
        draw = (cand_primary + inc_primary) > 0.0
        # Python ints: NumPy scalars slow draw_per_run's slicing.
        counts = draw.reshape(len(rngs), -1).sum(axis=1).tolist()
        u = draw_per_run(rngs, counts, np.empty(sum(counts)))
        override = np.zeros(len(cand), dtype=bool)
        override[draw] = u >= cht.prob
        replace = np.where(override, lower_conflict, replace)
    return replace


# bmem trial ladders.  The full ladder alternates down- and up-scalings
# and ends with 0.0 (keep the position).  The down-only ladder serves a
# full step that breaks nothing but the box, since only scaling down is
# allowed against interval constraints; it ends with 0.0 after 0.1 and is
# padded with zeros to the same width.
_BMEM_DOWNS = np.round(np.arange(0.9, 0.05, -0.1), 10)
_BMEM_UPS = np.round(np.arange(1.1, 1.95, 0.1), 10)
_BMEM_LADDER = np.append(np.column_stack((_BMEM_DOWNS, _BMEM_UPS)).ravel(), 0.0)
_BMEM_DOWN_LADDER = np.append(_BMEM_DOWNS, np.zeros(_BMEM_UPS.size + 1))


@functools.lru_cache(maxsize=None)
def _bm_factors(k: int, max_trials: int) -> np.ndarray:
    """``bm``'s halvings 0.5, 0.25, ... for k moves of ``max_trials``
    trials, a read-only broadcast; one per shape in use, built on first use."""
    return np.broadcast_to(0.5 ** np.arange(1, max_trials + 1), (k, max_trials))


def _repair_factors(
    variant: str,
    problem: Problem,
    raw: np.ndarray,
    rows: np.ndarray,
    tolerances: Tolerances,
    rngs: Sequence[np.random.Generator],
    runs: np.ndarray,
    max_trials: int,
) -> np.ndarray:
    """``(k, T)`` trial factors, one row per move, in trial order; T <= max_trials."""
    k = len(rows)
    if variant == "bm":
        return _bm_factors(k, max_trials)
    if variant == "bmem":
        # Every constraint of the full step, but not the box, within tolerance.
        full = raw[1:, rows]
        q = problem.n_inequalities
        box_only = np.logical_and.reduce(_within(tolerances, full[:q], full[q:]), axis=0)
        ladders = np.where(box_only[:, None], _BMEM_DOWN_LADDER, _BMEM_LADDER)
        return ladders[:, :max_trials]
    # Generator.uniform(0.0, 1.5) bit for bit: it computes 0.0 + 1.5 * u.
    # Python ints: NumPy scalars slow draw_per_run's slicing.
    counts = np.bincount(runs, minlength=len(rngs)).tolist()
    return 1.5 * draw_per_run(rngs, counts, np.empty((k, max_trials)))


def repair_moves(
    rows: np.ndarray,
    x_old: np.ndarray,
    x_new: np.ndarray,
    v_new: np.ndarray,
    raw: np.ndarray,
    box: np.ndarray,
    problem: Problem,
    tolerances: Tolerances,
    variant: str,
    rngs: Sequence[np.random.Generator],
    runs: np.ndarray,
    max_trials: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Repair in place the k moves at the ascending step rows ``rows``,
    whose full steps are all infeasible; returns ``(accepted, charged)``.

    The step's arrays are its old positions ``x_old``, its full steps
    ``x_new`` (``x_old + v_new``, snapped), their raw terms ``raw`` and box excess
    ``box`` (:func:`~cpso.problem._raw_batch`).  Move ``i`` belongs to
    run ``runs[i]`` of ``rngs``, run after run, whose generator draws
    its rows (:func:`draw_per_run`).  Trial factors scale the ORIGINAL
    velocity: halvings for ``bm``, the alternating 0.9/1.1 ladder for
    ``bmem`` (down-scalings only for a move whose full step violates box
    bounds alone), and for ``bmpem`` fresh uniform [0, 1.5) factors
    ``1.5 * u``, drawn as one ``(k, max_trials >= 1)`` block whose rows
    are the moves in order.  The first feasible trial wins: its position,
    scaled velocity, raw-term column and box row overwrite the move's
    rows of ``x_new``, ``v_new``, ``raw`` and ``box``.  A 0.0 factor or
    exhaustion keeps the old position: the move's rows of ``x_new`` and
    ``v_new`` take ``x_old``'s and a zero velocity.  No other row is written.

    The trials form one ``(k, T, n)`` block ``x_old + factor * v``.  Those
    before each move's first 0.0 factor are evaluated in one batch, in
    move-major order, but each move is charged its trials in order, up
    to the accepted one, the 0.0 factor or the end of the ladder.  The
    batch stops at its raw terms (objective included, with the faults
    of :func:`~cpso.problem.evaluate_batch` at its rows) and its box
    excess, which the tolerance rule tests; ``_finish`` of an accepted
    move's rows is ``evaluate_batch`` of its trial, bit for bit.
    """
    if variant not in _REPAIR_KINDS:
        raise ValueError(f"not a repair technique: {variant!r}")
    if max_trials < 1:
        raise ValueError(f"max_trials must be >= 1, got {max_trials}")
    v = v_new[rows]
    factors = _repair_factors(variant, problem, raw, rows, tolerances, rngs, runs, max_trials)
    # x_old + factor * v, bit for bit: IEEE addition commutes.
    block = factors[..., None] * v[:, None]
    block += x_old[rows][:, None]
    # Only trials before a move's first 0.0 are live.  All live (bm, and
    # bmpem unless it draws a 0.0), the block is tested as it lies: the
    # masked gather and scatter cost 7-11% of repair_moves' time there.
    stop = factors == 0.0
    if stop.any():
        live = ~np.logical_or.accumulate(stop, axis=1)
        x = problem._snap(block[live])
        tried = live.sum(axis=1)
        starts = np.cumsum(tried) - tried
    else:
        live = None
        x = problem._snap(block.reshape(-1, v.shape[1]))
        tried = factors.shape[1]
        starts = np.arange(0, len(x), tried)
    del block
    x, trial_raw, trial_box, feasible = _raw_batch(problem, x, tolerances)
    if live is None:
        ok = feasible.reshape(factors.shape)
    else:
        ok = np.zeros(factors.shape, dtype=bool)
        ok[live] = feasible
    first = ok.argmax(axis=1)
    accepted = ok.any(axis=1)
    # Row of the batch holding each accepted move's first feasible trial.
    at = (starts + first)[accepted]
    won = rows[accepted]
    x_new[won] = x[at]
    raw[:, won] = trial_raw[:, at]
    box[won] = trial_box[at]
    v_new[won] = factors[accepted, first[accepted]][:, None] * v[accepted]
    charged = first + 1
    if not accepted.all():
        kept = rows[~accepted]
        x_new[kept] = x_old[kept]
        v_new[kept] = 0.0
        charged = np.where(accepted, charged, tried)
    return accepted, charged
