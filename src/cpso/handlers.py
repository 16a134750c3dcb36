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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .problem import (
    BatchEval,
    EvaluatedPoint,
    Problem,
    RecSchedule,
    Tolerances,
    evaluate_batch,
    is_feasible,
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


@dataclass(frozen=True)
class ChtConfig:
    """Which technique to run, plus its tunables."""

    kind: str
    prob: float = 0.9
    penalty_k: float = 1e6
    penalty_alpha: float = 2.0
    max_repair_trials: int = 0  # 0 = per-kind default
    rec: Optional[RecSchedule] = None
    unit_exponent_below_one: bool = False  # opt-in alpha switch for apm

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown CHT {self.kind!r}; valid: {', '.join(KINDS)}")
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError("prob must be in [0, 1]")
        if self.penalty_k <= 0 or self.penalty_alpha <= 0:
            raise ValueError("penalty coefficients must be positive")
        if self.max_repair_trials == 0 and self.kind in _REPAIR_KINDS:
            object.__setattr__(
                self, "max_repair_trials", _DEFAULT_TRIALS[self.kind]
            )

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

    def with_rec(self, rec: RecSchedule) -> "ChtConfig":
        return ChtConfig(
            kind=self.kind,
            prob=self.prob,
            penalty_k=self.penalty_k,
            penalty_alpha=self.penalty_alpha,
            max_repair_trials=self.max_repair_trials,
            rec=rec,
            unit_exponent_below_one=self.unit_exponent_below_one,
        )


@dataclass(frozen=True)
class ComparisonOutcome:
    winner: str  # "first" | "second"
    basis: str   # "conflict" | "feasibility" | "violation" | "probabilistic-override"


def compare_priority(
    a: EvaluatedPoint, b: EvaluatedPoint, tolerances: Tolerances
) -> ComparisonOutcome:
    """Feasible beats infeasible; otherwise lower conflict (both feasible)
    or lower cv (both infeasible).  Exact ties keep the incumbent ``a``."""
    fa, fb = is_feasible(a, tolerances), is_feasible(b, tolerances)
    if fa and not fb:
        return ComparisonOutcome("first", "feasibility")
    if fb and not fa:
        return ComparisonOutcome("second", "feasibility")
    if fa and fb:
        winner = "second" if b.conflict < a.conflict else "first"
        return ComparisonOutcome(winner, "conflict")
    winner = "second" if b.cv < a.cv else "first"
    return ComparisonOutcome(winner, "violation")


def compare_probabilistic(
    a: EvaluatedPoint,
    b: EvaluatedPoint,
    tolerances: Tolerances,
    rng: np.random.Generator,
    prob: float,
) -> ComparisonOutcome:
    """Priority rules with an escape hatch when infeasibility is involved.

    Both feasible: identical to :func:`compare_priority` (no draw).
    Otherwise one uniform draw decides: below ``prob`` the priority
    rules apply, above it the comparison falls back to raw conflict.
    """
    fa, fb = is_feasible(a, tolerances), is_feasible(b, tolerances)
    if fa and fb:
        return compare_priority(a, b, tolerances)
    if rng.random() < prob:
        return compare_priority(a, b, tolerances)
    winner = "second" if b.conflict < a.conflict else "first"
    return ComparisonOutcome(winner, "probabilistic-override")


def penalized_conflict(
    point: EvaluatedPoint,
    k: float = 1e6,
    alpha: float = 2.0,
    unit_exponent_below_one: bool = False,
) -> float:
    """Conflict plus ``k * sum(violation ** alpha)`` over every term.

    With ``unit_exponent_below_one``, violations below one are charged
    linearly instead of being weakened by the exponent.
    """
    v = np.concatenate(
        (point.ineq_violations, point.eq_violations, point.box_violations)
    )
    return point.conflict + _penalty_sum(v, k, alpha, unit_exponent_below_one)


def penalized_batch(
    ev: BatchEval,
    k: float,
    alpha: float,
    unit_exponent_below_one: bool = False,
) -> np.ndarray:
    v = np.concatenate(
        (ev.ineq_violations, ev.eq_violations, ev.box_violations), axis=1
    )
    return ev.conflict + _penalty_sum(v, k, alpha, unit_exponent_below_one, axis=1)


def _penalty_sum(v, k, alpha, unit_below_one, axis=None):
    powered = v**alpha
    if unit_below_one:
        powered = np.where(v < 1.0, v, powered)
    return k * powered.sum(axis=axis)


def reported_conflict(point: EvaluatedPoint, cht: ChtConfig) -> float:
    """Raw conflict for statistics; penalties steer the search only."""
    return point.conflict


# bmem trial ladders.  The full ladder alternates down- and up-scalings
# and ends with 0.0 (keep the position).  The down-only ladder serves a
# full step that breaks nothing but the box, since only scaling down is
# allowed against interval constraints; it ends with 0.0 after 0.1 and is
# padded with zeros to the same width.
_BMEM_DOWNS = np.round(np.arange(0.9, 0.05, -0.1), 10)
_BMEM_UPS = np.round(np.arange(1.1, 1.95, 0.1), 10)
_BMEM_LADDER = np.append(np.column_stack((_BMEM_DOWNS, _BMEM_UPS)).ravel(), 0.0)
_BMEM_DOWN_LADDER = np.append(_BMEM_DOWNS, np.zeros(_BMEM_UPS.size + 1))


@dataclass
class BatchRepair:
    """Outcome of repairing k infeasible moves; row ``r`` is move ``r``."""

    positions: np.ndarray       # (k, n) accepted trial, or the old position
    velocities: np.ndarray      # (k, n) scaled velocity, or zero when kept
    trials_charged: np.ndarray  # (k,) trial evaluations charged per move
    accepted: np.ndarray        # (k,) bool, False when the old position is kept
    evaluation: BatchEval       # one row per accepted move, in move order


def _repair_factors(
    variant: str,
    full: BatchEval,
    tolerances: Tolerances,
    rng: np.random.Generator,
    max_trials: int,
) -> np.ndarray:
    """``(k, T)`` trial factors, one row per move, in trial order."""
    k = len(full)
    if variant == "bm":
        return np.broadcast_to(0.5 ** np.arange(1, max_trials + 1), (k, max_trials))
    if variant == "bmem":
        box_only = np.all(full.ineq_violations <= tolerances.ineq, axis=1) & np.all(
            full.eq_violations <= tolerances.eq, axis=1
        )
        width = min(max_trials, _BMEM_LADDER.size)
        return np.where(
            box_only[:, None], _BMEM_DOWN_LADDER[:width], _BMEM_LADDER[:width]
        )
    return rng.uniform(0.0, 1.5, (k, max_trials))


def repair_moves(
    x_old: np.ndarray,
    v: np.ndarray,
    full: BatchEval,
    problem: Problem,
    tolerances: Tolerances,
    variant: str,
    rng: np.random.Generator,
    max_trials: int,
) -> BatchRepair:
    """Repair k moves whose full steps ``x_old + v`` are all infeasible.

    ``full`` is the evaluation of the full steps, one row per move.  Trial
    factors scale the ORIGINAL velocity: halvings for ``bm``, the
    alternating 0.9/1.1 ladder for ``bmem`` (down-scalings only for a move
    whose full step violates box bounds alone), and for ``bmpem`` fresh
    uniform [0, 1.5) factors, drawn as one ``(k, max_trials)`` block whose
    rows are the moves in order.  Per move, the first feasible trial wins
    and its scaled velocity becomes the stored velocity; a 0.0 factor or
    exhaustion keeps the old position with zero velocity.

    Every move's trials before its first 0.0 factor are evaluated as one
    batch, but each move is charged its trials in order, up to the
    accepted one, the 0.0 factor or the end of the ladder.
    """
    if variant not in _REPAIR_KINDS:
        raise ValueError(f"not a repair technique: {variant!r}")
    factors = _repair_factors(variant, full, tolerances, rng, max_trials)
    k, width = factors.shape
    # A trailing column past the last trial makes both argmaxes total.
    stop = np.ones((k, width + 1), dtype=bool)
    stop[:, :width] = factors == 0.0
    live = stop.argmax(axis=1)  # trials before the first 0.0 factor
    rows, trials = np.nonzero(np.arange(width) < live[:, None])
    candidates = problem.snap_to_grid(
        x_old[rows] + factors[rows, trials][:, None] * v[rows]
    )
    ev = evaluate_batch(problem, candidates)

    ok = np.zeros((k, width + 1), dtype=bool)
    ok[rows, trials] = ev.feasible(tolerances)
    first = ok.argmax(axis=1)
    accepted = ok[np.arange(k), first]
    # Row of ``ev`` holding each accepted move's first feasible trial.
    accepted_rows = (np.cumsum(live) - live + first)[accepted]

    positions = np.array(x_old, dtype=float)
    positions[accepted] = ev.positions[accepted_rows]
    velocities = np.zeros_like(positions)
    scale = factors[accepted, first[accepted]]
    velocities[accepted] = scale[:, None] * v[accepted]
    return BatchRepair(
        positions=positions,
        velocities=velocities,
        trials_charged=np.where(accepted, first + 1, live),
        accepted=accepted,
        evaluation=ev.take(accepted_rows),
    )


@dataclass
class RepairResult:
    position: np.ndarray
    velocity: np.ndarray
    evals_used: int
    evaluation: Optional[BatchEval]  # one row; None when the old position is kept


def repair_move(
    x_old: np.ndarray,
    v: np.ndarray,
    problem: Problem,
    tolerances: Tolerances,
    variant: str,
    rng: np.random.Generator,
    max_trials: int,
    full_eval: Optional[BatchEval] = None,
) -> RepairResult:
    """Repair one move: :func:`repair_moves` on a single row.

    The full step is tried first; when it is feasible it is kept as is.
    ``full_eval``, the full step's one-row evaluation, may be passed when
    the caller already has it.  ``evals_used`` counts candidate positions
    charged: the full step plus the trials charged by the repair.
    """
    if variant not in _REPAIR_KINDS:
        raise ValueError(f"not a repair technique: {variant!r}")
    x_old = np.asarray(x_old, dtype=float)
    v = np.asarray(v, dtype=float)
    if full_eval is not None:
        full = full_eval
    else:
        full = evaluate_batch(problem, problem.snap_to_grid(x_old + v)[None, :])
    if full.feasible(tolerances)[0]:
        return RepairResult(full.positions[0], v.copy(), 1, full)

    rep = repair_moves(
        x_old[None, :], v[None, :], full, problem, tolerances, variant, rng, max_trials
    )
    return RepairResult(
        rep.positions[0],
        rep.velocities[0],
        1 + int(rep.trials_charged[0]),
        rep.evaluation if rep.accepted[0] else None,
    )


def repair_bisection(
    x_old: np.ndarray,
    v: np.ndarray,
    problem: Problem,
    tolerances: Tolerances,
    variant: str,
    rng: np.random.Generator,
    max_trials: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Repair a move; returns ``(x_new, v_applied, evals_used)``.

    Precondition: ``x_old`` is feasible under the given tolerances.
    """
    old_ev = evaluate_batch(problem, x_old[None, :])
    if not old_ev.feasible(tolerances)[0]:
        raise ValueError("repair requires a feasible starting position")
    res = repair_move(x_old, v, problem, tolerances, variant, rng, max_trials)
    return res.position, res.velocity, res.evals_used


def update_pbest(
    particle,
    candidate: EvaluatedPoint,
    cht: ChtConfig,
    tolerances: Tolerances,
    rng: np.random.Generator,
):
    """Apply the technique's memory rule to a particle-like object.

    ``particle`` needs mutable ``pbest_position`` / ``pbest_eval``
    attributes.  The swarm engine uses the vectorized equivalent in
    :mod:`cpso.swarm`; this entry point mirrors it one particle at a
    time for direct use and testing.
    """
    incumbent = particle.pbest_eval
    if incumbent is None:
        if cht.kind == "pf" and not is_feasible(candidate, tolerances):
            return particle
        particle.pbest_position = np.array(candidate.position)
        particle.pbest_eval = candidate
        return particle

    if cht.kind == "pf":
        replace = (
            is_feasible(candidate, tolerances)
            and candidate.conflict < incumbent.conflict
        )
    elif cht.uses_penalty:
        replace = penalized_conflict(
            candidate, cht.penalty_k, cht.penalty_alpha, cht.unit_exponent_below_one
        ) < penalized_conflict(
            incumbent, cht.penalty_k, cht.penalty_alpha, cht.unit_exponent_below_one
        )
    elif cht.probabilistic_memory:
        outcome = compare_probabilistic(incumbent, candidate, tolerances, rng, cht.prob)
        replace = outcome.winner == "second"
    elif cht.is_repair:
        replace = candidate.conflict < incumbent.conflict
    else:
        replace = compare_priority(incumbent, candidate, tolerances).winner == "second"

    if replace:
        particle.pbest_position = np.array(candidate.position)
        particle.pbest_eval = candidate
    return particle
