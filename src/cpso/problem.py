"""Constrained-problem representation, point evaluation and tolerance handling.

A problem is a box-bounded minimization task with ordered inequality
constraints (satisfied when ``g(x) <= 0``) and equality constraints
(satisfied when ``g(x) == 0``).  Box bounds are treated as additional
inequality terms and charged into the violation aggregate, so points
outside the box are legal inputs to :func:`evaluate_batch`.

All constraint and objective callables are vectorized: they accept an
array of shape ``(m, n)`` and return shape ``(m,)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Vectorized = Callable[[np.ndarray], np.ndarray]


class EvaluationFault(RuntimeError):
    """A constraint or objective returned a non-finite value inside the box."""


@dataclass(frozen=True)
class Tolerances:
    """Feasibility tolerances for inequality/box and equality constraints."""

    ineq: float = 1e-12
    eq: float = 1e-12

    def __post_init__(self):
        if self.ineq < 0 or self.eq < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True)
class Problem:
    """A box-bounded constrained minimization problem.

    Parameters
    ----------
    name : str
        Registry identifier.
    lower, upper : ndarray
        Box bounds, ``lower < upper`` elementwise.
    objective : callable
        Vectorized conflict function, ``(m, n) -> (m,)``.
    inequalities : sequence of callables
        Each satisfied when ``g(x) <= 0``.
    equalities : sequence of callables
        Each satisfied when ``g(x) == 0``.
    grid_steps : ndarray or None
        Per-dimension step for discrete dimensions, NaN for continuous
        ones.  None means all dimensions are continuous.
    known_optimum : float or None
        Reference conflict value (metadata only, never used in search).
    """

    name: str
    lower: np.ndarray
    upper: np.ndarray
    objective: Vectorized
    inequalities: tuple = ()
    equalities: tuple = ()
    grid_steps: Optional[np.ndarray] = None
    known_optimum: Optional[float] = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if self.grid_steps is not None:
            steps = np.asarray(self.grid_steps, dtype=float)
            object.__setattr__(self, "grid_steps", steps)
            if steps.shape != lower.shape:
                raise ValueError("grid_steps length must match dimension")
            mask = ~np.isnan(steps)
            if np.any(steps[mask] <= 0):
                raise ValueError("discrete steps must be positive")
            spans = upper[mask] - lower[mask]
            if np.any(spans < steps[mask]):
                raise ValueError("discrete dimensions need >= 2 grid values")

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def n_inequalities(self) -> int:
        return len(self.inequalities)

    @property
    def n_equalities(self) -> int:
        return len(self.equalities)

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def vmax(self) -> np.ndarray:
        """Velocity clamp: half the dynamic range per dimension."""
        return 0.5 * self.span

    @property
    def discrete_mask(self) -> np.ndarray:
        if self.grid_steps is None:
            return np.zeros(self.dimension, dtype=bool)
        return ~np.isnan(self.grid_steps)

    def snap_to_grid(self, x: np.ndarray) -> np.ndarray:
        """Round discrete dimensions to the nearest step multiple.

        Exact half-step ties round toward the lower multiple.  Works on
        a single point ``(n,)`` or a batch ``(m, n)``.
        """
        if self.grid_steps is None:
            return np.array(x, dtype=float)
        x = np.array(x, dtype=float)
        mask = self.discrete_mask
        steps = self.grid_steps[mask]
        ratio = x[..., mask] / steps
        x[..., mask] = np.ceil(ratio - 0.5) * steps
        return x

    def sample_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` points uniformly in the box, snapped to the grid.

        The points are ``lower + rng.random((count, dimension)) * span``,
        bit for bit, computed in place.
        """
        pts = rng.random((count, self.dimension))
        pts *= self.span
        pts += self.lower
        return pts if self.grid_steps is None else self.snap_to_grid(pts)


@dataclass
class BatchEval:
    """Evaluation of many points at once; row ``i`` describes point ``i``."""

    positions: np.ndarray        # (m, n)
    conflict: np.ndarray         # (m,)
    ineq_violations: np.ndarray  # (m, q)
    eq_violations: np.ndarray    # (m, m-q)
    box_violations: np.ndarray   # (m, n)
    cv: np.ndarray               # (m,)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def nac(self, tolerances: Tolerances) -> np.ndarray:
        """Active-constraint count per point under the given tolerances."""
        return (
            np.count_nonzero(self.ineq_violations > tolerances.ineq, axis=1)
            + np.count_nonzero(self.eq_violations > tolerances.eq, axis=1)
            + np.count_nonzero(self.box_violations > tolerances.ineq, axis=1)
        )

    def feasible(self, tolerances: Tolerances) -> np.ndarray:
        """Boolean feasibility mask under the given tolerances."""
        mask = _rows_all(self.box_violations <= tolerances.ineq)
        if self.ineq_violations.shape[1]:
            mask &= _rows_all(self.ineq_violations <= tolerances.ineq)
        if self.eq_violations.shape[1]:
            mask &= _rows_all(self.eq_violations <= tolerances.eq)
        return mask

    def take(self, rows: np.ndarray) -> "BatchEval":
        return BatchEval(
            positions=self.positions[rows],
            conflict=self.conflict[rows],
            ineq_violations=self.ineq_violations[rows],
            eq_violations=self.eq_violations[rows],
            box_violations=self.box_violations[rows],
            cv=self.cv[rows],
        )

    def assign(self, rows: np.ndarray, other: "BatchEval") -> None:
        """Overwrite the selected rows with the rows of ``other``, in order.

        ``rows`` is a boolean mask or an index array; ``other`` holds one
        row per selected row.
        """
        self.positions[rows] = other.positions
        self.conflict[rows] = other.conflict
        self.ineq_violations[rows] = other.ineq_violations
        self.eq_violations[rows] = other.eq_violations
        self.box_violations[rows] = other.box_violations
        self.cv[rows] = other.cv

    def copy(self) -> "BatchEval":
        return BatchEval(
            positions=self.positions.copy(),
            conflict=self.conflict.copy(),
            ineq_violations=self.ineq_violations.copy(),
            eq_violations=self.eq_violations.copy(),
            box_violations=self.box_violations.copy(),
            cv=self.cv.copy(),
        )


def _rows_all(block: np.ndarray) -> np.ndarray:
    """``block.all(axis=1)`` for a boolean ``(m, k)`` block.

    A row-wise reduction pays a fixed cost per row; reducing the
    transposed copy runs along the long axis instead.  Booleans have no
    rounding, so the order cannot change the result.
    """
    return np.ascontiguousarray(block.T).all(axis=0)


def evaluate_batch(problem: Problem, positions: np.ndarray) -> BatchEval:
    """Evaluate a batch of points: conflicts and raw violation amounts.

    ``cv`` is the plain sum of inequality excesses, equality magnitudes
    and box excesses; no tolerance is subtracted anywhere.

    The outputs of every function are checked for finiteness at once.
    Out-of-box positions are legal (particles overshoot) but the problem
    functions only promise finite output inside the box, so non-finite
    values there become +inf, which deprioritizes the point in every
    comparison.  A non-finite value at an in-box point raises
    :class:`EvaluationFault`, naming the first faulty function in the
    order objective, inequality 0.., equality 0.. and its first in-box
    row.
    """
    x = np.atleast_2d(np.asarray(positions, dtype=float))
    if x.shape[1] != problem.dimension:
        raise ValueError(
            f"expected dimension {problem.dimension}, got {x.shape[1]}"
        )
    if not np.isfinite(x).all():
        raise ValueError("positions must be finite")

    m = x.shape[0]
    q = problem.n_inequalities
    functions = (problem.objective, *problem.inequalities, *problem.equalities)
    raw = np.empty((len(functions), m))  # function-major
    for k, f in enumerate(functions):
        raw[k] = f(x)
    finite = np.isfinite(raw)
    if not finite.all():
        in_box = np.all((x >= problem.lower) & (x <= problem.upper), axis=1)
        faults = np.flatnonzero(~finite & in_box)
        if faults.size:
            k, idx = divmod(int(faults[0]), m)
            what = (
                "objective",
                *(f"inequality {j}" for j in range(q)),
                *(f"equality {j}" for j in range(problem.n_equalities)),
            )[k]
            raise EvaluationFault(f"non-finite {what} at in-box point index {idx}")
        raw[~finite] = np.inf

    # Point-major and C-contiguous before the row sums: NumPy sums rows of
    # 8 or more terms in an unrolled order that follows the memory layout,
    # so summing transposed views would change the bits of ``cv``.  The
    # conflicts are copied out, so that ``raw`` is freed before the box
    # excesses are computed and is not held by the batch.
    conflict = raw[0].copy()
    violations = np.ascontiguousarray(raw[1:].T)
    del raw, finite
    ineq = violations[:, :q]
    eq = violations[:, q:]
    np.maximum(0.0, ineq, out=ineq)
    np.abs(eq, out=eq)

    # |x - clip(x, lower, upper)|, in place: at most one side is exceeded,
    # and x - lower is -(lower - x) exactly, so this is
    # max(0, x - upper) + max(0, lower - x) bit for bit.
    box = np.minimum(x, problem.upper)
    np.maximum(box, problem.lower, out=box)
    np.subtract(x, box, out=box)
    np.abs(box, out=box)

    # cv = ineq + eq + box row sums, in that order.  A group of exact
    # zeros (no equalities; no box excess, as for every sampled point) is
    # skipped: no sum is -0.0, so adding +0.0 leaves it unchanged.
    cv = ineq.sum(axis=1)
    if problem.n_equalities:
        cv += eq.sum(axis=1)
    if box.any():
        cv += box.sum(axis=1)
    return BatchEval(
        positions=x,
        conflict=conflict,
        ineq_violations=ineq,
        eq_violations=eq,
        box_violations=box,
        cv=cv,
    )


# Largest batch evaluated in one call: the harness groups a cell's runs
# so that a lockstep step's rows fit in it, a step repairs its moves in
# batches of at most this many trial rows, and the feasibility estimator
# samples blocks of it.  The cost per row is at its floor by
# then (2-core host, min of 7, ns per row at 512 / 2,048 / 4,096 rows:
# g06 197 / 125 / 123, welded-beam 338 / 194 / 209, g04 193 / 120 /
# 129), while each call's temporaries grow with its rows:
# 30 welded-beam bm runs repairing in batches of 4,096 trial rows peaked
# 0.45 MiB higher than in batches of 2,048.
MAX_BATCH_ROWS = 2048


@dataclass(frozen=True)
class RecSchedule:
    """Time-decreasing equality tolerance.

    Starts at ``initial_tol`` at step 1, reaches ``final_tol`` once a
    fixed fraction of the search has elapsed, and stays there.  The
    linear variant interpolates between those two anchors; the
    exponential variant multiplies by ``rate`` every step (floored at
    ``final_tol``) and is likewise forced to ``final_tol`` from the
    switch step onwards.
    """

    initial_tol: float
    final_tol: float = 1e-12
    switch_fraction: float = 0.8
    decrease: str = "linear"  # "linear" | "exponential"
    rate: float = 0.995

    def __post_init__(self):
        if self.initial_tol < self.final_tol:
            raise ValueError("initial_tol must be >= final_tol")
        if not (0.0 < self.switch_fraction <= 1.0):
            raise ValueError("switch_fraction must be in (0, 1]")
        if self.decrease not in ("linear", "exponential"):
            raise ValueError("decrease must be 'linear' or 'exponential'")
        if self.decrease == "exponential" and not (0.0 < self.rate < 1.0):
            raise ValueError("exponential rate must be in (0, 1)")

    @classmethod
    def for_problem(cls, problem: Problem, **kwargs) -> "RecSchedule":
        """Initial tolerance: half the mean dynamic range of the box."""
        return cls(initial_tol=float(np.mean(problem.span)) / 2.0, **kwargs)

    def switch_step(self, t_max: int) -> int:
        return max(1, int(np.ceil(self.switch_fraction * t_max)))

    def tolerance_at(self, t: int, t_max: int) -> float:
        if t < 1 or t_max < 1:
            raise ValueError("steps are 1-based and t_max must be >= 1")
        t_switch = self.switch_step(t_max)
        if t >= t_switch:
            return self.final_tol
        if self.decrease == "linear":
            frac = (t - 1) / (t_switch - 1)
            return self.initial_tol + frac * (self.final_tol - self.initial_tol)
        return max(self.final_tol, self.initial_tol * self.rate ** (t - 1))
