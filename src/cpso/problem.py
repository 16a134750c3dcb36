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

import functools
import math
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
        # Written so that NaN fails too: no point passes a comparison with it.
        if not (self.ineq >= 0 and self.eq >= 0):
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
        # Own, read-only copies: the spans, the tiles, the grid and the
        # sampling proof derived from them are cached, so nothing may
        # change the bounds or the steps afterwards.
        lower = _read_only(np.array(self.lower, dtype=float))
        upper = _read_only(np.array(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if self.grid_steps is not None:
            steps = _read_only(np.array(self.grid_steps, dtype=float))
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

    @functools.cached_property
    def span(self) -> np.ndarray:
        return _read_only(self.upper - self.lower)

    @functools.cached_property
    def vmax(self) -> np.ndarray:
        """Velocity clamp: half the dynamic range per dimension."""
        return _read_only(0.5 * self.span)

    @functools.cached_property
    def _tiles(self) -> dict:
        """The per-dimension rows of :func:`_rowwise`, each repeated
        ``_TILE_ROWS`` times; built on first use."""
        rows = {
            "lower": self.lower,
            "upper": self.upper,
            "span": self.span,
            "vmax": self.vmax,
            "-vmax": -self.vmax,
        }
        return {k: _read_only(np.tile(r, (_TILE_ROWS, 1))) for k, r in rows.items()}

    @property
    def discrete_mask(self) -> np.ndarray:
        if self.grid_steps is None:
            return np.zeros(self.dimension, dtype=bool)
        return ~np.isnan(self.grid_steps)

    @functools.cached_property
    def _grid(self) -> tuple:
        """The discrete columns and their steps, read-only; built on
        first use."""
        cols = np.flatnonzero(self.discrete_mask)
        return _read_only(cols), _read_only(self.grid_steps[cols])

    def snap_to_grid(self, x: np.ndarray) -> np.ndarray:
        """Round discrete dimensions to the nearest step multiple.

        Exact half-step ties round toward the lower multiple.  Works on
        a single point ``(n,)`` or a batch ``(m, n)``.
        """
        return self._snap(np.array(x, dtype=float))

    def _snap(self, x: np.ndarray) -> np.ndarray:
        """:meth:`snap_to_grid` in place, on a float array ``x``; returns ``x``."""
        if self.grid_steps is not None:
            cols, steps = self._grid
            x[..., cols] = np.ceil(x[..., cols] / steps - 0.5) * steps
        return x

    @functools.cached_property
    def _samples_in_box(self) -> bool:
        """Whether every point :meth:`sample_uniform` can draw lies in the box.

        A sample is ``snap(fl(fl(u * span) + lower))`` for a draw ``u`` of
        ``rng.random``, a multiple of 2**-53 from 0 to ``1 - 2**-53``.  For
        a finite ``lower`` and ``span``, each of those operations is
        monotone under round-to-nearest: the product in ``u``, the sum in
        the product, and the snap (a quotient, a difference, a ceiling
        and a product).  So every sample lies between the samples of the
        least and the greatest draw, and is finite; when those two lie in
        the box, so does every sample, and its box excess is 0.0.  Built
        on first use, from the read-only bounds and steps.
        """
        lower, span = self.lower, self.span
        if not (np.isfinite(lower).all() and np.isfinite(span).all()):
            return False
        draws = np.array([[0.0], [np.nextafter(1.0, 0.0)]])
        least, greatest = self.snap_to_grid(draws * span + lower)
        return bool((least >= lower).all() and (greatest <= self.upper).all())

    def sample_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` points uniformly in the box, snapped to the grid.

        The points are ``lower + rng.random((count, dimension)) * span``,
        bit for bit, computed in place.
        """
        pts = rng.random((count, self.dimension))
        _rowwise(np.multiply, pts, self, "span", pts)
        _rowwise(np.add, pts, self, "lower", pts)
        return pts if self.grid_steps is None else self._snap(pts)


# Rows of each tile of :func:`_rowwise`: long enough that a step's rows
# (20-40 per run) fit one tile, and small enough that a problem's five
# tiles stay within a few KiB per dimension.
_TILE_ROWS = 64


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _rowwise(ufunc, block: np.ndarray, problem: Problem, row: str, out: np.ndarray):
    """``ufunc(block, row, out=out)`` for the problem's per-dimension ``row``.

    ``row`` names one of ``lower``, ``upper``, ``span``, ``vmax`` and
    ``-vmax``.  Broadcasting an ``(n,)`` row over an ``(m, n)`` block runs
    m inner loops of n elements, which costs several times the
    arithmetic at small n.  So the row is applied through its cached tile
    of ``_TILE_ROWS`` copies: to a block that fits, as the tile's first m
    rows; to a larger one, as rows of ``_TILE_ROWS * n`` elements, plus
    the remainder.  Every element meets the same operand in the same
    operation, so the result is bit-identical to broadcasting.  A block
    larger than a tile must be C-contiguous, as must ``out`` (which may
    be ``block``), so that reshaping them gives views.
    """
    tile = problem._tiles[row]
    m, n = block.shape
    t = len(tile)
    if m <= t:
        return ufunc(block, tile[:m], out=out)
    if not (block.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("a block larger than a tile must be C-contiguous")
    whole = m - m % t
    wide = (whole // t, t * n)
    ufunc(block[:whole].reshape(wide), tile.reshape(-1), out=out[:whole].reshape(wide))
    if whole < m:
        ufunc(block[whole:], tile[: m - whole], out=out[whole:])
    return out


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

    def _limits(self, tolerances: Tolerances) -> tuple:
        """Each violation block with its tolerance, box first: a term is
        within tolerance when it is at most ``tolerances.ineq`` (box and
        inequality terms) or ``tolerances.eq`` (equality terms)."""
        return (
            (self.box_violations, tolerances.ineq),
            (self.ineq_violations, tolerances.ineq),
            (self.eq_violations, tolerances.eq),
        )

    def nac(self, tolerances: Tolerances) -> np.ndarray:
        """Active-constraint count per point under the given tolerances."""
        return sum(
            np.count_nonzero(block > tol, axis=1)
            for block, tol in self._limits(tolerances)
        )

    def feasible(self, tolerances: Tolerances) -> np.ndarray:
        """Boolean feasibility mask under the given tolerances."""
        return _all_within(self._limits(tolerances))

    def take(self, rows: np.ndarray) -> "BatchEval":
        return BatchEval(*[getattr(self, f)[rows] for f in _FIELDS])

    def assign(self, rows: np.ndarray, other: "BatchEval") -> None:
        """Overwrite the selected rows with rows of ``other``.

        ``rows`` is a boolean mask or an index array.  Where the mask is
        true, a row takes the same row of ``other``, which has as many
        rows as this batch: one masked copy per field, with no gather or
        scatter.  Index ``rows[i]`` takes row ``i`` of ``other``, which
        holds one row per index.
        """
        masks = (rows, rows[:, None]) if rows.dtype == bool else None
        for f in _FIELDS:
            dst, src = getattr(self, f), getattr(other, f)
            if masks is None:
                dst[rows] = src
            else:
                np.copyto(dst, src, where=masks[dst.ndim - 1])

    def copy(self) -> "BatchEval":
        return BatchEval(*[getattr(self, f).copy() for f in _FIELDS])


_FIELDS = tuple(BatchEval.__dataclass_fields__)


def _rows_all(block: np.ndarray) -> np.ndarray:
    """``block.all(axis=1)`` for a boolean ``(m, k)`` block.

    A row-wise reduction pays a fixed cost per row; reducing the
    transposed copy runs along the long axis instead, and calling the
    ufunc's reduce skips ``all``'s Python wrapper.  Booleans have no
    rounding, so the order cannot change the result.
    """
    return np.logical_and.reduce(block.T.copy(), axis=0)


def _all_within(limits) -> np.ndarray:
    """Which rows have every term of each ``(block, tolerance)`` pair of
    :meth:`BatchEval._limits` within its tolerance.  A block with no
    columns passes every row, so after the first it is skipped."""
    (block, tol), *rest = limits
    mask = _rows_all(block <= tol)
    for block, tol in rest:
        if block.shape[1]:
            mask &= _rows_all(block <= tol)
    return mask


def _checked_positions(problem: Problem, positions: np.ndarray) -> np.ndarray:
    """The positions as a C-contiguous float ``(m, n)`` array; ``ValueError``
    unless finite."""
    x = np.ascontiguousarray(positions, dtype=float)
    if x.ndim < 2:
        x = np.atleast_2d(x)
    if x.shape[1] != problem.dimension:
        raise ValueError(
            f"expected dimension {problem.dimension}, got {x.shape[1]}"
        )
    if not np.isfinite(x).all():
        raise ValueError("positions must be finite")
    return x


def _box_excess(problem: Problem, x: np.ndarray) -> np.ndarray:
    """``|x - clip(x, lower, upper)|``, computed in place.

    At most one side is exceeded, and x - lower is -(lower - x) exactly,
    so this is max(0, x - upper) + max(0, lower - x) bit for bit.
    """
    box = _rowwise(np.minimum, x, problem, "upper", np.empty_like(x))
    _rowwise(np.maximum, box, problem, "lower", box)
    np.subtract(x, box, out=box)
    np.abs(box, out=box)
    return box


def _inf_outside_box(
    problem: Problem, x: np.ndarray, raw: np.ndarray, first: int
) -> np.ndarray:
    """The +inf rule and the faults of :func:`evaluate_batch` on ``raw``,
    the function-major values of functions ``first``, ``first + 1``, ...
    at the rows of ``x``: ``raw`` itself when all are finite, else a new
    array, as ``raw`` may be a view of ``x``.  A row is in the box when
    its box excess is all 0.0, exactly so for finite positions.
    """
    finite = np.isfinite(raw)
    if finite.all():
        return raw
    in_box = ~_box_excess(problem, x).any(axis=1)
    faults = np.flatnonzero(~finite & in_box)
    if faults.size:
        k, idx = divmod(int(faults[0]), len(x))
        what = (
            "objective",
            *(f"inequality {j}" for j in range(problem.n_inequalities)),
            *(f"equality {j}" for j in range(problem.n_equalities)),
        )[first + k]
        raise EvaluationFault(f"non-finite {what} at in-box point index {idx}")
    return np.where(finite, raw, np.inf)


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
    x = _checked_positions(problem, positions)
    m = x.shape[0]
    q = problem.n_inequalities
    functions = (problem.objective, *problem.inequalities, *problem.equalities)
    raw = np.empty((len(functions), m))  # function-major
    for k, f in enumerate(functions):
        raw[k] = f(x)
    raw = _inf_outside_box(problem, x, raw, 0)

    # Point-major and C-contiguous before the row sums: NumPy sums rows of
    # 8 or more terms in an unrolled order that follows the memory layout,
    # so summing transposed views would change the bits of ``cv``.  The
    # conflicts are copied out, so that ``raw`` is freed before the box
    # excesses are computed and is not held by the batch.
    conflict = raw[0].copy()
    violations = np.ascontiguousarray(raw[1:].T)
    del raw
    ineq = violations[:, :q]
    eq = violations[:, q:]
    np.maximum(0.0, ineq, out=ineq)
    np.abs(eq, out=eq)
    box = _box_excess(problem, x)

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


def feasible_mask(
    problem: Problem, positions: np.ndarray, tolerances: Tolerances
) -> np.ndarray:
    """``evaluate_batch(problem, positions).feasible(tolerances)``, cheaply.

    Only the box and the constraints are evaluated: no objective, no
    ``cv`` and no :class:`BatchEval`.  Every constraint is evaluated on
    every row, under the +inf rule and with the faults of
    :func:`evaluate_batch`.  A non-finite objective is not seen here; it
    raises wherever the objective is evaluated.
    """
    x = _checked_positions(problem, positions)
    box = _box_excess(problem, x)
    return _constraints_mask(problem, x, tolerances, _rows_all(box <= tolerances.ineq))


def sampled_mask(problem: Problem, x: np.ndarray, tolerances: Tolerances) -> np.ndarray:
    """``feasible_mask(problem, x, tolerances)`` for points ``x`` drawn by
    :meth:`Problem.sample_uniform`.

    When the problem proves that its samples lie in the box
    (``Problem._samples_in_box``), their positions are finite and every
    box excess is 0.0, so only the constraints are tested, by the loop
    :func:`feasible_mask` runs; otherwise this is :func:`feasible_mask`.
    The mask, the +inf rule and the faults are the same either way.
    """
    if not problem._samples_in_box:
        return feasible_mask(problem, x, tolerances)
    # Every box excess is 0.0, within any (nonnegative) tolerance.
    return _constraints_mask(problem, x, tolerances, np.ones(len(x), dtype=bool))


def _constraints_mask(
    problem: Problem, x: np.ndarray, tolerances: Tolerances, mask: np.ndarray
) -> np.ndarray:
    """``mask``, and-ed in place with each constraint's test on the rows
    of ``x``.  A private helper rather than part of one of the masks,
    which could share it only through a parameter."""
    q = problem.n_inequalities
    for k, g in enumerate((*problem.inequalities, *problem.equalities), start=1):
        value = _inf_outside_box(problem, x, np.asarray(g(x), dtype=float), k)
        # max(0, g) <= tol is g <= tol, as the tolerance is nonnegative.
        if k <= q:
            mask &= value <= tolerances.ineq
        else:
            mask &= np.abs(value) <= tolerances.eq
    return mask


# Largest batch evaluated in one call: the harness groups a cell's runs
# so that a lockstep step's rows fit in it (but for a single run of more
# particles, whose steps evaluate them all), a step repairs its moves in
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
        # Checked whatever the decrease: every result row reports it.
        if not (0.0 < self.rate < 1.0):
            raise ValueError("rate must be in (0, 1)")

    @classmethod
    def for_problem(cls, problem: Problem, **kwargs) -> "RecSchedule":
        """Initial tolerance: half the mean dynamic range of the box."""
        return cls(initial_tol=float(np.mean(problem.span)) / 2.0, **kwargs)

    def switch_step(self, t_max: int) -> int:
        return max(1, math.ceil(self.switch_fraction * t_max))

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
