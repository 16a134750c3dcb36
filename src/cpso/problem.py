"""Constrained-problem representation, point evaluation and tolerance handling.

A problem is a box-bounded minimization task with ordered inequality
constraints (satisfied when ``g(x) <= 0``) and equality constraints
(satisfied when ``g(x) == 0``).  Box bounds are treated as additional
inequality terms and charged into the violation aggregate, so points
outside the box are legal inputs to :func:`evaluate_batch`.

A problem's functions are one vectorized term kernel, ``terms(x, first)``:
for a batch ``x`` of shape ``(m, n)`` it returns the function-major block
of shape ``(1 + q + e - first, m)``, one row per function in the order
objective, inequality 0.., equality 0.., from function ``first`` on, so
``first=1`` skips the objective.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Terms = Callable[[np.ndarray, int], np.ndarray]


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
    terms : callable
        The term kernel ``terms(x, first)``: the conflict (objective),
        then the inequalities, each satisfied when ``g(x) <= 0``, then
        the equalities, each satisfied when ``g(x) == 0``, as a new
        function-major ``(1 + q + e - first, m)`` float block from
        function ``first`` (0 or 1) on.  It neither writes to ``x`` nor
        returns memory shared with it, and its bits do not depend on the
        memory layout of ``x``.
    n_inequalities, n_equalities : int
        The counts q and e of the kernel's inequality and equality rows.
    grid_steps : ndarray or None
        Per-dimension step for discrete dimensions, NaN for continuous
        ones.  None means all dimensions are continuous.
    """

    name: str
    lower: np.ndarray
    upper: np.ndarray
    terms: Terms
    n_inequalities: int = 0
    n_equalities: int = 0
    grid_steps: Optional[np.ndarray] = None

    def __post_init__(self):
        # Own, read-only copies: the spans, the tiles, the grid and the
        # sampling proof derived from them are cached, so nothing may
        # change the bounds or the steps afterwards.
        lower = _read_only(np.array(self.lower, dtype=float))
        upper = _read_only(np.array(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
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

    @functools.cached_property
    def _grid(self) -> tuple:
        """The discrete columns and their steps, read-only; built on
        first use by :meth:`_snap`, for a problem with ``grid_steps``."""
        cols = np.flatnonzero(~np.isnan(self.grid_steps))
        return _read_only(cols), _read_only(self.grid_steps[cols])

    def _snap(self, x: np.ndarray) -> np.ndarray:
        """Round the discrete dimensions of the float array ``x`` to the
        nearest step multiple, in place; returns ``x``.

        Exact half-step ties round toward the lower multiple.  Works on
        a single point ``(n,)`` or a batch ``(m, n)``.
        """
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
        least, greatest = self._snap(draws * span + lower)
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
    eq_violations: np.ndarray    # (m, e)
    box_violations: np.ndarray   # (m, n)
    cv: np.ndarray               # (m,)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def nac(self, tolerances: Tolerances) -> np.ndarray:
        """Active-constraint count per point under the given tolerances:
        its terms not within them (:func:`_within`)."""
        ok = _within(
            tolerances, self.ineq_violations.T, self.eq_violations.T, self.box_violations.T
        )
        return np.count_nonzero(~ok, axis=0)

    def feasible(self, tolerances: Tolerances) -> np.ndarray:
        """Boolean feasibility mask under the given tolerances: every term
        within its tolerance (:func:`_within`)."""
        ok = _within(
            tolerances, self.ineq_violations.T, self.eq_violations.T, self.box_violations.T
        )
        return np.logical_and.reduce(ok, axis=0)

    def take(self, rows: np.ndarray) -> "BatchEval":
        return BatchEval(*[getattr(self, f)[rows] for f in _FIELDS])

    def assign(self, rows: np.ndarray, other: "BatchEval") -> None:
        """Where the boolean mask ``rows`` is true, a row takes the same
        row of ``other``, which has as many rows as this batch: one
        masked copy per field, with no gather or scatter."""
        masks = (rows, rows[:, None])
        for f in _FIELDS:
            dst = getattr(self, f)
            np.copyto(dst, getattr(other, f), where=masks[dst.ndim - 1])

    def copy(self) -> "BatchEval":
        return BatchEval(*[getattr(self, f).copy() for f in _FIELDS])


_FIELDS = tuple(BatchEval.__dataclass_fields__)


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


def _raw_terms(problem: Problem, x: np.ndarray, first: int) -> np.ndarray:
    """The raw terms of the rows of ``x``: the values of functions
    ``first``, ``first + 1``, ..., function-major, one row per function
    in the order objective, inequality 0.., equality 0.., under the +inf
    rule and with the faults of :func:`evaluate_batch`.  ``first=1``
    takes the constraints alone.  The kernel's block is returned itself
    when all its values are finite, else a new array.  A row is in the
    box when its box excess is all 0.0, exactly so for finite positions.
    """
    raw = problem.terms(x, first)
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


def _within(
    tolerances: Tolerances,
    ineq: np.ndarray,
    eq: np.ndarray,
    box: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The tolerance rule: which terms of a batch are within tolerance.

    The blocks are function-major, one row per term and one column per
    point: the inequality terms ``ineq`` and the equality terms ``eq``,
    raw or as a :class:`BatchEval`'s transposed violations, and the box
    excess ``box`` (None for points known to lie in the box).  A box or
    inequality term is within at or below ``tolerances.ineq``, an
    equality term when its magnitude is at or below ``tolerances.eq``.
    Raw terms and violations give the same answer, since ``max(0, g) <=
    tol`` is ``g <= tol`` for a nonnegative tolerance and ``|(|h|)|`` is
    ``|h|``.  Returns the boolean ``(terms, points)`` block, inequality
    rows first and box rows last; a point is feasible when its column is
    all true, reduced along the long axis of points.
    """
    q, e = len(ineq), len(eq)
    rows = q + e + (0 if box is None else len(box))
    ok = np.empty((rows, ineq.shape[1]), dtype=bool)
    np.less_equal(ineq, tolerances.ineq, out=ok[:q])
    if e:
        np.less_equal(np.abs(eq), tolerances.eq, out=ok[q : q + e])
    if box is not None:
        np.less_equal(box, tolerances.ineq, out=ok[q + e :])
    return ok


def _finish(problem: Problem, x: np.ndarray, raw: np.ndarray, box: np.ndarray) -> BatchEval:
    """The :class:`BatchEval` of the rows of ``x`` from their raw terms
    ``raw`` (objective included) and their box excess ``box``."""
    q = problem.n_inequalities
    # Point-major and C-contiguous before the row sums: NumPy sums rows of
    # 8 or more terms in an unrolled order that follows the memory layout,
    # so summing transposed views would change the bits of ``cv``.  The
    # conflicts are copied out, so that the batch does not hold ``raw``.
    conflict = raw[0].copy()
    violations = np.ascontiguousarray(raw[1:].T)
    ineq = violations[:, :q]
    eq = violations[:, q:]
    np.maximum(0.0, ineq, out=ineq)
    np.abs(eq, out=eq)

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


def _raw_batch(
    problem: Problem, positions: np.ndarray, tolerances: Optional[Tolerances]
) -> tuple:
    """:func:`evaluate_batch` up to its finish, and the batch's mask.

    Returns ``(x, raw, box, feasible)``: the checked positions, their raw
    terms, their box excess and ``evaluate_batch(problem,
    positions).feasible(tolerances)``, the tolerance rule
    (:func:`_within`) on the raw constraint terms and the box excess
    (None if ``tolerances`` is).  For any rows ``rows``,
    ``_finish(problem, x[rows], raw[:, rows], box[rows])`` has the bits
    of ``evaluate_batch(problem, x[rows])``.  A :class:`~cpso.swarm.Swarm`
    takes its initial positions, each step its new positions and each
    repair batch its trials through it.
    """
    x = _checked_positions(problem, positions)
    raw = _raw_terms(problem, x, 0)
    box = _box_excess(problem, x)
    if tolerances is None:
        return x, raw, box, None
    q = 1 + problem.n_inequalities
    ok = _within(tolerances, raw[1:q], raw[q:], box.T)
    return x, raw, box, np.logical_and.reduce(ok, axis=0)


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

    Two stages make the batch: the raw terms and the box excess
    (:func:`_raw_batch`; :func:`_raw_terms` runs every function on every
    row, function-major, under the +inf rule) and the finish
    (:func:`_finish`: the point-major violation blocks and ``cv``).  A
    caller that tests or replaces rows before it finishes them, as a
    swarm step and its repair do, masks the raw terms and finishes the
    rows it keeps: each row's fields have the same bits either way.
    """
    x, raw, box, _ = _raw_batch(problem, positions, None)
    return _finish(problem, x, raw, box)


def sampled_mask(problem: Problem, x: np.ndarray, tolerances: Tolerances) -> np.ndarray:
    """``evaluate_batch(problem, x).feasible(tolerances)`` for points
    ``x`` drawn by :meth:`Problem.sample_uniform`, from the box and the
    constraints alone (:func:`_raw_terms` from the first constraint on,
    tested by :func:`_within`).  A non-finite objective is not seen
    here; it raises wherever the objective is evaluated.

    When the problem proves that its samples lie in the box
    (``Problem._samples_in_box``), their positions are finite and every
    box excess is 0.0, so neither is checked; otherwise both are, with
    the ``ValueError``s of :func:`evaluate_batch`.  The mask and the
    faults are the same either way.
    """
    box = None  # a proven sample's box excess is 0.0, within any tolerance
    if not problem._samples_in_box:
        x = _checked_positions(problem, x)
        box = _box_excess(problem, x).T
    q = problem.n_inequalities
    terms = _raw_terms(problem, x, 1)
    return np.logical_and.reduce(_within(tolerances, terms[:q], terms[q:], box), axis=0)


# Largest batch evaluated in one call: the harness groups a cell's runs
# so that a lockstep step's rows fit in it (but for a single run of more
# particles, whose steps evaluate them all), and a step repairs its moves
# in batches of at most this many trial rows.  The cost per row is at its
# floor by then (2-core host, min of 7, ns per row at 512 / 2,048 / 4,096
# rows: g06 197 / 125 / 123, welded-beam 338 / 194 / 209, g04 193 / 120 /
# 129), while each call's temporaries grow with its rows: 30 welded-beam
# bm runs repairing in batches of 4,096 trial rows peaked 0.45 MiB higher
# than in batches of 2,048.  The feasibility estimator's sampled blocks,
# whose draw and mask keep getting cheaper per row past this size, are
# ``benchmarks._FEASIBILITY_BLOCK_ROWS`` (6,144) rows.
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
    final_tol: float = Tolerances.eq
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

    def tolerance_at(self, t: int, t_max: int) -> float:
        if t < 1 or t_max < 1:
            raise ValueError("steps are 1-based and t_max must be >= 1")
        t_switch = max(1, math.ceil(self.switch_fraction * t_max))
        if t >= t_switch:
            return self.final_tol
        if self.decrease == "linear":
            frac = (t - 1) / (t_switch - 1)
            return self.initial_tol + frac * (self.final_tol - self.initial_tol)
        return max(self.final_tol, self.initial_tol * self.rate ** (t - 1))
