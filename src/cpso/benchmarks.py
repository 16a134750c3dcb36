"""Benchmark problem registry and Monte Carlo feasibility-ratio estimation.

Two suites are registered:

* the engineering suite (pressure vessel in mixed-discrete and continuous
  form, welded beam, tension/compression spring, Himmelblau's nonlinear
  problem), with formulations as in Hu, Eberhart & Shi, "Engineering
  Optimization with Particle Swarm", SIS 2003;
* the g01..g13 suite in the formulations popularized by Runarsson & Yao
  ("Stochastic ranking for constrained evolutionary optimization", IEEE
  TEC 4(3), 2000) and used by Toscano Pulido & Coello Coello (CEC 2004).

Each problem is one term kernel (see :class:`~cpso.problem.Problem`):
it unpacks the columns once and computes each subexpression that several
functions share once, in the operation order of the formula as written,
so every function keeps its bits.  The objective is skipped for
``first=1``.  Kernels that reduce along a row first make ``x``
C-contiguous, as NumPy's row sums and products follow the memory layout.

Maximization problems are stored in minimization form.  A double-sided
constraint ``a <= expr <= b`` is one function ``max(expr - b, a - expr)``
and counted once: g04 and Himmelblau's problem have 3 inequalities and
g05 has 1, where the usual statements count 6 and 2.  Himmelblau's
problem is g04 with another coefficient, so both are built by one function.

Integer powers other than squares are written as products (``x * x * x``),
not with ``**``: products are exact IEEE operations, so they give the same
bits under every SIMD dispatch level NumPy may pick, where its ``pow`` does
not, and they cost less.  ``x**2`` is NumPy's ``square``, also exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .problem import Problem, Tolerances, sampled_mask

__all__ = [
    "SuiteEntry",
    "get_entry",
    "get_problem",
    "registry_names",
    "all_entries",
    "estimate_feasibility_ratio",
]


@dataclass(frozen=True)
class SuiteEntry:
    """A registered problem plus the reference metadata used to describe it."""

    problem: Problem
    suite: str  # "engineering" | "g-suite"
    reported_feasibility_ratio: Optional[float] = None  # percent
    reported_optimum: Optional[float] = None
    optimum_position: Optional[np.ndarray] = None


# ----------------------------------------------------------------- engineering


def _pressure_vessel(name: str, mixed: bool) -> SuiteEntry:
    # x = (shell thickness, head thickness, inner radius, cylinder length)
    def terms(x, first):
        x1, x2, x3, x4 = x.T
        out = np.empty((4, len(x)))
        x3_2 = x3**2
        if not first:
            x1_2 = x1**2
            out[0] = (
                0.6224 * x1 * x3 * x4
                + 1.7781 * x2 * x3_2
                + 3.1661 * x1_2 * x4
                + 19.84 * x1_2 * x3
            )
        out[1] = -x1 + 0.0193 * x3
        out[2] = -x2 + 0.00954 * x3
        out[3] = -np.pi * x3_2 * x4 - (4.0 / 3.0) * np.pi * (x3_2 * x3) + 1296000.0
        return out[first:]

    steps = np.array([0.0625, 0.0625, np.nan, np.nan]) if mixed else None
    problem = Problem(
        name=name,
        lower=np.array([0.0625, 0.0625, 10.0, 10.0]),
        upper=np.array([99.0, 99.0, 200.0, 200.0]),
        terms=terms,
        n_inequalities=3,
        grid_steps=steps,
    )
    return SuiteEntry(
        problem=problem,
        suite="engineering",
        reported_feasibility_ratio=75.8937 if mixed else 75.9314,
        reported_optimum=6059.714335 if mixed else None,
        optimum_position=(
            np.array([0.8125, 0.4375, 42.098445596, 176.636595842])
            if mixed
            else None
        ),
    )


def _welded_beam() -> SuiteEntry:
    # x = (weld thickness h, weld length l, bar height t, bar thickness b)
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    tau_max, sigma_max, delta_max = 13600.0, 30000.0, 0.25

    def shear(x1, x2, x3):
        # Primary tau1 and torsional tau2; a function of its own, so that
        # its temporaries are freed before the other terms are computed.
        x2_2 = x2**2
        weld = np.sqrt(2.0) * x1 * x2
        half = ((x1 + x3) / 2.0) ** 2
        R = np.sqrt(x2_2 / 4.0 + half)
        J = 2.0 * (weld * (x2_2 / 12.0 + half))
        tau1 = P / weld
        tau2 = P * (L + x2 / 2.0) * R / J  # M * R / J, moment M
        return np.sqrt(tau1**2 + 2.0 * tau1 * tau2 * x2 / (2.0 * R) + tau2**2)

    def terms(x, first):
        x1, x2, x3, x4 = x.T
        out = np.empty((8, len(x)))
        out[1] = shear(x1, x2, x3) - tau_max
        x1_2, x3_2 = x1**2, x3**2
        cost = 0.04811 * x3 * x4 * (L + x2)
        if not first:
            out[0] = 1.10471 * x1_2 * x2 + cost
        out[2] = P * 6.0 * L / (x4 * x3_2) - sigma_max
        out[3] = x1 - x4
        out[4] = 0.10471 * x1_2 + cost - 5.0
        out[5] = 0.125 - x1
        out[6] = 4.0 * P * L**3 / (E * (x3_2 * x3) * x4) - delta_max
        # Buckling load.
        b2 = x4 * x4
        pc = (4.013 * E * np.sqrt(x3_2 * (b2 * b2 * b2) / 36.0) / L**2) * (
            1.0 - x3 / (2.0 * L) * np.sqrt(E / (4.0 * G))
        )
        out[7] = P - pc
        return out[first:]

    problem = Problem(
        name="welded-beam",
        lower=np.array([0.1, 0.1, 0.1, 0.1]),
        upper=np.array([2.0, 10.0, 10.0, 2.0]),
        terms=terms,
        n_inequalities=7,
    )
    return SuiteEntry(
        problem=problem,
        suite="engineering",
        reported_feasibility_ratio=2.6475,
        reported_optimum=1.724852,
        optimum_position=np.array(
            [0.205729640, 3.470488666, 9.036623910, 0.205729640]
        ),
    )


def _spring() -> SuiteEntry:
    # x = (wire diameter d, mean coil diameter D, active coil count N)
    def terms(x, first):
        d, D, N = x.T
        out = np.empty((5, len(x)))
        d2, D2 = d * d, D**2
        d4 = d2 * d2
        if not first:
            out[0] = (N + 2.0) * D * d2
        out[1] = 1.0 - (D2 * D) * N / (71785.0 * d4)
        out[2] = (
            (4.0 * D2 - d * D) / (12566.0 * (D * (d2 * d) - d4))
            + 1.0 / (5108.0 * d2)
            - 1.0
        )
        out[3] = 1.0 - 140.45 * d / (D2 * N)
        out[4] = (d + D) / 1.5 - 1.0
        return out[first:]

    problem = Problem(
        name="spring",
        lower=np.array([0.05, 0.25, 2.0]),
        upper=np.array([2.0, 1.3, 15.0]),
        terms=terms,
        n_inequalities=4,
    )
    return SuiteEntry(
        problem=problem,
        suite="engineering",
        reported_feasibility_ratio=0.7467,
        reported_optimum=0.012665,
        optimum_position=np.array([0.051689061, 0.356717744, 11.288965504]),
    )


def _himmelblau() -> SuiteEntry:
    # g04 with the 0.00026 coefficient of the Hu et al. statement.
    return SuiteEntry(
        problem=_g04_form("himmelblau", 0.00026),
        suite="engineering",
        reported_feasibility_ratio=52.0696,
        reported_optimum=-31025.561420,
        optimum_position=np.array(
            [78.0, 33.0, 27.070997106, 45.0, 44.969242550]
        ),
    )


# --------------------------------------------------------------------- g-suite


def _g01() -> SuiteEntry:
    def terms(x, first):
        x = np.ascontiguousarray(x)
        out = np.empty((10, len(x)))
        if not first:
            out[0] = (
                5.0 * x[:, :4].sum(axis=1)
                - 5.0 * (x[:, :4] ** 2).sum(axis=1)
                - x[:, 4:13].sum(axis=1)
            )
        x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, _ = x.T
        twice1, twice2, twice3 = 2 * x1, 2 * x2, 2 * x3
        out[1] = twice1 + twice2 + x10 + x11 - 10
        out[2] = twice1 + twice3 + x10 + x12 - 10
        out[3] = twice2 + twice3 + x11 + x12 - 10
        out[4] = -8 * x1 + x10
        out[5] = -8 * x2 + x11
        out[6] = -8 * x3 + x12
        out[7] = -2 * x4 - x5 + x10
        out[8] = -2 * x6 - x7 + x11
        out[9] = -2 * x8 - x9 + x12
        return out[first:]

    lower = np.zeros(13)
    upper = np.array([1.0] * 9 + [100.0] * 3 + [1.0])
    problem = Problem("g01", lower, upper, terms, n_inequalities=9)
    x_star = np.array([1.0] * 9 + [3.0] * 3 + [1.0])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0003,
        reported_optimum=-15.0,
        optimum_position=x_star,
    )


def _g02() -> SuiteEntry:
    n = 20
    weights = np.arange(1.0, n + 1.0)
    weights.flags.writeable = False

    def terms(x, first):
        x = np.ascontiguousarray(x)
        out = np.empty((3, len(x)))
        if not first:
            c = np.cos(x)
            c2 = c * c
            num = (c2 * c2).sum(axis=1) - 2.0 * c2.prod(axis=1)
            den = np.sqrt((weights * x**2).sum(axis=1))
            out[0] = -np.abs(num / den)
        out[1] = 0.75 - x.prod(axis=1)
        out[2] = x.sum(axis=1) - 7.5 * n
        return out[first:]

    problem = Problem("g02", np.zeros(n), np.full(n, 10.0), terms, n_inequalities=2)
    x_star = np.array([
        3.162460842, 3.128330867, 3.094792006, 3.061450527, 3.027929784,
        2.993826197, 2.958668753, 2.921843078, 0.494825115, 0.488358210,
        0.482316426, 0.476645305, 0.471295503, 0.466231000, 0.461420050,
        0.456836648, 0.452458769, 0.448267622, 0.444247009, 0.440382860,
    ])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=99.9964,
        reported_optimum=-0.803619,
        optimum_position=x_star,
    )


def _g03() -> SuiteEntry:
    n = 10
    scale = np.sqrt(n) ** n

    def terms(x, first):
        x = np.ascontiguousarray(x)
        out = np.empty((2, len(x)))
        if not first:
            out[0] = -scale * x.prod(axis=1)
        out[1] = (x**2).sum(axis=1) - 1.0
        return out[first:]

    problem = Problem("g03", np.zeros(n), np.ones(n), terms, n_equalities=1)
    x_star = np.full(n, 1.0 / np.sqrt(n))
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0,
        reported_optimum=-1.0,
        optimum_position=x_star,
    )


def _g04_form(name: str, a14: float) -> Problem:
    """g04's objective, constraints and box, with ``a14`` the coefficient
    of ``x1 * x4`` in the first constraint (three double-sided ones)."""

    def terms(x, first):
        x1, x2, x3, x4, x5 = x.T
        out = np.empty((4, len(x)))
        x3_2 = x3**2
        if not first:
            out[0] = 5.3578547 * x3_2 + 0.8356891 * x1 * x5 + 37.293239 * x1 - 40792.141
        e = 85.334407 + 0.0056858 * x2 * x5 + a14 * x1 * x4 - 0.0022053 * x3 * x5
        np.maximum(e - 92.0, 0.0 - e, out=out[1])
        e = 80.51249 + 0.0071317 * x2 * x5 + 0.0029955 * x1 * x2 + 0.0021813 * x3_2
        np.maximum(e - 110.0, 90.0 - e, out=out[2])
        e = 9.300961 + 0.0047026 * x3 * x5 + 0.0012547 * x1 * x3 + 0.0019085 * x3 * x4
        np.maximum(e - 25.0, 20.0 - e, out=out[3])
        return out[first:]

    lower = np.array([78.0, 33.0, 27.0, 27.0, 27.0])
    upper = np.array([102.0, 45.0, 45.0, 45.0, 45.0])
    return Problem(name, lower, upper, terms, n_inequalities=3)


def _g04() -> SuiteEntry:
    x_star = np.array([78.0, 33.0, 29.9952560256816, 45.0, 36.7758129057882])
    return SuiteEntry(
        _g04_form("g04", 0.0006262), "g-suite",
        reported_feasibility_ratio=26.9552,
        reported_optimum=-30665.539,
        optimum_position=x_star,
    )


def _g05() -> SuiteEntry:
    def terms(x, first):
        x1, x2, x3, x4 = x.T
        out = np.empty((5, len(x)))
        if not first:
            out[0] = (
                3.0 * x1
                + 1e-6 * (x1 * x1 * x1)
                + 2.0 * x2
                + (2e-6 / 3.0) * (x2 * x2 * x2)
            )
        e = x3 - x4
        np.maximum(e - 0.55, -0.55 - e, out=out[1])
        out[2] = 1000.0 * np.sin(-x3 - 0.25) + 1000.0 * np.sin(-x4 - 0.25) + 894.8 - x1
        out[3] = 1000.0 * np.sin(x3 - 0.25) + 1000.0 * np.sin(x3 - x4 - 0.25) + 894.8 - x2
        out[4] = 1000.0 * np.sin(x4 - 0.25) + 1000.0 * np.sin(x4 - x3 - 0.25) + 1294.8
        return out[first:]

    lower = np.array([0.0, 0.0, -0.55, -0.55])
    upper = np.array([1200.0, 1200.0, 0.55, 0.55])
    problem = Problem("g05", lower, upper, terms, n_inequalities=1, n_equalities=3)
    x_star = np.array([679.945148297, 1026.06697600, 0.118876369094, -0.396233485215])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0,
        reported_optimum=5126.498,
        optimum_position=x_star,
    )


def _g06() -> SuiteEntry:
    def terms(x, first):
        x1, x2 = x[:, 0], x[:, 1]
        out = np.empty((3, len(x)))
        if not first:
            a = x1 - 10.0
            b = x2 - 20.0
            out[0] = a * a * a + b * b * b
        b5 = (x2 - 5.0) ** 2
        out[1] = -((x1 - 5.0) ** 2) - b5 + 100.0
        out[2] = (x1 - 6.0) ** 2 + b5 - 82.81
        return out[first:]

    problem = Problem(
        "g06", np.array([13.0, 0.0]), np.array([100.0, 100.0]), terms, n_inequalities=2
    )
    x_star = np.array([14.095, 0.84296079])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0067,
        reported_optimum=-6961.81388,
        optimum_position=x_star,
    )


def _g07() -> SuiteEntry:
    def terms(x, first):
        x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = x.T
        out = np.empty((9, len(x)))
        x1_2 = x1**2
        if not first:
            out[0] = (
                x1_2 + x2**2 + x1 * x2 - 14 * x1 - 16 * x2
                + (x3 - 10) ** 2 + 4 * (x4 - 5) ** 2 + (x5 - 3) ** 2
                + 2 * (x6 - 1) ** 2 + 5 * x7**2 + 7 * (x8 - 11) ** 2
                + 2 * (x9 - 10) ** 2 + (x10 - 7) ** 2 + 45
            )
        out[1] = -105 + 4 * x1 + 5 * x2 - 3 * x7 + 9 * x8
        out[2] = 10 * x1 - 8 * x2 - 17 * x7 + 2 * x8
        out[3] = -8 * x1 + 2 * x2 + 5 * x9 - 2 * x10 - 12
        out[4] = 3 * (x1 - 2) ** 2 + 4 * (x2 - 3) ** 2 + 2 * x3**2 - 7 * x4 - 120
        out[5] = 5 * x1_2 + 8 * x2 + (x3 - 6) ** 2 - 2 * x4 - 40
        out[6] = x1_2 + 2 * (x2 - 2) ** 2 - 2 * x1 * x2 + 14 * x5 - 6 * x6
        out[7] = 0.5 * (x1 - 8) ** 2 + 2 * (x2 - 4) ** 2 + 3 * x5**2 - x6 - 30
        out[8] = -3 * x1 + 6 * x2 + 12 * (x9 - 8) ** 2 - 7 * x10
        return out[first:]

    problem = Problem(
        "g07", np.full(10, -10.0), np.full(10, 10.0), terms, n_inequalities=8
    )
    x_star = np.array([
        2.171996, 2.363683, 8.773926, 5.095984, 0.990655,
        1.430574, 1.321644, 9.828726, 8.280092, 8.375927,
    ])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0001,
        reported_optimum=24.306209,
        optimum_position=x_star,
    )


def _g08() -> SuiteEntry:
    def terms(x, first):
        x1, x2 = x[:, 0], x[:, 1]
        out = np.empty((3, len(x)))
        x1_2 = x1**2
        if not first:
            s = np.sin(2 * np.pi * x1)
            out[0] = -(s * s * s * np.sin(2 * np.pi * x2)) / (x1_2 * x1 * (x1 + x2))
        out[1] = x1_2 - x2 + 1.0
        out[2] = 1.0 - x1 + (x2 - 4.0) ** 2
        return out[first:]

    # The objective is singular at x1 = 0; the open interval (0, 10) is
    # realized with a tiny positive lower bound so every in-box point
    # evaluates to a finite value.
    problem = Problem(
        "g08", np.full(2, 1e-6), np.full(2, 10.0), terms, n_inequalities=2
    )
    x_star = np.array([1.22797135260752599, 4.24537336612274885])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.8607,
        reported_optimum=-0.095825,
        optimum_position=x_star,
    )


def _g09() -> SuiteEntry:
    def terms(x, first):
        x1, x2, x3, x4, x5, x6, x7 = x.T
        out = np.empty((5, len(x)))
        x1_2, x2_2, x3_2, x6_2 = x1**2, x2 * x2, x3 * x3, x6**2
        if not first:
            x5_2, x7_2 = x5 * x5, x7 * x7
            out[0] = (
                (x1 - 10) ** 2 + 5 * (x2 - 12) ** 2 + x3_2 * x3_2 + 3 * (x4 - 11) ** 2
                + 10 * (x5_2 * x5_2 * x5_2) + 7 * x6_2 + x7_2 * x7_2
                - 4 * x6 * x7 - 10 * x6 - 8 * x7
            )
        out[1] = -127 + 2 * x1_2 + 3 * (x2_2 * x2_2) + x3 + 4 * x4**2 + 5 * x5
        out[2] = -282 + 7 * x1 + 3 * x2 + 10 * x3_2 + x4 - x5
        out[3] = -196 + 23 * x1 + x2_2 + 6 * x6_2 - 8 * x7
        out[4] = 4 * x1_2 + x2_2 - 3 * x1 * x2 + 2 * x3_2 + 5 * x6 - 11 * x7
        return out[first:]

    problem = Problem(
        "g09", np.full(7, -10.0), np.full(7, 10.0), terms, n_inequalities=4
    )
    x_star = np.array([
        2.330499, 1.951372, -0.477541, 4.365726, -0.624487, 1.038131, 1.594227,
    ])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.5264,
        reported_optimum=680.630057,
        optimum_position=x_star,
    )


def _g10() -> SuiteEntry:
    def terms(x, first):
        x1, x2, x3, x4, x5, x6, x7, x8 = x.T
        out = np.empty((7, len(x)))
        if not first:
            out[0] = x1 + x2 + x3
        out[1] = -1.0 + 0.0025 * (x4 + x6)
        out[2] = -1.0 + 0.0025 * (x5 + x7 - x4)
        out[3] = -1.0 + 0.01 * (x8 - x5)
        out[4] = -x1 * x6 + 833.33252 * x4 + 100.0 * x1 - 83333.333
        out[5] = -x2 * x7 + 1250.0 * x5 + x2 * x4 - 1250.0 * x4
        out[6] = -x3 * x8 + 1250000.0 + x3 * x5 - 2500.0 * x5
        return out[first:]

    lower = np.array([100.0, 1000.0, 1000.0] + [10.0] * 5)
    upper = np.array([10000.0] * 3 + [1000.0] * 5)
    problem = Problem("g10", lower, upper, terms, n_inequalities=6)
    x_star = np.array([
        579.306685018, 1359.97067807, 5109.97065743,
        182.017699631, 295.601173703, 217.982300369,
        286.416525928, 395.601173703,
    ])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0006,
        reported_optimum=7049.25,
        optimum_position=x_star,
    )


def _g11() -> SuiteEntry:
    def terms(x, first):
        x1, x2 = x[:, 0], x[:, 1]
        out = np.empty((2, len(x)))
        x1_2 = x1**2
        if not first:
            out[0] = x1_2 + (x2 - 1.0) ** 2
        out[1] = x2 - x1_2
        return out[first:]

    problem = Problem("g11", np.full(2, -1.0), np.ones(2), terms, n_equalities=1)
    x_star = np.array([1.0 / np.sqrt(2.0), 0.5])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0,
        reported_optimum=0.75,
        optimum_position=x_star,
    )


def _g12() -> SuiteEntry:
    # Feasible space: 9^3 disjoint spheres of radius 0.25 centred on the
    # integer grid {1..9}^3.  Membership in the nearest sphere decides
    # feasibility, so the whole family collapses to one stepwise
    # constraint whose violation grades by distance to the nearest sphere.
    def terms(x, first):
        x = np.ascontiguousarray(x)
        out = np.empty((2, len(x)))
        if not first:
            x1, x2, x3 = x.T
            out[0] = -(100.0 - (x1 - 5.0) ** 2 - (x2 - 5.0) ** 2 - (x3 - 5.0) ** 2) / 100.0
        centers = np.clip(np.round(x), 1.0, 9.0)
        out[1] = ((x - centers) ** 2).sum(axis=1) - 0.0625
        return out[first:]

    problem = Problem("g12", np.zeros(3), np.full(3, 10.0), terms, n_inequalities=1)
    x_star = np.array([5.0, 5.0, 5.0])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=4.7713,
        reported_optimum=-1.0,
        optimum_position=x_star,
    )


def _g13() -> SuiteEntry:
    def terms(x, first):
        x = np.ascontiguousarray(x)
        x1, x2, x3, x4, x5 = x.T
        out = np.empty((4, len(x)))
        if not first:
            out[0] = np.exp(x.prod(axis=1))
        out[1] = (x**2).sum(axis=1) - 10.0
        out[2] = x2 * x3 - 5.0 * x4 * x5
        out[3] = x1 * x1 * x1 + x2 * x2 * x2 + 1.0
        return out[first:]

    lower = np.array([-2.3, -2.3, -3.2, -3.2, -3.2])
    upper = np.array([2.3, 2.3, 3.2, 3.2, 3.2])
    problem = Problem("g13", lower, upper, terms, n_equalities=3)
    x_star = np.array([
        -1.717143, 1.595709, 1.827247, -0.7636413, -0.763645,
    ])
    return SuiteEntry(
        problem, "g-suite",
        reported_feasibility_ratio=0.0,
        reported_optimum=0.053950,
        optimum_position=x_star,
    )


def _build_registry() -> Dict[str, SuiteEntry]:
    entries = [
        _pressure_vessel("pressure-vessel-mixed", mixed=True),
        _pressure_vessel("pressure-vessel-continuous", mixed=False),
        _welded_beam(),
        _spring(),
        _himmelblau(),
        _g01(), _g02(), _g03(), _g04(), _g05(), _g06(), _g07(),
        _g08(), _g09(), _g10(), _g11(), _g12(), _g13(),
    ]
    return {entry.problem.name: entry for entry in entries}


_REGISTRY = _build_registry()


def registry_names() -> list:
    return list(_REGISTRY)


def all_entries() -> list:
    return list(_REGISTRY.values())


def get_entry(name: str) -> SuiteEntry:
    """Look a registry entry (problem plus metadata) up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(_REGISTRY)
        raise KeyError(f"unknown problem {name!r}; valid names: {valid}") from None


def get_problem(name: str) -> Problem:
    """Look a problem up by registry name."""
    return get_entry(name).problem


# Rows of each block the feasibility estimator draws and tests.  Each
# block costs some 20-60 NumPy calls whatever its rows, so the cost per
# row falls well past MAX_BATCH_ROWS, until a block's constraint values
# outgrow the cache (2-core host, 2 MiB L2, min of 7, ns per row at
# 2,048 / 6,144 / 16,384 rows: g04 53 / 42 / 67, g08 20 / 14 / 12,
# spring 40 / 32 / 58, welded-beam 76 / 59 / 114, g02 146 / 139 / 144),
# while one block's samples and temporaries add to peak memory: perfbench
# feasibility-mc (seed 31, median of 3) ran 14.9 / 16.8 / 17.9 / 18.6 M
# evaluations per second at 2,048 / 4,096 / 6,144 / 8,192 rows, at peak
# RSS 67.8 / 67.9 / 68.3 / 68.6 MiB.
_FEASIBILITY_BLOCK_ROWS = 6144


def estimate_feasibility_ratio(
    problem: Problem,
    samples: int,
    tolerances: Tolerances,
    seed: int,
) -> float:
    """Percentage of uniform box samples that are feasible.

    Deterministic for a fixed seed.  Discrete dimensions are snapped to
    their grid before testing, mirroring swarm initialization.  The
    samples are drawn by :meth:`~cpso.problem.Problem.sample_uniform`
    and tested with :func:`~cpso.problem.sampled_mask` in blocks of
    ``_FEASIBILITY_BLOCK_ROWS`` (6,144) rows, each dropped before the
    next is drawn, so memory stays bounded at one block; consecutive
    uniform blocks hold the same values as one block of their total
    size, so the ratio does not depend on the block size.  The
    objective is never evaluated; a constraint fault names its point's
    index within its block.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    feasible = 0
    for start in range(0, samples, _FEASIBILITY_BLOCK_ROWS):
        m = min(_FEASIBILITY_BLOCK_ROWS, samples - start)
        pts = problem.sample_uniform(rng, m)
        feasible += int(np.count_nonzero(sampled_mask(problem, pts, tolerances)))
        del pts  # the next block is drawn with this one freed
    return 100.0 * feasible / samples
