import tracemalloc

import numpy as np
import pytest

from cpso import benchmarks
from cpso.benchmarks import (
    all_entries,
    estimate_feasibility_ratio,
    get_entry,
    get_problem,
    registry_names,
)
from cpso.problem import EvaluationFault, Tolerances, evaluate_batch, sampled_mask

from conftest import make_toy1, with_term

TOL = Tolerances()
# Rows of each block the feasibility estimator draws and tests.
BLOCK = benchmarks._FEASIBILITY_BLOCK_ROWS


def test_registry_cardinality():
    names = registry_names()
    assert len(names) == 18
    assert sorted(names) == sorted(row[0] for row in DECLARED)
    assert sum(1 for e in all_entries() if e.suite == "g-suite") == 13
    assert sum(1 for e in all_entries() if e.suite == "engineering") == 5


def test_unknown_name_lists_registry():
    with pytest.raises(KeyError, match="g08"):
        get_entry("nosuch")


# Every registered problem's dimension, inequality count (NI) and equality
# count (NE), a double-sided constraint counting once, and its reported
# feasibility ratio (percent).
DECLARED = [
    ("g01", 13, 9, 0, 0.0003),
    ("g02", 20, 2, 0, 99.9964),
    ("g03", 10, 0, 1, 0.0),
    ("g04", 5, 3, 0, 26.9552),
    ("g05", 4, 1, 3, 0.0),
    ("g06", 2, 2, 0, 0.0067),
    ("g07", 10, 8, 0, 0.0001),
    ("g08", 2, 2, 0, 0.8607),
    ("g09", 7, 4, 0, 0.5264),
    ("g10", 8, 6, 0, 0.0006),
    ("g11", 2, 0, 1, 0.0),
    ("g12", 3, 1, 0, 4.7713),
    ("g13", 5, 0, 3, 0.0),
    ("spring", 3, 4, 0, 0.7467),
    ("welded-beam", 4, 7, 0, 2.6475),
    ("himmelblau", 5, 3, 0, 52.0696),
    ("pressure-vessel-continuous", 4, 3, 0, 75.9314),
    ("pressure-vessel-mixed", 4, 3, 0, 75.8937),
]


@pytest.mark.parametrize("name, dim, ni, ne, ratio", DECLARED)
def test_declared_metadata(name, dim, ni, ne, ratio):
    e = get_entry(name)
    assert e.problem.dimension == dim
    assert e.problem.n_inequalities == ni
    assert e.problem.n_equalities == ne
    assert e.reported_feasibility_ratio == pytest.approx(ratio)


def test_pressure_vessel_mixed_grid():
    p = get_problem("pressure-vessel-mixed")
    assert np.array_equal(~np.isnan(p.grid_steps), [True, True, False, False])
    assert p.grid_steps[0] == 0.0625 and p.grid_steps[1] == 0.0625
    assert get_problem("pressure-vessel-continuous").grid_steps is None


def test_every_problem_finite_on_random_in_box_points():
    rng = np.random.default_rng(11)
    for e in all_entries():
        pts = e.problem.sample_uniform(rng, 10_000)
        ev = evaluate_batch(e.problem, pts)
        assert np.isfinite(ev.conflict).all(), e.problem.name
        assert np.isfinite(ev.cv).all(), e.problem.name


def test_reported_optima_attained_by_stored_positions():
    # Registry self-check: the frozen best-known position reproduces the
    # reported conflict and is feasible at a loose tolerance.
    loose = Tolerances(ineq=1e-3, eq=1e-3)
    checked = 0
    for e in all_entries():
        if e.reported_optimum is None or e.optimum_position is None:
            continue
        ev = evaluate_batch(e.problem, e.optimum_position[None, :])
        rel = abs(ev.conflict[0] - e.reported_optimum) / max(
            1.0, abs(e.reported_optimum)
        )
        assert rel < 1e-4, e.problem.name
        assert ev.feasible(loose)[0], e.problem.name
        checked += 1
    assert checked >= 17


def test_g08_optimum_by_grid_refinement():
    # Independent oracle: shrink a 2-D grid around the best feasible
    # point; the refined optimum must agree with the reported value.
    p = get_problem("g08")
    lo, hi = p.lower.copy(), p.upper.copy()
    best_x, best_f = None, np.inf
    for _ in range(8):
        xs = np.linspace(lo[0], hi[0], 201)
        ys = np.linspace(lo[1], hi[1], 201)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        ev = evaluate_batch(p, grid)
        feas = ev.feasible(TOL)
        assert feas.any()
        idx = np.flatnonzero(feas)[np.argmin(ev.conflict[feas])]
        best_x, best_f = grid[idx], ev.conflict[idx]
        width = (hi - lo) / 20.0
        lo = np.maximum(p.lower, best_x - width)
        hi = np.minimum(p.upper, best_x + width)
    assert best_f == pytest.approx(-0.095825, abs=5e-7)
    assert best_f == pytest.approx(get_entry("g08").reported_optimum, abs=5e-7)


def test_toy1_ratio_matches_analytic_area():
    # Feasible fraction of the box is (16 - 4.5) / 16 = 71.875%.
    toy = make_toy1()
    n = 100_000
    ratio = estimate_feasibility_ratio(toy, n, TOL, seed=5)
    sigma = 100.0 * np.sqrt(0.71875 * (1 - 0.71875) / n)
    assert abs(ratio - 71.875) < 3 * sigma


def test_ratio_reproducible_and_seed_stable():
    p = get_problem("g04")
    a = estimate_feasibility_ratio(p, 50_000, TOL, seed=9)
    b = estimate_feasibility_ratio(p, 50_000, TOL, seed=9)
    assert a == b
    c = estimate_feasibility_ratio(p, 50_000, TOL, seed=10)
    sigma = 100.0 * np.sqrt(0.2696 * (1 - 0.2696) / 50_000)
    assert abs(c - 26.9552) < 4 * sigma


@pytest.mark.parametrize(
    "samples", [2_047, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, 200_000]
)
@pytest.mark.parametrize("name", ["g04", "g11", "pressure-vessel-mixed"])
def test_ratio_equals_one_block(name, samples):
    # The estimator streams blocks of BLOCK rows; consecutive uniform
    # blocks hold the values of one block of their total size.
    p = get_problem(name)
    block = p.sample_uniform(np.random.default_rng(13), samples)
    feasible = np.count_nonzero(evaluate_batch(p, block).feasible(TOL))
    assert estimate_feasibility_ratio(p, samples, TOL, seed=13) == 100.0 * feasible / samples


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ratio_holds_one_block_at_a_time():
    # g02's block of 20 dimensions is most of one block's peak, so a
    # previous block held while the next is drawn (BLOCK * 20 * 8 bytes)
    # lifts the estimator's peak to ~1.65 times one block's.
    p = get_problem("g02")

    def one_block():
        sampled_mask(p, p.sample_uniform(np.random.default_rng(4), BLOCK), TOL)

    one_block()  # the first call's one-off allocations are not a block's
    one = _traced_peak(one_block)
    streamed = _traced_peak(lambda: estimate_feasibility_ratio(p, 3 * BLOCK, TOL, seed=4))
    assert streamed < 1.5 * one


@pytest.mark.parametrize("index", [5, 2_053])
def test_ratio_fault_names_its_index_in_a_later_block(index):
    # Row BLOCK + index of the stream is row `index` of the second block;
    # index 2,053 is past the first 2,048 rows of a block.
    toy = make_toy1()
    point = toy.sample_uniform(np.random.default_rng(21), BLOCK + index + 1)[-1]

    def nan_at_point(x):
        out = x[:, 0] + x[:, 1] - 1.0
        out[(x == point).all(axis=1)] = np.nan
        return out

    faulty = with_term(toy, 1, nan_at_point)
    message = f"non-finite inequality 0 at in-box point index {index}"
    with pytest.raises(EvaluationFault, match=f"{message}$"):
        estimate_feasibility_ratio(faulty, 2 * BLOCK, TOL, seed=21)


def test_ratio_single_sample_is_all_or_nothing():
    p = get_problem("g02")
    assert estimate_feasibility_ratio(p, 1, TOL, seed=0) in (0.0, 100.0)


def test_tiny_feasible_regions_report_near_zero():
    for name in ("g03", "g05", "g11", "g13"):
        p = get_problem(name)
        assert estimate_feasibility_ratio(p, 20_000, TOL, seed=3) == 0.0


# repr(estimate_feasibility_ratio(problem, 1_000_000, Tolerances(), seed))
# for every registry problem at FROZEN_SEED, recorded while the estimator
# still evaluated every sample in full (objective, cv and all).
FROZEN_SEED = 20261018
FROZEN_RATIOS = {
    "pressure-vessel-mixed": "76.0001",
    "pressure-vessel-continuous": "76.0012",
    "welded-beam": "2.6671",
    "spring": "0.7504",
    "himmelblau": "52.0395",
    "g01": "0.0003",
    "g02": "99.9961",
    "g03": "0.0",
    "g04": "26.8859",
    "g05": "0.0",
    "g06": "0.0063",
    "g07": "0.0",
    "g08": "0.8516",
    "g09": "0.5263",
    "g10": "0.0005",
    "g11": "0.0",
    "g12": "4.7904",
    "g13": "0.0",
}


def test_frozen_ratios_cover_the_registry():
    assert sorted(FROZEN_RATIOS) == sorted(registry_names())


@pytest.mark.parametrize("name", sorted(FROZEN_RATIOS))
def test_ratio_frozen_at_a_million_samples(name):
    ratio = estimate_feasibility_ratio(get_problem(name), 1_000_000, TOL, FROZEN_SEED)
    assert repr(ratio) == FROZEN_RATIOS[name]
