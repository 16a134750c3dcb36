"""Property tests of the array functions behind ``Swarm.step``.

Each function replaces a per-particle loop, so each is checked against
the loop it replaces: the lbest lookup against a per-particle
``lexsort``, the batched repair against one-row calls, both blocks of
per-particle draws against draws taken one particle at a time, the
blocked feasible initialization against drawing and evaluating one
256-row chunk at a time, the fused evaluation against sanitizing
each function's output on its own, the feasibility mask against row
reductions, and in-place sampling against its affine formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpso.benchmarks import get_problem, registry_names
from cpso.handlers import ChtConfig, priority_keys, repair_moves, replacement_mask
from cpso.problem import (
    BatchEval,
    EvaluationFault,
    Problem,
    RecSchedule,
    Tolerances,
    evaluate_batch,
)
from cpso.swarm import InitializationFailure, SwarmConfig, Topology, init_swarm, lbest_index

from conftest import make_toy1

TOL = Tolerances()
TOY = make_toy1()
REPAIRS = ("bm", "bmem", "bmpem")

# ----------------------------------------------------------------- lbest

KEY_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, np.inf])


@st.composite
def topologies(draw):
    s = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["ring", "fully-connected"]))
    if kind == "ring":
        return Topology("ring", s, window=draw(st.integers(3, s)))
    return Topology(kind, s)


@settings(deadline=None)
@given(topologies(), st.data())
def test_lbest_index_matches_lexsort(topology, data):
    s = topology.swarm_size
    keys = st.lists(KEY_VALUES | st.floats(-3, 3), min_size=s, max_size=s)
    primary = np.array(data.draw(keys))
    secondary = np.array(data.draw(keys))
    neighbors = topology.neighbor_matrix
    expect = []
    for i in range(s):
        c = np.flatnonzero(neighbors[i])
        # lexsort: last key is most significant; ties keep the lowest index.
        expect.append(c[np.lexsort((c, secondary[c], primary[c]))[0]])
    assert list(lbest_index(neighbors, primary, secondary)) == expect


# ---------------------------------------------------------------- repair

# Move kinds on the toy problem (x1 + x2 <= 1 on [-2, 2]^2), from a
# feasible start: "box" steps leave the box below both lower bounds and
# keep x1 + x2 <= 1, so bmem uses its down-only ladder; "constraint"
# steps break x1 + x2 <= 1, so bmem uses its full ladder.
MOVES = {
    "box": (-8.0, -4.5),
    "constraint": (4.5, 8.0),
    "any": (-4.0, 4.0),
}


@st.composite
def infeasible_moves(draw):
    k = draw(st.integers(1, 8))
    x_old, v = [], []
    for _ in range(k):
        x1 = draw(st.floats(-2.0, 2.0))
        x_old.append([x1, draw(st.floats(-2.0, min(2.0, 1.0 - x1)))])
        low, high = MOVES[draw(st.sampled_from(sorted(MOVES)))]
        v.append([draw(st.floats(low, high)) for _ in range(2)])
    x_old, v = np.array(x_old), np.array(v)
    full = evaluate_batch(TOY, x_old + v)
    bad = ~full.feasible(TOL)
    return x_old[bad], v[bad], full.take(bad)


def _repair(moves, variant, seed):
    x_old, v, full = moves
    rng = np.random.default_rng(seed)
    rep = repair_moves(x_old, v, full, TOY, TOL, variant, rng, 19)
    return rep, rng


@settings(deadline=None)
@given(infeasible_moves(), st.sampled_from(REPAIRS), st.integers(0, 2**32))
def test_batched_repair_equals_one_row_calls(moves, variant, seed):
    x_old, v, full = moves
    rep, rng = _repair(moves, variant, seed)
    one_rng = np.random.default_rng(seed)
    accepted_positions = []
    for r in range(len(x_old)):
        one = repair_moves(
            x_old[r : r + 1], v[r : r + 1], full.take([r]), TOY, TOL, variant, one_rng, 19
        )
        assert np.array_equal(one.positions[0], rep.positions[r])
        assert np.array_equal(one.velocities[0], rep.velocities[r])
        assert one.accepted[0] == rep.accepted[r]
        assert one.trials_charged[0] == rep.trials_charged[r]
        accepted_positions.extend(one.evaluation.positions)
    assert np.array_equal(np.reshape(accepted_positions, (-1, 2)), rep.evaluation.positions)
    assert rng.bit_generator.state == one_rng.bit_generator.state


@settings(deadline=None)
@given(infeasible_moves(), st.sampled_from(REPAIRS), st.integers(0, 2**32))
def test_repair_postcondition(moves, variant, seed):
    x_old, _, _ = moves
    rep, _ = _repair(moves, variant, seed)
    assert np.array_equal(rep.evaluation.positions, rep.positions[rep.accepted])
    for r in range(len(x_old)):
        if rep.accepted[r]:
            assert evaluate_batch(TOY, rep.positions[r : r + 1]).nac(TOL)[0] == 0
        else:
            assert np.array_equal(rep.positions[r], x_old[r])
            assert np.all(rep.velocities[r] == 0.0)
        assert 1 <= rep.trials_charged[r] <= 19


# ------------------------------------------------------------ draw order


@settings(deadline=None)
@given(infeasible_moves(), st.integers(0, 2**32))
def test_bmpem_block_draws_as_per_particle_blocks(moves, seed):
    _, rng = _repair(moves, "bmpem", seed)
    one_rng = np.random.default_rng(seed)
    for _ in range(len(moves[0])):
        one_rng.uniform(0.0, 1.5, 19)
    assert rng.bit_generator.state == one_rng.bit_generator.state


def _batch(conflict, cv):
    m = len(conflict)
    return BatchEval(
        positions=np.zeros((m, 1)),
        conflict=np.array(conflict),
        ineq_violations=np.zeros((m, 0)),
        eq_violations=np.zeros((m, 0)),
        box_violations=np.zeros((m, 1)),
        cv=np.array(cv),
    )


@st.composite
def memory_pairs(draw):
    s = draw(st.integers(1, 12))

    def column(values):
        return draw(st.lists(values, min_size=s, max_size=s))

    small = st.sampled_from([0.0, 0.5, 1.0])
    cand = _batch(column(small), column(small))
    inc = _batch(column(small), column(small))
    flags = st.booleans()
    return cand, inc, np.array(column(flags)), np.array(column(flags))


@settings(deadline=None)
@given(memory_pairs(), st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(0, 2**32))
def test_pfppr_block_equals_per_particle_draws(pair, prob, seed):
    cand, inc, cf, nf = pair
    rng = np.random.default_rng(seed)
    cht = ChtConfig("pfppr", prob=prob)
    got = replacement_mask(
        cht, cand, priority_keys(cand, cf), inc, priority_keys(inc, nf), rng
    )

    one_rng = np.random.default_rng(seed)
    expect = []
    for i in range(len(cand)):
        if cf[i] and nf[i]:
            expect.append(cand.conflict[i] < inc.conflict[i])
        elif one_rng.random() < prob:
            expect.append(cf[i] if cf[i] != nf[i] else cand.cv[i] < inc.cv[i])
        else:
            expect.append(cand.conflict[i] < inc.conflict[i])
    assert list(got) == expect
    assert rng.bit_generator.state == one_rng.bit_generator.state


# -------------------------------------------------------- feasible start

INIT_PROBLEMS = {
    name: get_problem(name)
    for name in ("g06", "welded-beam", "g13", "pressure-vessel-mixed")
}
BUDGETS = (1, 100, 255, 256, 257, 300, 1000, 4096, 5000, 20_000)


def per_chunk_init(problem, seed, size, budget):
    """The per-particle loop ``init_swarm`` replaces: one chunk per call.

    Returns ``(positions, rejected, failure message, generator, rows
    drawn)``; on failure, ``rejected`` counts every candidate read.
    """
    rng = np.random.default_rng(seed)
    positions = np.empty((size, problem.dimension))
    extra = drawn = 0
    for i in range(size):
        attempts = 0
        while attempts < budget:
            m = min(256, budget - attempts)
            chunk = problem.sample_uniform(rng, m)
            drawn += m
            hit = np.flatnonzero(evaluate_batch(problem, chunk).feasible(TOL))
            if hit.size:
                positions[i] = chunk[hit[0]]
                attempts += int(hit[0]) + 1
                break
            attempts += m
        else:
            message = (
                f"particle {i} found no feasible position in "
                f"{budget} attempts on {problem.name}"
            )
            return None, extra + i + budget, message, rng, drawn
        extra += attempts - 1
    return positions, extra, None, rng, drawn


def stream_init(problem, seed, size, budget):
    """``init_swarm`` with ``pf``: the first four results of :func:`per_chunk_init`."""
    # default_rng returns a Generator unaltered, so rng is the swarm's.
    rng = np.random.default_rng(seed)
    config = SwarmConfig(size, 1, Topology.from_nn(2, size), rng)
    try:
        swarm = init_swarm(problem, config, ChtConfig("pf"), budget)
    except InitializationFailure as failure:
        return None, failure.evaluations, str(failure), rng
    # The initial batch evaluation charges one evaluation per particle.
    return swarm.positions, swarm.init_evaluations - size, None, rng


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(sorted(INIT_PROBLEMS)),
    st.integers(3, 12),
    st.sampled_from(BUDGETS),
    st.integers(0, 2**32),
)
def test_feasible_init_equals_per_chunk_loop(name, size, budget, seed):
    problem = INIT_PROBLEMS[name]
    got = stream_init(problem, seed, size, budget)
    expect = per_chunk_init(problem, seed, size, budget)
    if expect[0] is None:
        assert got[0] is None
    else:
        assert np.array_equal(got[0], expect[0])
    assert got[1:3] == expect[1:3]
    assert got[3].bit_generator.state == expect[3].bit_generator.state


def _faulty_halfline(bad_points):
    """x <= -99.9 on [-100, 100] (0.05% feasible, ~8 chunks per particle),
    with a non-finite objective exactly at ``bad_points``, all in the box."""
    evaluated = []

    def objective(x):
        evaluated.extend(x[:, 0])
        return np.where(np.isin(x[:, 0], bad_points), np.nan, x[:, 0])

    problem = Problem(
        name="faulty-halfline",
        lower=np.array([-100.0]),
        upper=np.array([100.0]),
        objective=objective,
        inequalities=(lambda x: x[:, 0] + 99.9,),
    )
    return problem, evaluated


FAULT_SEED, FAULT_SIZE, FAULT_BUDGET = 7, 5, 20_000


def test_feasible_init_ignores_faults_in_rows_never_read():
    clean, _ = _faulty_halfline([])
    positions, extra, _, rng, drawn = per_chunk_init(clean, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)
    stream = clean.sample_uniform(np.random.default_rng(FAULT_SEED), drawn + 4096)
    # Only a block's overdraw reaches the rows past the last chunk read.
    problem, evaluated = _faulty_halfline(stream[drawn:, 0])
    got = stream_init(problem, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)
    assert np.isin(stream[drawn:, 0], evaluated).any()
    assert np.array_equal(got[0], positions)
    assert got[1] == extra
    assert got[3].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("where", [0.1, 0.5, 0.999])
def test_feasible_init_fault_in_a_read_chunk_raises_as_per_chunk(where):
    clean, _ = _faulty_halfline([])
    drawn = per_chunk_init(clean, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)[4]
    stream = clean.sample_uniform(np.random.default_rng(FAULT_SEED), drawn)
    problem, _ = _faulty_halfline(stream[int(where * drawn), 0])
    with pytest.raises(EvaluationFault) as expect:
        per_chunk_init(problem, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)
    with pytest.raises(EvaluationFault) as got:
        stream_init(problem, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)
    assert str(got.value) == str(expect.value)


# ------------------------------------------------------------ evaluation


def _sanitize(values, in_box, what):
    """One function's output: +inf for non-finite values outside the box."""
    finite = np.isfinite(values)
    if finite.all():
        return values
    if np.any(~finite & in_box):
        idx = int(np.flatnonzero(~finite & in_box)[0])
        raise EvaluationFault(f"non-finite {what} at in-box point index {idx}")
    return np.where(finite, values, np.inf)


def per_function_evaluate(problem, x):
    """The loop ``evaluate_batch`` replaces: one finiteness check per function."""
    in_box = np.all((x >= problem.lower) & (x <= problem.upper), axis=1)
    conflict = _sanitize(np.asarray(problem.objective(x), dtype=float), in_box, "objective")
    ineq = np.empty((x.shape[0], problem.n_inequalities))
    for j, g in enumerate(problem.inequalities):
        raw = _sanitize(np.asarray(g(x), dtype=float), in_box, f"inequality {j}")
        ineq[:, j] = np.maximum(0.0, raw)
    eq = np.empty((x.shape[0], problem.n_equalities))
    for j, h in enumerate(problem.equalities):
        raw = _sanitize(np.asarray(h(x), dtype=float), in_box, f"equality {j}")
        eq[:, j] = np.abs(raw)
    box = np.maximum(0.0, x - problem.upper) + np.maximum(0.0, problem.lower - x)
    cv = ineq.sum(axis=1) + eq.sum(axis=1) + box.sum(axis=1)
    return BatchEval(x, conflict, ineq, eq, box, cv)


FIELDS = ("positions", "conflict", "ineq_violations", "eq_violations", "box_violations", "cv")


@pytest.mark.parametrize("m", [1, 20, 40, 500, 4096])
@pytest.mark.parametrize("name", registry_names())
def test_evaluate_batch_equals_per_function_sanitize(name, m):
    problem = get_problem(name)
    rng = np.random.default_rng([m, len(name)])
    # Up to 30% of the span outside the box on either side; 6-63% of the
    # rows stay inside it, depending on the dimension.  A sampled batch
    # lies wholly inside it.
    reach = rng.uniform(0.0, 0.3, (m, 1)) * problem.span
    overshooting = problem.snap_to_grid(
        problem.lower - reach + rng.random((m, problem.dimension)) * (problem.span + 2 * reach)
    )
    for x in (overshooting, problem.sample_uniform(rng, m)):
        got = evaluate_batch(problem, x)
        expect = per_function_evaluate(problem, x)
        for field in FIELDS:
            a, b = getattr(got, field), getattr(expect, field)
            assert a.shape == b.shape and a.dtype == b.dtype, field
            assert a.tobytes() == b.tobytes(), field


def test_evaluate_batch_non_finite_and_signed_zero_outputs():
    # Non-finite values outside the box become +inf; an inequality of
    # -0.0 is a violation of +0.0, as np.maximum(0.0, -0.0) gives.
    problem = Problem(
        name="log",
        lower=np.array([1.0]),
        upper=np.array([2.0]),
        objective=lambda x: np.log(x[:, 0] - 0.5),
        inequalities=(lambda x: -np.sqrt(x[:, 0]), lambda x: np.full(len(x), -0.0)),
        equalities=(lambda x: np.where(x[:, 0] > 2.5, -np.inf, 0.0),),
    )
    x = np.array([[1.5], [0.5], [-1.0], [3.0]])
    with np.errstate(all="ignore"):
        got = evaluate_batch(problem, x)
        expect = per_function_evaluate(problem, x)
    assert list(got.conflict[1:3]) == [np.inf, np.inf]
    assert got.ineq_violations[2, 0] == np.inf
    assert got.eq_violations[3, 0] == np.inf
    for field in FIELDS:
        assert getattr(got, field).tobytes() == getattr(expect, field).tobytes(), field


def test_evaluate_batch_fault_names_first_faulty_function():
    # Non-finite values in three functions at once.  The objective's is
    # outside the box (row 1), so it becomes +inf; inequality 1 (rows 2
    # and 4) precedes equality 0 (row 0) in the order objective,
    # inequalities, equalities, so it is the one reported, at its first
    # in-box row.
    def nan_at(rows):
        return lambda x: np.where(np.isin(np.arange(len(x)), rows), np.nan, x[:, 0])

    problem = Problem(
        name="faulty",
        lower=np.array([0.0, 0.0]),
        upper=np.array([1.0, 1.0]),
        objective=nan_at([1]),
        inequalities=(lambda x: x[:, 0] - 1.0, nan_at([2, 4])),
        equalities=(nan_at([0]),),
    )
    x = np.array([[0.5, 0.5], [1.5, 0.5], [0.2, 0.3], [0.1, 0.9], [0.4, 0.4]])
    message = "non-finite inequality 1 at in-box point index 2"
    with pytest.raises(EvaluationFault, match=message):
        per_function_evaluate(problem, x)
    with pytest.raises(EvaluationFault, match=message):
        evaluate_batch(problem, x)


# ------------------------------------------------------ feasibility mask


def per_row_feasible(ev, tol):
    """The row reductions ``BatchEval.feasible`` replaces."""
    return (
        (ev.ineq_violations <= tol.ineq).all(axis=1)
        & (ev.eq_violations <= tol.eq).all(axis=1)
        & (ev.box_violations <= tol.ineq).all(axis=1)
    )


MASK_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-13, 1e-12, 2e-12, 1e-4, 0.5, 2.5, 7.0, np.inf]
)
# Zero, the default, a loose tolerance and tolerances the size of a +rec
# schedule's initial one (half the mean box span: 1.0 on g11, 2.84 on
# g13), some equal to violation values above.
MASK_TOLERANCES = st.sampled_from([0.0, 1e-12, 1e-4, 0.5, 2.5, 7.0])


@st.composite
def violation_batches(draw):
    m = draw(st.integers(0, 40))
    q, e, n = draw(st.integers(0, 9)), draw(st.integers(0, 3)), draw(st.integers(1, 5))

    def block(k):
        values = draw(st.lists(MASK_VALUES, min_size=m * k, max_size=m * k))
        return np.array(values, dtype=float).reshape(m, k)

    ineq, eq, box = block(q), block(e), block(n)
    return BatchEval(np.zeros((m, n)), np.zeros(m), ineq, eq, box, np.zeros(m))


@settings(deadline=None)
@given(violation_batches(), MASK_TOLERANCES, MASK_TOLERANCES)
def test_feasible_equals_per_row_reduction(ev, ineq_tol, eq_tol):
    tol = Tolerances(ineq=ineq_tol, eq=eq_tol)
    got = ev.feasible(tol)
    assert got.dtype == bool
    assert np.array_equal(got, per_row_feasible(ev, tol))


# No inequalities (g11, g13), no equalities (g04, welded-beam), both
# kinds (g05) and a discrete grid, at points up to half a span outside
# the box, under the default and +rec-sized tolerances.
@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["g11", "g13", "g04", "welded-beam", "g05", "pressure-vessel-mixed"]),
    st.integers(1, 300),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_feasible_equals_per_row_reduction_on_problems(name, m, reach, seed):
    problem = get_problem(name)
    rng = np.random.default_rng(seed)
    x = problem.lower - reach * problem.span + rng.random(
        (m, problem.dimension)
    ) * (1 + 2 * reach) * problem.span
    with np.errstate(over="ignore"):  # g13's exp outside the box
        ev = evaluate_batch(problem, problem.snap_to_grid(x))
    rec = RecSchedule.for_problem(problem).initial_tol
    for tol in (TOL, Tolerances(eq=rec), Tolerances(ineq=rec, eq=rec)):
        assert np.array_equal(ev.feasible(tol), per_row_feasible(ev, tol))


# -------------------------------------------------------------- sampling


@pytest.mark.parametrize("count", [0, 1, 7, 2048])
@pytest.mark.parametrize("name", ["g02", "welded-beam", "pressure-vessel-mixed"])
def test_sample_uniform_equals_affine_then_snap(name, count):
    problem = get_problem(name)
    got_rng, expect_rng = np.random.default_rng(count), np.random.default_rng(count)
    got = problem.sample_uniform(got_rng, count)
    expect = problem.snap_to_grid(
        problem.lower + expect_rng.random((count, problem.dimension)) * problem.span
    )
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()
    assert got_rng.bit_generator.state == expect_rng.bit_generator.state
