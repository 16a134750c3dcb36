"""Property tests of the array functions behind ``Swarm.step``.

Each function replaces a per-particle loop, so each is checked against
the loop it replaces: the lbest lookup against a per-particle
``lexsort``, the batched repair against one-row calls and against a
reference written from its docstring, one trial at a time, both blocks of
per-particle draws against draws taken one particle at a time, the
per-run draw against each generator's own block, the blocked feasible
initialization, with and without faults, against drawing and evaluating
one 256-row chunk at a time, the fused evaluation against sanitizing
each function's output on its own, the feasibility mask against row
reductions, the mask from the constraints alone and the repair trials'
mask from raw terms against the full evaluation's, the finish of any
rows against their own evaluation, in-place sampling against its affine
formula, and the row-tiled bounds against plain broadcasting.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpso.benchmarks import estimate_feasibility_ratio, get_problem, registry_names
from cpso.handlers import ChtConfig, priority_keys, repair_moves, replacement_mask
from cpso import handlers
from cpso import problem as problem_module
from cpso.problem import (
    BatchEval,
    EvaluationFault,
    RecSchedule,
    Tolerances,
    evaluate_batch,
    sampled_mask,
)
from cpso.harness import ExperimentConfig
from cpso.swarm import (
    InitializationFailure,
    Swarm,
    SwarmConfig,
    Topology,
    initial_positions,
    lbest_index,
)

from conftest import from_functions, make_toy1, repair_rows, start_swarm, with_term

TOL = Tolerances()
TOY = make_toy1()
REPAIRS = ("bm", "bmem", "bmpem")

# ----------------------------------------------------------------- lbest

KEY_VALUES = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf])


@st.composite
def topologies(draw):
    s = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["ring", "fully-connected"]))
    if kind == "ring":
        return Topology("ring", s, window=draw(st.integers(3, s)))
    return Topology(kind, s)


def neighbourhood(topology, i):
    """Particle ``i``'s candidates, from the topology's definition."""
    s = topology.swarm_size
    if topology.kind == "fully-connected":
        return list(range(s))
    left = (topology.window - 1) // 2
    right = topology.window - 1 - left
    return sorted({(i + off) % s for off in range(-left, right + 1)})


@settings(deadline=None)
@given(topologies(), st.sampled_from([1, 2, 5]), st.data())
def test_lbest_index_matches_lexsort(topology, runs, data):
    # A swarm's candidate lists, as its step reads them, against a
    # lexsort of each particle's candidates among its own run's rows.
    s = topology.swarm_size
    m = runs * s
    keys = st.lists(KEY_VALUES | st.floats(-3, 3), min_size=m, max_size=m)
    primary = np.array(data.draw(keys))
    secondary = np.array(data.draw(keys))
    config = SwarmConfig(size=s, steps=1, topology=topology, seed=0)
    rngs = [np.random.default_rng(r) for r in range(runs)]
    swarm = Swarm(TOY, config, ChtConfig("pfpr"), rngs, np.zeros((m, 2)), [0] * runs)
    expect = []
    for r in range(runs):
        for i in range(s):
            c = np.array(neighbourhood(topology, i)) + r * s
            # lexsort: last key is most significant; ties keep the lowest index.
            expect.append(c[np.lexsort((c, secondary[c], primary[c]))[0]])
    candidates, share = swarm._lbest
    got = lbest_index(candidates, primary, secondary).repeat(share)
    assert got.tolist() == expect
    # A one-run list gives the run's best, as Swarm.best_rows reads it.
    for r in range(runs):
        rows = np.arange(r * s, (r + 1) * s)
        best = rows[np.lexsort((rows, secondary[rows], primary[rows]))[0]]
        assert lbest_index(rows[None], primary, secondary).tolist() == [best]


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
    bad = ~full_steps(x_old, v)[3]
    return x_old[bad], v[bad]


def full_steps(x_old, v):
    """The full steps' positions, raw terms, box excess and mask on the
    toy problem, as a swarm step hands them to ``repair_moves``."""
    return problem_module._raw_batch(TOY, x_old + v, TOL)


def finished(rep):
    """The :class:`BatchEval` of a repair's accepted trials, from the raw
    terms and box excess it wrote, as a swarm step finishes them."""
    return problem_module._finish(TOY, rep.positions[rep.accepted], rep.raw, rep.box)


def _repair(moves, variant, seed):
    x_old, v = moves
    rng = np.random.default_rng(seed)
    return repair_rows(x_old, v, TOY, TOL, variant, rng, 19), rng


@settings(deadline=None)
@given(infeasible_moves(), st.sampled_from(REPAIRS), st.integers(0, 2**32))
def test_batched_repair_equals_one_row_calls(moves, variant, seed):
    x_old, v = moves
    rep, rng = _repair(moves, variant, seed)
    one_rng = np.random.default_rng(seed)
    raws, boxes = [rep.raw[:, :0]], [rep.box[:0]]
    for r in range(len(x_old)):
        one = repair_rows(x_old[r : r + 1], v[r : r + 1], TOY, TOL, variant, one_rng, 19)
        assert np.array_equal(one.positions[0], rep.positions[r])
        assert np.array_equal(one.velocities[0], rep.velocities[r])
        assert one.accepted[0] == rep.accepted[r]
        assert one.trials_charged[0] == rep.trials_charged[r]
        raws.append(one.raw)
        boxes.append(one.box)
    assert same_bits(np.concatenate(raws, axis=1), rep.raw)
    assert same_bits(np.concatenate(boxes), rep.box)
    assert rng.bit_generator.state == one_rng.bit_generator.state


@settings(deadline=None)
@given(infeasible_moves(), st.sampled_from(REPAIRS), st.integers(0, 2**32))
def test_repair_postcondition(moves, variant, seed):
    x_old, _ = moves
    rep, _ = _repair(moves, variant, seed)
    # The returned terms describe the accepted positions.
    evaluation = finished(rep)
    expect = evaluate_batch(TOY, rep.positions[rep.accepted])
    for field in dataclasses.fields(BatchEval):
        assert same_bits(getattr(evaluation, field.name), getattr(expect, field.name))
    for r in range(len(x_old)):
        if rep.accepted[r]:
            assert evaluate_batch(TOY, rep.positions[r : r + 1]).nac(TOL)[0] == 0
        else:
            assert np.array_equal(rep.positions[r], x_old[r])
            assert np.all(rep.velocities[r] == 0.0)
        assert 1 <= rep.trials_charged[r] <= 19


# The ladders as ``repair_moves`` documents them, for 19 trials.
BM_LADDER = [0.5**t for t in range(1, 20)]
BMEM_LADDER = [0.9, 1.1, 0.8, 1.2, 0.7, 1.3, 0.6, 1.4, 0.5, 1.5]
BMEM_LADDER += [0.4, 1.6, 0.3, 1.7, 0.2, 1.8, 0.1, 1.9, 0.0]
BMEM_DOWN_LADDER = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1] + [0.0] * 10
NO_MOVES = (np.zeros((0, 2)), np.zeros((0, 2)))


def reference_repair(x_old, v, variant, rng, factors=None):
    """Repair one move and one trial at a time, as ``repair_moves``'
    docstring states it; ``factors`` replaces the ladders and draws."""
    positions, velocities, charged, accepted, rows = [], [], [], [], []
    for r in range(len(x_old)):
        if factors is not None:
            ladder = factors[r]
        elif variant == "bm":
            ladder = BM_LADDER
        elif variant == "bmpem":
            ladder = rng.uniform(0.0, 1.5, 19)
        else:
            full = evaluate_batch(TOY, x_old[r] + v[r])
            box_only = full.ineq_violations[0, 0] <= TOL.ineq
            ladder = BMEM_DOWN_LADDER if box_only else BMEM_LADDER
        position, velocity, trials, row = x_old[r], np.zeros(2), len(ladder), None
        for t, factor in enumerate(ladder):
            if factor == 0.0:
                trials = t
                break
            trial = evaluate_batch(TOY, TOY._snap(x_old[r] + factor * v[r]))
            if trial.feasible(TOL)[0]:
                position, velocity, trials, row = trial.positions[0], factor * v[r], t + 1, trial
                break
        positions.append(position)
        velocities.append(velocity)
        charged.append(trials)
        accepted.append(row is not None)
        if row is not None:
            rows.append(row)
    return positions, velocities, charged, accepted, rows


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(rep, reference):
    positions, velocities, charged, accepted, rows = reference
    assert same_bits(rep.positions, np.reshape(positions, (-1, 2)))
    assert same_bits(rep.velocities, np.reshape(velocities, (-1, 2)))
    assert rep.trials_charged.tolist() == charged
    assert rep.accepted.tolist() == accepted
    evaluation = finished(rep)
    assert len(evaluation) == len(rows)
    for field in dataclasses.fields(BatchEval):
        got = getattr(evaluation, field.name)
        for i, row in enumerate(rows):
            assert same_bits(got[i], getattr(row, field.name)[0])


@settings(deadline=None)
@given(infeasible_moves(), st.sampled_from(REPAIRS), st.integers(0, 2**32))
@example(NO_MOVES, "bm", 0)
@example(NO_MOVES, "bmem", 0)
@example(NO_MOVES, "bmpem", 0)
def test_repair_matches_one_trial_reference(moves, variant, seed):
    x_old, v = moves
    rep, rng = _repair(moves, variant, seed)
    one_rng = np.random.default_rng(seed)
    assert_matches_reference(rep, reference_repair(x_old, v, variant, one_rng))
    assert rng.bit_generator.state == one_rng.bit_generator.state


@pytest.mark.parametrize("variant", REPAIRS)
def test_repair_with_mid_row_zero_factors_matches_reference(monkeypatch, variant):
    # A 0.0 factor in the middle of some rows (and first in one) sends
    # every variant through the masked evaluation of the live trials.
    gen = np.random.default_rng(17)
    x_old = gen.uniform(-2.0, 0.5, (40, 2))  # x1 + x2 <= 1: feasible
    v = gen.uniform(-4.0, 4.0, (40, 2))
    bad = np.flatnonzero(~full_steps(x_old, v)[3])[:12]
    x_old, v = x_old[bad], v[bad]
    factors = gen.uniform(0.0, 1.5, (12, 19))
    factors[::2, 5] = 0.0
    factors[3, 0] = 0.0
    monkeypatch.setattr(handlers, "_repair_factors", lambda *args: factors)
    rep = repair_rows(x_old, v, TOY, TOL, variant, np.random.default_rng(0), 19)
    assert_matches_reference(rep, reference_repair(x_old, v, variant, None, factors))
    assert rep.accepted.any() and not rep.accepted.all()
    assert set(rep.trials_charged[::2]) <= {1, 2, 3, 4, 5} and rep.trials_charged[3] == 0


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("variant", REPAIRS)
def test_repair_writes_its_moves_rows_in_place(variant, runs):
    # A lockstep step of 300 toy rows from feasible starts, its infeasible
    # moves repaired in the swarm's batches: more moves than one batch
    # holds, and every tenth velocity so large that no trial is feasible,
    # so some moves keep their old position.
    gen = np.random.default_rng(29)
    m, size = 300, 300 // runs
    x_old = gen.uniform(-2.0, 0.5, (m, 2))  # x1 + x2 <= 1: feasible
    v = gen.uniform(-4.0, 4.0, (m, 2))
    v[::10] *= 1e9
    x_new, raw, box, feasible = full_steps(x_old, v)
    v_new = v.copy()
    rngs = _run_generators(7, runs)
    trials = ChtConfig(variant).max_repair_trials
    moves = problem_module.MAX_BATCH_ROWS // trials
    infeasible = np.flatnonzero(~feasible)
    assert infeasible.size > moves
    outcomes = []
    for a in range(0, infeasible.size, moves):
        bad = infeasible[a : a + moves]
        x_was, v_was, raw_was, box_was = x_new.copy(), v_new.copy(), raw.copy(), box.copy()
        accepted, charged = repair_moves(
            bad, x_old, x_new, v_new, raw, box, TOY, TOL, variant, rngs, bad // size, trials
        )
        outcomes += accepted.tolist()
        assert charged.shape == accepted.shape and np.all((charged >= 1) & (charged <= trials))
        # No row outside the batch is written.
        out = np.setdiff1d(np.arange(m), bad)
        assert same_bits(x_new[out], x_was[out]) and same_bits(v_new[out], v_was[out])
        assert same_bits(raw[:, out], raw_was[:, out]) and same_bits(box[out], box_was[out])
        # An accepted move's rows hold its trial: the raw terms and box
        # excess of its position, which is the old one plus its velocity.
        won = bad[accepted]
        _, won_raw, won_box, won_feasible = problem_module._raw_batch(TOY, x_new[won], TOL)
        assert won_feasible.all()
        assert same_bits(raw[:, won], won_raw) and same_bits(box[won], won_box)
        assert same_bits(x_new[won], TOY._snap(x_old[won] + v_new[won]))
        # A kept move's rows hold the old position, a zero velocity and,
        # unwritten, the full step's raw terms and box excess.
        kept = bad[~accepted]
        assert same_bits(x_new[kept], x_old[kept])
        assert same_bits(v_new[kept], np.zeros((kept.size, 2)))
        assert same_bits(raw[:, kept], raw_was[:, kept]) and same_bits(box[kept], box_was[kept])
    assert len(outcomes) == infeasible.size > moves
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("max_trials", [0, -1])
@pytest.mark.parametrize("variant", REPAIRS)
def test_repair_needs_a_trial(variant, max_trials):
    x_old, v = np.zeros((1, 2)), np.full((1, 2), 2.0)  # x1 + x2 <= 1 broken
    with pytest.raises(ValueError, match="max_trials must be >= 1"):
        repair_rows(x_old, v, TOY, TOL, variant, np.random.default_rng(0), max_trials)


def test_repair_needs_a_repair_technique():
    # Any other name would otherwise draw bmpem's random factors.
    x_old, v = np.zeros((1, 2)), np.full((1, 2), 2.0)
    with pytest.raises(ValueError, match="^not a repair technique: 'pfpr'$"):
        repair_rows(x_old, v, TOY, TOL, "pfpr", np.random.default_rng(0), 1)


# ------------------------------------------------------------ draw order


def _run_generators(seed, runs):
    return [np.random.default_rng([seed, r]) for r in range(runs)]


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=5),
    st.one_of(st.just(()), st.just((19,)), st.integers(1, 6).map(lambda n: (n, 2))),
    st.integers(0, 2**32),
)
@example([0, 3, 0], (5, 2), 0)
def test_draw_per_run_equals_each_runs_own_block(counts, tail, seed):
    shape = (sum(counts), *tail)
    rngs, alone = _run_generators(seed, len(counts)), _run_generators(seed, len(counts))
    got = handlers.draw_per_run(rngs, counts, np.empty(shape))
    expect = [g.random((c, *tail)) for g, c in zip(alone, counts)]
    assert same_bits(got, np.concatenate(expect))
    assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in alone]
    # bmpem's factors: 1.5 * u holds Generator.uniform(0.0, 1.5)'s bits.
    factors = 1.5 * handlers.draw_per_run(rngs, counts, np.empty(shape))
    expect = [g.uniform(0.0, 1.5, (c, *tail)) for g, c in zip(alone, counts)]
    assert same_bits(factors, np.concatenate(expect))
    assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in alone]


@pytest.mark.parametrize("counts", [[2, 2], [3, 3], [5]])
def test_draw_per_run_counts_must_cover_the_rows(counts):
    with pytest.raises(ValueError):
        handlers.draw_per_run(_run_generators(0, 2), counts, np.empty(5))


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
        cht, cand, priority_keys(cand, cf), inc, priority_keys(inc, nf), [rng]
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
    """The per-particle loop ``initial_positions`` replaces: one chunk per call.

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
    """The first four results of :func:`per_chunk_init`, by ``initial_positions``."""
    # default_rng returns a Generator unaltered, so rng is the run's.
    rng = np.random.default_rng(seed)
    config = SwarmConfig(size, 1, Topology.from_nn(2, size), rng)
    try:
        _, positions, rejected = initial_positions(problem, config, ChtConfig("pf"), budget)
    except InitializationFailure as failure:
        return None, failure.evaluations, str(failure), rng
    return positions, rejected, None, rng


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


def _faulty_halfline(bad_points, edge=-99.9):
    """x <= edge on [-100, 100] (at -99.9, 0.05% feasible, ~8 chunks per
    particle), with a non-finite constraint exactly at ``bad_points``,
    all in the box."""
    evaluated = []

    def constraint(x):
        evaluated.extend(x[:, 0])
        return np.where(np.isin(x[:, 0], bad_points), np.nan, x[:, 0] - edge)

    problem = from_functions(
        name="faulty-halfline",
        lower=np.array([-100.0]),
        upper=np.array([100.0]),
        objective=lambda x: x[:, 0],
        inequalities=(constraint,),
    )
    return problem, evaluated


FAULT_SEED, FAULT_SIZE, FAULT_BUDGET = 7, 5, 20_000


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([-99.9, -90.0]),
    st.integers(3, 12),
    st.sampled_from(BUDGETS),
    st.integers(0, 2**32),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=2),
)
def test_feasible_init_with_faults_equals_per_chunk_loop(edge, size, budget, seed, where):
    # Faults anywhere in the rows a chunk reads or a block draws past
    # them: the start ends as the per-chunk loop ends, raising or not.
    clean, _ = _faulty_halfline([], edge)
    drawn = per_chunk_init(clean, seed, size, budget)[4]
    stream = clean.sample_uniform(np.random.default_rng(seed), drawn + 4096)
    problem, _ = _faulty_halfline(stream[[int(w * len(stream)) for w in where], 0], edge)
    outcomes = []
    for init in (per_chunk_init, stream_init):
        try:
            positions, rejected, failure, rng = init(problem, seed, size, budget)[:4]
        except EvaluationFault as fault:
            outcomes.append(str(fault))
        else:
            bits = None if positions is None else positions.tobytes()
            outcomes.append((bits, rejected, failure, rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


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


def test_feasible_init_objective_is_read_at_accepted_positions_only():
    # Candidates are tested from the constraints alone: an objective that
    # is NaN at every rejected candidate changes nothing, in the feasible
    # start or in the feasibility estimate.
    clean, _ = _faulty_halfline([])
    rejected_nan = with_term(
        clean, 0, lambda x: np.where(x[:, 0] + 99.9 <= TOL.ineq, x[:, 0], np.nan)
    )
    expect = stream_init(clean, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)
    got = stream_init(rejected_nan, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)
    assert np.array_equal(got[0], expect[0])
    assert got[1:3] == expect[1:3]
    assert got[3].bit_generator.state == expect[3].bit_generator.state
    ratio = estimate_feasibility_ratio(clean, 20_000, TOL, seed=3)
    assert ratio > 0.0
    assert estimate_feasibility_ratio(rejected_nan, 20_000, TOL, seed=3) == ratio
    # The start never reads the objective; the Swarm constructor
    # evaluates the accepted positions in full.
    nan_objective = with_term(clean, 0, lambda x: np.full(len(x), np.nan))
    got = stream_init(nan_objective, FAULT_SEED, FAULT_SIZE, FAULT_BUDGET)
    assert np.array_equal(got[0], expect[0])
    config = SwarmConfig(FAULT_SIZE, 1, Topology.from_nn(2, FAULT_SIZE), FAULT_SEED)
    with pytest.raises(EvaluationFault, match="non-finite objective at in-box point index 0"):
        start_swarm(nan_objective, config, ChtConfig("pf"), FAULT_BUDGET)


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
    """The loop ``evaluate_batch`` replaces: one finiteness check per row
    of the problem's term kernel."""
    in_box = np.all((x >= problem.lower) & (x <= problem.upper), axis=1)
    terms = problem.terms(x, 0)
    q = problem.n_inequalities
    conflict = _sanitize(terms[0], in_box, "objective")
    ineq = np.empty((x.shape[0], q))
    for j in range(q):
        raw = _sanitize(terms[1 + j], in_box, f"inequality {j}")
        ineq[:, j] = np.maximum(0.0, raw)
    eq = np.empty((x.shape[0], problem.n_equalities))
    for j in range(problem.n_equalities):
        raw = _sanitize(terms[1 + q + j], in_box, f"equality {j}")
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
    overshooting = problem._snap(
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
    problem = from_functions(
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

    problem = from_functions(
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


def per_row_nac(ev, tol):
    """The terms out of tolerance, counted row by row."""
    return (
        (ev.box_violations > tol.ineq).sum(axis=1)
        + (ev.ineq_violations > tol.ineq).sum(axis=1)
        + (ev.eq_violations > tol.eq).sum(axis=1)
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
    assert np.array_equal(ev.nac(tol), per_row_nac(ev, tol))


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
        ev = evaluate_batch(problem, problem._snap(x))
    rec = RecSchedule.for_problem(problem).initial_tol
    for tol in (TOL, Tolerances(eq=rec), Tolerances(ineq=rec, eq=rec)):
        assert np.array_equal(ev.feasible(tol), per_row_feasible(ev, tol))
        assert np.array_equal(ev.nac(tol), per_row_nac(ev, tol))


# ------------------------------------------- feasibility from constraints

# A step on dimension 0 of [0, 1]^2 that its greatest samples snap to,
# 1.2, out of the box: a problem with it fails Problem._samples_in_box,
# so sampled_mask checks the points it is given and tests their box.
UNPROVEN_STEPS = np.array([0.6, np.nan])


def _pushed_out(problem, x, rng, low, high):
    """``x`` with one coordinate per row moved outside the box, past the
    lower or the upper bound, by a distance drawn from [low, high)."""
    x = x.copy()
    rows = np.arange(len(x))
    dims = rng.integers(0, problem.dimension, len(x))
    step = rng.uniform(low, high)
    upper = rng.random(len(x)) < 0.5
    x[rows, dims] = np.where(
        upper, problem.upper[dims] + step, problem.lower[dims] - step
    )
    return x


@pytest.mark.parametrize("name", registry_names())
def test_feasible_mask_equals_evaluate_batch(name):
    # The raw-term mask of _raw_batch, at points in the box and at the
    # edge of and beyond its tolerance.
    problem = get_problem(name)
    rng = np.random.default_rng(registry_names().index(name))
    inside = problem.sample_uniform(rng, 600)
    # The tolerances of a +rec cell at step 1: its relaxed equality one.
    cell = ExperimentConfig(name, ChtConfig("pfpr+rec"), 2, 6, 100, 1)
    relaxed = cell.resolved_cht().tolerances_at(cell.tolerances, 1, cell.steps)
    for tol in (TOL, Tolerances(ineq=1e-6), relaxed):
        batches = (
            inside,
            # Within, just beyond and far beyond the box tolerance.
            _pushed_out(problem, inside, rng, 0.0, tol.ineq),
            _pushed_out(problem, inside, rng, 1.5 * tol.ineq, 2.0 * tol.ineq),
            _pushed_out(problem, inside, rng, 0.0, 0.3 * problem.span.max()),
        )
        for x in batches:
            with np.errstate(all="ignore"):  # functions outside the box
                got = problem_module._raw_batch(problem, x, tol)[3]
                expect = evaluate_batch(problem, x).feasible(tol)
            assert got.dtype == bool
            assert np.array_equal(got, expect)


def _non_finite_outside():
    """[0, 1]^2 with constraints that are -inf, NaN or +inf outside it:
    -inf left of the box, NaN below it and +inf right of it, and
    -inf far above it; its samples are not proven in the box."""
    return from_functions(
        name="non-finite-outside",
        lower=np.array([0.0, 0.0]),
        upper=np.array([1.0, 1.0]),
        grid_steps=UNPROVEN_STEPS,
        objective=lambda x: np.full(len(x), np.nan),
        inequalities=(
            lambda x: np.where(x[:, 0] < 0.0, -np.inf, x[:, 0] - 2.0),
            lambda x: np.where(x[:, 1] < 0.0, np.nan, -1.0),
        ),
        equalities=(
            lambda x: np.where(x[:, 0] > 1.0, np.inf, np.where(x[:, 1] > 1.5, -np.inf, 0.0)),
        ),
    )


def test_feasible_mask_non_finite_outside_the_box_is_infeasible():
    # Rows 1-4 are outside the box by less than the tolerance, so only
    # their non-finite values can reject them; -inf <= tol would pass
    # but evaluate_batch makes it +inf.  Row 5 is finite and within the
    # tolerance; row 6 is far above the box.
    problem = _non_finite_outside()
    assert not problem._samples_in_box
    x = np.array([
        [0.5, 0.5], [-5e-13, 0.5], [0.5, -5e-13], [1 + 4e-13, 0.5],
        [-5e-13, -5e-13], [0.5, 1 + 4e-13], [0.5, 2.0],
    ])
    assert sampled_mask(problem, x, TOL).tolist() == [
        True, False, False, False, False, True, False
    ]
    # The mask never evaluates the NaN objective; evaluate_batch needs a
    # finite one.  An infinite tolerance accepts the +inf that
    # evaluate_batch puts in place of a non-finite value.
    finite = with_term(problem, 0, lambda x: x[:, 0])
    for tol in (TOL, Tolerances(ineq=1.0), Tolerances(ineq=np.inf, eq=np.inf)):
        expect = evaluate_batch(finite, x).feasible(tol)
        assert np.array_equal(sampled_mask(problem, x, tol), expect)


def test_feasible_mask_fault_names_first_faulty_constraint():
    # As in test_evaluate_batch_fault_names_first_faulty_function, but
    # the objective is non-finite in the box (row 0) too: evaluate_batch
    # names it, the mask never evaluates it and names inequality 1.
    def nan_at(rows):
        return lambda x: np.where(np.isin(np.arange(len(x)), rows), np.nan, x[:, 0])

    problem = from_functions(
        name="faulty",
        lower=np.array([0.0, 0.0]),
        upper=np.array([1.0, 1.0]),
        grid_steps=UNPROVEN_STEPS,
        objective=nan_at([0]),
        inequalities=(lambda x: x[:, 0] - 1.0, nan_at([1, 2, 4])),
        equalities=(nan_at([0]),),
    )
    assert not problem._samples_in_box
    x = np.array([[0.5, 0.5], [1.5, 0.5], [0.2, 0.3], [0.1, 0.9], [0.4, 0.4]])
    with pytest.raises(EvaluationFault, match="non-finite objective at in-box point index 0"):
        evaluate_batch(problem, x)
    with pytest.raises(
        EvaluationFault, match="non-finite inequality 1 at in-box point index 2"
    ):
        sampled_mask(problem, x, TOL)
    with pytest.raises(ValueError, match="expected dimension 2"):
        sampled_mask(problem, np.zeros((3, 1)), TOL)
    with pytest.raises(ValueError, match="positions must be finite"):
        sampled_mask(problem, np.full((1, 2), np.nan), TOL)


# ------------------------------------------------------------- raw terms


@pytest.mark.parametrize("m", [1, 40, 2049])
@pytest.mark.parametrize("name", registry_names())
def test_term_kernel_skips_the_objective_and_ignores_the_layout(name, m):
    # Every registered problem's kernel, on in-box samples and on points
    # up to 30% of the span outside the box: the constraints-only raw
    # terms are the full raw terms without the objective row, and the
    # kernel's block has the same bytes from every memory layout of x,
    # writes nothing to x and shares no memory with it.
    problem = get_problem(name)
    rng = np.random.default_rng([m, len(name)])
    reach = 0.3 * problem.span
    outside = problem._snap(
        problem.lower - reach + rng.random((m, problem.dimension)) * (problem.span + 2 * reach)
    )
    for x in (problem.sample_uniform(rng, m), outside):
        with np.errstate(all="ignore"):  # functions outside the box
            whole = problem_module._raw_terms(problem, x, 0)
            assert problem_module._raw_terms(problem, x, 1).tobytes() == whole[1:].tobytes()
            expect = problem.terms(x, 0)
            for view in (*_layouts(x), np.repeat(x, 2, axis=0)[::2]):
                before = view.copy(order="K")
                for first in (0, 1):
                    got = problem.terms(view, first)
                    assert got.dtype == np.float64
                    assert got.tobytes() == expect[first:].tobytes()
                    assert not np.shares_memory(got, view)
                assert view.tobytes(order="A") == before.tobytes(order="A")


# Every problem: no inequalities (g11, g13), no equalities, both kinds
# (g05), rows of 8 or more terms whose cv the finish must sum in
# evaluate_batch's order (g01, g07), a discrete grid; at points up to
# half a span outside the box, under the default tolerances and a +rec
# cell's at step 1 (its relaxed equality tolerance).
@pytest.mark.parametrize("name", registry_names())
@settings(deadline=None, max_examples=12)
@given(st.integers(1, 120), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_raw_term_mask_and_finish_equal_evaluate_batch(name, m, reach, seed):
    problem = get_problem(name)
    rng = np.random.default_rng(seed)
    x = problem._snap(
        problem.lower - reach * problem.span
        + rng.random((m, problem.dimension)) * (1 + 2 * reach) * problem.span
    )
    cell = ExperimentConfig(name, ChtConfig("pfpr+rec"), 2, 6, 100, 1)
    relaxed = cell.resolved_cht().tolerances_at(cell.tolerances, 1, cell.steps)
    with np.errstate(all="ignore"):  # functions outside the box
        whole = evaluate_batch(problem, x)
        for tol in (TOL, relaxed):
            _, raw, box, mask = problem_module._raw_batch(problem, x, tol)
            assert mask.dtype == bool
            assert np.array_equal(mask, whole.feasible(tol))
        rows = np.flatnonzero(rng.random(m) < rng.random())
        got = problem_module._finish(problem, x[rows], raw[:, rows], box[rows])
        expect = evaluate_batch(problem, x[rows])
    for field in FIELDS:
        a, b = getattr(got, field), getattr(expect, field)
        assert a.shape == b.shape and a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


def test_repair_fault_at_a_rejected_trial_names_its_batch_row():
    # The objective is NaN wherever x1 + x2 > 1, inside the box too.
    # Move 0's 19 trials all keep x1 + x2 <= 1; move 1's first trial,
    # row 19 of the batch, is the first in-box point breaking it: it is
    # rejected, but its objective is evaluated and faults, as it does
    # when the whole trial batch is evaluated.
    problem = with_term(TOY, 0, lambda x: np.where(x.sum(axis=1) > 1.0, np.nan, x[:, 0]))
    x_old = np.zeros((2, 2))
    v = np.array([[-3.0, -3.0], [4.0, 4.0]])
    trials = (x_old[:, None] + np.array(BM_LADDER)[:, None] * v[:, None]).reshape(-1, 2)
    message = "non-finite objective at in-box point index 19"
    with pytest.raises(EvaluationFault, match=message):
        evaluate_batch(problem, trials)
    with pytest.raises(EvaluationFault, match=message):
        repair_rows(x_old, v, problem, TOL, "bm", np.random.default_rng(0), 19)


# -------------------------------------------------------------- sampling


@pytest.mark.parametrize("count", [0, 1, 7, 2048])
@pytest.mark.parametrize("name", ["g02", "welded-beam", "pressure-vessel-mixed"])
def test_sample_uniform_equals_affine_then_snap(name, count):
    problem = get_problem(name)
    got_rng, expect_rng = np.random.default_rng(count), np.random.default_rng(count)
    got = problem.sample_uniform(got_rng, count)
    expect = problem._snap(
        problem.lower + expect_rng.random((count, problem.dimension)) * problem.span
    )
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()
    assert got_rng.bit_generator.state == expect_rng.bit_generator.state


class ExtremeDraws:
    """A generator whose ``random`` alternates rows of its least and its
    greatest draw, 0.0 and 1 - 2**-53."""

    def random(self, shape):
        x = np.zeros(shape)
        x[1::2] = np.nextafter(1.0, 0.0)
        return x


def test_every_problem_proves_its_samples_in_the_box():
    for name in registry_names():
        problem = get_problem(name)
        assert problem._samples_in_box, name
        x = problem.sample_uniform(ExtremeDraws(), 4)
        assert ((x >= problem.lower) & (x <= problem.upper)).all(), name
        assert x.tobytes() == problem._snap(np.array(x, dtype=float)).tobytes(), name


def test_a_short_continuous_box_is_proven():
    # fl(-1 + fl(1.1)) is above 0.1, but the greatest draw is below 1, and
    # its sample fl(-1 + fl((1 - 2**-53) * fl(1.1))) is not.
    problem = from_functions("short", np.array([-1.0]), np.array([0.1]),
                                     objective=lambda x: x[:, 0])
    assert (problem.lower + problem.span)[0] > problem.upper[0]
    assert problem._samples_in_box
    assert problem.sample_uniform(ExtremeDraws(), 2)[1, 0] < problem.upper[0]


def _off_grid():
    """A grid its extreme samples snap out of: 0.03 snaps to 0.0, below
    the box, and 1.6 to 2.0, above it; one constraint every point of the
    box satisfies."""
    return from_functions(
        name="off-grid",
        lower=np.array([0.03, 0.0, -1.0]),
        upper=np.array([1.0, 1.6, 1.0]),
        objective=lambda x: x[:, 0],
        inequalities=(lambda x: x[:, 2] - 1.0,),
        grid_steps=np.array([0.0625, 1.0, np.nan]),
    )


def test_a_grid_its_samples_snap_out_of_is_not_proven():
    problem = _off_grid()
    assert not problem._samples_in_box
    least, greatest = problem.sample_uniform(ExtremeDraws(), 2)
    assert least[0] < problem.lower[0] and greatest[1] > problem.upper[1]
    x = np.concatenate(
        (problem.sample_uniform(np.random.default_rng(5), 256), [least, greatest])
    )
    tol = Tolerances(0.0, 0.0)
    got = sampled_mask(problem, x, tol)
    assert np.array_equal(got, evaluate_batch(problem, x).feasible(tol))
    assert not got[-2:].any() and got.any()


@pytest.mark.parametrize(
    "lower, upper", [(-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308)]
)
def test_an_infinite_bound_or_span_is_not_proven(lower, upper):
    with np.errstate(over="ignore"):
        problem = from_functions(
            "wide", np.array([0.0, lower]), np.array([1.0, upper]), objective=lambda x: x[:, 0]
        )
        assert not problem._samples_in_box


@pytest.mark.parametrize("name", registry_names())
def test_sampled_mask_equals_evaluate_batch(name):
    problem = get_problem(name)
    x = problem.sample_uniform(np.random.default_rng(registry_names().index(name)), 3000)
    cell = ExperimentConfig(name, ChtConfig("pfpr+rec"), 2, 6, 100, 1)
    relaxed = cell.resolved_cht().tolerances_at(cell.tolerances, 1, cell.steps)
    for tol in (TOL, relaxed):
        got = sampled_mask(problem, x, tol)
        assert got.dtype == bool
        assert np.array_equal(got, evaluate_batch(problem, x).feasible(tol))


def test_sampled_mask_faults_as_evaluate_batch():
    clean, _ = _faulty_halfline([])
    x = clean.sample_uniform(np.random.default_rng(FAULT_SEED), 300)
    problem, _ = _faulty_halfline(x[[40, 7, 200], 0])
    assert problem._samples_in_box
    with pytest.raises(EvaluationFault, match="inequality 0 at in-box point index 7"):
        evaluate_batch(problem, x)
    with pytest.raises(EvaluationFault, match="inequality 0 at in-box point index 7"):
        sampled_mask(problem, x, TOL)


# ----------------------------------------------------------------- tiles

TILE = problem_module._TILE_ROWS


def _tile_toy(n):
    """An n-D box whose bounds differ per dimension, with one inequality
    and one equality; the objective sums n terms, whose bits follow the
    memory layout from 8 terms on."""
    return from_functions(
        name=f"tile-toy-{n}",
        lower=-1.0 - np.arange(n) / 3.0,
        upper=0.5 + np.arange(n) / 7.0,
        objective=lambda x: (x * x).sum(axis=1),
        inequalities=(lambda x: x[:, 0] - 0.1,),
        equalities=(lambda x: x[:, -1] * 1e-3,),
    )


def _layouts(x):
    """``x`` C-ordered, F-ordered and as a strided view."""
    wide = np.zeros((len(x), 2 * x.shape[1]))
    wide[:, ::2] = x
    return np.ascontiguousarray(x), np.asfortranarray(x), wide[:, ::2]


@pytest.mark.parametrize("n", [1, 2, 20])
@pytest.mark.parametrize("m", [TILE - 1, TILE, TILE + 1, 2 * TILE + 3, 4099])
def test_tiled_rows_equal_broadcasting(m, n):
    # Blocks within a tile, one row past it, past two tiles and past
    # MAX_BATCH_ROWS, from every layout: sampling, the box excess and the
    # mask are those of plain broadcasting, bit for bit, and no input is
    # written to.
    problem = _tile_toy(n)
    got_rng, expect_rng = np.random.default_rng([m, n]), np.random.default_rng([m, n])
    got = problem.sample_uniform(got_rng, m)
    expect = problem.lower + expect_rng.random((m, n)) * problem.span
    assert got.tobytes() == expect.tobytes()
    assert got_rng.bit_generator.state == expect_rng.bit_generator.state

    reach = 0.3 * problem.span
    x = problem.lower - reach + got_rng.random((m, n)) * (problem.span + 2 * reach)
    expect = per_function_evaluate(problem, x)
    tol = Tolerances(ineq=0.05, eq=1e-4)
    for view in _layouts(x):
        before = view.copy(order="K")
        ev = evaluate_batch(problem, view)
        assert ev.positions.flags.c_contiguous
        for field in FIELDS:
            assert getattr(ev, field).tobytes() == getattr(expect, field).tobytes(), field
        mask = problem_module._raw_batch(problem, view, tol)[3]
        assert np.array_equal(mask, expect.feasible(tol))
        assert view.tobytes(order="A") == before.tobytes(order="A")
