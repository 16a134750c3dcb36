"""Lockstep runs against runs stepped alone.

A swarm built from several runs' starts steps them all at once.  Each
run must end exactly where it ends stepping alone: the same positions,
velocities, evaluations (every field, compared by bytes), masks,
counters and generator state.  The harness builds and evaluates each
group once, steps a big cell in groups whose steps evaluate at most
``MAX_BATCH_ROWS`` rows, and a cell whose evaluation faults raises the
fault serial execution raises.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpso import harness, problem as problem_module, swarm as swarm_module
from cpso.handlers import KINDS, ChtConfig
from cpso.harness import ExperimentConfig, run_experiment, summarize
from cpso.problem import MAX_BATCH_ROWS, BatchEval, EvaluationFault
from cpso.swarm import InitializationFailure, Swarm, initial_positions

from conftest import from_functions

FIELDS = (
    "positions",
    "conflict",
    "ineq_violations",
    "eq_violations",
    "box_violations",
    "cv",
)
# g01 sums 22 violation terms per row; g11 has an equality, so +rec
# moves its tolerance; pf/bm* runs fail to start on both, and on
# welded-beam some start and some fail under a 100 or 128 attempt
# budget; welded-beam repairs often; the vessel snaps to a grid.
PROBLEMS = ("g01", "g04", "g11", "welded-beam", "pressure-vessel-mixed")


def one_run(config, i):
    """Run ``i``'s start ``(rng, positions, rejected)``, as the harness
    draws it, or None."""
    try:
        return initial_positions(
            harness.get_problem(config.problem),
            config.swarm_config(i),
            config.resolved_cht(),
            config.max_init_attempts,
        )
    except InitializationFailure:
        return None


def started_runs(config):
    starts = [one_run(config, i) for i in range(config.runs)]
    return [start for start in starts if start is not None]


def build(config, starts):
    """One swarm of the runs of ``starts``, as the harness builds a group."""
    rngs, positions, rejected = zip(*starts)
    problem = harness.get_problem(config.problem)
    cht = config.resolved_cht()
    return Swarm(
        problem, config.swarm_config(0), cht, rngs, np.concatenate(positions), rejected
    )


def assert_run_equals(group, r, alone):
    """Run ``r`` of ``group`` is in the state of the one-run ``alone``."""
    s = alone.config.size
    rows = slice(r * s, (r + 1) * s)
    for name in ("positions", "velocities"):
        assert getattr(group, name)[rows].tobytes() == getattr(alone, name).tobytes()
    for ev in ("current", "pbest"):
        for f in FIELDS:
            got = getattr(getattr(group, ev), f)[rows]
            assert got.tobytes() == getattr(getattr(alone, ev), f).tobytes(), (ev, f)
    for name in ("current_feasible", "pbest_primary", "pbest_secondary"):
        got, expect = getattr(group, name), getattr(alone, name)
        assert (got is None) == (expect is None)
        if got is not None:
            assert got[rows].tobytes() == expect.tobytes()
    for name in ("run_evaluations", "run_init_evaluations", "run_repair_evaluations"):
        assert getattr(group, name)[r] == getattr(alone, name)[0]
    assert group.rngs[r].bit_generator.state == alone.rngs[0].bit_generator.state
    assert group.best_rows()[r] == r * s + alone.best_rows()[0]
    assert group.tolerances == alone.tolerances and group.t == alone.t


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(PROBLEMS),
    st.sampled_from(KINDS),
    st.booleans(),
    st.integers(6, 10),
    st.integers(1, 5),
    st.integers(1, 12),
    st.sampled_from((100, 128, 4096)),
    st.integers(0, 2**32),
)
def test_lockstep_equals_runs_alone(name, kind, full, size, runs, steps, budget, seed):
    config = ExperimentConfig(
        problem=name,
        cht=ChtConfig(kind),
        nn=size - 1 if full else 2,
        particles=size,
        steps=steps,
        runs=runs,
        master_seed=seed,
        max_init_attempts=budget,
    )
    started = started_runs(config)
    if not started:
        return
    group = build(config, started)
    alone = [build(config, [start]) for start in started_runs(config)]
    assert group.runs == len(started)
    for _ in range(steps):
        group.step()
        for sw in alone:
            sw.step()
    for r, sw in enumerate(alone):
        assert_run_equals(group, r, sw)
    assert group.run_evaluations.tolist() == [sw.run_evaluations[0] for sw in alone]

    # The harness steps the same group: its rows equal one-run groups'.
    assert_row_equals_runs_alone(config, run_experiment(config))


def test_group_larger_than_a_tile_equals_runs_alone():
    # 30 welded-beam runs of 20 particles step 600 rows at once: the
    # velocity clamp, the box test and the repair trials apply the bounds
    # as wide tile rows plus a remainder, where each run alone fits one
    # tile.
    config = ExperimentConfig("welded-beam", ChtConfig("bm"), 2, 20, 4, 30, master_seed=9)
    started = started_runs(config)
    group = build(config, started)
    assert len(group.positions) == 600 > problem_module._TILE_ROWS
    alone = [build(config, [start]) for start in started_runs(config)]
    for _ in range(config.steps):
        group.step()
        for sw in alone:
            sw.step()
    assert group.run_repair_evaluations.sum() > 0
    for r, sw in enumerate(alone):
        assert_run_equals(group, r, sw)


def assert_row_equals_runs_alone(config, row):
    """``row`` holds the results of ``config``'s runs each run alone."""
    alone = [harness._run_group(config, [i])[0] for i in range(config.runs)]
    single = summarize(config, alone)
    for got, expect in zip(row.runs, single.runs, strict=True):
        assert got.termination == expect.termination
        assert (got.evaluations, got.init_evaluations, got.repair_evaluations) == (
            expect.evaluations,
            expect.init_evaluations,
            expect.repair_evaluations,
        )
        assert repr((got.conflict, got.cv, got.nac, got.keys)) == repr(
            (expect.conflict, expect.cv, expect.nac, expect.keys)
        )
        assert np.array_equal(got.position, expect.position)
    assert (row.best_run, row.extra_evals, row.failures) == (
        single.best_run,
        single.extra_evals,
        single.failures,
    )


def arrays(value):
    """``value`` as named arrays: a batch's fields, or the array itself."""
    if isinstance(value, BatchEval):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return {"": value}


@pytest.mark.parametrize("kind", ("pfpr", "apm", "bm", "pfppr+rec"))
def test_join_concatenates_every_run_array(kind):
    # A group built from the runs' starts joins the one-run swarms built
    # from the same starts: every attribute with one row per particle or
    # one entry per run, whatever its name, holds the runs' own one after
    # another.
    config = ExperimentConfig("g04", ChtConfig(kind), 2, 6, 5, 3, master_seed=2)
    starts = started_runs(config)
    group = build(config, starts)
    alone = [build(config, [start]) for start in starts]
    assert group.rngs == [sw.rngs[0] for sw in alone]
    joined = set()
    for name, value in vars(group).items():
        per_run = isinstance(value, np.ndarray) and len(value) in (3 * 6, 3)
        if not (per_run or isinstance(value, BatchEval)):
            continue
        parts = [arrays(vars(sw)[name]) for sw in alone]
        for field, got in arrays(value).items():
            expect = np.concatenate([p[field] for p in parts])
            assert got.dtype == expect.dtype, (name, field)
            assert got.tobytes() == expect.tobytes(), (name, field)
        joined.add(name)
    assert joined >= {
        "positions",
        "velocities",
        "w_rows",
        "iw_rows",
        "sw_rows",
        "current",
        "pbest",
        "pbest_primary",
        "pbest_secondary",
        "run_init_evaluations",
        "run_repair_evaluations",
    }
    assert ("current_feasible" in joined) == (kind != "apm")


def test_group_needs_one_row_per_particle_of_each_run():
    config = ExperimentConfig("g04", ChtConfig("pfpr"), 2, 6, 5, 2)
    rngs, positions, rejected = zip(*started_runs(config))
    x = np.concatenate(positions)
    problem, cht = harness.get_problem("g04"), config.resolved_cht()
    for rows in (x[:-1], x[:6], np.concatenate((x, x[:1]))):
        with pytest.raises(ValueError, match="one row per particle of each run"):
            Swarm(problem, config.swarm_config(0), cht, rngs, rows, rejected)


@pytest.mark.parametrize("name, kind", [("g06", "pf"), ("g04", "pfpr")])
def test_group_is_built_and_evaluated_once(monkeypatch, name, kind):
    # One swarm per group, whose constructor evaluates every started
    # run's initial positions in one batch; the steps evaluate the rest.
    config = ExperimentConfig(name, ChtConfig(kind), 2, 6, 4, 3, master_seed=5)
    built, outside, stepping = [], [], [False]
    real_init, real_step = Swarm.__init__, Swarm.step
    real_batch = swarm_module._raw_batch

    def init(self, *args):
        built.append(len(args[3]))
        real_init(self, *args)

    def counting(problem, positions, tolerances):
        if not stepping[0]:
            outside.append(len(positions))
        return real_batch(problem, positions, tolerances)

    def step(self):
        stepping[0] = True
        real_step(self)
        stepping[0] = False

    monkeypatch.setattr(Swarm, "__init__", init)
    monkeypatch.setattr(swarm_module, "_raw_batch", counting)
    monkeypatch.setattr(Swarm, "step", step)
    results = harness._run_group(config, [0, 1, 2])
    monkeypatch.undo()
    assert [r.completed for r in results] == [True] * 3
    assert built == [3]
    assert outside == [3 * 6]


def test_lockstep_batches_stay_under_the_row_cap(monkeypatch):
    # 30 runs of 150 particles would step 4,500 rows at once, and repair
    # more; the harness steps them in groups of at most 13 runs.
    config = ExperimentConfig(
        "welded-beam", ChtConfig("bm"), 2, 150, 3, 30, master_seed=4
    )
    sizes, stepped, groups = [], [], []
    # A step's evaluation and its repair trials both run every problem
    # function through _raw_terms.
    real_terms, real_step = problem_module._raw_terms, Swarm.step

    def counting(problem, x, *args):
        sizes.append(len(x))
        return real_terms(problem, x, *args)

    def step(self):
        if self.t == 0:
            groups.append(self.runs)
        sizes.clear()
        real_step(self)
        stepped.extend(sizes)

    monkeypatch.setattr(problem_module, "_raw_terms", counting)
    monkeypatch.setattr(Swarm, "step", step)
    row = run_experiment(config)
    monkeypatch.undo()
    assert len(groups) >= 3 and sum(groups) == 30
    assert max(stepped) <= MAX_BATCH_ROWS
    assert sum(stepped) > 3 * 30 * 150  # repair trials were evaluated too
    assert_row_equals_runs_alone(config, row)


def test_fault_only_run_1_reaches_raises_the_serial_error(monkeypatch):
    # Find a point that only run 1 visits, then make the objective NaN
    # there: lockstep would report its row among all runs' rows.
    def plane(x):
        return x.sum(axis=1)

    clean = from_functions("toy-plane", np.full(2, -2.0), np.full(2, 2.0), plane)
    monkeypatch.setattr(harness, "get_problem", lambda name: clean)
    config = ExperimentConfig("toy-plane", ChtConfig("pfpr"), 2, 6, 8, 3)
    visited = []
    for i in range(3):
        sw = build(config, [one_run(config, i)])
        visited.append([])
        for _ in range(config.steps):
            sw.step()
            visited[i].append(sw.positions.copy())
    # Run 1's first in-box position after step 2 that is not particle 0.
    steps = np.array(visited[1][2:])
    inside = np.all(np.abs(steps) <= 2.0, axis=2)
    inside[:, 0] = False
    step, particle = np.argwhere(inside)[0]
    target = steps[step, particle]
    for i in (0, 2):
        assert not any(np.all(x == target, axis=1).any() for x in visited[i])

    def faulty(x):
        return np.where(np.all(x == target, axis=1), np.nan, x.sum(axis=1))

    bad = from_functions("toy-plane", clean.lower, clean.upper, faulty)
    monkeypatch.setattr(harness, "get_problem", lambda name: bad)
    with pytest.raises(EvaluationFault) as serial:
        harness._run_group(config, [1])
    assert str(serial.value) == f"non-finite objective at in-box point index {particle}"
    with pytest.raises(EvaluationFault) as lockstep:
        run_experiment(config)
    assert str(lockstep.value) == str(serial.value)
    harness._run_group(config, [0]), harness._run_group(config, [2])  # the others never fault


@pytest.mark.parametrize("kind", ("pfpr", "pf"))
def test_fault_at_an_initial_position_of_run_1_raises_the_serial_error(
    monkeypatch, kind
):
    # The group's constructor evaluates every run's initial positions in
    # one batch: a NaN objective at one of run 1's must still raise with
    # its index among run 1's particles, as run 1 alone raises it.
    def plane(x):
        return x.sum(axis=1)

    clean = from_functions("toy-plane", np.full(2, -2.0), np.full(2, 2.0), plane)
    monkeypatch.setattr(harness, "get_problem", lambda name: clean)
    config = ExperimentConfig("toy-plane", ChtConfig(kind), 2, 6, 8, 3)
    starts = [one_run(config, i)[1] for i in range(3)]
    particle = 3
    target = starts[1][particle]
    for i in (0, 2):
        assert not np.all(starts[i] == target, axis=1).any()

    def faulty(x):
        return np.where(np.all(x == target, axis=1), np.nan, x.sum(axis=1))

    bad = from_functions("toy-plane", clean.lower, clean.upper, faulty)
    monkeypatch.setattr(harness, "get_problem", lambda name: bad)
    with pytest.raises(EvaluationFault) as serial:
        harness._run_group(config, [1])
    assert str(serial.value) == f"non-finite objective at in-box point index {particle}"
    with pytest.raises(EvaluationFault) as lockstep:
        run_experiment(config)
    assert str(lockstep.value) == str(serial.value)
    harness._run_group(config, [0]), harness._run_group(config, [2])  # the others never fault
