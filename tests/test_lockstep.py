"""Lockstep runs against runs stepped alone.

A swarm joined from several runs steps them all at once.  Each run must
end exactly where it ends stepping alone: the same positions,
velocities, evaluations (every field, compared by bytes), masks,
counters and generator state.  The harness steps a big cell in groups
whose steps evaluate at most ``MAX_BATCH_ROWS`` rows, and a cell whose
evaluation faults raises the fault serial execution raises.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpso import handlers, harness, problem as problem_module, swarm as swarm_module
from cpso.handlers import KINDS, ChtConfig
from cpso.harness import ExperimentConfig, run_experiment, run_single, summarize
from cpso.problem import MAX_BATCH_ROWS, BatchEval, EvaluationFault, Problem
from cpso.swarm import InitializationFailure, Swarm, init_swarm

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
    """Run ``i`` of ``config`` as the harness initializes it, or None."""
    try:
        return init_swarm(
            harness.get_problem(config.problem),
            config.swarm_config(i),
            config.resolved_cht(),
            config.max_init_attempts,
        )
    except InitializationFailure:
        return None


def started_runs(config):
    runs = [one_run(config, i) for i in range(config.runs)]
    return [sw for sw in runs if sw is not None]


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
    alone = started_runs(config)
    if not started:
        return
    group = Swarm.join(started)
    assert group.runs == len(started)
    for _ in range(steps):
        group.step()
        for sw in alone:
            sw.step()
    for r, sw in enumerate(alone):
        assert_run_equals(group, r, sw)
    assert group.evaluations == sum(sw.evaluations for sw in alone)

    # The harness steps the same group: its rows equal one-run groups'.
    assert_row_equals_runs_alone(config, run_experiment(config))


def assert_row_equals_runs_alone(config, row):
    """``row`` holds the results of ``config``'s runs each run alone."""
    single = summarize(config, [run_single(config, i) for i in range(config.runs)])
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
    # Every attribute with one row per particle or one entry per run,
    # whatever its name, holds the runs' own one after another.
    config = ExperimentConfig("g04", ChtConfig(kind), 2, 6, 5, 3, master_seed=2)
    started = started_runs(config)
    group = Swarm.join(started)
    assert group.rngs == [sw.rngs[0] for sw in started]
    joined = set()
    for name, value in vars(group).items():
        per_run = isinstance(value, np.ndarray) and len(value) in (3 * 6, 3)
        if not (per_run or isinstance(value, BatchEval)):
            continue
        parts = [arrays(vars(sw)[name]) for sw in started]
        for field, got in arrays(value).items():
            expect = np.concatenate([p[field] for p in parts])
            assert got.dtype == expect.dtype, (name, field)
            assert got.tobytes() == expect.tobytes(), (name, field)
        joined.add(name)
    assert joined >= {
        "positions",
        "velocities",
        "w",
        "iw",
        "sw",
        "current",
        "pbest",
        "pbest_primary",
        "pbest_secondary",
        "run_init_evaluations",
        "run_repair_evaluations",
    }
    assert ("current_feasible" in joined) == (kind != "apm")


def test_join_rejects_runs_of_other_cells():
    config = ExperimentConfig("g04", ChtConfig("pfpr"), 2, 6, 5, 2)
    a, b = started_runs(config)
    b.step()
    with pytest.raises(ValueError, match="one cell"):
        Swarm.join([a, b])
    assert Swarm.join([a]) is a


def test_lockstep_batches_stay_under_the_row_cap(monkeypatch):
    # 30 runs of 150 particles would step 4,500 rows at once, and repair
    # more; the harness steps them in groups of at most 13 runs.
    config = ExperimentConfig(
        "welded-beam", ChtConfig("bm"), 2, 150, 3, 30, master_seed=4
    )
    sizes, stepped, groups = [], [], []
    real_batch, real_step = problem_module.evaluate_batch, Swarm.step

    def counting(problem, positions):
        sizes.append(len(positions))
        return real_batch(problem, positions)

    def step(self):
        if self.t == 0:
            groups.append(self.runs)
        sizes.clear()
        real_step(self)
        stepped.extend(sizes)

    for module in (problem_module, swarm_module, handlers):
        monkeypatch.setattr(module, "evaluate_batch", counting)
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

    clean = Problem("toy-plane", np.full(2, -2.0), np.full(2, 2.0), plane)
    monkeypatch.setattr(harness, "get_problem", lambda name: clean)
    config = ExperimentConfig("toy-plane", ChtConfig("pfpr"), 2, 6, 8, 3)
    visited = []
    for i in range(3):
        sw = one_run(config, i)
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

    bad = Problem("toy-plane", clean.lower, clean.upper, faulty)
    monkeypatch.setattr(harness, "get_problem", lambda name: bad)
    with pytest.raises(EvaluationFault) as serial:
        run_single(config, 1)
    assert str(serial.value) == f"non-finite objective at in-box point index {particle}"
    with pytest.raises(EvaluationFault) as lockstep:
        run_experiment(config)
    assert str(lockstep.value) == str(serial.value)
    run_single(config, 0), run_single(config, 2)  # the others never fault
