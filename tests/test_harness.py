import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cpso
from cpso import harness
from cpso.handlers import ChtConfig
from cpso.harness import ExperimentConfig, run_experiment, run_single, summarize, sweep
from cpso.problem import EvaluationFault, Problem, Tolerances

from conftest import start_swarm


def make_config(**overrides):
    base = dict(
        problem="g08",
        cht=ChtConfig("pfpr"),
        nn=2,
        particles=10,
        steps=50,
        runs=3,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(nn=10, particles=10)
    with pytest.raises(ValueError):
        make_config(runs=0)
    with pytest.raises(ValueError):
        make_config(master_seed=-1)
    # The swarm config the runs use is built with the config.
    with pytest.raises(ValueError, match="nn must be >= 2"):
        make_config(nn=1)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        make_config(steps=0)


def test_run_single_deterministic():
    cfg = make_config()
    a = run_single(cfg, 0)
    b = run_single(cfg, 0)
    assert a.conflict == b.conflict
    assert a.cv == b.cv
    assert np.array_equal(a.position, b.position)
    assert a.evaluations == b.evaluations


def test_run_index_bounds():
    with pytest.raises(ValueError):
        run_single(make_config(), 3)


def test_adding_runs_preserves_earlier_ones():
    short = run_experiment(make_config(runs=2))
    long = run_experiment(make_config(runs=4))
    for i in range(2):
        assert short.runs[i].conflict == long.runs[i].conflict
        assert short.runs[i].evaluations == long.runs[i].evaluations


def test_single_run_means_equal_that_run():
    row = run_experiment(make_config(runs=1))
    only = row.runs[0]
    assert row.mean_conflict == only.conflict
    assert row.mean_cv == only.cv
    assert row.best_conflict == only.conflict
    assert row.best_run == 0


def test_evaluation_accounting_identity():
    for kind in ("pfpr", "apm", "bm"):
        cfg = make_config(cht=ChtConfig(kind), particles=12, steps=30)
        row = run_experiment(cfg)
        for r in row.runs:
            assert (
                r.evaluations
                == cfg.particles * cfg.steps
                + r.init_evaluations
                + r.repair_evaluations
            )
        if kind != "bm":
            assert all(r.repair_evaluations == 0 for r in row.runs)
            assert row.extra_evals == cfg.runs * cfg.particles


def test_mean_not_better_than_best():
    row = run_experiment(make_config(runs=5, steps=100))
    assert row.mean_conflict >= row.best_conflict


def test_parallel_matches_serial():
    cfg = make_config(runs=4)
    serial = run_experiment(cfg, jobs=1)
    parallel = run_experiment(cfg, jobs=2)
    assert serial.best_conflict == parallel.best_conflict
    assert serial.mean_conflict == parallel.mean_conflict
    assert [r.conflict for r in serial.runs] == [r.conflict for r in parallel.runs]


def test_groups_fit_the_row_cap_and_the_workers(monkeypatch):
    import concurrent.futures

    workers = []

    class InProcess:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    # Two runs of 700 particles fit MAX_BATCH_ROWS: three groups, which
    # two jobs run on two workers.
    big = make_config(particles=700, steps=3, runs=5)
    assert harness._groups(big, 1) == [[0, 1], [2, 3], [4]]
    assert harness._groups(big, 2) == [[0, 1], [2, 3], [4]]
    # Small runs form one group per job, but never more than the runs.
    small = make_config(runs=5)
    assert harness._groups(small, 1) == [[0, 1, 2, 3, 4]]
    assert harness._groups(small, 4) == [[0, 1], [2], [3], [4]]
    assert harness._groups(small, 9) == [[0], [1], [2], [3], [4]]
    serial = run_experiment(big)
    assert [r.conflict for r in run_experiment(big, jobs=2).runs] == [
        r.conflict for r in serial.runs
    ]
    run_experiment(small, jobs=9)
    assert workers == [2, 5]


def test_all_failed_runs_mark_fail_row():
    cfg = make_config(
        problem="g03", cht=ChtConfig("pf"), runs=2, max_init_attempts=5000
    )
    row = run_experiment(cfg)
    assert row.failed
    assert row.failures == 2
    assert np.isnan(row.best_conflict)
    assert all(r.termination == "init-failed" for r in row.runs)
    # Particle 0 of each run read its whole budget, and is charged for it.
    assert [(r.evaluations, r.init_evaluations) for r in row.runs] == [(5000, 5000)] * 2
    assert row.extra_evals == 10_000


def test_init_failed_runs_charge_their_samples():
    # welded-beam pf under a 100-candidate budget: some runs start, some
    # fail after seeding a few particles.
    cfg = make_config(
        problem="welded-beam", cht=ChtConfig("pf"), particles=8, steps=5, runs=5,
        master_seed=1, max_init_attempts=100,
    )
    row = run_experiment(cfg)
    failed = [r for r in row.runs if not r.completed]
    assert 0 < len(failed) < cfg.runs
    for r in failed:
        # The failing particle read its whole budget.
        assert r.evaluations == r.init_evaluations >= 100
        assert r.repair_evaluations == 0
    # Some failed after seeding particles, whose candidates count too.
    assert any(r.evaluations > 100 for r in failed)
    assert row.extra_evals == sum(r.evaluations for r in row.runs) - (
        cfg.runs - len(failed)
    ) * cfg.fes


def test_fault_traces_the_steps_completed_before_it(monkeypatch):
    # A toy pfpr run whose objective is NaN at an in-box point that its
    # fourth step visits first: its three completed steps are traced,
    # as the clean run traces them, and then the fault is raised.
    clean = Problem("toy-plane", np.full(2, -2.0), np.full(2, 2.0), lambda x: x.sum(axis=1))
    # Patched before the config is built, which looks its problem up.
    monkeypatch.setattr(harness, "get_problem", lambda name: clean)
    config = make_config(problem="toy-plane", particles=6, steps=8, runs=1)
    sw = start_swarm(clean, config.swarm_config(0), config.resolved_cht())
    seen = [sw.positions.copy()]
    for _ in range(4):
        sw.step()
        seen.append(sw.positions.copy())
    target = seen[4][np.all(np.abs(seen[4]) <= 2.0, axis=1)][0]
    assert not any(np.all(x == target, axis=1).any() for x in seen[:4])

    def faulty(x):
        return np.where(np.all(x == target, axis=1), np.nan, x.sum(axis=1))

    lines = []
    run_experiment(config, trace=lambda *line: lines.append(line))
    assert len(lines) == config.steps
    bad = Problem("toy-plane", clean.lower, clean.upper, faulty)
    monkeypatch.setattr(harness, "get_problem", lambda name: bad)
    for run in (run_experiment, lambda config, trace: run_single(config, 0, trace)):
        got = []
        with pytest.raises(EvaluationFault, match="non-finite objective"):
            run(config, trace=lambda *line: got.append(line))
        assert got == lines[:3]


def test_summarize_order_insensitive():
    cfg = make_config(runs=4)
    results = [run_single(cfg, i) for i in range(4)]
    forward = summarize(cfg, results)
    backward = summarize(cfg, list(reversed(results)))
    assert forward.best_conflict == backward.best_conflict
    assert forward.mean_conflict == backward.mean_conflict
    assert forward.best_run == backward.best_run


def test_best_tie_keeps_lowest_run_index():
    # g08 converges to the same optimum in every run at this budget
    row = run_experiment(make_config(particles=40, steps=500, runs=3))
    assert row.best_run == 0


def test_rec_schedule_resolved_from_problem():
    cfg = make_config(problem="g11", cht=ChtConfig("pfpr+rec"), steps=40)
    cht = cfg.resolved_cht()
    # half the mean span of the [-1, 1] x [-1, 1] box
    assert cht.rec.initial_tol == pytest.approx(1.0)
    assert cht.kind == "pfpr+rec" and cht.prob == cfg.cht.prob
    row = run_experiment(cfg)
    assert row.failures == 0
    # a final tolerance above the initial one is rejected when the config is built
    with pytest.raises(ValueError, match="initial_tol"):
        make_config(
            problem="g11", cht=ChtConfig("pfpr+rec"), tolerances=Tolerances(eq=2.0)
        )
    # A technique carrying its own schedule would ignore rec_switch,
    # rec_decrease and rec_rate, which the row reports.
    with pytest.raises(ValueError, match="must not carry a schedule"):
        make_config(problem="g11", cht=cht)


def test_sweep_preserves_order_and_isolates_errors():
    good = make_config(steps=20)
    bad = make_config(problem="g08", steps=20)
    object.__setattr__(bad, "problem", "nosuch")
    rows = sweep([good, bad, good])
    assert len(rows) == 3
    assert rows[0].error is None and rows[2].error is None
    assert rows[1].error is not None and "nosuch" in rows[1].error
    assert rows[1].failed
    assert rows[0].best_conflict == rows[2].best_conflict


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(config, jobs=1):
        raise TypeError("bug")

    monkeypatch.setattr(harness, "run_experiment", broken)
    with pytest.raises(TypeError, match="bug"):
        sweep([make_config(steps=20)])


def test_sweep_propagates_key_errors_raised_inside_a_run(monkeypatch):
    # Only the problem lookup's KeyError is a row error.
    def broken(config, jobs=1):
        raise KeyError("bug")

    monkeypatch.setattr(harness, "run_experiment", broken)
    with pytest.raises(KeyError, match="bug"):
        sweep([make_config(steps=20)])


def test_sweep_row_error_prints_the_lookup_message_unquoted():
    bad = make_config(steps=20)
    object.__setattr__(bad, "problem", "nosuch")
    (row,) = sweep([bad])
    assert row.error.startswith("KeyError: unknown problem 'nosuch'; valid names: ")


@pytest.mark.parametrize("kind", ["pfpr", "pfpr+rec"])
def test_config_rejects_unknown_problem_for_every_technique(kind):
    with pytest.raises(KeyError, match="unknown problem 'nope'"):
        ExperimentConfig("nope", ChtConfig(kind), 2, 6, 5, 1)


def test_sweep_rejects_empty_list():
    with pytest.raises(ValueError):
        sweep([])


def fresh_python(code):
    """Run ``code`` in a new interpreter that imports this ``cpso``, so
    that no module another test imported is already loaded."""
    src = str(Path(cpso.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_public_names_are_pinned():
    # What ``import cpso`` exports, submodules aside: a name added or
    # removed here is a change to the public API.
    public = {
        name
        for name, value in vars(cpso).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {
        "SuiteEntry",
        "all_entries",
        "estimate_feasibility_ratio",
        "get_entry",
        "get_problem",
        "registry_names",
        "KINDS",
        "ChtConfig",
        "ExperimentConfig",
        "RunResult",
        "SummaryRow",
        "run_experiment",
        "run_single",
        "sweep",
        "BatchEval",
        "EvaluationFault",
        "Problem",
        "RecSchedule",
        "Tolerances",
        "evaluate_batch",
        "COEFFICIENT_PRESETS",
        "InitializationFailure",
        "Swarm",
        "SwarmConfig",
        "Topology",
    }


def test_import_does_not_load_numpy_random():
    # Nor does looking a problem up build its row tiles or prove that its
    # samples lie in the box: both are built on first use, so set-up does
    # not pay for them.
    fresh_python(
        "import sys, cpso\n"
        "assert 'numpy.random' not in sys.modules\n"
        "problem = cpso.get_problem('g06')\n"
        "assert '_tiles' not in vars(problem)\n"
        "assert '_samples_in_box' not in vars(problem)\n"
        "problem.sample_uniform(__import__('numpy').random.default_rng(0), 1)\n"
        "assert '_tiles' in vars(problem)"
    )


def test_serial_experiment_does_not_load_multiprocessing():
    fresh_python(
        "import sys\n"
        "from cpso.handlers import ChtConfig\n"
        "from cpso.harness import ExperimentConfig, run_experiment\n"
        "row = run_experiment(ExperimentConfig('g04', ChtConfig('bm'), 2, 6, 3, 2))\n"
        "assert not row.failed\n"
        "assert 'multiprocessing' not in sys.modules"
    )
