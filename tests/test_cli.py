import dataclasses
import json

import numpy as np
import pytest

from cpso import cli, harness
from cpso.benchmarks import get_entry, get_problem
from cpso.cli import main, parse_sweep_file, CSV_COLUMNS, UsageError
from cpso.handlers import ChtConfig
from cpso.problem import Tolerances
from cpso.swarm import SwarmConfig

from conftest import start_swarm, with_term

RUN_ARGS = [
    "run",
    "--problem",
    "g08",
    "--cht",
    "pfpr",
    "--nn",
    "2",
    "--particles",
    "10",
    "--steps",
    "50",
    "--runs",
    "2",
    "--seed",
    "7",
]


def test_run_csv_output(capsys):
    assert main(RUN_ARGS + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[:7] == ["g08", "pfpr", "2", "10", "50", "2", "7"]
    assert float(cells[7]) < 0.0  # best conflict
    assert cells[14] == "500"  # fes = particles * steps


def test_run_csv_byte_identical_reruns(capsys):
    main(RUN_ARGS + ["--format", "csv"])
    first = capsys.readouterr().out
    main(RUN_ARGS + ["--format", "csv"])
    second = capsys.readouterr().out
    assert first == second


def test_run_json_round_trip(capsys):
    assert main(RUN_ARGS + ["--detail"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["schema_version"] == 2
    assert record["config"]["problem"] == "g08"
    assert record["config"]["runs"] == 2
    assert record["summary"]["failed"] is False
    assert record["summary"]["fes"] == 500
    assert record["config"]["rec_rate"] == 0.995
    assert len(record["runs"]) == 2
    assert json.loads(json.dumps(record)) == record


def test_run_jobs_output_byte_identical(capsys):
    cells = [
        # Three runs on two workers: groups of two and one run.
        ["--runs", "3"],
        # At most two runs of 700 particles fit MAX_BATCH_ROWS, so five
        # runs form three groups, more than the two workers.
        ["--particles", "700", "--steps", "4", "--runs", "5"],
    ]
    for cell in cells:
        args = RUN_ARGS[:-4] + cell + ["--seed", "7", "--detail"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


def test_run_writes_output_file(tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert main(RUN_ARGS + ["--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    assert capsys.readouterr().out == ""


def test_run_trace_logs_every_step(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(RUN_ARGS + ["--trace", str(trace)]) == 0
    capsys.readouterr()
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "run,step,best_conflict,best_cv"
    assert len(lines) == 1 + 2 * 50  # two runs, one line per step
    run, step, conflict, cv = lines[1].split(",")
    assert (run, step) == ("0", "1")
    float(conflict), float(cv)
    # Each line is its run's best memory after that step, as the run
    # stepping alone has it, run by run.
    problem = get_problem("g08")
    expect = [lines[0]]
    for i in range(2):
        config = SwarmConfig(10, 50, 2, Tolerances())
        swarm = start_swarm(problem, config, ChtConfig("pfpr"), np.random.SeedSequence([7, i]))
        for t in range(1, 51):
            swarm.step()
            best = swarm.best_rows()[0]
            conflict, cv = swarm.pbest.conflict[best], swarm.pbest.cv[best]
            expect.append(f"{i},{t},{conflict:.12g},{cv:.12g}")
    assert lines == expect
    # Worker processes write the same file.
    jobs = tmp_path / "jobs.csv"
    assert main(RUN_ARGS + ["--trace", str(jobs), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert jobs.read_bytes() == trace.read_bytes()


@pytest.mark.parametrize(
    "argv, search",
    [
        (RUN_ARGS + ["--out", "{bad}"], "run_experiment"),
        (RUN_ARGS + ["--trace", "{bad}"], "run_experiment"),
        (["sweep", "{config}", "--out", "{bad}"], "sweep"),
        (
            ["feasibility", "--problem", "g08", "--out", "{bad}"],
            "estimate_feasibility_ratio",
        ),
    ],
    ids=["run-out", "run-trace", "sweep-out", "feasibility-out"],
)
def test_unwritable_output_is_a_usage_error_before_any_search(
    tmp_path, monkeypatch, capsys, argv, search
):
    config = tmp_path / "one.cfg"
    config.write_text("[run]\nproblem = g08\ncht = pfpr\n")
    bad = tmp_path / "no-such-dir" / "out.txt"
    monkeypatch.setattr(cli, search, lambda *a, **k: pytest.fail("searched"))
    assert main([a.format(bad=bad, config=config) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cpso: error: cannot write output file: ")
    assert str(bad) in err and err.count("\n") == 1


def test_unknown_problem_exits_nonzero(capsys):
    code = main(["run", "--problem", "nosuch", "--cht", "pfpr"])
    assert code == 2
    assert "valid names" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run", "--problem", "nope", "--cht", "pfpr"], ""),
        (["sweep", "{config}"], "line 2: "),
        (["feasibility", "--problem", "nope"], ""),
    ],
    ids=["run", "sweep", "feasibility"],
)
def test_unknown_problem_message_is_printed_unquoted(tmp_path, capsys, argv, prefix):
    config = tmp_path / "nope.cfg"
    config.write_text("[run]\nproblem = nope\ncht = pfpr\n")
    assert main([a.format(config=config) for a in argv]) == 2
    captured = capsys.readouterr()
    with pytest.raises(KeyError) as lookup:
        get_entry("nope")
    message = lookup.value.args[0]
    assert message.startswith("unknown problem 'nope'; valid names: ")
    assert captured.out == ""
    assert captured.err == f"cpso: error: {prefix}{message}\n"


def test_unknown_cht_exits_nonzero(capsys):
    code = main(["run", "--problem", "g08", "--cht", "nosuch"])
    assert code == 2
    assert "unknown CHT 'nosuch'; valid names: pf, pfpr" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (RUN_ARGS + ["--nn", "1"], "nn must be >= 2"),
        (RUN_ARGS + ["--steps", "0"], "steps must be >= 1"),
        (RUN_ARGS + ["--prob", "2"], "prob must be in [0, 1]"),
        (["feasibility", "--problem", "g08", "--seed", "-1"], "seed must be"),
        (["feasibility", "--problem", "g08", "--tol-eq", "-1"], "must be nonnegative"),
        (RUN_ARGS + ["--tol-ineq", "nan"], "must be nonnegative"),
        (RUN_ARGS + ["--format", "csv", "--tol-eq", "nan"], "must be nonnegative"),
    ],
)
def test_invalid_values_are_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("cpso: error: ") and message in line


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_nonpositive_jobs_are_usage_errors(tmp_path, capsys, jobs):
    path = tmp_path / "one.cfg"
    path.write_text("[run]\nproblem = g08\ncht = pfpr\nsteps = 3\nruns = 2\n")
    for argv in (RUN_ARGS, ["sweep", str(path)]):
        assert main(argv + ["--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cpso: error: jobs must be >= 1\n"


@pytest.mark.parametrize(
    "run_option, sweep_line, message",
    [
        (["--rec-switch", "7"], "rec-switch = 7", "switch_fraction must be in (0, 1]"),
        (["--rec-switch", "0"], "rec-switch = 0", "switch_fraction must be in (0, 1]"),
        (None, "rec-decrease = exp\nrec-rate = 5", "rate must be in (0, 1)"),
        (None, "rec-rate = 5", "rate must be in (0, 1)"),
    ],
)
def test_rec_options_are_validated_for_every_technique(
    tmp_path, capsys, run_option, sweep_line, message
):
    # pfpr has no schedule, yet its rows report the schedule options.
    if run_option is not None:
        assert main(RUN_ARGS + run_option) == 2
        assert message in capsys.readouterr().err
    path = tmp_path / "rec.cfg"
    path.write_text(f"[run]\nproblem = g08\ncht = pfpr\n{sweep_line}\n")
    assert main(["sweep", str(path)]) == 2
    assert f"cpso: error: line 1 ([run]): {message}" in capsys.readouterr().err


def test_valid_rec_options_are_reported_for_every_technique(capsys):
    assert main(RUN_ARGS + ["--steps", "3", "--rec-switch", "0.5"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["cht"] == "pfpr"
    assert config["rec_switch"] == 0.5


def test_invalid_rec_tolerance_exits_nonzero(capsys):
    # --tol-eq above the schedule's initial tolerance (half g08's mean span)
    argv = ["run", "--problem", "g08", "--cht", "pfpr+rec", "--tol-eq", "1000"]
    code = main(argv + ["--steps", "2", "--runs", "1", "--particles", "6"])
    assert code == 2
    assert "initial_tol must be >= final_tol" in capsys.readouterr().err


def test_fail_row_still_exits_zero(capsys):
    code = main(
        [
            "run",
            "--problem",
            "g08",
            "--cht",
            "pf",
            "--particles",
            "5",
            "--steps",
            "5",
            "--runs",
            "1",
            "--format",
            "csv",
        ]
    )
    # g08 has a 0.86% feasible box; feasible init still succeeds
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_run_evaluation_fault_is_an_error_line(monkeypatch, capsys):
    g08 = get_problem("g08")
    nan_objective = with_term(g08, 0, lambda x: np.full(len(x), np.nan))
    monkeypatch.setattr(harness, "get_problem", lambda name: nan_objective)
    code = main(RUN_ARGS)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cpso: error: non-finite objective at in-box point index 0\n"


def test_feasibility_evaluation_fault_is_an_error_line(monkeypatch, capsys):
    entry = get_entry("g08")
    nan_constraint = with_term(entry.problem, 1, lambda x: np.full(len(x), np.nan))
    monkeypatch.setattr(
        cli, "get_entry", lambda name: dataclasses.replace(entry, problem=nan_constraint)
    )
    code = main(["feasibility", "--problem", "g08", "--samples", "5000"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cpso: error: non-finite inequality 0 at in-box point index 0\n"


def test_feasibility_never_evaluates_the_objective(monkeypatch, capsys):
    argv = ["feasibility", "--problem", "g08", "--samples", "5000"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    entry = get_entry("g08")
    nan_objective = with_term(entry.problem, 0, lambda x: np.full(len(x), np.nan))
    monkeypatch.setattr(
        cli, "get_entry", lambda name: dataclasses.replace(entry, problem=nan_objective)
    )
    assert main(argv) == 0
    assert capsys.readouterr().out == clean


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_fail_row_json_is_strict(capsys):
    # g13's equality constraints leave no feasible start under 1e-12.
    code = main(
        ["run", "--problem", "g13", "--cht", "pf", "--nn", "2", "--particles", "6",
         "--steps", "5", "--runs", "2", "--detail"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    summary = record["summary"]
    assert summary["failed"] is True
    for key in ("best_conflict", "best_cv", "mean_conflict", "mean_cv", "mean_nac"):
        assert summary[key] is None
    assert [(r["conflict"], r["cv"]) for r in record["runs"]] == [(None, None)] * 2
    # Each run is charged the million candidates its first particle drew.
    assert [r["evaluations"] for r in record["runs"]] == [1_000_000] * 2
    assert summary["extra_evals"] == 2_000_000


def test_list_cardinality(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 18
    assert main(["list", "--suite", "g"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 13
    assert main(["list", "--suite", "engineering"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 5


def test_list_metadata_content(capsys):
    main(["list", "--suite", "g"])
    out = capsys.readouterr().out
    assert "g01,g-suite,13,9,0," in out


def test_feasibility_single_sample(capsys):
    assert main(["feasibility", "--problem", "g02", "--samples", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["feasibility_percent"] in (0.0, 100.0)


def test_feasibility_csv(capsys):
    assert (
        main(
            [
                "feasibility",
                "--problem",
                "g04",
                "--samples",
                "20000",
                "--seed",
                "3",
                "--format",
                "csv",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "problem,samples,seed,feasibility_percent"
    assert abs(float(lines[1].split(",")[3]) - 26.9552) < 2.0


SWEEP_TEXT = """
# shared defaults
particles = 10
steps = 30
runs = 2
seed = 5
nn = 2

[run]
problem = g08
cht = pfpr

[run]
problem = g08
cht = apm
"""


def test_sweep_config_parsing():
    configs = parse_sweep_file(SWEEP_TEXT)
    assert len(configs) == 2
    assert configs[0].cht.kind == "pfpr"
    assert configs[1].cht.kind == "apm"
    assert all(c.particles == 10 and c.master_seed == 5 for c in configs)


def test_sweep_end_to_end(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_TEXT)
    assert main(["sweep", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("g08,pfpr,")
    assert lines[2].startswith("g08,apm,")


def test_sweep_json_reports_rec_rate(tmp_path, capsys):
    # The rate changes an exponential schedule, so the row names it.
    text = "particles = 6\nsteps = 5\nruns = 1\n"
    for rate in ("0.9", "0.99"):
        text += "[run]\nproblem = g11\ncht = pfpr+rec\nrec-decrease = exp\n"
        text += f"rec-rate = {rate}\n"
    path = tmp_path / "rates.cfg"
    path.write_text(text)
    assert main(["sweep", str(path)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["config"]["rec_rate"] for r in records] == [0.9, 0.99]


def test_sweep_malformed_reports_line_number():
    with pytest.raises(UsageError, match="line 3"):
        parse_sweep_file("[run]\nproblem = g08\nbogus-key = 1\ncht = pfpr\n")
    with pytest.raises(UsageError, match="line 2"):
        parse_sweep_file("[run]\nno equals sign here\n")


@pytest.mark.parametrize(
    "third, message",
    [
        ("cht = pfpr\nnn = 10\nparticles = 6\n", "nn + 1 must not exceed the particle count"),
        ("cht = pfpr+rec\ntol-eq = 1000\n", "initial_tol must be >= final_tol"),
        ("nn = 3\n", "missing required key 'cht'"),
        ("cht = pfpr\nnn = 1\n", "nn must be >= 2"),
        ("cht = pfpr\ntol-ineq = nan\n", "tolerances must be nonnegative"),
        ("cht = nosuch\n", "unknown CHT 'nosuch'; valid names: pf, pfpr"),
    ],
)
def test_sweep_section_errors_name_the_section(tmp_path, capsys, third, message):
    # Sections open on lines 2, 6 and 10; the third is the faulty one.
    text = "particles = 10\n" + "[run]\nproblem = g08\ncht = pfpr\n\n" * 2
    text += "[run]\nproblem = g08\n" + third
    path = tmp_path / "three.cfg"
    path.write_text(text)
    assert main(["sweep", str(path)]) == 2
    assert f"cpso: error: line 10 ([run]): {message}" in capsys.readouterr().err


# A value other than the default for every setting ``cpso run`` has,
# spelt as its flag and its sweep file key spell it.
EVERY_SETTING = {
    "nn": "3",
    "particles": "12",
    "steps": "7",
    "runs": "3",
    "seed": "9",
    "tol-ineq": "1e-9",
    "tol-eq": "1e-6",
    "rec-switch": "0.5",
    "rec-decrease": "exp",
    "prob": "0.7",
}


def test_run_flags_and_a_sweep_section_build_the_same_experiment(monkeypatch, capsys):
    built = []

    def record(config, **kwargs):
        built.append(config)
        return harness.run_experiment(config, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", record)
    argv = ["run", "--problem", "g11", "--cht", "pfppr+rec"]
    for key, value in EVERY_SETTING.items():
        argv += [f"--{key}", value]
    assert main(argv) == 0
    text = "[run]\nproblem = g11\ncht = pfppr+rec\n"
    [swept] = parse_sweep_file(text + "".join(f"{k} = {v}\n" for k, v in EVERY_SETTING.items()))
    [default] = parse_sweep_file(text)
    [run] = built
    assert run == swept

    def settings(config):
        return (
            config.nn, config.particles, config.steps, config.runs, config.master_seed,
            config.tolerances.ineq, config.tolerances.eq,
            config.rec_switch, config.rec_decrease, config.cht.prob,
        )

    assert all(a != b for a, b in zip(settings(run), settings(default), strict=True))
    # rec-rate is the one sweep key that run has no flag for.
    assert run.rec_rate == default.rec_rate
    with pytest.raises(SystemExit):
        main(argv + ["--rec-rate", "0.9"])
    assert "unrecognized arguments: --rec-rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("rec-decrease = bogus", "line 5: bad value for rec-decrease: 'bogus'"),
        ("nn = x", "line 2 ([run]): unknown CHT 'nosuch'; valid names: "),
    ],
)
def test_sweep_reports_the_first_bad_setting(tmp_path, capsys, setting, message):
    # rec-decrease is read before the technique is checked, nn after it.
    path = tmp_path / "order.cfg"
    path.write_text(f"particles = 10\n[run]\nproblem = g08\ncht = nosuch\n{setting}\n")
    assert main(["sweep", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"cpso: error: {message}")


def test_sweep_invalid_rec_tolerance_is_usage_error(tmp_path, capsys):
    path = tmp_path / "rec.cfg"
    path.write_text("[run]\nproblem = g08\ncht = pfpr+rec\ntol-eq = 1000\n")
    assert main(["sweep", str(path)]) == 2
    assert "initial_tol must be >= final_tol" in capsys.readouterr().err


def test_sweep_without_sections_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    path.write_text("particles = 10\n")
    assert main(["sweep", str(path)]) == 2
    assert "no [run] sections" in capsys.readouterr().err


def test_sweep_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "none.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err
