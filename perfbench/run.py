"""Benchmark of the cpso engine through its own command-line entry point.

    python3 perfbench/run.py --workload step-priority --seed 1 --seconds 25 --trace 0

Runs the workload in whole rounds for about ``--seconds``: at least three
rounds, and no further round that is expected to end after that.  Each
round is a fresh worker process that calls ``cpso.cli.main`` in-process,
so set-up time and peak memory are measured per round.  The host's speed
drifts, so ``wall_s`` is scaled to the speed of a reference host by a
fixed kernel that the worker times as it goes (see ``worker.HostSpeed``),
and ``setup_s`` by the start of an interpreter that imports NumPy alone.
After the rounds, the outputs are checked against the
independent reference formulas, and every round must have produced
identical output.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced run) with
``--trace 1``, named and with units as in BENCHMARK.json.
``--workload all`` runs every workload and prints one such object per
workload, keyed by name.  See README.md for the metrics, the workloads
and reference figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, Feasibility, Sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 3
# No round, not even one of the minimum three, starts after START_LIMIT_S,
# and a worker still running at DEADLINE_S is killed, so that a run ends
# inside three minutes even if the engine slows down.
START_LIMIT_S = 100
DEADLINE_S = 160
REFERENCE_SAMPLES = 250_000
# Set-up is mostly interpreter start and ``import numpy``, and its speed
# drifts with the host's.  So before each round, a fresh interpreter that
# imports NumPy alone is timed the same way, and ``setup_s`` is scaled by
# REFERENCE_START_S over that time.  REFERENCE_START_S is that time on the
# reference host of README.md, so that ``setup_s`` reads as seconds on it.
REFERENCE_START = "import time, numpy; print(time.monotonic_ns())"
REFERENCE_START_S = 0.18


def _metric_units(kind: str) -> dict:
    """Metric name -> unit, for ``kind`` "end_to_end" or "per_layer"."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchmarkError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def _worker(args, timeout):
    """Run worker.py; returns (spawn stamp, parsed last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawn = time.monotonic_ns()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return spawn, (json.loads(lines[-1]) if lines else None)


def _reference_start_s(timeout) -> float:
    spawn = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", REFERENCE_START], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT, check=True)
    return (int(proc.stdout) - spawn) * 1e-9


def run_round(spec, inputs, trace_path, timeout):
    reference_s = _reference_start_s(timeout)
    args = ["--calls", json.dumps(spec.argv(inputs))]
    if trace_path:
        args += ["--trace", str(trace_path)]
    else:
        args += ["--kernel", spec.kernel, "--units", *spec.units]
    spawn, result = _worker(args, timeout)
    setup_ns = result.pop("first_call_ns") - spawn - result.pop("setup_skipped_ns")
    result["raw_setup_s"] = setup_ns * 1e-9
    result["setup_s"] = result["raw_setup_s"] * REFERENCE_START_S / reference_s
    result["outputs"] = [checks.load_json(p) for p in spec.outputs(inputs)]
    return result


def _rows(outputs) -> list:
    """Summary rows of a sweep; the CLI writes a lone row as an object."""
    return outputs[0] if isinstance(outputs[0], list) else outputs


def evaluations(spec, outputs) -> int:
    """Evaluations charged, as the program's own output reports them."""
    if isinstance(spec, Feasibility):
        return sum(r["samples"] for r in outputs)
    return sum(
        (r["config"]["runs"] - r["summary"]["failures"]) * r["summary"]["fes"]
        + r["summary"]["extra_evals"]
        for r in _rows(outputs)
    )


def failures(spec, outputs) -> int:
    if isinstance(spec, Feasibility):
        return 0
    return sum(
        r["config"]["runs"] if r["summary"].get("error") else r["summary"]["failures"]
        for r in _rows(outputs)
    )


def check_outputs(spec, outputs, seed) -> list:
    if isinstance(spec, Sweep):
        return checks.check_sweep(_rows(outputs), spec.cells, seed)
    errors = []
    for problem, record in zip(spec.problems, outputs):
        ref = checks.reference_ratio(problem, REFERENCE_SAMPLES, seed)
        errors += checks.check_ratio(
            record, problem, spec.samples, seed, ref, REFERENCE_SAMPLES
        )
    return errors


def _named(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json"
        )
    return {m: {"value": values[m], "unit": units[m]} for m in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    inputs = spec.inputs(OUT, name, seed)
    trace_path = OUT / f"{name}-seed{seed}.spans.json" if trace else None
    start = time.monotonic()
    _worker(["--warmup"], DEADLINE_S)

    rounds, durations = [], []
    while True:
        elapsed = time.monotonic() - start
        if elapsed > START_LIMIT_S or (
            len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds
        ):
            break
        rounds.append(
            run_round(spec, inputs, trace_path, start + DEADLINE_S - time.monotonic())
        )
        durations.append(time.monotonic() - start - elapsed)

    outputs = rounds[0]["outputs"]
    errors = check_outputs(spec, outputs, seed)
    for i, r in enumerate(rounds[1:], start=1):
        if r["outputs"] != outputs:
            errors.append(f"round {i} output differs from round 0")
    for e in errors:
        print(f"CHECK FAILED: {name}: {e}", file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if trace:
        per_round = [spans.layer_metrics(r["layers"]) for r in rounds]
        values = {m: statistics.median(p[m] for p in per_round) for m in per_round[0]}
        metrics = _named(values, _metric_units("per_layer"))
    else:
        wall = median("wall_s")
        values = {
            "setup_s": median("setup_s"),
            "wall_s": wall,
            "evals_per_s": evaluations(spec, outputs) / wall,
            "peak_rss_mb": median("peak_rss_mb"),
        }
        metrics = _named(values, _metric_units("end_to_end"))

    print(f"{name}: seed {seed}, {'traced' if trace else 'untraced'}, {len(rounds)} rounds")
    for key in ("setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "slowdown"):
        print(f"  {key} per round: " + " ".join(f"{r[key]:.3f}" for r in rounds))
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    result = {
        "correct": not errors,
        "attempted": len(rounds) * spec.operations,
        "failed": sum(failures(spec, r["outputs"]) for r in rounds),
        "metrics": metrics,
    }
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "cpso" / "__init__.py").is_file():
        print(f"run.py: no cpso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            n: run_workload(n, args.seed, args.seconds, bool(args.trace))
            for n in names
        }
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
