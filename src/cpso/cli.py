"""Command-line front end: run experiments, sweeps and feasibility estimates.

Output is JSON (default) or CSV.  Reals are serialized with 12
significant digits, enough to distinguish six-decimal table values and
the 1e-12 tolerance regime.  JSON is strict RFC 8259: a real with no
finite value, such as the statistics of a FAIL row, is written as
``null``.  Data-level failures (all runs failing feasible
initialization) are reported as FAIL rows with exit status 0.  Operator
errors (unknown names, malformed flags or config files, output paths
that cannot be opened) exit with status 2.  A problem function that
returns a non-finite value inside the box ends ``run`` and
``feasibility`` with status 1 and an error line; a ``sweep`` records it
in that cell's row instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import List, Optional, Sequence, TextIO, Tuple

from .benchmarks import all_entries, get_entry, estimate_feasibility_ratio
from .handlers import ChtConfig
from .harness import ExperimentConfig, SummaryRow, run_experiment, sweep
from .problem import EvaluationFault, Tolerances

SCHEMA_VERSION = 2

CSV_COLUMNS = (
    "problem",
    "cht",
    "nn",
    "particles",
    "steps",
    "runs",
    "seed",
    "best_conflict",
    "best_cv",
    "best_nac",
    "mean_conflict",
    "mean_cv",
    "mean_nac",
    "failures",
    "fes",
    "extra_evals",
)

# ``rec-decrease`` values, as flags and config files spell them, and the
# RecSchedule variant each names.
_REC_DECREASE = {"linear": "linear", "exp": "exponential"}

# The optional settings of an experiment, as ``cpso run`` flags and sweep
# file keys spell them, with their defaults; ``run`` has no ``--rec-rate``.
_DEFAULTS = {
    "nn": 2,
    "particles": 20,
    "steps": 10000,
    "runs": 11,
    "seed": 0,
    "tol-ineq": 1e-12,
    "tol-eq": 1e-12,
    "rec-switch": 0.8,
    "rec-decrease": "linear",
    "rec-rate": 0.995,
    "prob": 0.9,
}

_SWEEP_KEYS = {"problem", "cht", *_DEFAULTS}


class UsageError(Exception):
    """Operator error: bad names, flags, or config files."""


def _real(x: float) -> str:
    return format(float(x), ".12g")


def _json_real(x: float) -> Optional[float]:
    """``x`` as a JSON number, or None (``null``) when it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _row_dict(row: SummaryRow, detail: bool = False) -> dict:
    cfg = row.config
    out = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "problem": cfg.problem,
            "cht": cfg.cht.kind,
            "nn": cfg.nn,
            "particles": cfg.particles,
            "steps": cfg.steps,
            "runs": cfg.runs,
            "seed": cfg.master_seed,
            "tol_ineq": float(cfg.tolerances.ineq),
            "tol_eq": float(cfg.tolerances.eq),
            "prob": cfg.cht.prob,
            "rec_switch": cfg.rec_switch,
            "rec_decrease": cfg.rec_decrease,
            "rec_rate": cfg.rec_rate,
        },
        "summary": {
            "failed": row.failed,
            "best_conflict": _json_real(row.best_conflict),
            "best_cv": _json_real(row.best_cv),
            "best_nac": row.best_nac,
            "best_run": row.best_run,
            "best_position": (
                None
                if row.best_position is None
                else [float(v) for v in row.best_position]
            ),
            "mean_conflict": _json_real(row.mean_conflict),
            "mean_cv": _json_real(row.mean_cv),
            "mean_nac": _json_real(row.mean_nac),
            "failures": row.failures,
            "fes": cfg.fes,
            "extra_evals": row.extra_evals,
        },
    }
    if row.error is not None:
        out["summary"]["error"] = row.error
    if detail and row.runs is not None:
        out["runs"] = [
            {
                "index": r.index,
                "termination": r.termination,
                "conflict": _json_real(r.conflict),
                "cv": _json_real(r.cv),
                "nac": r.nac,
                "evaluations": r.evaluations,
            }
            for r in row.runs
        ]
    return out


def _csv_line(row: SummaryRow) -> str:
    cfg = row.config
    if row.failed:
        stats = ["FAIL"] * 6
    else:
        stats = [
            _real(row.best_conflict),
            _real(row.best_cv),
            str(row.best_nac),
            _real(row.mean_conflict),
            _real(row.mean_cv),
            _real(row.mean_nac),
        ]
    cells = [
        cfg.problem,
        cfg.cht.kind,
        str(cfg.nn),
        str(cfg.particles),
        str(cfg.steps),
        str(cfg.runs),
        str(cfg.master_seed),
        *stats,
        str(row.failures),
        str(cfg.fes),
        str(row.extra_evals),
    ]
    return ",".join(cells)


def _emit_rows(rows: List[SummaryRow], fmt: str, out: TextIO, detail: bool) -> None:
    if fmt == "csv":
        print(",".join(CSV_COLUMNS), file=out)
        for row in rows:
            print(_csv_line(row), file=out)
    else:
        records = [_row_dict(r, detail) for r in rows]
        payload = records[0] if len(records) == 1 else records
        json.dump(payload, out, indent=2, default=float, allow_nan=False)
        out.write("\n")


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The stream output goes to, closed on exit: stdout for None or
    ``-``, else the file ``path``, opened for writing on entry.  A path
    that cannot be opened is a usage error, raised before the command
    does any work."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}") from None
    with fh:
        yield fh


def _entry(name: str, where: str = ""):
    """The registry entry ``name``, or a usage error prefixed by ``where``."""
    try:
        return get_entry(name)
    except KeyError as exc:  # str() would quote the message
        raise UsageError(where + exc.args[0]) from None


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    _entry(args.problem)
    try:
        return ExperimentConfig(
            problem=args.problem,
            cht=ChtConfig(kind=args.cht, prob=args.prob),
            nn=args.nn,
            particles=args.particles,
            steps=args.steps,
            runs=args.runs,
            master_seed=args.seed,
            tolerances=Tolerances(ineq=args.tol_ineq, eq=args.tol_eq),
            rec_switch=args.rec_switch,
            rec_decrease=_REC_DECREASE[args.rec_decrease],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_jobs(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise UsageError("jobs must be >= 1")


def cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    _check_jobs(args)
    tracing = contextlib.nullcontext() if args.trace is None else _output(args.trace)
    with _output(args.out) as out, tracing as trace_fh:
        trace = None
        if trace_fh is not None:
            print("run,step,best_conflict,best_cv", file=trace_fh)

            def trace(run, step, conflict, cv):
                print(f"{run},{step},{_real(conflict)},{_real(cv)}", file=trace_fh)

        row = run_experiment(config, jobs=args.jobs, trace=trace)
        _emit_rows([row], args.format, out, args.detail)
    return 0


def parse_sweep_file(text: str) -> List[ExperimentConfig]:
    """Parse the sweep config format: defaults, then one [run] per row.

    Lines are ``key = value`` pairs; ``#`` starts a comment.  Pairs
    before the first ``[run]`` section set defaults; each ``[run]``
    section overrides them for one experiment.  Keys: problem, cht, nn,
    particles, steps, runs, seed, tol-ineq, tol-eq, rec-switch,
    rec-decrease, rec-rate, prob.
    """
    defaults: dict = {}
    sections: List[Tuple[int, dict]] = []  # (header line, key -> (value, line))
    current = defaults
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[run]":
            current = dict(defaults)
            sections.append((lineno, current))
            continue
        if line.startswith("["):
            raise UsageError(f"line {lineno}: unknown section {line!r}")
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SWEEP_KEYS:
            raise UsageError(
                f"line {lineno}: unknown key {key!r}; "
                f"valid keys: {', '.join(sorted(_SWEEP_KEYS))}"
            )
        current[key] = (value, lineno)
    if not sections:
        raise UsageError("config file defines no [run] sections")
    return [_section_config(section, header) for header, section in sections]


def _section_config(section: dict, header: int) -> ExperimentConfig:
    """The experiment of one ``[run]`` section whose header is on line ``header``."""
    where = f"line {header} ([run])"

    def need(key):
        if key not in section:
            raise UsageError(f"{where}: missing required key {key!r}")
        return section[key]

    def conv(key, fn):
        if key not in section:
            return fn(_DEFAULTS[key])
        value, lineno = section[key]
        try:
            return fn(value)
        except (ValueError, KeyError):
            raise UsageError(f"line {lineno}: bad value for {key}: {value!r}") from None

    problem, lineno = need("problem")
    _entry(problem, f"line {lineno}: ")
    kind, _ = need("cht")
    decrease = conv("rec-decrease", _REC_DECREASE.__getitem__)
    try:
        return ExperimentConfig(
            problem=problem,
            cht=ChtConfig(kind=kind, prob=conv("prob", float)),
            nn=conv("nn", int),
            particles=conv("particles", int),
            steps=conv("steps", int),
            runs=conv("runs", int),
            master_seed=conv("seed", int),
            tolerances=Tolerances(
                ineq=conv("tol-ineq", float),
                eq=conv("tol-eq", float),
            ),
            rec_switch=conv("rec-switch", float),
            rec_decrease=decrease,
            rec_rate=conv("rec-rate", float),
        )
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_jobs(args)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    configs = parse_sweep_file(text)
    with _output(args.out) as out:
        rows = sweep(configs, jobs=args.jobs)
        _emit_rows(rows, args.format, out, detail=False)
    return 0


def cmd_feasibility(args: argparse.Namespace) -> int:
    entry = _entry(args.problem)
    if args.samples < 1:
        raise UsageError("samples must be >= 1")
    if args.seed < 0:
        raise UsageError("seed must be nonnegative")
    try:
        tolerances = Tolerances(ineq=args.tol_ineq, eq=args.tol_eq)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _output(args.out) as out:
        ratio = estimate_feasibility_ratio(
            entry.problem, args.samples, tolerances, args.seed
        )
        record = {
            "schema_version": SCHEMA_VERSION,
            "problem": args.problem,
            "samples": args.samples,
            "seed": args.seed,
            "feasibility_percent": ratio,
        }
        if args.format == "csv":
            print("problem,samples,seed,feasibility_percent", file=out)
            print(
                f"{args.problem},{args.samples},{args.seed},{_real(ratio)}",
                file=out,
            )
        else:
            json.dump(record, out, indent=2, allow_nan=False)
            out.write("\n")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    suites = {"engineering": "engineering", "g": "g-suite"}
    wanted = suites[args.suite] if args.suite else None
    print("name,suite,dimension,NI,NE,reported_ratio_percent,reported_optimum")
    for entry in all_entries():
        if wanted is not None and entry.suite != wanted:
            continue
        ratio = "" if entry.reported_feasibility_ratio is None else _real(
            entry.reported_feasibility_ratio
        )
        opt = "" if entry.reported_optimum is None else _real(entry.reported_optimum)
        p = entry.problem
        print(
            f"{p.name},{entry.suite},{p.dimension},"
            f"{p.n_inequalities},{p.n_equalities},{ratio},{opt}"
        )
    return 0


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel run workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpso",
        description="Constrained particle swarm optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--problem", required=True)
    run.add_argument("--cht", required=True)
    for key, default in _DEFAULTS.items():
        if key == "rec-decrease":
            run.add_argument(f"--{key}", choices=tuple(_REC_DECREASE), default=default)
        elif key != "rec-rate":
            run.add_argument(f"--{key}", type=type(default), default=default)
    run.add_argument("--trace", default=None, help="per-step best log path")
    run.add_argument("--detail", action="store_true", help="include per-run detail")
    _add_common_output(run)
    run.set_defaults(func=cmd_run)

    sw = sub.add_parser("sweep", help="run experiments from a config file")
    sw.add_argument("config", help="sweep config file path")
    _add_common_output(sw)
    sw.set_defaults(func=cmd_sweep)

    fz = sub.add_parser("feasibility", help="Monte Carlo feasibility ratio")
    fz.add_argument("--problem", required=True)
    fz.add_argument("--samples", type=int, default=1_000_000)
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--tol-ineq", type=float, default=1e-12)
    fz.add_argument("--tol-eq", type=float, default=1e-12)
    fz.add_argument("--format", choices=("json", "csv"), default="json")
    fz.add_argument("--out", default=None)
    fz.set_defaults(func=cmd_feasibility)

    ls = sub.add_parser("list", help="list registered problems")
    ls.add_argument("--suite", choices=("engineering", "g"), default=None)
    ls.set_defaults(func=cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"cpso: error: {exc}", file=sys.stderr)
        return 2
    except EvaluationFault as exc:
        print(f"cpso: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
