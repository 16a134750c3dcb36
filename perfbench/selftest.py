"""Self-test of the output checks: each must reject a corrupted row.

    python3 perfbench/selftest.py

Runs a small sweep through ``cpso.cli.main``, shows that its rows pass
every check, then feeds the checks corrupted copies (a perturbed
``best_conflict``, a position outside the box, an off-grid discrete
coordinate, an infeasible repair best, a best below the published
optimum, a wrong ``fes``, a feasibility ratio many sigma away, and a
bare NaN in the JSON) and shows that each is rejected with the matching
message.  Exits 1 if any check misses.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import checks
import reference
from run import OUT
from worker import import_cpso
from workloads import Cell, Sweep

SEED = 3
CELLS = (
    Cell("pressure-vessel-mixed", "pfppr", 2, 10, 30, 2),
    Cell("g04", "bm", 2, 10, 30, 2),
)


def _engine_rows():
    cli = import_cpso().cli
    OUT.mkdir(exist_ok=True)
    spec = Sweep(CELLS)
    inputs = spec.inputs(OUT, "selftest", SEED)
    for argv in spec.argv(inputs):
        if cli.main(argv) != 0:
            raise SystemExit("selftest: cpso sweep failed")
    return checks.load_json(inputs["result"])


def _with(row, **changes):
    bad = copy.deepcopy(row)
    for key, value in changes.items():
        section = "config" if key in bad["config"] else "summary"
        bad[section][key] = value
    return bad


def _moved(row, cell, x):
    """``row`` with its best moved to ``x`` and truthfully re-evaluated, so
    that only a check on the position itself can reject it."""
    ev = reference.evaluate(reference.PROBLEMS[cell.problem], np.asarray(x))
    return _with(row, best_position=list(x), best_conflict=ev.conflict, best_cv=ev.cv)


def main() -> int:
    rows = _engine_rows()
    pv, bm = rows
    pv_cell, bm_cell = CELLS
    misses = []

    def expect(label, errors, fragment):
        hits = [e for e in errors if fragment in e]
        print(f"{'ok  ' if hits else 'MISS'} {label}: {hits[0] if hits else errors}")
        if not hits:
            misses.append(label)

    clean = checks.check_sweep(rows, CELLS, SEED)
    print(f"{'ok  ' if not clean else 'MISS'} engine rows pass: {clean or 'no errors'}")
    if clean:
        misses.append("engine rows pass")

    s = pv["summary"]
    expect("perturbed best_conflict",
           checks.check_row(_with(pv, best_conflict=s["best_conflict"] * (1 + 1e-6)),
                            pv_cell, SEED),
           "best_conflict")

    outside = list(s["best_position"])
    outside[3] = reference.PROBLEMS[pv_cell.problem].upper[3] + 1.0
    expect("position outside the box",
           checks.check_row(_moved(pv, pv_cell, outside), pv_cell, SEED),
           "outside the box")

    off_grid = list(s["best_position"])
    off_grid[0] += 0.01
    expect("off-grid discrete coordinate",
           checks.check_row(_moved(pv, pv_cell, off_grid), pv_cell, SEED),
           "off-grid")

    corner = reference.PROBLEMS[bm_cell.problem].upper  # infeasible for g04
    expect("infeasible repair best",
           checks.check_row(_moved(bm, bm_cell, corner), bm_cell, SEED),
           "violates its constraints")

    expect("feasible best below the published optimum",
           checks.check_row(_with(bm, best_conflict=-31000.0), bm_cell, SEED),
           "beats the published optimum")

    expect("fes != particles * steps",
           checks.check_row(_with(bm, fes=bm["summary"]["fes"] + 1), bm_cell, SEED),
           "fes")

    record = {"problem": "g08", "samples": 1_000_000, "seed": SEED,
              "feasibility_percent": 0.95}
    expect("feasibility ratio 10 sigma off",
           checks.check_ratio(record, "g08", 1_000_000, SEED, 0.86, 1_000_000),
           "sigma")

    nan_file = OUT / "selftest-nan.json"
    nan_file.write_text('{"best_conflict": NaN}')
    try:
        checks.load_json(nan_file)
        errors = []
    except ValueError as exc:
        errors = [str(exc)]
    expect("bare NaN in JSON", errors, "NaN")

    if misses:
        print(f"selftest: {len(misses)} check(s) missed: {', '.join(misses)}")
        return 1
    print("selftest: every check rejects its corrupted input")
    return 0


if __name__ == "__main__":
    sys.exit(main())
