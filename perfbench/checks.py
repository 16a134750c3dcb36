"""Output checks against the independent reference formulas.

Each check returns a list of human-readable errors; an empty list means
the output passed.  ``selftest.py`` feeds these functions corrupted rows
to show that each check can fail.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Sequence

import numpy as np

import reference
from workloads import FEASIBLE_MEMORIES, REPAIR, Cell

REL = 1e-9
SIGMAS = 4.0


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def load_json(path: Path):
    """Parse strict RFC 8259 JSON: bare NaN or Infinity is an error."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _close(a: float, b: float, allowance: float = 0.0) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b)) + allowance


def check_row(row: dict, cell: Cell, seed: int) -> List[str]:
    """Check one sweep summary row against its cell and the reference."""
    where = f"{cell.problem}/{cell.cht}/nn={cell.nn}"
    cfg, s = row["config"], row["summary"]
    expected = dict(
        problem=cell.problem, cht=cell.cht, nn=cell.nn, particles=cell.particles,
        steps=cell.steps, runs=cell.runs, seed=seed,
    )
    errors = [
        f"{where}: config {k} is {cfg.get(k)!r}, expected {v!r}"
        for k, v in expected.items() if cfg.get(k) != v
    ]
    if s.get("error") is not None or s["failed"] or s["failures"]:
        return errors + [
            f"{where}: failed row (failures {s['failures']}, error {s.get('error')!r})"
        ]

    if s["fes"] != cell.fes:
        errors.append(f"{where}: fes {s['fes']} != particles * steps")
    floor = cell.runs * cell.particles
    if s["extra_evals"] < floor or (cell.cht in REPAIR and s["extra_evals"] == floor):
        errors.append(
            f"{where}: extra_evals {s['extra_evals']} too small for "
            f"{cell.runs} runs of {cell.particles} particles"
        )

    problem = reference.PROBLEMS[cell.problem]
    x = np.asarray(s["best_position"], dtype=float)
    ref = reference.evaluate(problem, x)
    if not _close(ref.conflict, s["best_conflict"]):
        errors.append(
            f"{where}: best_conflict {s['best_conflict']!r} re-evaluates to {ref.conflict!r}"
        )
    if not _close(ref.cv, s["best_cv"], ref.allowance):
        errors.append(f"{where}: best_cv {s['best_cv']!r} re-evaluates to {ref.cv!r}")

    tol_ineq, tol_eq = cfg["tol_ineq"], cfg["tol_eq"]
    if np.any(ref.box > tol_ineq):
        errors.append(f"{where}: best_position {x.tolist()} lies outside the box")
    if problem.grid is not None:
        step = np.array(problem.grid)
        d = step > 0
        units = x[d] / step[d]
        if np.any(units != np.round(units)):
            errors.append(f"{where}: discrete coordinates {x[d].tolist()} are off-grid")

    feasible = ref.feasible(tol_ineq, tol_eq)
    if cell.cht in FEASIBLE_MEMORIES and not feasible:
        errors.append(
            f"{where}: {cell.cht} best violates its constraints "
            f"(ineq {ref.ineq.tolist()}, eq {ref.eq.tolist()}, box {ref.box.tolist()})"
        )
    opt = problem.optimum
    if feasible and opt is not None and s["best_conflict"] < opt.value - opt.rounding:
        errors.append(
            f"{where}: feasible best {s['best_conflict']!r} beats the published "
            f"optimum {opt.text} ({opt.source})"
        )
    return errors


def check_sweep(rows: list, cells: Sequence[Cell], seed: int) -> List[str]:
    if len(rows) != len(cells):
        return [f"{len(rows)} rows for {len(cells)} cells"]
    return [e for row, cell in zip(rows, cells) for e in check_row(row, cell, seed)]


def reference_ratio(name: str, samples: int, seed: int, tol: float = 1e-12) -> float:
    """The benchmark's own Monte Carlo estimate, in percent."""
    problem = reference.PROBLEMS[name]
    rng = np.random.default_rng([seed, 0xBE7C])
    hits, left = 0, samples
    while left:
        m = min(100_000, left)
        hits += reference.feasible_count(problem, reference.sample_box(problem, rng, m), tol)
        left -= m
    return 100.0 * hits / samples


def check_ratio(record: dict, problem: str, samples: int, seed: int,
                ref_percent: float, ref_samples: int) -> List[str]:
    """The engine's ratio agrees with the reference within 4 combined sigma."""
    errors = [
        f"{problem}: {k} is {record.get(k)!r}, expected {v!r}"
        for k, v in dict(problem=problem, samples=samples, seed=seed).items()
        if record.get(k) != v
    ]
    got = record["feasibility_percent"]
    p1, p2 = got / 100.0, ref_percent / 100.0
    sigma = 100.0 * math.sqrt(p1 * (1 - p1) / samples + p2 * (1 - p2) / ref_samples)
    if abs(got - ref_percent) > SIGMAS * sigma:
        errors.append(
            f"{problem}: feasibility {got!r}% vs reference {ref_percent!r}% "
            f"differs by more than {SIGMAS:g} sigma ({sigma:.3g})"
        )
    return errors
