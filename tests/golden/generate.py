"""Golden corpus: frozen results of a fixed set of experiment cells.

Every technique on a ring (nn=2) and a fully connected neighbourhood, on
g08, g04, g11 and pressure-vessel-mixed (discrete grid), plus a g13
``pf`` cell whose runs all fail feasible initialization, and two cells
whose feasible initialization does most of the work: g06 ``pf`` (a box
0.0067% feasible) and welded-beam ``bm``, with an attempt budget that is
not a multiple of the 256-row candidate chunk, and three cells with
wide constraint blocks at 20 particles: g01 ``pfpr`` (9 inequalities),
g07 ``apm`` (8 inequalities) and g02 ``pfpr`` (a 20-D box).  Per cell
the corpus stores the summary row (reals as ``float.hex``), and per run
the evaluation counters and a SHA-256 digest of the final personal-best
positions, conflicts and cv.  The summary's cv values mostly sum few
nonzero terms, so it is the digest, over every memory, that pins the
last bits of wide row sums.

A second file, ``functions.json``, freezes every registered problem
function: the digests of :func:`function_digests`, on points in the box
and up to 30% of the span outside it.  It pins the problems that never
step in the corpus (spring, himmelblau, g03, g05, g09, g10, g12, g13 and
pressure-vessel-continuous) and the out-of-box values that particles
overshooting the box meet.  g13's objective is left out, as its bits
depend on NumPy's SIMD dispatch.

Write the whole corpus and the function digests, or only the named cells
(``functions`` names the function digests), with::

    PYTHONPATH=src python tests/golden/generate.py [CELL_ID | functions ...]

``tests/test_golden.py`` recomputes every cell and every digest and
compares bit for bit, also in a subprocess with NumPy's AVX-512 dispatch
disabled.
Regenerate only when a NumPy upgrade changes the last bits, or for a
result change declared in CHANGES.md, and then only the cells it
changes; log either in CHANGES.md.  Never regenerate to absorb an
engine change that claims to keep results.

Last regenerated (the g08 cells, g02-pfpr-nn2 and g06-pf-nn2, when the
registry's integer powers became products) with NumPy 2.4.6 on x86-64
under AVX-512 dispatch (AVX512_SPR), and checked to match under X86_V3
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``).
``functions.json`` was first written with the same NumPy and dispatch,
and checked to match under X86_V3 the same way.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import List

import numpy as np

from cpso import harness
from cpso.benchmarks import all_entries
from cpso.handlers import KINDS, ChtConfig
from cpso.harness import ExperimentConfig
from cpso.swarm import Swarm

CORPUS = Path(__file__).with_name("corpus.json")
FUNCTIONS = Path(__file__).with_name("functions.json")
# g13's objective is exp(prod(x)), and NumPy's exp differs in the last
# bits between dispatch levels.  Every other problem function is built
# from exact IEEE operations, sqrt, sin and cos, which were measured
# stable across them.
DISPATCH_DEPENDENT = {"g13.inside.objective", "g13.outside.objective"}

PROBLEMS = ("g08", "g04", "g11", "pressure-vessel-mixed")
PARTICLES = 9
STEPS = 50
RUNS = 3
SEED = 2021
# Enough for every cell that can start feasibly (g08 is the sparsest at
# ~0.9%), small enough that the cells that cannot fail quickly.
MAX_INIT_ATTEMPTS = 4096
# Init-heavy cells: a budget that ends on a short chunk (40000 = 156 * 256
# + 64), a few times g06's mean of ~15k candidates per particle.
INIT_CELLS = (("g06", "pf"), ("welded-beam", "bm"))
INIT_MAX_ATTEMPTS = 40_000
# Wide-block cells: 20 particles, so that each evaluated block is at
# least 20 rows.
WIDE_CELLS = (("g01", "pfpr"), ("g07", "apm"), ("g02", "pfpr"))
WIDE_PARTICLES = 20


def cells() -> List[ExperimentConfig]:
    def cell(
        problem, kind, nn, max_init_attempts=MAX_INIT_ATTEMPTS, particles=PARTICLES
    ):
        return ExperimentConfig(
            problem=problem,
            cht=ChtConfig(kind),
            nn=nn,
            particles=particles,
            steps=STEPS,
            runs=RUNS,
            master_seed=SEED,
            max_init_attempts=max_init_attempts,
        )

    out = [
        cell(problem, kind, nn)
        for problem in PROBLEMS
        for kind in KINDS
        for nn in (2, PARTICLES - 1)
    ]
    out.append(cell("g13", "pf", 2))
    out.extend(cell(p, kind, 2, INIT_MAX_ATTEMPTS) for p, kind in INIT_CELLS)
    out.extend(
        cell(p, kind, 2, particles=WIDE_PARTICLES) for p, kind in WIDE_CELLS
    )
    return out


def cell_id(config: ExperimentConfig) -> str:
    return f"{config.problem}-{config.cht.kind}-nn{config.nn}"


def _hex(x) -> str:
    return float(x).hex()


def _digest(pbest) -> str:
    h = hashlib.sha256()
    h.update(pbest.positions.tobytes())
    h.update(pbest.conflict.tobytes())
    h.update(pbest.cv.tobytes())
    return h.hexdigest()


def _overshooting(problem, rng, count: int) -> np.ndarray:
    """``count`` points uniform in the box widened by 30% of its span on
    each side, snapped to the grid, as overshooting particles are."""
    u = rng.random((count, problem.dimension))
    return problem._snap(problem.lower - 0.3 * problem.span + u * (1.6 * problem.span))


def function_digests() -> dict:
    """SHA-256 of every registered problem function on two fixed samples.

    ``inside`` is 1,001 uniform points in the box; ``outside`` is 1,001
    points of :func:`_overshooting`, most of them outside the box, where
    the functions promise no finite value, so each non-finite value is
    mapped to +inf first, as :func:`~cpso.problem.evaluate_batch` does.
    Each function's values are its row of the problem's term kernel
    block.  Keys are ``<problem>.<block>.sample`` (the points themselves),
    ``<problem>.<block>.objective``, ``<problem>.<block>.inequalities[i]``
    and ``<problem>.<block>.equalities[i]``.  The odd row count also takes
    the SIMD loops through their scalar tails.
    """
    out = {}
    for entry in all_entries():
        problem = entry.problem
        blocks = {
            "inside": problem.sample_uniform(np.random.default_rng(SEED), 1001),
            "outside": _overshooting(problem, np.random.default_rng([SEED, 1]), 1001),
        }
        labels = (
            "objective",
            *(f"inequalities[{i}]" for i in range(problem.n_inequalities)),
            *(f"equalities[{i}]" for i in range(problem.n_equalities)),
        )
        for block, x in blocks.items():
            with np.errstate(all="ignore"):
                terms = problem.terms(x, 0)
            for label, value in (("sample", x), *zip(labels, terms, strict=True)):
                value = np.where(np.isfinite(value), value, np.inf)
                digest = hashlib.sha256(value.tobytes()).hexdigest()
                out[f"{problem.name}.{block}.{label}"] = digest
    return out


def frozen_function_digests() -> dict:
    """:func:`function_digests` but for the dispatch-dependent ones."""
    return {
        k: v for k, v in function_digests().items() if k not in DISPATCH_DEPENDENT
    }


def record(config: ExperimentConfig) -> dict:
    """Run one cell serially and return its corpus entry."""
    groups = []

    class Recording(Swarm):
        def __init__(self, *args):
            super().__init__(*args)
            groups.append(self)

    harness.Swarm = Recording
    try:
        row = harness.run_experiment(config)
    finally:
        harness.Swarm = Swarm

    # The harness builds one swarm per group of runs; the completed runs
    # of a group step in it in index order, each owning ``particles``
    # consecutive memories.
    s = config.particles
    bests = iter(
        g.pbest.take(slice(r * s, (r + 1) * s)) for g in groups for r in range(g.runs)
    )
    runs = []
    for r in row.runs:
        runs.append(
            {
                "termination": r.termination,
                "evaluations": r.evaluations,
                "init_evaluations": r.init_evaluations,
                "repair_evaluations": r.repair_evaluations,
                "pbest_digest": _digest(next(bests)) if r.completed else None,
            }
        )
    return {
        "summary": {
            "failed": row.failed,
            "best_conflict": _hex(row.best_conflict),
            "best_cv": _hex(row.best_cv),
            "best_nac": row.best_nac,
            "best_run": row.best_run,
            "best_position": (
                None
                if row.best_position is None
                else [_hex(v) for v in row.best_position]
            ),
            "mean_conflict": _hex(row.mean_conflict),
            "mean_cv": _hex(row.mean_cv),
            "mean_nac": _hex(row.mean_nac),
            "failures": row.failures,
            "extra_evals": row.extra_evals,
        },
        "runs": runs,
    }


def main(names: List[str]) -> None:
    """Record every cell and the function digests, or only the named
    ones into the existing files."""
    configs = {cell_id(c): c for c in cells()}
    unknown = sorted(set(names) - set(configs) - {"functions"})
    if unknown:
        raise SystemExit(f"unknown cells: {', '.join(unknown)}")
    if not names or "functions" in names:
        digests = frozen_function_digests()
        FUNCTIONS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} function digests to {FUNCTIONS}")
    cell_names = [name for name in names if name != "functions"]
    if not names or cell_names:
        corpus = json.loads(CORPUS.read_text()) if cell_names else {}
        for name in cell_names or configs:
            corpus[name] = record(configs[name])
        CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(cell_names or configs)} of {len(corpus)} cells to {CORPUS}")


if __name__ == "__main__":
    main(sys.argv[1:])
