"""Golden corpus: frozen results of a fixed set of experiment cells.

Every technique on a ring (nn=2) and a fully connected neighbourhood, on
g08, g04, g11 and pressure-vessel-mixed (discrete grid), plus a g13
``pf`` cell whose runs all fail feasible initialization, and two cells
whose feasible initialization does most of the work: g06 ``pf`` (a box
0.0067% feasible) and welded-beam ``bm``, with an attempt budget that is
not a multiple of the 256-row candidate chunk.  Per cell the
corpus stores the summary row (reals as ``float.hex``), and per run the
evaluation counters and a SHA-256 digest of the final personal-best
positions and conflicts.

Write the corpus with::

    PYTHONPATH=src python tests/golden/generate.py

``tests/test_golden.py`` recomputes every cell and compares bit for bit.
Regenerate only when a NumPy upgrade changes the last bits, and log that
in CHANGES.md; never regenerate to absorb an engine change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List

from cpso import harness
from cpso.handlers import KINDS, ChtConfig
from cpso.harness import ExperimentConfig

CORPUS = Path(__file__).with_name("corpus.json")

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


def cells() -> List[ExperimentConfig]:
    def cell(problem, kind, nn, max_init_attempts=MAX_INIT_ATTEMPTS):
        return ExperimentConfig(
            problem=problem,
            cht=ChtConfig(kind),
            nn=nn,
            particles=PARTICLES,
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
    return out


def cell_id(config: ExperimentConfig) -> str:
    return f"{config.problem}-{config.cht.kind}-nn{config.nn}"


def _hex(x) -> str:
    return float(x).hex()


def _digest(swarm) -> str:
    h = hashlib.sha256()
    h.update(swarm.pbest.positions.tobytes())
    h.update(swarm.pbest.conflict.tobytes())
    return h.hexdigest()


def record(config: ExperimentConfig) -> dict:
    """Run one cell serially and return its corpus entry."""
    swarms = []
    real = harness.init_swarm

    def recording(*args, **kwargs):
        swarm = real(*args, **kwargs)
        swarms.append(swarm)
        return swarm

    harness.init_swarm = recording
    try:
        row = harness.run_experiment(config)
    finally:
        harness.init_swarm = real

    # Runs execute in index order, and only completed runs built a swarm.
    completed = iter(swarms)
    runs = []
    for r in row.runs:
        runs.append(
            {
                "termination": r.termination,
                "evaluations": r.evaluations,
                "init_evaluations": r.init_evaluations,
                "repair_evaluations": r.repair_evaluations,
                "pbest_digest": _digest(next(completed)) if r.completed else None,
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


def main() -> None:
    corpus = {cell_id(c): record(c) for c in cells()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cells to {CORPUS}")


if __name__ == "__main__":
    main()
