"""The benchmark's workloads: which cells run, and the CLI calls that run them.

Every workload is serial (``--jobs 1``) and takes its seed from the
command line: the seed is
the master seed of every sweep cell and the sampling seed of every
feasibility estimate, so the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

REPAIR = ("bm", "bmem", "bmpem")
FEASIBLE_MEMORIES = ("pf",) + REPAIR


@dataclass(frozen=True)
class Cell:
    problem: str
    cht: str
    nn: int
    particles: int
    steps: int
    runs: int

    @property
    def fes(self) -> int:
        return self.particles * self.steps


@dataclass(frozen=True)
class Sweep:
    """One ``cpso sweep`` call over a fixed list of cells."""

    cells: Tuple[Cell, ...]
    # The timed operations: initialization and steps.  Neither calls the
    # other, so their durations add up.  Both work on arrays of at most a
    # few hundred rows, so the small kernel is their speed reference.
    units = ("harness.init_swarm", "swarm.Swarm.step")
    kernel = "small"

    @property
    def operations(self) -> int:
        """Runs attempted per round."""
        return sum(c.runs for c in self.cells)

    def inputs(self, out_dir: Path, name: str, seed: int) -> dict:
        lines = [f"# {name}, seed {seed}", f"seed = {seed}"]
        for c in self.cells:
            lines += [
                "",
                "[run]",
                f"problem = {c.problem}",
                f"cht = {c.cht}",
                f"nn = {c.nn}",
                f"particles = {c.particles}",
                f"steps = {c.steps}",
                f"runs = {c.runs}",
            ]
        config = out_dir / f"{name}-seed{seed}.sweep"
        config.write_text("\n".join(lines) + "\n")
        return {"config": config, "result": out_dir / f"{name}-seed{seed}.json"}

    def argv(self, inputs: dict) -> List[List[str]]:
        return [[
            "sweep", str(inputs["config"]), "--format", "json",
            "--out", str(inputs["result"]), "--jobs", "1",
        ]]

    def outputs(self, inputs: dict) -> List[Path]:
        return [inputs["result"]]


@dataclass(frozen=True)
class Feasibility:
    """One ``cpso feasibility`` call per problem."""

    problems: Tuple[str, ...]
    samples: int
    # The timed operations: each chunk's sampling, evaluation and count,
    # on 200k-row arrays, so the streaming kernel is their speed reference.
    units = ("problem.Problem.sample_uniform", "benchmarks.evaluate_batch",
             "problem.BatchEval.feasible")
    kernel = "stream"

    @property
    def operations(self) -> int:
        return len(self.problems)

    def inputs(self, out_dir: Path, name: str, seed: int) -> dict:
        return {
            "seed": seed,
            "results": [out_dir / f"{name}-seed{seed}-{p}.json" for p in self.problems],
        }

    def argv(self, inputs: dict) -> List[List[str]]:
        return [
            [
                "feasibility", "--problem", p, "--samples", str(self.samples),
                "--seed", str(inputs["seed"]), "--format", "json", "--out", str(out),
            ]
            for p, out in zip(self.problems, inputs["results"])
        ]

    def outputs(self, inputs: dict) -> List[Path]:
        return list(inputs["results"])


# The step loop dominates: one long run per cell, no repair, almost no
# initialization sampling.  Together the cells cover the ring and the
# fully connected lbest, the 20-D evaluation, the probabilistic memory
# draw, the relaxed equality schedule, the penalty, and the discrete grid.
STEP_PRIORITY = Sweep((
    Cell("g08", "pfpr", 2, 40, 400, 1),
    Cell("g04", "pfpr", 2, 40, 400, 1),
    Cell("g02", "pfpr", 2, 40, 400, 1),
    Cell("g11", "pfppr+rec", 2, 40, 400, 1),
    Cell("welded-beam", "apm", 39, 40, 400, 1),
    Cell("pressure-vessel-mixed", "pfppr", 2, 40, 400, 1),
))

# Move repair takes most of a step: one repair_move call per infeasible
# particle, each with its own small evaluate_batch.
STEP_REPAIR = Sweep((
    Cell("g04", "bm", 10, 40, 100, 1),
    Cell("g04", "bmpem", 10, 40, 100, 1),
    Cell("welded-beam", "bm", 2, 20, 100, 1),
    Cell("himmelblau", "bmem", 10, 20, 100, 1),
))

# A paper-style table: 30 runs per cell at a short step budget, so
# per-run set-up, feasible initialization (g06 has 0.0067% of its box
# feasible) and summarize do real work.
TABLE_30RUN = Sweep((
    Cell("g08", "pfpr", 2, 40, 10, 30),
    Cell("g06", "pf", 2, 10, 10, 30),
    Cell("welded-beam", "bm", 2, 20, 10, 30),
))

# The evaluation layer at 200k-row chunks, where compute dominates.
FEASIBILITY_MC = Feasibility(
    ("g02", "g04", "g08", "spring", "welded-beam", "pressure-vessel-continuous"),
    1_000_000,
)

WORKLOADS = {
    "step-priority": STEP_PRIORITY,
    "step-repair": STEP_REPAIR,
    "table-30run": TABLE_30RUN,
    "feasibility-mc": FEASIBILITY_MC,
}
