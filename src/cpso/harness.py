"""Multi-run experiment orchestration and best/mean statistics.

An experiment is one (problem, technique, neighbourhood) cell: ``runs``
independent swarm searches whose results are aggregated into a summary
row with the best run, mean conflict, mean violation aggregate and mean
active-constraint count.

Seeding contract: run ``i`` of an experiment draws its generator from
``numpy.random.SeedSequence([master_seed, i])``, so adding runs never
perturbs earlier ones and runs can execute in any order or in parallel
without changing results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .benchmarks import get_problem
from .handlers import ChtConfig, priority_keys
from .problem import (
    BatchEval,
    EvaluatedPoint,
    EvaluationFault,
    RecSchedule,
    Tolerances,
)
from .swarm import InitializationFailure, SwarmConfig, Topology, init_swarm, lbest_index

TraceFn = Callable[[int, int, float, float], None]


@dataclass(frozen=True)
class ExperimentConfig:
    """One table cell: problem x technique x neighbourhood size.

    ``nn`` counts neighbours excluding the particle itself; 2 and 10 map
    to ring windows 3 and 11, ``particles - 1`` to fully connected.
    The relaxed-equality schedule options apply only to ``*+rec``
    techniques; their schedule is built against the problem box, and
    validated when the config is built.
    """

    problem: str
    cht: ChtConfig
    nn: int
    particles: int
    steps: int
    runs: int
    master_seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)
    max_init_attempts: int = 1_000_000
    rec_switch: float = 0.8
    rec_decrease: str = "linear"
    rec_rate: float = 0.995

    def __post_init__(self):
        if self.nn + 1 > self.particles:
            raise ValueError("nn + 1 must not exceed the particle count")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        self.resolved_cht()

    @property
    def fes(self) -> int:
        """Step-budget evaluations per run (particles times steps)."""
        return self.particles * self.steps

    def resolved_cht(self) -> ChtConfig:
        """Technique config with the equality schedule attached if needed."""
        if not self.cht.uses_rec or self.cht.rec is not None:
            return self.cht
        schedule = RecSchedule.for_problem(
            get_problem(self.problem),
            final_tol=self.tolerances.eq,
            switch_fraction=self.rec_switch,
            decrease=self.rec_decrease,
            rate=self.rec_rate,
        )
        return replace(self.cht, rec=schedule)


@dataclass
class RunResult:
    """Outcome of one independent run."""

    index: int
    termination: str  # "completed" | "init-failed"
    best: Optional[EvaluatedPoint]
    evaluations: int
    init_evaluations: int
    repair_evaluations: int
    elapsed: float

    @property
    def completed(self) -> bool:
        return self.termination == "completed"

    @property
    def conflict(self) -> float:
        return self.best.conflict if self.best is not None else float("nan")

    @property
    def cv(self) -> float:
        return self.best.cv if self.best is not None else float("nan")

    @property
    def nac(self) -> int:
        return self.best.nac if self.best is not None else -1


@dataclass
class SummaryRow:
    """Aggregated best/mean statistics for one experiment.

    Mean fields average over completed runs only; an experiment whose
    runs all failed to initialize is a FAIL row (``failed`` is true and
    the numeric fields are NaN).
    """

    config: ExperimentConfig
    best_conflict: float
    best_cv: float
    best_nac: int
    best_position: Optional[np.ndarray]
    best_run: int
    mean_conflict: float
    mean_cv: float
    mean_nac: float
    failures: int
    extra_evals: int
    elapsed: float
    runs: Optional[List[RunResult]] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.failures == self.config.runs


def run_single(
    config: ExperimentConfig,
    run_index: int,
    trace: Optional[TraceFn] = None,
) -> RunResult:
    """Execute one seeded run and return its best memory.

    The returned best is the winner under the technique's plain
    comparator across all personal bests at the final step.
    """
    if not 0 <= run_index < config.runs:
        raise ValueError("run index out of range")
    problem = get_problem(config.problem)
    cht = config.resolved_cht()
    topology = Topology.from_nn(config.nn, config.particles)
    swarm_config = SwarmConfig(
        size=config.particles,
        steps=config.steps,
        topology=topology,
        seed=np.random.SeedSequence([config.master_seed, run_index]),
        tolerances=config.tolerances,
    )
    start = time.perf_counter()
    try:
        swarm = init_swarm(problem, swarm_config, cht, config.max_init_attempts)
    except InitializationFailure:
        return RunResult(
            index=run_index,
            termination="init-failed",
            best=None,
            evaluations=0,
            init_evaluations=0,
            repair_evaluations=0,
            elapsed=time.perf_counter() - start,
        )
    for _ in range(config.steps):
        swarm.step()
        if trace is not None:
            _, point = swarm.best()
            trace(run_index, swarm.t, point.conflict, point.cv)
    _, best = swarm.best()
    return RunResult(
        index=run_index,
        termination="completed",
        best=best,
        evaluations=swarm.evaluations,
        init_evaluations=swarm.init_evaluations,
        repair_evaluations=swarm.repair_evaluations,
        elapsed=time.perf_counter() - start,
    )


def _stack(points: Sequence[EvaluatedPoint]) -> BatchEval:
    """The points as the rows of one batch, in order."""
    return BatchEval(
        positions=np.array([p.position for p in points]),
        conflict=np.array([p.conflict for p in points]),
        ineq_violations=np.array([p.ineq_violations for p in points]),
        eq_violations=np.array([p.eq_violations for p in points]),
        box_violations=np.array([p.box_violations for p in points]),
        cv=np.array([p.cv for p in points]),
    )


def _run_task(args: Tuple[ExperimentConfig, int]) -> RunResult:
    config, run_index = args
    return run_single(config, run_index)


def summarize(config: ExperimentConfig, results: Sequence[RunResult]) -> SummaryRow:
    """Aggregate run results into a summary row (order-insensitive)."""
    results = sorted(results, key=lambda r: r.index)
    done = [r for r in results if r.completed]
    failures = len(results) - len(done)
    elapsed = sum(r.elapsed for r in results)
    if not done:
        return SummaryRow(
            config=config,
            best_conflict=float("nan"),
            best_cv=float("nan"),
            best_nac=-1,
            best_position=None,
            best_run=-1,
            mean_conflict=float("nan"),
            mean_cv=float("nan"),
            mean_nac=float("nan"),
            failures=failures,
            extra_evals=0,
            elapsed=elapsed,
            runs=list(results),
        )
    # Best over runs by the priority keys; ties keep the lowest run
    # index, so an infeasible low-conflict run never outranks a feasible
    # one.  A single completed run needs no ranking.
    best = done[0]
    if len(done) > 1:
        bests = _stack([r.best for r in done])
        keys = priority_keys(bests, bests.feasible(config.tolerances))
        everyone = np.ones((1, len(done)), dtype=bool)
        best = done[int(lbest_index(everyone, *keys)[0])]
    extra = sum(r.evaluations for r in done) - len(done) * config.fes
    return SummaryRow(
        config=config,
        best_conflict=best.conflict,
        best_cv=best.cv,
        best_nac=best.nac,
        best_position=np.array(best.best.position),
        best_run=best.index,
        mean_conflict=float(np.mean([r.conflict for r in done])),
        mean_cv=float(np.mean([r.cv for r in done])),
        mean_nac=float(np.mean([r.nac for r in done])),
        failures=failures,
        extra_evals=int(extra),
        elapsed=elapsed,
        runs=list(results),
    )


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    trace: Optional[TraceFn] = None,
) -> SummaryRow:
    """Run all ``config.runs`` independent runs and summarize them.

    With ``jobs > 1`` runs execute on worker processes; tracing forces
    serial execution so the log stream stays ordered.
    """
    indices = range(config.runs)
    if jobs > 1 and trace is None:
        # Imported here: it pulls in multiprocessing, which serial runs
        # never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_task, [(config, i) for i in indices]))
    else:
        results = [run_single(config, i, trace) for i in indices]
    return summarize(config, results)


def sweep(configs: Sequence[ExperimentConfig], jobs: int = 1) -> List[SummaryRow]:
    """Run many experiments; one row per config, in input order.

    A row-level error (bad problem name, evaluation fault) is recorded
    in that row instead of aborting the sweep; any other exception
    propagates.
    """
    if not configs:
        raise ValueError("sweep needs at least one experiment")
    rows = []
    for config in configs:
        try:
            rows.append(run_experiment(config, jobs=jobs))
        except (KeyError, EvaluationFault) as exc:
            rows.append(
                SummaryRow(
                    config=config,
                    best_conflict=float("nan"),
                    best_cv=float("nan"),
                    best_nac=-1,
                    best_position=None,
                    best_run=-1,
                    mean_conflict=float("nan"),
                    mean_cv=float("nan"),
                    mean_nac=float("nan"),
                    failures=config.runs,
                    extra_evals=0,
                    elapsed=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
