"""Multi-run experiment orchestration and best/mean statistics.

An experiment is one (problem, technique, neighbourhood) cell: ``runs``
independent swarm searches whose results are aggregated into a summary
row with the best run, mean conflict, mean violation aggregate and mean
active-constraint count.

Seeding contract: run ``i`` of an experiment draws its generator from
``numpy.random.SeedSequence([master_seed, i])``, so adding runs never
perturbs earlier ones and runs can execute in any order, together or in
parallel without changing results.

Execution: the runs are split into contiguous groups, each small enough
that its step evaluates at most ``MAX_BATCH_ROWS`` rows (unless one run
has more particles than that), and at least one per worker.  In a
group, each run draws its initial positions on its own with
:func:`~cpso.swarm.initial_positions`; the runs that start
make one :class:`~cpso.swarm.Swarm`, built and stepped in lockstep, so
that one batch evaluates the group's initial positions and every step
evaluates the group's particles in one batch.  Each run still draws
from its own generator in its own order, so a run's results do not
depend on the runs it steps with.  If an evaluation faults, the cell is
run again one run at a time, so the fault raised is the one the first
faulting run raises alone, after its completed steps are traced.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .benchmarks import get_problem
from .handlers import ChtConfig, priority_keys
from .problem import MAX_BATCH_ROWS, EvaluationFault, RecSchedule, Tolerances
from .swarm import (
    InitializationFailure,
    Swarm,
    SwarmConfig,
    Topology,
    initial_positions,
    lbest_index,
)

TraceFn = Callable[[int, int, float, float], None]


@dataclass(frozen=True)
class ExperimentConfig:
    """One table cell: problem x technique x neighbourhood size.

    ``nn`` counts neighbours excluding the particle itself; 2 and 10 map
    to ring windows 3 and 11, ``particles - 1`` to fully connected.
    The relaxed-equality schedule options apply only to ``*+rec``
    techniques; their schedule is built against the problem box, so
    ``cht`` carries none.  The config is validated when it is built,
    the problem name (``KeyError``), the swarm config its runs use and
    the schedule included; the
    schedule options are reported for every technique, so they are
    validated for every technique.
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
        if self.cht.rec is not None:
            raise ValueError(
                "cht must not carry a schedule: rec_switch, rec_decrease "
                "and rec_rate build it"
            )
        # The schedule's own checks of the options; equal tolerances
        # always pass its initial_tol >= final_tol check.
        RecSchedule(
            self.tolerances.eq,
            self.tolerances.eq,
            self.rec_switch,
            self.rec_decrease,
            self.rec_rate,
        )
        self.swarm_config(0)
        get_problem(self.problem)
        self.resolved_cht()

    @property
    def fes(self) -> int:
        """Step-budget evaluations per run (particles times steps)."""
        return self.particles * self.steps

    @functools.cached_property
    def _topology(self) -> Topology:
        return Topology.from_nn(self.nn, self.particles)

    def swarm_config(self, run_index: int) -> SwarmConfig:
        """The swarm config of run ``run_index``, seeded as the module says.

        The seed is the pair, which ``default_rng`` turns into that
        ``SeedSequence``, so building a config does not import
        ``numpy.random``.  The runs share one topology, and so one
        set of neighbour lists (:attr:`~cpso.swarm.Topology.neighbors`).
        """
        return SwarmConfig(
            size=self.particles,
            steps=self.steps,
            topology=self._topology,
            seed=(self.master_seed, run_index),
            tolerances=self.tolerances,
        )

    def resolved_cht(self) -> ChtConfig:
        """Technique config with the equality schedule attached if needed."""
        if not self.cht.uses_rec:
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
    """Outcome of one independent run.

    A completed run reports its best memory: ``position``, ``conflict``,
    ``cv``, ``nac`` and ``keys``, its priority keys under the cell's
    tolerances, by which :func:`summarize` ranks runs.  ``trace`` holds
    the best memory's conflict and cv after every step, one row per
    step, when the run was traced.
    """

    index: int
    termination: str  # "completed" | "init-failed"
    evaluations: int
    init_evaluations: int
    repair_evaluations: int
    elapsed: float
    position: Optional[np.ndarray] = None
    conflict: float = float("nan")
    cv: float = float("nan")
    nac: int = -1
    keys: Optional[Tuple[float, float]] = None
    trace: Optional[np.ndarray] = None

    @property
    def completed(self) -> bool:
        return self.termination == "completed"


@dataclass
class SummaryRow:
    """Aggregated best/mean statistics for one experiment.

    Mean fields average over completed runs only; an experiment whose
    runs all failed to initialize, or whose ``error`` is set, is a FAIL
    row (``failed`` is true and the statistics keep their defaults: NaN,
    and -1 for the best run and its nac).
    """

    config: ExperimentConfig
    failures: int
    extra_evals: int
    elapsed: float
    best_conflict: float = float("nan")
    best_cv: float = float("nan")
    best_nac: int = -1
    best_position: Optional[np.ndarray] = None
    best_run: int = -1
    mean_conflict: float = float("nan")
    mean_cv: float = float("nan")
    mean_nac: float = float("nan")
    runs: Optional[List[RunResult]] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.failures == self.config.runs


def _run_group(
    config: ExperimentConfig, indices: Sequence[int], trace: bool = False
) -> List[RunResult]:
    """Runs ``indices`` of ``config``, stepped in lockstep, in index order.

    Each run draws its initial positions on its own; the runs that start
    make one swarm, built and stepped together, and every run's final
    best is read from one :func:`~cpso.swarm.lbest_index` call.  A run's
    ``elapsed`` is its own initialization plus an equal share of the
    swarm's construction and steps.  With ``trace``, each completed run
    records its best memory's conflict and cv after every step.  An
    :class:`EvaluationFault` raised by a step carries the runs' records
    of the steps before it as ``trace`` (None unless traced).
    """
    problem = get_problem(config.problem)
    cht = config.resolved_cht()
    results, started, starts, init_s = {}, [], [], []
    for i in indices:
        start = time.perf_counter()
        try:
            starts.append(
                initial_positions(
                    problem, config.swarm_config(i), cht, config.max_init_attempts
                )
            )
        except InitializationFailure as failure:
            results[i] = RunResult(
                index=i,
                termination="init-failed",
                evaluations=failure.evaluations,
                init_evaluations=failure.evaluations,
                repair_evaluations=0,
                elapsed=time.perf_counter() - start,
            )
            continue
        started.append(i)
        init_s.append(time.perf_counter() - start)
    if not started:
        return [results[i] for i in indices]

    start = time.perf_counter()
    rngs, positions, rejected = zip(*starts)
    first = config.swarm_config(started[0])
    group = Swarm(problem, first, cht, rngs, np.concatenate(positions), rejected)
    log = np.empty((group.runs, config.steps, 2)) if trace else None
    for t in range(config.steps):
        try:
            group.step()
        except EvaluationFault as fault:
            # The steps completed before the fault, for run_single to write.
            fault.trace = None if log is None else log[:, :t]
            raise
        if log is not None:
            rows = group.best_rows()
            log[:, t, 0] = group.pbest.conflict[rows]
            log[:, t, 1] = group.pbest.cv[rows]
    best = group.pbest.take(group.best_rows())
    primary, secondary = priority_keys(best, best.feasible(config.tolerances))
    nac = best.nac(group.tolerances)
    share = (time.perf_counter() - start) / group.runs
    for r, i in enumerate(started):
        results[i] = RunResult(
            index=i,
            termination="completed",
            evaluations=int(group.run_evaluations[r]),
            init_evaluations=int(group.run_init_evaluations[r]),
            repair_evaluations=int(group.run_repair_evaluations[r]),
            elapsed=init_s[r] + share,
            position=best.positions[r],
            conflict=float(best.conflict[r]),
            cv=float(best.cv[r]),
            nac=int(nac[r]),
            keys=(float(primary[r]), float(secondary[r])),
            trace=None if log is None else log[r],
        )
    return [results[i] for i in indices]


def _write_trace(
    trace: Optional[TraceFn], logs: Sequence[Tuple[int, Optional[np.ndarray]]]
) -> None:
    """Pass every step of ``logs``, ``(run index, log or None)`` pairs, to
    ``trace``, run by run."""
    if trace is None:
        return
    for index, log in logs:
        if log is not None:
            for t, (conflict, cv) in enumerate(log.tolist(), start=1):
                trace(index, t, conflict, cv)


def run_single(
    config: ExperimentConfig,
    run_index: int,
    trace: Optional[TraceFn] = None,
) -> RunResult:
    """Execute one seeded run and return its best memory.

    The returned best is the winner under the technique's plain
    comparator across all personal bests at the final step.  ``trace``
    receives the run's best after every step once the run has ended; if
    a step raises :class:`EvaluationFault`, it receives the steps
    completed before it, and the fault is raised again.
    """
    if not 0 <= run_index < config.runs:
        raise ValueError("run index out of range")
    try:
        result = _run_group(config, [run_index], trace is not None)[0]
    except EvaluationFault as fault:
        completed = getattr(fault, "trace", None)
        _write_trace(trace, [(run_index, None if completed is None else completed[0])])
        raise
    _write_trace(trace, [(run_index, result.trace)])
    return result


def summarize(config: ExperimentConfig, results: Sequence[RunResult]) -> SummaryRow:
    """Aggregate run results into a summary row (order-insensitive)."""
    results = sorted(results, key=lambda r: r.index)
    done = [r for r in results if r.completed]
    failures = len(results) - len(done)
    elapsed = sum(r.elapsed for r in results)
    if not done:
        return SummaryRow(
            config=config,
            failures=failures,
            extra_evals=sum(r.evaluations for r in results),
            elapsed=elapsed,
            runs=list(results),
        )
    # Best over runs by the priority keys; ties keep the lowest run
    # index, so an infeasible low-conflict run never outranks a feasible
    # one.  A single completed run needs no ranking.
    best = done[0]
    if len(done) > 1:
        primary, secondary = np.array([r.keys for r in done]).T
        everyone = np.arange(len(done))[None]
        best = done[int(lbest_index(everyone, primary, secondary)[0])]
    # Every evaluation beyond the step budget of the completed runs,
    # the failed runs' initialization samples included.
    extra = sum(r.evaluations for r in results) - len(done) * config.fes
    return SummaryRow(
        config=config,
        best_conflict=best.conflict,
        best_cv=best.cv,
        best_nac=best.nac,
        best_position=np.array(best.position),
        best_run=best.index,
        mean_conflict=float(np.mean([r.conflict for r in done])),
        mean_cv=float(np.mean([r.cv for r in done])),
        mean_nac=float(np.mean([r.nac for r in done])),
        failures=failures,
        extra_evals=int(extra),
        elapsed=elapsed,
        runs=list(results),
    )


def _groups(config: ExperimentConfig, jobs: int) -> List[List[int]]:
    """The cell's run indices in contiguous lockstep groups.

    There are at least ``min(jobs, runs)`` groups, so that every worker
    gets one, and no group has more than ``MAX_BATCH_ROWS // particles``
    runs (one at least), so that a step evaluates at most
    ``MAX_BATCH_ROWS`` rows.  A group holds at least one run, so a run
    of more than ``MAX_BATCH_ROWS`` particles steps all of them at once.
    """
    cap = max(1, MAX_BATCH_ROWS // config.particles)
    count = max(min(jobs, config.runs), -(-config.runs // cap))
    return [g.tolist() for g in np.array_split(np.arange(config.runs), count)]


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    trace: Optional[TraceFn] = None,
) -> SummaryRow:
    """Run all ``config.runs`` independent runs and summarize them.

    The runs step in lockstep groups (see the module docstring), one
    after another, or with ``jobs > 1`` on up to ``jobs`` worker
    processes.  ``trace`` receives every run's best after every step,
    run by run, once all runs have ended.
    """
    groups = _groups(config, jobs)
    n = len(groups)
    args = [config] * n, groups, [trace is not None] * n
    try:
        if jobs > 1 and n > 1:
            # Imported here: it pulls in multiprocessing, which serial runs
            # never use.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
                done = list(pool.map(_run_group, *args))
        else:
            done = list(map(_run_group, *args))
    except EvaluationFault:
        # One run at a time, in order, as serial execution faults; the
        # faulting run's completed steps are traced before it raises.
        indices = range(config.runs)
        return summarize(config, [run_single(config, i, trace) for i in indices])
    results = [r for group in done for r in group]
    _write_trace(trace, [(r.index, r.trace) for r in results])
    return summarize(config, results)


def sweep(configs: Sequence[ExperimentConfig], jobs: int = 1) -> List[SummaryRow]:
    """Run many experiments; one row per config, in input order.

    A row-level error (bad problem name, evaluation fault) is recorded
    in that row instead of aborting the sweep; any other exception
    propagates, a ``KeyError`` from inside a run included.
    """
    if not configs:
        raise ValueError("sweep needs at least one experiment")
    rows = []
    for config in configs:
        try:
            get_problem(config.problem)
        except KeyError as exc:  # str() would quote the lookup's message
            error = f"KeyError: {exc.args[0]}"
        else:
            try:
                rows.append(run_experiment(config, jobs=jobs))
                continue
            except EvaluationFault as exc:
                error = f"{type(exc).__name__}: {exc}"
        rows.append(
            SummaryRow(
                config=config,
                failures=config.runs,
                extra_evals=0,
                elapsed=0.0,
                error=error,
            )
        )
    return rows
