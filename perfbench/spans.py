"""Spans around the public functions of each cpso module, recorded from outside.

Each traced function is replaced, at every module that binds it, by a
wrapper that records when each call starts and ends.  Spans stay in
memory and are written when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """Enter and exit events in flat integer arrays.

    A call appends its name id and start time on entry, the complement
    of its id and the end time on exit, plus one count.  Arrays keep the
    per-call cost near a microsecond and add no objects for the garbage
    collector; spans and their parents are rebuilt from the event order
    when the run ends.
    """

    def __init__(self):
        self.names: List[str] = []
        self.ids = array("q")
        self.times = array("q")
        self.counts = array("q")

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None):
        """Return ``fn`` recording a span per call; ``count(result)`` is stored."""
        nid = len(self.names)
        self.names.append(name)
        ids, times, counts, clock = self.ids, self.times, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ids.append(nid)
            times.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                times.append(clock())
                ids.append(~nid)
                counts.append(0)
                raise
            times.append(clock())
            ids.append(~nid)
            counts.append(0 if count is None else count(out))
            return out

        return traced

    def records(self) -> List[list]:
        """Spans as ``[name id, parent index, start_ns, end_ns, count]``."""
        spans: List[list] = []
        stack: List[int] = []
        exits = iter(self.counts)
        for nid, t in zip(self.ids, self.times):
            if nid >= 0:
                spans.append([nid, stack[-1] if stack else -1, t, 0, 0])
                stack.append(len(spans) - 1)
            else:
                rec = spans[stack.pop()]
                rec[3] = t
                rec[4] = next(exits)
        return spans

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.records()}, fh)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts."""
        spans = self.records()
        child_ns = [0] * len(spans)
        child_count = defaultdict(int)  # (parent name, child name) -> counts
        for nid, parent, start, end, count in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                pname = self.names[spans[parent][0]]
                child_count[pname, self.names[nid]] += count
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
        )
        for i, (nid, _, start, end, count) in enumerate(spans):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["s"] += (end - start) * 1e-9
            agg["self_s"] += (end - start - child_ns[i]) * 1e-9
            agg["count"] += count
        result = dict(out)
        result["_child_count"] = {f"{p}>{c}": n for (p, c), n in child_count.items()}
        return result


def _rows(batch) -> int:
    return len(batch)


def _repair_charged(result) -> int:
    # The full step is charged by Swarm.step before repair starts.
    return result.evals_used - 1


def _init_evals(swarm) -> int:
    return swarm.init_evaluations


def instrument(tracer: Tracer, cpso) -> Callable:
    """Wrap every traced binding in the imported ``cpso`` package.

    Returns the traced ``cli.main``, which the caller invokes.
    """
    problem, handlers, swarm = cpso.problem, cpso.handlers, cpso.swarm
    harness, benchmarks, cli = cpso.harness, cpso.benchmarks, cpso.cli

    def functions(name, attr, modules, count=None):
        # A change that claims a gain may not edit the benchmark, so a
        # function the engine no longer has is skipped and reads 0.
        if not hasattr(modules[0], attr):
            return
        wrapped = tracer.wrap(name, getattr(modules[0], attr), count)
        for module in modules:
            if hasattr(module, attr):
                setattr(module, attr, wrapped)

    functions("problem.evaluate_batch", "evaluate_batch",
              (problem, swarm, handlers, benchmarks), _rows)
    functions("problem.BatchEval.feasible", "feasible", (problem.BatchEval,))
    functions("problem.snap_to_grid", "snap_to_grid", (problem.Problem,))
    functions("handlers.repair_move", "repair_move", (handlers, swarm), _repair_charged)
    functions("handlers.penalized_batch", "penalized_batch", (handlers, swarm))
    functions("swarm.init_swarm", "init_swarm", (swarm, harness), _init_evals)
    functions("swarm.Swarm.step", "step", (swarm.Swarm,))
    functions("swarm.Swarm.best", "best", (swarm.Swarm,))
    functions("harness.run_single", "run_single", (harness,))
    functions("harness.summarize", "summarize", (harness,))
    functions("harness.run_experiment", "run_experiment", (harness, cli))
    functions("harness.sweep", "sweep", (harness, cli))
    functions("benchmarks.estimate_feasibility_ratio", "estimate_feasibility_ratio",
              (benchmarks, cli))
    return tracer.wrap("cli.main", cli.main)


# name in BENCHMARK.json -> (span name, field)
LAYER_METRICS = {
    "problem.evaluate_batch.calls": ("problem.evaluate_batch", "calls"),
    "problem.evaluate_batch.rows": ("problem.evaluate_batch", "count"),
    "problem.evaluate_batch.s": ("problem.evaluate_batch", "s"),
    "problem.BatchEval.feasible.calls": ("problem.BatchEval.feasible", "calls"),
    "problem.BatchEval.feasible.s": ("problem.BatchEval.feasible", "s"),
    "problem.snap_to_grid.s": ("problem.snap_to_grid", "s"),
    "handlers.repair_move.calls": ("handlers.repair_move", "calls"),
    "handlers.repair_move.s": ("handlers.repair_move", "s"),
    "handlers.repair_move.self_s": ("handlers.repair_move", "self_s"),
    "handlers.repair_move.evals_charged": ("handlers.repair_move", "count"),
    "handlers.penalized_batch.calls": ("handlers.penalized_batch", "calls"),
    "handlers.penalized_batch.s": ("handlers.penalized_batch", "s"),
    "swarm.init_swarm.s": ("swarm.init_swarm", "s"),
    "swarm.init_swarm.evals": ("swarm.init_swarm", "count"),
    "swarm.Swarm.step.calls": ("swarm.Swarm.step", "calls"),
    "swarm.Swarm.step.s": ("swarm.Swarm.step", "s"),
    "swarm.Swarm.step.self_s": ("swarm.Swarm.step", "self_s"),
    "swarm.Swarm.best.s": ("swarm.Swarm.best", "s"),
    "harness.run_single.calls": ("harness.run_single", "calls"),
    "harness.run_single.s": ("harness.run_single", "s"),
    "harness.summarize.s": ("harness.summarize", "s"),
    "harness.run_experiment.self_s": ("harness.run_experiment", "self_s"),
    "benchmarks.estimate_feasibility_ratio.s": ("benchmarks.estimate_feasibility_ratio", "s"),
    "benchmarks.estimate_feasibility_ratio.self_s": (
        "benchmarks.estimate_feasibility_ratio", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def layer_metrics(summary: Dict) -> Dict[str, float]:
    """Flatten one round's span summary into the per-layer metrics."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
    out = {
        metric: summary.get(span, empty)[field]
        for metric, (span, field) in LAYER_METRICS.items()
    }
    ev = summary.get("problem.evaluate_batch", empty)
    out["problem.evaluate_batch.us_per_row"] = (
        1e6 * ev["s"] / ev["count"] if ev["count"] else 0.0
    )
    trial_rows = summary["_child_count"].get(
        "handlers.repair_move>problem.evaluate_batch", 0
    )
    out["handlers.repair_move.charged_per_evaluated"] = (
        out["handlers.repair_move.evals_charged"] / trial_rows if trial_rows else 0.0
    )
    return out
