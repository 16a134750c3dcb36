"""One round of a workload in a fresh process.

Imports ``cpso`` from the checkout's ``src`` directory, calls
``cpso.cli.main`` in-process once per CLI call of the workload, and
prints one JSON line on stdout:

* ``first_call_ns``: ``time.monotonic_ns()`` at the first engine call
  (``sweep`` or ``estimate_feasibility_ratio`` as bound in ``cpso.cli``).
  CLOCK_MONOTONIC is system-wide, so the parent subtracts its own spawn
  stamp and ``setup_skipped_ns``, the time spent making the kernel ready,
  from it to get the set-up time.
* ``wall_s``: from that first engine call to the return of the last
  ``cli.main`` call, output writing included, scaled to the reference
  host's speed (see ``HostSpeed``); ``raw_wall_s`` is the same unscaled.
  With ``--units``, each call of the named functions (``module.function``
  or ``module.Class.method``, as bound in ``cpso.<module>``) is scaled by
  the kernel timings taken just before and after it, and the rest by
  their median.
* ``slowdown``: the median kernel time over the reference time.
* ``peak_rss_mb``: the process's peak resident set.
* ``layers``: per-span summary, only when traced.

Run by ``run.py``; ``--warmup`` only imports, so that byte-code caches
exist before anything is timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def import_cpso():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cpso
    import cpso.cli

    if not Path(cpso.__file__).resolve().is_relative_to(src):
        raise ImportError(f"cpso imported from {cpso.__file__}, not from {src}")
    return cpso


def _stamp_first_call(cli, attr, stamp, speed):
    fn = getattr(cli, attr)

    def first(*args, **kwargs):
        if stamp[0] is None:
            stamp[0] = time.monotonic_ns()
            speed.check()
        return fn(*args, **kwargs)

    setattr(cli, attr, first)


# The host's speed drifts: on a shared machine, the same work can take
# up to twice as long for seconds at a time.  So the worker times a fixed
# NumPy kernel now and then, and scales each duration by the kernel's
# reference time over its time when the duration was taken.  Small-array
# work and large-array work slow down by different factors, so there are
# two kernels; a workload names the one that matches its operations.  A
# reference time is the kernel's time on the reference host of README.md
# when nothing else slows it down, so that scaled times read as seconds on
# that host.  The kernels use NumPy alone, so no change to cpso moves them.
def _small_kernel():
    """Small NumPy operations and Python arithmetic: the mix of a swarm step."""
    x = np.linspace(0.0, 1.0, 520).reshape(40, 13)

    def run():
        for _ in range(20):
            y = np.cos(x) * 2.0 + x
            y.sum(axis=1)
            np.maximum(y, 0.5)
            [i * 0.5 for i in range(40)]

    return run


def _stream_kernel():
    """One pass over 32 MiB: the regime of a 200k-row evaluation."""
    buffer = np.zeros(4_000_000)

    def run():
        np.add(buffer, 1.0, out=buffer)
        buffer.sum()

    return run


# name -> (kernel factory, reference time in ns)
KERNELS = {"small": (_small_kernel, 235_000), "stream": (_stream_kernel, 5_400_000)}


class HostSpeed:
    """Timings of one kernel, taken between timed calls.

    Each check takes the fastest of three passes.  Checks are spaced by
    twenty times their own cost, and the time they take is kept apart so
    that it can be left out of every measured interval.
    """

    def __init__(self, kernel: str):
        make, self.reference_ns = KERNELS[kernel]
        self.kernel = make()
        self.kernel()  # warm-up, and first touch of its memory
        self.kernel_ns: list = []
        self.spent_ns = 0
        self.last_ns = 0
        self.last_cost_ns = 0

    def check(self) -> None:
        start = time.perf_counter_ns()
        best = None
        for _ in range(3):
            t = time.perf_counter_ns()
            self.kernel()
            took = time.perf_counter_ns() - t
            best = took if best is None else min(best, took)
        self.kernel_ns.append(best)
        self.last_ns = time.perf_counter_ns()
        self.last_cost_ns = self.last_ns - start
        self.spent_ns += self.last_cost_ns

    def due(self) -> bool:
        return time.perf_counter_ns() - self.last_ns >= 20 * self.last_cost_ns

    def scale(self, i: int) -> float:
        """Reference over measured kernel time around timed call ``i``."""
        k = self.kernel_ns
        return self.reference_ns * (1 / k[i] + 1 / k[min(i + 1, len(k) - 1)]) / 2

    def median_scale(self) -> float:
        return self.reference_ns / statistics.median(self.kernel_ns)


def _time_calls(cpso, path, speed, durations):
    """Record (duration ns, index of the latest kernel timing) per call.

    A function the engine no longer has is skipped: its time then falls in
    the rest of the round, which is scaled by the median kernel timing.
    """
    *owner_path, attr = path.split(".")
    owner = cpso
    for name in owner_path:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None)
    if fn is None:
        return
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        durations.append((clock() - start, len(speed.kernel_ns) - 1))
        if speed.due():
            speed.check()
        return out

    setattr(owner, attr, timed)


def _scaled_wall_s(wall_ns: int, units: list, speed: HostSpeed) -> float:
    """Each timed call scaled by the checks around it; the rest by their median."""
    timed = sum(d for d, _ in units)
    scaled = sum(d * speed.scale(i) for d, i in units)
    return (scaled + (wall_ns - timed) * speed.median_scale()) * 1e-9


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--calls", help="JSON list of cpso argv lists")
    parser.add_argument("--trace", default=None, help="write spans to this path")
    parser.add_argument("--units", nargs="*", default=(),
                        help="time each call of these functions")
    parser.add_argument("--kernel", choices=KERNELS, default="small",
                        help="speed reference for the timed calls")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()

    cpso = import_cpso()
    if args.warmup:
        return 0
    # Making the kernel ready is left out of the set-up time.
    skip_start = time.monotonic_ns()
    speed = HostSpeed(args.kernel)
    setup_skipped_ns = time.monotonic_ns() - skip_start
    calls = json.loads(args.calls)

    tracer = None
    cli_main = cpso.cli.main
    if args.trace:
        import spans

        tracer = spans.Tracer()
        cli_main = spans.instrument(tracer, cpso)
    units = []
    for path in args.units:
        _time_calls(cpso, path, speed, units)
    stamp = [None]
    for attr in ("sweep", "estimate_feasibility_ratio"):
        _stamp_first_call(cpso.cli, attr, stamp, speed)

    for argv in calls:
        status = cli_main(argv)
        if status != 0:
            print(f"cpso {' '.join(argv)} exited {status}", file=sys.stderr)
            return 1
    end = time.monotonic_ns()

    wall_ns = end - stamp[0] - speed.spent_ns
    result = {
        "first_call_ns": stamp[0],
        "setup_skipped_ns": setup_skipped_ns,
        "wall_s": _scaled_wall_s(wall_ns, units, speed),
        "raw_wall_s": wall_ns * 1e-9,
        "slowdown": 1 / speed.median_scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(Path(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
