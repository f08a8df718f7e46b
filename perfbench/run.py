"""The bihomalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/
directory, so no install is needed.  Workloads: check-concrete,
check-symbolic, search, trees (see README.md for why each exists).

A run builds the workload's round of operations from the seed, makes one
untimed warm-up round that also fills the oracle caches, then cycles through
the round in a closed loop, one operation at a time, until S seconds have
passed.  Every output is checked against an oracle that does not use the
library.  Times are reference seconds (refclock.py).  The last line of
stdout is one JSON object:

  {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced round, then the layer microbenchmarks, and reports the per-layer
metrics.  Without src/bihomalg the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import REFERENCE_S, RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "check-concrete": "wl_concrete",
    "check-symbolic": "wl_symbolic",
    "search": "wl_search",
    "trees": "wl_trees",
}
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="bihomalg benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Reference seconds of a fresh interpreter that imports bihomalg and
    builds the workload's inputs, then exits: interpreter start to inputs
    ready.  The child may run on the other CPU, so it times the reference
    loop itself, before and after its work; those loops are not counted."""
    code = ("import sys; sys.path[:0] = [%r, %r]\n"
            "from refclock import RefClock\n"
            "clock = RefClock(); clock.calibrate()\n"
            "import %s as w; w.build(%d)\n"
            "clock.calibrate(); print(*clock.seconds)"
            % (str(HERE), str(SRC), WORKLOADS[workload], seed))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    loops = [float(x) for x in proc.stdout.split()]
    return (wall - sum(loops)) * REFERENCE_S * len(loops) / sum(loops)


class Tally:
    """Counts of operations attempted and failed, and the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, op):
        """Run one operation and check its output; returns (start, seconds)."""
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            out, error = None, exc
        dt = time.perf_counter() - t0
        ok = False
        if error is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:  # an output the oracle cannot read is wrong
                error = exc
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.case}: {error!r}" if error else op.case)
        return t0, dt


def run_rounds(ops, tally, clock, seconds):
    """Cycle through the round, one operation at a time, until `seconds` of
    wall time have passed and every slot has run at least once.  Returns
    each run's reference seconds, one list per slot of the round."""
    gc.collect()
    runs = [[] for _ in ops]
    start = time.perf_counter()
    while not runs[-1] or time.perf_counter() - start < seconds:
        for op, slot in zip(ops, runs):
            if runs[-1] and time.perf_counter() - start >= seconds:
                break
            clock.tick()
            slot.append(tally.run(op))
    clock.calibrate()
    return [[clock.scale(t0, dt) for t0, dt in slot] for slot in runs]


def percentile(values, q):
    """The q-th percentile, by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, ops, tally):
    """Untraced timed phase: the metrics a user of the library sees.

    Times are reference seconds (refclock.py).  A slot's cost is the median
    of its timed runs; throughput and the latency percentiles are taken over
    the slots of one round."""
    clock = RefClock()
    setup = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    samples = run_rounds(ops, tally, clock, args.seconds)
    cost = [statistics.median(times) for times in samples]
    lat_ms = [1000 * c for c, op in zip(cost, ops) if op.kind != "build"]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(lat_ms) / sum(cost), "1/s"),
        "op_p50_ms": metric(percentile(lat_ms, 50), "ms"),
        "op_p90_ms": metric(percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    repeats = [len(times) for times in samples]
    print(f"{len(lat_ms)} operations per round, {min(repeats)}-{max(repeats)} timed runs each, "
          f"median reference-loop slowdown {clock.speed():.3f}, "
          f"setup probes {[round(x, 4) for x in setup]} reference s")
    for name, (value, unit) in workload_extras(ops, cost).items():
        print(f"  {name} = {value:.6g} {unit}")
    return metrics


def workload_extras(ops, cost):
    """Workload-specific end-to-end figures: candidates_per_s on search,
    reducer_build_s (and each window's build) on trees.  They are printed for
    the reader; the JSON carries only the metrics every workload reports."""
    extra = {}
    units = sum(op.units for op in ops)
    if units:
        extra["candidates_per_s"] = (units / sum(cost), "1/s")
    builds = {op.case: c for op, c in zip(ops, cost) if op.kind == "build"}
    if builds:
        extra["reducer_build_s"] = (sum(builds.values()), "s")
        for case, b in builds.items():
            extra[f"{case}_s"] = (b, "s")
    return extra


def traced(ops, tally):
    """One untraced and one traced round, then the layer microbenchmarks."""
    import layers
    import tracing

    clock = RefClock()
    plain = sum(map(sum, run_rounds(ops, tally, clock, 0)))
    tracer = tracing.Tracer()
    with tracer.installed():
        runs = []
        gc.collect()
        for op in ops:
            clock.tick()
            runs.append(tally.run(op))
        clock.calibrate()
    metrics = tracer.metrics(sum(dt for _, dt in runs))
    busy = sum(clock.scale(t0, dt) for t0, dt in runs)
    metrics["trace.busy_s"] = metric(busy, "s")
    metrics["trace.overhead_pct"] = metric(100 * (busy - plain) / plain, "%")
    print(f"untraced round {plain:.3f}, traced round {busy:.3f} reference s")
    for line in tracer.report():
        print("  " + line)
    metrics.update(layers.sweep(clock))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bihomalg" / "__init__.py").is_file():
        print(f"perfbench: no bihomalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import bihomalg
    if Path(bihomalg.__file__).resolve().parent != SRC / "bihomalg":
        print(f"perfbench: imported bihomalg from {bihomalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    module = __import__(WORKLOADS[args.workload])
    ops = module.build(args.seed)
    tally = Tally()
    for op in ops:  # warm-up: untimed, fills the oracle caches, checked
        tally.run(op)
    metrics = traced(ops, tally) if args.trace else end_to_end(args, ops, tally)
    print(f"workload {args.workload}, seed {args.seed}, attempted {tally.attempted}, "
          f"failed {tally.failed}, failed_ratio {tally.failed / tally.attempted:.6g}")
    for f in tally.failures:
        print(f"  FAILED {f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
