"""One workload run in a fresh process; started by run.py, one at a time.

Imports the package from the checkout's ``src``, generates the inputs
from the seed, makes one warm-up call, then repeats the workload's fixed
batch until ``--seconds`` are used up; the times are medians over those
repeats.  Every time is calibrated to the reference host by the blocks
that :mod:`calibrate` runs between the calls; the raw times go to the
run detail.  Only then, after peak RSS is read, does it check every call
and print one JSON line, so the oracles' own time and memory stay out of
the metrics.  Outputs stay on disk until
run.py removes the whole work directory after the run: deleting files
between batches makes the next batch's file writes slower on some
filesystems.  With ``--trace 1`` it then runs one more batch, and the
layer probes, under the tracer.  With ``--setup-only`` it stops after
the warm-up and prints only its set-up time.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# the tail is the highest of these percentiles with >= 10 calls beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
SETUP_CALIBRATION_S = 0.3   # calibration after the set-up, to normalise setup_s


def tail(latencies):
    """(percentile, value) of the tail.

    With fewer than 40 calls no listed percentile has ten calls beyond
    it, and the median stands in; the record keeps which one was used.
    """
    import numpy as np
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(latencies, p))
    return 50.0, float(np.percentile(latencies, 50.0))


def call_latencies(batches, scales):
    """Latency of each ``cli.main`` call of the fixed batch: its median over
    the run's repeats of the batch, each scaled as its batch's wall time was
    normalised, so that the tail shows slow inputs rather than moments when
    the shared host was slow."""
    return [statistics.median(call.seconds * k for call, k in zip(column, scales))
            for column in zip(*batches) if column[0].kind == "cli"]


def timed_batch(cal, workload, inputs, batch_dir):
    """(calls, raw wall, normalised wall, normalised CPU, host factors) of
    one batch, without the calibration blocks that ran in it."""
    import calibrate
    mark, u0 = cal.mark(), cal.usage_without_blocks()
    calls = workload.run_batch(inputs, batch_dir)
    u1 = cal.usage_without_blocks()
    cal.block()     # at least one block per batch, however short it is
    factors = cal.factors(mark, cal.mark())
    used = [b - a for a, b in zip(u0, u1)]
    return (calls, used[0], *calibrate.normalise(*used, *factors), factors)


class Tally:
    """Outcomes of checked calls."""

    def __init__(self):
        self.status = Counter()
        self.reasons = Counter()

    def add(self, workload, inputs, calls):
        for call in calls:
            status, reason = workload.check(inputs, call)
            self.status[status] += 1
            if reason:
                self.reasons[f"{status}: {reason}"] += 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import calibrate
    import optrap
    if not Path(optrap.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"optrap imported from {optrap.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    inputs = workload.generate(args.seed, work / "inputs", smoke=args.smoke)
    workload.warm_up(inputs, work)
    setup_raw_s = time.time() - args.t_spawn
    _, user, system = calibrate.usage()
    cal = calibrate.ACTIVE
    cal.directory = work / "calibration"
    setup_factors = cal.measure(SETUP_CALIBRATION_S)
    setup_s = calibrate.normalise(setup_raw_s, user, system, *setup_factors)[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    os.sync()   # the inputs just written are flushed before the timing starts
    batches, raw_walls, walls, cpus, factors = [], [], [], [], []
    cal.enabled = True
    begin = perf_counter()
    while True:
        calls, raw, wall, cpu, factor = timed_batch(
            cal, workload, inputs, work / f"batch{len(batches)}")
        for kept, value in zip((batches, raw_walls, walls, cpus, factors),
                               (calls, raw, wall, cpu, factor)):
            kept.append(value)
        if perf_counter() - begin + 0.5 * raw >= args.seconds:
            break
    cal.enabled = False
    # read before any check runs: the oracles' own allocations stay out of it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = Tally()
    for calls in batches:
        tally.add(workload, inputs, calls)

    wall_s = statistics.median(walls)
    latencies = call_latencies(batches, [w / r for w, r in zip(walls, raw_walls)])
    tail_p, tail_s = tail(latencies)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "call_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "call_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
    }
    detail = {"batches": len(walls), "batch_wall_s": walls, "batch_cpu_s": cpus,
              "raw_batch_wall_s": raw_walls, "host_factors": factors,
              "setup_raw_s": setup_raw_s, "setup_factors": setup_factors,
              "cli_calls": len(latencies), "tail_percentile": tail_p,
              "near_boundary_cells": inputs.get("near_boundary_cells")}

    if args.trace:
        metrics, trace_detail = traced_run(workload, inputs, work, args, tally, wall_s)
        detail.update(trace_detail)

    attempted = sum(tally.status.values())
    failed = tally.status["failed"]
    detail.update({
        "failed_frac": failed / attempted,
        "refused_frac": tally.status["refused"] / attempted,
        "outcomes": dict(tally.status),
        "reasons": dict(tally.reasons.most_common(10)),
    })
    if args.trace:
        metrics["cli.failed_frac"] = {"value": detail["failed_frac"], "unit": "1"}
        metrics["cli.refused_frac"] = {"value": detail["refused_frac"], "unit": "1"}

    import numpy
    import scipy
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "optrap": optrap.__version__}}))


def traced_run(workload, inputs, work, args, tally, untraced_wall_s):
    """One batch and the layer probes under the tracer: the per-layer metrics."""
    import calibrate
    import oracles
    import probes
    import tracing
    from workloads import BASE_TRAP

    tracer = tracing.Tracer()
    tracer.install()
    try:
        batch_dir = work / "traced"
        cal = calibrate.ACTIVE
        cal.enabled = True
        calls, _, traced_wall, _, _ = timed_batch(cal, workload, inputs, batch_dir)
        cal.enabled = False
        tally.add(workload, inputs, calls)
        context = {"radial_omega": oracles.radial_frequency(BASE_TRAP)}
        missing = tracing.uncovered(tracer, context)
        tracer.current_phase = 1
        ran = probes.run_probes(missing, work / "probes", args.seed, args.smoke)
    finally:
        tracer.uninstall()
    metrics, source = tracing.layer_metrics(tracer, context)
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall_s, "unit": "s"}
    spans = tracing.Spans(tracer)
    return metrics, {
        "traced_wall_s": traced_wall, "spans": len(spans.dur),
        "per_layer_source": source, "probes": ran, "unwrapped": tracer.missing,
        "layer_self_s": spans.layer_self_seconds(0)}


if __name__ == "__main__":
    main()
