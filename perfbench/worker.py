"""Run one benchmark workload in this process and print its result.

Started by run.py in a fresh single-threaded process per workload, so
that lru_caches, oracle memos and the peak resident size never carry
over.  Prints one JSON object as the last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--units K] [--workdir DIR] [--spans FILE]

Without --units the timed loop runs for about S seconds; with --units it
runs exactly K units, as both workers of a traced run do.  Times are the
worker thread's CPU time, reported at the reference host speed (see speed.py);
the unscaled times are kept under "raw".
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

# set up at least this many times and for at least this long; report the median
SETUP_REPEATS = 9
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 100


def tail(times, pct):
    """(value, samples beyond it) at a nearest-rank percentile."""
    ordered = sorted(float(t) for t in times)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--units", type=int, default=None)
    ap.add_argument("--workdir", type=Path, default=Path("."))
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    import numpy as np

    import rlcc.harness  # noqa: F401  (loads every layer before tracing)
    from speed import SpeedSampler, clock
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    sampler = SpeedSampler()
    sampler.start()

    def encode():
        with span("harness.encode"):
            return workload.encode()

    encodes = encode() if workload.encode_first else None
    setups = []
    setup_busy = 0.0
    while len(setups) < SETUP_MAX_REPEATS and (
        len(setups) < SETUP_REPEATS or setup_busy < SETUP_MIN_S
    ):
        t0 = clock()
        with span("harness.setup"):
            workload.setup()
        t1 = clock()
        setup_busy += t1 - t0
        setups.append((t0, t1))

    units, trials, failed, errors = [], 0, 0, []
    busy = 0.0
    i = 0
    while True:
        if args.units is not None:
            if i >= args.units:
                break
        elif i and busy + busy / i > args.seconds:
            break  # the next unit would end past the measuring window
        t0 = clock()
        try:
            with span("harness.trial"):
                done, ok = workload.unit(i)
        except Exception:  # a unit that raises is a failed unit
            done, ok = 0, False
            errors.append(traceback.format_exc(limit=8))
        t1 = clock()
        busy += t1 - t0
        units.append((t0, t1))
        trials += done
        failed += not ok
        i += 1

    # read before a late encode, so that its memory is not counted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if encodes is None:
        encodes = encode()
    sampler.stop()
    outcomes, checks, extra = workload.summary()

    raw_times, scaled_times = {}, {}
    for label, intervals in (("setup", setups), ("encode", encodes), ("unit", units)):
        raw_times[label], scaled_times[label] = sampler.scale(*zip(*intervals))

    def end_to_end(times):
        unit = times["unit"]
        tail_s, beyond = tail(unit, workload.tail_percentile)
        return {
            "setup_s": float(np.median(times["setup"])),
            "encode_s": float(np.median(times["encode"])),
            "trials_per_s": trials / float(unit.sum()),
            "trial_p50_ms": float(np.median(unit)) * 1e3,
            "trial_tail_ms": tail_s * 1e3,
        }, beyond

    scaled, beyond = end_to_end(scaled_times)
    raw, _ = end_to_end(raw_times)
    result = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "units": len(units),
        "trials": trials,
        "failed_units": failed,
        "errors": errors[:3],
        "busy_s": busy,
        **scaled,
        "raw": raw,
        "host_speed": sampler.summary(),
        "setup_repeats": len(setups),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": beyond,
        "peak_rss_mb": peak_rss_mb,
        "params": workload.params(),
        "outcomes": outcomes,
        "checks": checks,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }
    if tracer is not None:
        result["spans"] = tracer.span_table()
        result["counts"] = {k: v[0] for k, v in tracer.counts.items()}
        result["sums"] = tracer.sums
        result["missing_targets"] = tracer.missing
        if args.spans is not None:
            tracer.save(args.spans)
    print(json.dumps(result, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
