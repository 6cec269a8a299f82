#!/usr/bin/env python3
"""Benchmark for heckeflag: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload eset-f4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory and nowhere else, compiled from source on every import.  A run
imports the package, sets the workload up repeatedly (build_system's lru cache
cleared each time), makes the op list from the seed, then runs the list
round-robin for ``--seconds`` seconds, at least one full pass.  Every op
result is checked by the workload's oracle; an op fails when its check fails
or it raises.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:

* ``setup_s``: median import time plus median set-up time, each over at least
  ``MIN_REPEATS`` repeats and ``MIN_REPEAT_S`` seconds;
* ``wall_s``: time of one pass of the op list, the sum of each op's median;
* ``op_p50_s``: median over the ops of each op's median latency;
* ``peak_rss_mb``: peak resident memory of this process;
* ``pass_ratio``: ops passed / ops attempted (``failed`` and ``attempted``
  are reported beside it).

With ``--trace 1`` the run sets up once under the tracer, measures untraced
for ``--seconds`` seconds, then runs one traced pass, and reports the
per-layer metrics of the traced set-up and pass, the traced pass time
(``trace.wall_s``) and the tracing overhead (``trace.overhead_s``, traced
minus untraced pass time).  Kept spans go to
``.bench_spans/<workload>-seed<seed>.json`` under the checkout.

Exit code 0 when the run completed (check ``correct`` for the oracles), 1 on a
usage or import error, with no result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Bytecode is neither written nor read: the cache prefix names a directory that
# is never created, so every import compiles from source, and the import time
# is the same whatever __pycache__ directories the checkout holds.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(ROOT / ".bench_no_pycache")
# set-ups and imports repeat at least this often and for at least this long;
# the cheap ones repeat many times, so a momentary stall does not move the median
MIN_REPEATS = 3
MIN_REPEAT_S = 1.0
# the keys of workloads.WORKLOADS, which cannot be imported before the timed import
WORKLOAD_NAMES = ("eset-f4", "trace-b6", "flags-gl4f5", "verify-all")


def repeat_median(step) -> float:
    """Median of the times step() returns, over MIN_REPEATS calls and
    MIN_REPEAT_S seconds, whichever is more."""
    times = []
    deadline = time.perf_counter() + MIN_REPEAT_S
    while len(times) < MIN_REPEATS or time.perf_counter() < deadline:
        times.append(step())
    return statistics.median(times)


def import_package() -> float:
    """Import heckeflag from this checkout's src/ and return the median time
    of a fresh import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    def fresh_import():
        for name in [m for m in sys.modules if m.split(".")[0] == "heckeflag"]:
            del sys.modules[name]
        start = time.perf_counter()
        import heckeflag
        import heckeflag.cli  # noqa: F401  (not imported by the package itself)

        return time.perf_counter() - start

    fresh_import()  # the stdlib modules it pulls in stay imported
    import heckeflag

    if Path(heckeflag.__file__).resolve().parent != SRC / "heckeflag":
        raise ImportError(f"heckeflag imported from {heckeflag.__file__}, not {SRC}")
    return repeat_median(fresh_import)


def run_op(op, tracer=None):
    """Time one op and check its result: (seconds, passed)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.installed():
                result = tracer.call(op.label, op.run)
    except Exception:  # a raising op is a failed op; the run goes on
        elapsed = time.perf_counter() - start
        print(f"op {op.label!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        passed = bool(op.check(result))
    except Exception:
        print(f"check of {op.label!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        passed = False
    if not passed:
        print(f"op {op.label!r} failed its check", file=sys.stderr)
    return elapsed, passed


def measure(ops, seconds):
    """Run ops round-robin: at least one pass, then until the deadline."""
    samples = [[] for _ in ops]
    failed = attempted = 0
    deadline = time.perf_counter() + seconds
    while attempted < len(ops) or time.perf_counter() < deadline:
        k = attempted % len(ops)
        elapsed, passed = run_op(ops[k])
        samples[k].append(elapsed)
        failed += not passed
        attempted += 1
    return samples, attempted, failed


def pass_time(samples):
    return sum(statistics.median(s) for s in samples)


def untraced(name, seed, seconds):
    """End-to-end metrics of one run; setup_s here leaves out the import."""
    from heckeflag import coxeter
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    context = None

    def setup():
        nonlocal context
        context = None
        gc.collect()
        coxeter.build_system.cache_clear()
        start = time.perf_counter()
        context = workload.setup()
        return time.perf_counter() - start

    setup_s = repeat_median(setup)
    ops = workload.make_ops(context, random.Random(seed))
    samples, attempted, failed = measure(ops, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (pass_time(samples), "s"),
        "op_p50_s": (statistics.median(statistics.median(s) for s in samples), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, ops, attempted, failed


def traced(name, seed, seconds, spans_out=None):
    """Per-layer metrics of a traced set-up and one traced pass, with the
    tracing overhead against the untraced passes measured in between.  The
    kept spans are written to spans_out when it is given."""
    from heckeflag import coxeter
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = Tracer()
    coxeter.build_system.cache_clear()
    with tracer.installed():
        context = workload.setup()
    ops = workload.make_ops(context, random.Random(seed))
    samples, attempted, failed = measure(ops, seconds)
    traced_wall = 0.0
    for op in ops:
        elapsed, passed = run_op(op, tracer)
        traced_wall += elapsed
        failed += not passed
        attempted += 1
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - pass_time(samples), "s")
    if spans_out is not None:
        spans_out.parent.mkdir(exist_ok=True)
        spans_out.write_text(json.dumps(tracer.span_records()) + "\n")
    return metrics, ops, attempted, failed


def machine():
    return {
        "python": platform.python_version(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"cannot import heckeflag from {SRC}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        spans_out = ROOT / ".bench_spans" / f"{args.workload}-seed{args.seed}.json"
        metrics, ops, attempted, failed = traced(
            args.workload, args.seed, args.seconds, spans_out)
    else:
        metrics, ops, attempted, failed = untraced(args.workload, args.seed, args.seconds)
        setup_s, unit = metrics["setup_s"]
        metrics["setup_s"] = (import_s + setup_s, unit)

    info = dict(machine(), workload=args.workload, seed=args.seed, ops=len(ops),
                attempted=attempted, passes=attempted / len(ops))
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
