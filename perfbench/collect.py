#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --record untraced_set_1
    python3 perfbench/collect.py --seeds 1-2 --trace 1 --record traced_set_1

Runs the command of BENCHMARK.json once per (workload, seed), one process at
a time, for every workload of BENCHMARK.json and with its run_seconds.  For
each metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread, the interquartile distance as a share of the median; an
end-to-end metric is steady when its spread is under a third of its bound.
``--record NAME`` stores the sweep under NAME in perfbench/baseline.json,
beside the sweeps already there.  Exits 1 when an op failed or a spread is
not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "baseline.json"


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="NAME")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            # run.py's last stderr line names the interpreter, host and nproc
            result["machine"] = json.loads(proc.stderr.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
                steady = False
            runs.append(result)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(values), unit=first["unit"])
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                ok = metrics[name]["spread"] < bound / 3
                steady &= ok
                mark = f"bound {bound:<5} {'ok' if ok else 'WIDE'}"
            m = metrics[name]
            print(f"{workload:12} {name:24} median {m['median']:<12.6g} "
                  f"spread {m['spread']:.4f}  {mark}", file=sys.stderr)
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "runs": [
                {k: r["machine"][k] for k in ("python", "host", "machine", "nproc", "passes")}
                for r in runs
            ],
            "metrics": metrics,
        }
    if args.record:
        recorded = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        recorded[args.record] = {
            "command": ["python3", "perfbench/collect.py", *(argv or sys.argv[1:])],
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        }
        BASELINE.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
