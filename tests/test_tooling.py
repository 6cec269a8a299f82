"""The benchmark's tracer (perfbench/tracer.py) wraps package names by their
spelling and reads some of their results; each name must exist and each result
keep its meaning, or only the traced benchmark run breaks or drifts.  The
benchmark's pinned work counts run here as well."""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from heckeflag.flag import build_space, check_space

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_name_the_tracer_wraps_exists(monkeypatch):
    # the tracer reads each name from its owner's own __dict__, a class's or a
    # module's, so an inherited or deleted name is missing there too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = import_module("tracer")
    missing = [f"{owner.__name__}.{name}" for _, owner, names in tracer._TARGETS
               for name in names if name not in vars(owner)]
    assert missing == []


def test_the_traced_flag_count_is_the_q_factorial():
    # the tracer's flag.flags_built metric reads len(result.flags) from
    # build_space: the length of the view must be the number of flags that
    # iterating it builds, all distinct
    space = build_space(4, 5)
    assert len(space.flags) == check_space(4, 5) == 29016
    assert len(set(space.flags)) == 29016


def test_the_benchmark_pins_hold():
    # the selftest's pinned work counts gate the benchmark; it runs in its own
    # process because importing perfbench/run.py sets sys.dont_write_bytecode
    # and sys.pycache_prefix
    pins = ["PinnedCounts.test_count_Y_total_on_gl3_f5_makes_186_relative_positions",
            "PinnedCounts.test_e_set_on_f4_makes_1152_products",
            "PinnedCounts.test_tracer_restores_the_package"]
    result = subprocess.run([sys.executable, "perfbench/selftest.py", *pins],
                            cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert "Ran 3 tests" in result.stderr


@pytest.mark.parametrize("record", ["BENCH_28.json", "BENCH_32.json"])
def test_a_bench_record_summarises_every_end_to_end_metric(record):
    # a committed before/after record gives both medians of every end-to-end
    # metric of the benchmark on every workload, and its claim names one of them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads((ROOT / record).read_text())
    summary = bench["summary"]
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in (m["name"] for m in spec["end_to_end"]):
            medians = summary[workload][metric]
            assert {"median_parent", "median_change"} <= medians.keys(), (workload, metric)
    workload, metric = bench["claim"]["metric"].split()
    assert metric in summary[workload]
