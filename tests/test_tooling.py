"""The benchmark's tracer (perfbench/tracer.py) wraps package names by their
spelling and reads some of their results; each name must exist and each result
keep its meaning, or only the traced benchmark run breaks or drifts."""

from importlib import import_module
from pathlib import Path

from heckeflag.flag import build_space, check_space

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
