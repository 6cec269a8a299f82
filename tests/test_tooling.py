"""The benchmark's tracer (perfbench/tracer.py) wraps package names by their
spelling; each of them must exist, or only the traced benchmark run breaks."""

from importlib import import_module
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_tracer_wraps_exists(monkeypatch):
    # the tracer reads each name from its owner's own __dict__, a class's or a
    # module's, so an inherited or deleted name is missing there too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = import_module("tracer")
    missing = [f"{owner.__name__}.{name}" for _, owner, names in tracer._TARGETS
               for name in names if name not in vars(owner)]
    assert missing == []
