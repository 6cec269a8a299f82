import doctest
import pkgutil
from importlib import import_module

import pytest

import heckeflag

MODULES = [info.name for info in pkgutil.iter_modules(heckeflag.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    results = doctest.testmod(import_module(f"heckeflag.{name}"))
    assert results.failed == 0
    assert results.attempted > 0
