import doctest

from heckeflag import coxeter, hecke, poly


def test_poly_doctests():
    results = doctest.testmod(poly)
    assert results.failed == 0
    assert results.attempted > 0


def test_hecke_doctests():
    results = doctest.testmod(hecke)
    assert results.failed == 0
    assert results.attempted > 0


def test_coxeter_doctests():
    results = doctest.testmod(coxeter)
    assert results.failed == 0
    assert results.attempted > 0
