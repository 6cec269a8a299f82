import doctest

from heckeflag import hecke, poly


def test_poly_doctests():
    results = doctest.testmod(poly)
    assert results.failed == 0
    assert results.attempted > 0


def test_hecke_doctests():
    results = doctest.testmod(hecke)
    assert results.failed == 0
    assert results.attempted > 0
