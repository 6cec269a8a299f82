import doctest

from heckeflag import cli, coxeter, eset, hecke, poly


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


def test_eset_doctests():
    results = doctest.testmod(eset)
    assert results.failed == 0
    assert results.attempted > 0


def test_cli_doctests():
    results = doctest.testmod(cli)
    assert results.failed == 0
    assert results.attempted > 0
