import json

import pytest
from hypothesis import given, strategies as st

from heckeflag.poly import MINUS_INFINITY, ONE, Q, Q_MINUS_ONE, ZERO, IntPoly

polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)


def test_add_examples():
    assert Q_MINUS_ONE + ONE == Q
    assert ZERO + Q_MINUS_ONE == Q_MINUS_ONE
    q2m1 = IntPoly((-1, 0, 1))
    assert q2m1 + IntPoly((1, 0, -1)) == ZERO
    assert tuple(q2m1 + IntPoly((1, 0, -1))) == ()


def test_mul_examples():
    assert Q_MINUS_ONE * IntPoly((1, 1)) == IntPoly((-1, 0, 1))
    assert IntPoly((3, 1, 4)) * ZERO == ZERO
    assert Q_MINUS_ONE * Q_MINUS_ONE == IntPoly((1, -2, 1))


def test_eval_examples():
    assert Q_MINUS_ONE(3) == 2
    assert Q_MINUS_ONE(-1) == -2
    assert ZERO(17) == 0


def test_canonical_form():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly((0, 0, 0)) == ZERO
    assert IntPoly(()) == ZERO


def test_degree_sentinel():
    assert ZERO.degree is MINUS_INFINITY
    assert not isinstance(ZERO.degree, int)
    assert MINUS_INFINITY < -(10**100)
    assert not (MINUS_INFINITY > 0)
    assert MINUS_INFINITY <= MINUS_INFINITY
    assert Q.degree == 1
    assert ONE.degree == 0


def test_scalar_arithmetic():
    assert 2 * Q == IntPoly((0, 2))
    assert Q + 1 == IntPoly((1, 1))
    assert Q - 1 == Q_MINUS_ONE
    assert sum([ONE, Q, Q]) == IntPoly((1, 2))


def test_shifted():
    assert Q_MINUS_ONE.shifted(1) == IntPoly((0, -1, 1))
    assert ZERO.shifted(3) == ZERO


def test_str():
    assert str(ZERO) == "0"
    assert str(Q_MINUS_ONE) == "q - 1"
    assert str(IntPoly((1, -2, 1))) == "q^2 - 2q + 1"
    assert str(IntPoly((0, 0, -3))) == "-3q^2"


def test_json_round_trip():
    p = IntPoly((-1, 0, 2))
    assert IntPoly(json.loads(json.dumps(list(p)))) == p
    assert json.dumps(list(ZERO)) == "[]"


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(-20, 20))
def test_eval_is_ring_hom(a, b, n):
    assert (a * b)(n) == a(n) * b(n)
    assert (a + b)(n) == a(n) + b(n)


@given(polys, polys)
def test_ops_stay_canonical(a, b):
    for p in (a + b, a - b, a * b, -a):
        assert not p or p[-1] != 0


def test_overflow_free():
    big = IntPoly((10**50, 1))
    assert (big * big)[0] == 10**100


def test_non_integer_coefficients_are_refused():
    # the coefficient ring is Z: a float or a string is refused when the
    # polynomial is built, by name, and never computed with
    with pytest.raises(TypeError, match="coefficient 0.5 is not an int"):
        IntPoly((0.5, 1)) * IntPoly((2,))
    with pytest.raises(TypeError, match="coefficient 'a' is not an int"):
        IntPoly(("a",))
    with pytest.raises(TypeError, match="coefficient 1.5 is not an int"):
        IntPoly((1,)) + (0.5,)
