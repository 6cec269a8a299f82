"""Hecke algebra tests: the defining relations, frozen hand expansions, the
group-algebra degeneration at q = 1, degree and positivity facts, and the
equivalence of the two product expansion directions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from heckeflag.coxeter import build_system
from heckeflag.hecke import HeckeAlgebra, HeckeElt, _accumulate_scaled, _step
from heckeflag.poly import ONE, Q, Q_MINUS_ONE, ZERO, IntPoly


def algebra(label):
    return HeckeAlgebra(build_system(label))


def product_fixed_direction(H, a, b, right: bool) -> HeckeElt:
    # reference implementations of the two expansion directions
    total = {}
    if right:
        for z, c in b.terms.items():
            cur = a.terms
            for gen in z.word:
                cur = _step(cur, gen, H.system.right_mult)
            _accumulate_scaled(total, cur, c)
    else:
        for y, c in a.terms.items():
            cur = b.terms
            for gen in reversed(y.word):
                cur = _step(cur, gen, H.system.left_mult)
            _accumulate_scaled(total, cur, c)
    return HeckeElt(H, total)


# ---------------------------------------------------------------------------
# basis and single steps


def test_t_basis():
    H = algebra("A2")
    sys_ = H.system
    assert H.t_basis(sys_.identity).terms == {sys_.identity: ONE}
    s1 = sys_.normal_form([1])
    assert H.t_basis(s1).terms == {s1: ONE}
    for w in sys_.elements:
        assert len(H.t_basis(w).terms) == 1


def test_quadratic_relation():
    H = algebra("A1")
    sys_ = H.system
    s1 = sys_.normal_form([1])
    got = H.mul_right_simple(H.t_basis(s1), 1)
    assert got.terms == {sys_.identity: Q, s1: Q_MINUS_ONE}


def test_lengthening_step():
    H = algebra("A2")
    sys_ = H.system
    got = H.mul_right_simple(H.t_basis(sys_.normal_form([1])), 2)
    assert got.terms == {sys_.normal_form([1, 2]): ONE}


def test_step_linearity():
    H = algebra("A2")
    sys_ = H.system
    h = Q * H.t_basis(sys_.identity)
    assert H.mul_right_simple(h, 1).terms == {sys_.normal_form([1]): Q}


def test_left_step_quadratic():
    H = algebra("A2")
    sys_ = H.system
    s1 = sys_.normal_form([1])
    got = H.mul_left_simple(H.t_basis(s1), 1)
    assert got.terms == {sys_.identity: Q, s1: Q_MINUS_ONE}


@pytest.mark.parametrize("gen", [0, 3])
def test_single_steps_reject_foreign_generators(gen):
    H = algebra("A2")
    h = H.one()
    for step in (H.mul_right_simple, H.mul_left_simple):
        with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
            step(h, gen)


# ---------------------------------------------------------------------------
# products and structure constants


def test_product_unit():
    H = algebra("A2")
    for w in H.system.elements:
        tw = H.t_basis(w)
        assert H.product(tw, H.one()) == tw
        assert H.product(H.one(), tw) == tw


def test_product_hand_expansion_a2():
    H = algebra("A2")
    sys_ = H.system
    got = H.product(H.t_basis(sys_.normal_form([1, 2])), H.t_basis(sys_.normal_form([2])))
    assert got.terms == {
        sys_.normal_form([1]): Q,
        sys_.normal_form([1, 2]): Q_MINUS_ONE,
    }


def test_structure_constant_examples():
    H = algebra("A2")
    sys_ = H.system
    s1 = sys_.normal_form([1])
    assert H.structure_constant(s1, s1, s1) == Q_MINUS_ONE
    w = sys_.normal_form([1, 2])
    assert H.structure_constant(w, sys_.identity, w) == ONE
    for z in sys_.elements:
        if z != w:
            assert H.structure_constant(w, sys_.identity, z) == ZERO
    assert H.structure_constant(w, sys_.normal_form([2]), s1) == Q


def test_infinite_dihedral_product_frozen():
    H = algebra("I2(inf)")
    sys_ = H.system
    got = H.product(
        H.t_basis(sys_.normal_form([1, 2, 1])), H.t_basis(sys_.normal_form([1, 2]))
    )
    assert got.terms == {
        sys_.normal_form([1]): IntPoly((0, 0, 1)),
        sys_.normal_form([1, 2]): IntPoly((0, -1, 1)),
        sys_.normal_form([1, 2, 1, 2]): Q_MINUS_ONE,
    }


def test_hecke_elt_arithmetic():
    H = algebra("A2")
    sys_ = H.system
    a = H.t_basis(sys_.normal_form([1]))
    b = H.t_basis(sys_.normal_form([2]))
    assert (a + b) - a == b
    assert a - a == H.zero()
    assert not H.zero()
    assert (2 * a).coefficient(sys_.normal_form([1])) == IntPoly((2,))
    assert (a * b).terms == {sys_.normal_form([1, 2]): ONE}


def test_mixing_algebras_rejected():
    H2, H3 = algebra("A2"), algebra("A3")
    with pytest.raises(ValueError):
        H2.product(H2.one(), H3.one())
    with pytest.raises(ValueError):
        H2.t_basis(H3.system.identity)


# ---------------------------------------------------------------------------
# traces


def test_regular_trace_examples():
    H1 = algebra("A1")
    assert H1.regular_trace(H1.system.normal_form([1])) == Q_MINUS_ONE
    assert H1.regular_trace(H1.system.identity) == IntPoly((2,))
    H2 = algebra("A2")
    assert H2.regular_trace(H2.system.identity) == IntPoly((6,))
    assert H2.regular_trace(H2.system.normal_form([1])) == IntPoly((-3, 3))
    assert H2.regular_trace(H2.system.normal_form([1, 2])) == IntPoly((1, -2, 1))


def test_regular_trace_infinite_rejected():
    H = algebra("I2(inf)")
    with pytest.raises(ValueError):
        H.regular_trace(H.system.identity)


# ---------------------------------------------------------------------------
# properties


def test_associativity_sampled_a3():
    H = algebra("A3")
    els = H.system.elements
    rng = random.Random(0)
    for _ in range(120):
        a, b, c = (H.t_basis(rng.choice(els)) for _ in range(3))
        assert H.product(H.product(a, b), c) == H.product(a, H.product(b, c))


def test_q1_specialization_exhaustive_a2():
    H = algebra("A2")
    sys_ = H.system
    for w in sys_.elements:
        tw = H.t_basis(w)
        for wp in sys_.elements:
            prod = H.product(tw, H.t_basis(wp))
            target = sys_.multiply(w, wp)
            for wpp in sys_.elements:
                assert prod.coefficient(wpp)(1) == (1 if wpp == target else 0)


def _diagonal_table(H):
    sys_ = H.system
    return {
        w: {z: H.product(H.t_basis(w), H.t_basis(z)).coefficient(z) for z in sys_.elements}
        for w in sys_.elements
    }


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_degree_bound_and_positivity(label):
    H = algebra(label)
    table = _diagonal_table(H)
    for w, row in table.items():
        for z, n in row.items():
            if n:
                assert n.degree <= w.length
                for m in (2, 3, 4):
                    assert n(m) > 0


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_top_degree_at_longest_element(label):
    H = algebra(label)
    w0 = H.system.longest_element()
    for w in H.system.elements:
        n = H.structure_constant(w, w0, w0)
        assert n
        assert n.degree == w.length


def test_longest_element_recursion_exhaustive_a3():
    # for w = s z with l(w) = l(z) + 1:
    #   N(w, w0, w0) = (q - 1) N(z, w0, w0) + N(z, w0, s w0)
    H = algebra("A3")
    sys_ = H.system
    w0 = sys_.longest_element()
    for w in sys_.elements:
        if not w.word:
            continue
        g = w.word[0]
        z = sys_.left_mult(w, g)
        assert z.length == w.length - 1
        sw0 = sys_.left_mult(w0, g)
        lhs = H.structure_constant(w, w0, w0)
        rhs = Q_MINUS_ONE * H.structure_constant(z, w0, w0) + H.structure_constant(
            z, w0, sw0
        )
        assert lhs == rhs


@pytest.mark.parametrize("label", ["A3", "I2(5)"])
def test_generator_diagonal_iff_descent(label):
    H = algebra(label)
    sys_ = H.system
    for g in range(1, sys_.rank + 1):
        sg = sys_.normal_form([g])
        for z in sys_.elements:
            n = H.structure_constant(sg, z, z)
            descends = sys_.left_mult(z, g).length < z.length
            assert bool(n) == descends


def test_trace_equals_diagonal_sum():
    H = algebra("B2")
    sys_ = H.system
    table = _diagonal_table(H)
    for w in sys_.elements:
        assert H.regular_trace(w) == sum(table[w].values(), ZERO)


# ---------------------------------------------------------------------------
# the two expansion directions agree (the product picks whichever is cheaper)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_expansion_directions_agree(data):
    H = algebra("B2")
    els = H.system.elements
    picks = st.lists(
        st.tuples(st.sampled_from(range(len(els))), st.integers(-3, 3)),
        min_size=1, max_size=4,
    )
    def make(elt_pairs):
        total = {}
        for idx, c in elt_pairs:
            w = els[idx]
            total[w] = total.get(w, ZERO) + IntPoly((c, 1))
        return HeckeElt(H, total)
    a = make(data.draw(picks))
    b = make(data.draw(picks))
    via_right = product_fixed_direction(H, a, b, right=True)
    via_left = product_fixed_direction(H, a, b, right=False)
    assert via_right == via_left
    assert H.product(a, b) == via_right


def test_product_is_bilinear():
    H = algebra("A2")
    sys_ = H.system
    a = H.t_basis(sys_.normal_form([1]))
    b = H.t_basis(sys_.normal_form([2, 1]))
    c = H.t_basis(sys_.normal_form([1, 2]))
    assert H.product(a, b + c) == H.product(a, b) + H.product(a, c)
    assert H.product(a + b, c) == H.product(a, c) + H.product(b, c)
    assert H.product(Q * a, b) == Q * H.product(a, b)
