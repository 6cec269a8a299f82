"""Hecke algebra tests: the defining relations, frozen hand expansions, the
group-algebra degeneration at q = 1, degree and positivity facts, the
equivalence of the two product expansion directions, and the packed kernel
against a plain IntPoly reference step."""

import gc
import itertools
import json
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from heckeflag import cli, hecke
from heckeflag.coxeter import CoxeterSystem, build_system
from heckeflag.eset import e_set
from heckeflag.hecke import HeckeAlgebra, HeckeElt
from heckeflag.poly import ONE, Q, Q_MINUS_ONE, ZERO, IntPoly


def algebra(label):
    return HeckeAlgebra(build_system(label))


def t_gen(H, gen):
    # T_s for the generator s_gen
    return H.t_basis(H.system.normal_form([gen]))


def reference_step(terms, gen, mult):
    # the defining relation on Element -> IntPoly dicts, sharing nothing with
    # the packed kernel: terms * T_s for right_mult, T_s * terms for left_mult
    out = {}
    for x, p in terms.items():
        xs = mult(x, gen)
        if xs.length > x.length:
            out[xs] = out.get(xs, ZERO) + p
        else:
            out[xs] = out.get(xs, ZERO) + p.shifted(1)
            out[x] = out.get(x, ZERO) + p.shifted(1) - p
    return out


def product_fixed_direction(H, a, b, right: bool) -> HeckeElt:
    # reference products along either expansion direction
    total = {}
    expanded, kept = (b, a) if right else (a, b)
    mult = H.system.right_mult if right else H.system.left_mult
    for x, c in expanded.terms.items():
        cur = kept.terms
        for gen in x.word if right else reversed(x.word):
            cur = reference_step(cur, gen, mult)
        for w, p in cur.items():
            total[w] = total.get(w, ZERO) + p * c
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
    got = H.product(H.t_basis(s1), t_gen(H, 1))
    assert got.terms == {sys_.identity: Q, s1: Q_MINUS_ONE}


def test_lengthening_step():
    H = algebra("A2")
    sys_ = H.system
    got = H.product(H.t_basis(sys_.normal_form([1])), t_gen(H, 2))
    assert got.terms == {sys_.normal_form([1, 2]): ONE}


def test_step_linearity():
    H = algebra("A2")
    sys_ = H.system
    h = Q * H.t_basis(sys_.identity)
    assert H.product(h, t_gen(H, 1)).terms == {sys_.normal_form([1]): Q}


def test_left_step_quadratic():
    H = algebra("A2")
    sys_ = H.system
    s1 = sys_.normal_form([1])
    got = H.product(t_gen(H, 1), H.t_basis(s1))
    assert got.terms == {sys_.identity: Q, s1: Q_MINUS_ONE}


@pytest.mark.parametrize("gen", [0, 3])
def test_single_steps_reject_foreign_generators(gen):
    # T_s is built from the generator before either product
    H = algebra("A2")
    with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
        t_gen(H, gen)


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


def test_two_algebras_on_one_system_compare_equal():
    # equality compares by system, as + and * accept operands from either
    system = build_system("A2")
    H1, H2 = HeckeAlgebra(system), HeckeAlgebra(system)
    s = system.normal_form([1])
    assert H1.t_basis(s) == H2.t_basis(s)
    assert H1.t_basis(s) + H2.t_basis(s) == 2 * H2.t_basis(s)
    assert H1.t_basis(s) != H2.one()
    # a second A2 system is another system
    assert HeckeAlgebra(build_system.__wrapped__("A2")).one() != H1.one()


@pytest.mark.parametrize("label", ["A3", "I2(inf)"])
def test_foreign_elements_are_refused_or_read_as_zero(label):
    # membership is decided by the system: the element stored at the index
    H = algebra(label)
    h = H.product(t_gen(H, 1), t_gen(H, 2))
    b3 = build_system("B3")
    foreign = [b3.longest_element(),  # index 47, past A3's last (23)
               b3.normal_form([1, 2]), build_system.__wrapped__(label).identity]
    stored = len(H.system._elements)
    for x in foreign:
        with pytest.raises(ValueError, match="does not belong"):
            H.t_basis(x)
        with pytest.raises(ValueError, match="term keys"):
            HeckeElt(H, {x: ONE})
        assert h.coefficient(x) == ZERO
    # reading a foreign index fills no I2(inf) table entry
    assert len(H.system._elements) == stored


@pytest.mark.parametrize("label", ["B3", "I2(5)", "I2(inf)"])
def test_a_dropped_system_is_freed_without_the_cyclic_collector(label):
    # an element holds no reference to its system, so a system, its
    # elements, an algebra and a product form no reference cycle: the system
    # is freed as soon as its last reference goes, with the collector off,
    # while an element of it lives on
    enabled = gc.isenabled()
    gc.disable()
    try:
        system = build_system.__wrapped__(label)
        H = HeckeAlgebra(system)
        x = system.normal_form([1, 2])
        h = H.product(H.t_basis(x), t_gen(H, 2))
        assert h.coefficient(x) == Q_MINUS_ONE
        ref = weakref.ref(system)
        del system, H, h
        assert ref() is None
        assert x.word == (1, 2)
    finally:
        if enabled:
            gc.enable()


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
# the two expansion directions agree (the product expands its right factor)


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


# ---------------------------------------------------------------------------
# the packed kernel against the IntPoly reference


def _general(H, elements, pairs):
    # sum of c * T_x with c an IntPoly from a list of small ints
    total = {}
    for idx, coeffs in pairs:
        w = elements[idx]
        total[w] = total.get(w, ZERO) + IntPoly(coeffs)
    return HeckeElt(H, total)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_kernel_matches_reference_on_every_basis_product(label):
    H = algebra(label)
    elements = H.system.elements
    basis = [H.t_basis(w) for w in elements]
    for a in basis:
        for b in basis:
            want = product_fixed_direction(H, a, b, right=True).terms
            got = H.product(a, b)
            # the single-entry decode first, on a fresh (still packed) result
            assert [got.coefficient(w) for w in elements] == [
                want.get(w, ZERO) for w in elements]
            assert got.terms == want


_COEFFS = st.lists(st.integers(-4, 4), min_size=1, max_size=3)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_kernel_matches_reference_on_general_f4_products(data):
    H = algebra("F4")
    elements = H.system.elements
    picks = st.lists(st.tuples(st.integers(0, len(elements) - 1), _COEFFS),
                     min_size=1, max_size=3)
    a = _general(H, elements, data.draw(picks))
    b = _general(H, elements, data.draw(picks))
    want = product_fixed_direction(H, a, b, right=True)
    assert want == product_fixed_direction(H, a, b, right=False)
    assert H.product(a, b) == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_on_infinite_dihedral_products(data):
    H = algebra("I2(inf)")
    elements = H.system.elements_up_to(7)
    picks = st.lists(st.tuples(st.integers(0, len(elements) - 1), _COEFFS),
                     min_size=1, max_size=3)
    a = _general(H, elements, data.draw(picks))
    b = _general(H, elements, data.draw(picks))
    want = product_fixed_direction(H, a, b, right=True)
    assert want == product_fixed_direction(H, a, b, right=False)
    assert H.product(a, b) == want
    for gen in (1, 2):
        assert H.product(a, t_gen(H, gen)).terms == _nonzero(
            reference_step(a.terms, gen, H.system.right_mult))
        assert H.product(t_gen(H, gen), a).terms == _nonzero(
            reference_step(a.terms, gen, H.system.left_mult))


def _nonzero(terms):
    return {w: p for w, p in terms.items() if p}


@pytest.mark.parametrize("label", ["F4", "I2(inf)"])
def test_kernel_is_exact_past_64_bits(label):
    # coefficients near 10^60 and sign changes: a fixed-width digit would wrap
    H = algebra(label)
    x, y, z = (H.system.normal_form(word) for word in ([1, 2, 1], [2], [2, 1, 2, 1]))
    big = 10**30
    a = HeckeElt(H, {x: IntPoly((big, -1, 3)), y: IntPoly((-big,))})
    b = HeckeElt(H, {z: IntPoly((7, -big)), x: IntPoly((0, 0, big))})
    want = product_fixed_direction(H, a, b, right=True)
    got = H.product(a, b)
    assert got == want
    assert max(abs(c) for p in got.terms.values() for c in p) > 2**128
    for gen in (1, 2):
        assert H.product(a, t_gen(H, gen)).terms == _nonzero(
            reference_step(a.terms, gen, H.system.right_mult))


def test_single_steps_match_reference_on_b3():
    H = algebra("B3")
    elements = H.system.elements
    h = _general(H, elements, [(i, (i % 5 - 2, 1, -(i % 3))) for i in range(0, 48, 5)])
    for gen in (1, 2, 3):
        assert H.product(h, t_gen(H, gen)).terms == _nonzero(
            reference_step(h.terms, gen, H.system.right_mult))
        assert H.product(t_gen(H, gen), h).terms == _nonzero(
            reference_step(h.terms, gen, H.system.left_mult))


def test_e_set_decodes_one_coefficient_per_product(monkeypatch):
    # the scan reads one entry of each product, so it decodes one entry
    H = algebra("F4")
    w = H.system.normal_form((1, 2, 3))
    counts = {"products": 0, "decodes": 0}
    product, decode = HeckeAlgebra.product, hecke._decode

    def counted_product(self, a, b):
        counts["products"] += 1
        return product(self, a, b)

    def counted_decode(value, width):
        counts["decodes"] += 1
        return decode(value, width)

    monkeypatch.setattr(HeckeAlgebra, "product", counted_product)
    monkeypatch.setattr(hecke, "_decode", counted_decode)
    report = e_set(H, w)
    assert counts == {"products": 1152, "decodes": 1152}
    assert report.members


def _carried(h):
    return h._packed, h._width, h._norm, h._longest


def test_generator_step_case_matches_the_general_path(monkeypatch):
    # a kept factor whose width holds the tripled norm times T_s is one
    # generator step of its packed dict, and carries what the general path
    # carries for the same element; the general path is reached with T_s
    # stored beside a zero key.  h at its own width and 10**30 * h do not
    # hold the tripled norm, so their products widen through _at_width
    H = algebra("B3")
    system = H.system
    widened = []
    at_width = HeckeElt._at_width

    def watched_at_width(self, width):
        widened.append(width)
        return at_width(self, width)

    monkeypatch.setattr(HeckeElt, "_at_width", watched_at_width)
    h = _general(H, system.elements, [(i, (i % 5 - 2, 1, -(i % 3))) for i in range(1, 48, 5)])
    for kept, holds in ((_packed_wider(H, h, 2), True), (h, False), (10**30 * h, False)):
        assert (kept._width >= hecke._width(3 * kept._norm)) is holds
        for gen in (1, 2, 3):
            s = system.normal_form([gen])
            unit = H.t_basis(s)
            padded = HeckeElt._from_packed(H, {s.index: 1, system.identity.index: 0}, 2, 1, 1)
            general = H.product(kept, padded)
            widened.clear()
            got = H.product(kept, unit)
            assert widened == ([] if holds else [general._width])
            assert _carried(got) == _carried(general)
            assert got.terms == _nonzero(reference_step(kept.terms, gen, system.right_mult))


# ---------------------------------------------------------------------------
# the diagonal row under e_set and regular_trace


def test_diagonal_row_reads_one_product_per_candidate():
    H = algebra("B2")
    elements = H.system.elements
    for w in elements:
        row = list(H.diagonal_row(w))
        assert [z for z, _ in row] == list(elements)
        assert [n for _, n in row] == [H.structure_constant(w, z, z) for z in elements]
        assert H.regular_trace(w) == sum((n for _, n in row), ZERO)
        assert [(z, n) for z, n, _ in e_set(H, w).members] == [(z, n) for z, n in row if n]
    with pytest.raises(ValueError, match="only applies to infinite"):
        H.diagonal_row(H.system.identity, 3)
    with pytest.raises(ValueError, match="only applies to infinite"):
        next(H.row_products(H.system.identity, 3))


@pytest.mark.parametrize("label", ["A3", "A4", "B3", "C3", "G2", "D4", "I2(5)"])
def test_trace_is_the_sum_of_the_decoded_row(label):
    # the trace steps packed dicts and decodes once; the row makes a product
    # per entry and decodes each on its own: the two share only the walk
    H = algebra(label)
    for w in H.system.elements:
        assert H.regular_trace(w) == sum((n for _, n in H.diagonal_row(w)), ZERO)


def test_regular_trace_makes_one_step_per_element_and_one_decode(monkeypatch):
    # the walk steps packed dicts, one generator step per z != e and no
    # product; the one decode reads the summed diagonal at the width of
    # |W| 3^l(w0), which holds every coefficient of the sum of |W| entries
    H = algebra("B3")
    counts = {"products": 0, "steps": 0}
    widths = []
    product, step, decode = HeckeAlgebra.product, hecke._generator_step, hecke._decode

    def counted_product(self, a, b):
        counts["products"] += 1
        return product(self, a, b)

    def counted_step(terms, col, width):
        counts["steps"] += 1
        return step(terms, col, width)

    def counted_decode(value, width):
        widths.append(width)
        return decode(value, width)

    monkeypatch.setattr(HeckeAlgebra, "product", counted_product)
    monkeypatch.setattr(hecke, "_generator_step", counted_step)
    monkeypatch.setattr(hecke, "_decode", counted_decode)
    trace = H.regular_trace(H.system.normal_form([1, 2]))
    assert counts == {"products": 0, "steps": 47}
    assert widths == [hecke._width(48 * 3**9)]
    assert trace(1) == 0


def _parabolic(system, w):
    # W_J for J the letters of w: the z whose canonical word uses only J
    letters = set(w.word)
    return [z for z in system.elements if letters.issuperset(z.word)]


def _assert_parabolic_induction(H, w):
    # H is a free left H_J-module on the T_d, d the distinguished coset
    # representatives, so tr_W(T_w) = [W : W_J] tr_{W_J}(T_w) (Geck and
    # Pfeiffer, 2000); the right side reads from-scratch products only
    parabolic = _parabolic(H.system, w)
    index, rest = divmod(len(H.system.elements), len(parabolic))
    assert rest == 0
    local = sum((H.structure_constant(w, z, z) for z in parabolic), ZERO)
    assert H.regular_trace(w) == index * local, w.word


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "I2(5)"])
def test_trace_obeys_parabolic_induction(label):
    H = algebra(label)
    for w in H.system.elements:
        _assert_parabolic_induction(H, w)


def test_trace_obeys_parabolic_induction_on_sampled_f4():
    # 40 seeded w of F4 with a proper support, s1s3 (support {1, 3}, not
    # connected) among them; a full support is index 1, covered above
    H = algebra("F4")
    system = H.system
    s1s3 = system.normal_form([1, 3])
    proper = [w for w in system.elements if len(set(w.word)) < system.rank and w is not s1s3]
    sample = random.Random(1).sample(proper, 39) + [s1s3]
    assert len({len(_parabolic(system, w)) for w in sample}) > 3
    for w in sample:
        _assert_parabolic_induction(H, w)


def test_diagonal_row_infinite_needs_a_bound():
    H = algebra("I2(inf)")
    w = H.system.normal_form([1, 2, 1])
    row = list(H.diagonal_row(w, 6))
    assert [z for z, _ in row] == H.system.elements_up_to(6)
    assert [n for _, n in row] == [H.structure_constant(w, z, z) for z, _ in row]
    with pytest.raises(ValueError, match="max_len is required"):
        H.diagonal_row(w)
    with pytest.raises(ValueError, match="max_len is required"):
        next(H.row_products(w))


def test_infinite_products_read_the_tables_not_the_generator_steps(monkeypatch):
    # terms are keyed by index and every step reads the system's tables, so
    # the system's right_mult and left_mult are never called
    def refused(self, a, gen):
        raise AssertionError("a product called a generator step of the system")

    monkeypatch.setattr(CoxeterSystem, "right_mult", refused)
    monkeypatch.setattr(CoxeterSystem, "left_mult", refused)
    H = algebra("I2(inf)")
    rep = e_set(H, H.system.normal_form([1, 2, 1]), 40)
    assert [z.word for z in rep.member_elements()] == [
        tuple(1 if k % 2 == 0 else 2 for k in range(length)) for length in range(2, 41)]
    result = cli.run(["nconst", "--type", "I2(inf)", "--w", "1,2,1", "--wp", "2,1,2,1",
                      "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.payload) == [
        {"w": [1, 2, 1], "wp": [2, 1, 2, 1], "wpp": [1, 2, 1, 2, 1, 2, 1], "N": [1]}]


# ---------------------------------------------------------------------------
# the prefix-tree walk behind diagonal_row


def _assert_row_products(H, w, candidates, max_len=None):
    # the walk yields every candidate once, each after its parent (its word
    # without the last letter), lexicographically, with the from-scratch
    # product T_w T_z
    seen = []
    for z, h in H.row_products(w, max_len):
        assert z not in seen
        assert not z.word or H.system.normal_form(z.word[:-1]) in seen
        seen.append(z)
        assert h == H.product(H.t_basis(w), H.t_basis(z))
    assert [z.word for z in seen] == sorted(z.word for z in candidates)


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "I2(5)"])
def test_diagonal_row_matches_structure_constants(label):
    H = algebra(label)
    elements = H.system.elements
    for w in elements:
        assert list(H.diagonal_row(w)) == [
            (z, H.structure_constant(w, z, z)) for z in elements]
        _assert_row_products(H, w, elements)


def test_infinite_diagonal_row_matches_structure_constants():
    H = algebra("I2(inf)")
    elements = H.system.elements_up_to(12)
    for w in elements:
        assert list(H.diagonal_row(w, 12)) == [
            (z, H.structure_constant(w, z, z)) for z in elements]
        _assert_row_products(H, w, H.system.elements_up_to(8), 8)


def test_f4_row_packs_nothing_and_decodes_no_product(monkeypatch):
    # T_w is packed once, wide enough for the whole row; every step reuses its
    # parent's packed dict and reads one coefficient of the result
    H = algebra("F4")
    decoded = []
    terms = HeckeElt.terms

    def watched_terms(self):
        if self._terms is None:
            decoded.append(self)
        return terms.fget(self)

    def no_pack(*args):
        raise AssertionError("a row step packed an operand")

    monkeypatch.setattr(HeckeElt, "terms", property(watched_terms))
    monkeypatch.setattr(HeckeElt, "__init__", no_pack)
    monkeypatch.setattr(hecke, "_repack", no_pack)
    for w in (H.system.normal_form((1, 2, 3)), H.system.longest_element()):
        row = list(H.diagonal_row(w))
        assert len(row) == 1152
        assert decoded == []


def test_diagonal_row_memory_is_one_product_per_length():
    # the F4 row of w0 holds products of up to 1152 terms: depth first it
    # peaks near 0.6 MB, a walk that kept a whole length layer alive at 13 MB
    H = algebra("F4")
    w0 = H.system.longest_element()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        row = list(H.diagonal_row(w0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    z, n = row[-1]
    assert z == w0 and n.degree == 24 and n[-1] == 1  # w0 carries top degree l(w0)
    assert peak < 2_000_000, peak


def _packed_wider(H, h, extra):
    # h packed wider than any product needs, with its exact l1 norm
    norm = sum(abs(c) for p in h.terms.values() for c in p)
    width = hecke._width(norm) + extra
    longest = max((len(x.word) for x in h.terms), default=0)
    packed = {w.index: p(1 << width) for w, p in h.terms.items()}
    return HeckeElt._from_packed(H, packed, width, norm, longest)


def test_widening_an_operand_decodes_nothing():
    # a product or a sum wider than an operand re-evaluates the operand's
    # packed ints at the new width; no terms dict is built on the operand
    H = algebra("B3")
    el = H.system.elements
    a = H.product(HeckeElt(H, {el[3]: IntPoly((1, -2)), el[7]: IntPoly((0, 3))}),
                  H.t_basis(el[5]))
    ref = HeckeElt(H, dict(H.product(a, H.t_basis(el[0])).terms))
    x = H.t_basis(H.system.normal_form([1, 2, 3]))
    assert len(x._packed) * x._longest <= len(a._packed) * a._longest  # a is kept
    prod = H.product(a, x)
    assert prod._width > a._width and a._terms is None
    assert prod == product_fixed_direction(H, ref, x, right=True)
    total = a + prod
    assert total._width > a._width and a._terms is None
    assert total == ref + prod


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_product_with_an_operand_packed_wider_than_needed(data):
    label = data.draw(st.sampled_from(["B3", "I2(inf)"]))
    H = algebra(label)
    elements = (H.system.elements if label == "B3" else H.system.elements_up_to(7))
    picks = st.lists(st.tuples(st.integers(0, len(elements) - 1), _COEFFS),
                     min_size=1, max_size=3)
    a = _general(H, elements, data.draw(picks))
    b = _general(H, elements, data.draw(picks))
    wide = _packed_wider(H, a, data.draw(st.integers(0, 80)))
    want = product_fixed_direction(H, a, b, right=True)
    assert H.product(wide, b) == want
    assert H.product(b, wide) == product_fixed_direction(H, b, a, right=True)
    assert H.product(wide, wide) == product_fixed_direction(H, a, a, right=True)
    gen = data.draw(st.sampled_from([1, 2]))
    assert H.product(wide, t_gen(H, gen)).terms == _nonzero(
        reference_step(a.terms, gen, H.system.right_mult))
    assert H.product(t_gen(H, gen), wide).terms == _nonzero(
        reference_step(a.terms, gen, H.system.left_mult))



def _assert_bounds_hold(h):
    # the norm, longest-word and cost bounds a packed result carries dominate
    # its exact measures, read from its decoded terms, so every width sized
    # from them holds its digits
    terms = h.terms
    norm = sum(abs(c) for p in terms.values() for c in p)
    longest = max((len(x.word) for x in terms), default=0)
    cost = sum(len(x.word) for x in terms)
    assert h._norm >= norm and h._longest >= longest, (h._norm, norm, h._longest, longest)
    assert len(h._packed) * h._longest >= cost
    assert h._width >= hecke._width(h._norm)


def _assert_values_at_pm1(h, want):
    # values_at reads every term of the packed h at q = +-1 and lists exactly
    # the nonzero values of want
    for q in (1, -1):
        assert h.values_at(q) == {x: p(q) for x, p in want.items() if p(q)}


def _step_in_place(H, h, gen, move):
    # one generator step on the right (move 0) or on the left (move 1)
    s = t_gen(H, gen)
    return H.product(h, s) if move == 0 else H.product(s, h)


def test_powers_of_a_generator_stay_exact():
    # T_s^k has coefficients growing like binomials, so a width that does not
    # grow with the carried norm overflows within a few steps
    H = algebra("B3")
    system = H.system
    for move in range(2):
        mult = system.right_mult if move == 0 else system.left_mult
        h = H.t_basis(system.normal_form([2]))
        want = h.terms
        for _ in range(30):
            h = _step_in_place(H, h, 2, move)
            want = _nonzero(reference_step(want, 2, mult))
            _assert_bounds_hold(h)
            _assert_values_at_pm1(h, want)
        assert h.terms == want


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_chains_of_packed_results_stay_exact(data):
    # each step reuses the previous packed result, so every width comes from
    # the bounds the results carry
    label = data.draw(st.sampled_from(["B3", "I2(inf)"]))
    H = algebra(label)
    system = H.system
    elements = system.elements if label == "B3" else system.elements_up_to(5)
    picks = st.lists(st.tuples(st.integers(0, len(elements) - 1), _COEFFS),
                     min_size=1, max_size=3)
    h = _general(H, elements, data.draw(picks))
    want = h.terms
    moves = st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(0, 1)),
                     min_size=1, max_size=16)
    for gen, move in data.draw(moves):
        h = _step_in_place(H, h, gen, move)
        mult = system.right_mult if move == 0 else system.left_mult
        want = _nonzero(reference_step(want, gen, mult))
        _assert_bounds_hold(h)
        _assert_values_at_pm1(h, want)
    assert h.terms == want
    # two packed results, the cheaper one expanded on either side
    index = st.integers(0, len(elements) - 1)
    g = H.product(H.t_basis(elements[data.draw(index)]), H.t_basis(elements[data.draw(index)]))
    exact_g, exact_h = HeckeElt(H, g.terms), HeckeElt(H, want)
    for got, (a, b) in ((H.product(g, h), (exact_g, exact_h)),
                        (H.product(h, g), (exact_h, exact_g))):
        assert got == product_fixed_direction(H, a, b, right=True)
        _assert_bounds_hold(got)


def test_values_at_reads_the_residues_mod_two_to_the_width_minus_plus_one(monkeypatch):
    # every p of degree <= 2 with l1 norm <= 7 = 2^(B-1) - 1, packed alone at
    # B = 4: its balanced residues mod 15 and 17 are p(1) and p(-1), the
    # extreme norms included, and nothing is decoded
    def no_decode(v, width):
        raise AssertionError("values_at decoded a coefficient")

    monkeypatch.setattr(hecke, "_decode", no_decode)
    H = algebra("A1")
    x = H.system.identity
    for coeffs in itertools.product(range(-7, 8), repeat=3):
        if sum(map(abs, coeffs)) > 7:
            continue
        p = IntPoly(coeffs)
        h = HeckeElt._from_packed(H, {x.index: p(16)}, 4, 7, 0)
        assert h.values_at(1) == ({x: p(1)} if p(1) else {})
        assert h.values_at(-1) == ({x: p(-1)} if p(-1) else {})


def test_values_at_an_element_built_from_terms():
    H = algebra("A2")
    s1, s12 = H.system.normal_form([1]), H.system.normal_form([1, 2])
    h = HeckeElt(H, {s1: Q_MINUS_ONE, s12: IntPoly((3, 0, 2))})
    assert h.values_at(1) == {s12: 5}
    assert h.values_at(-1) == {s1: -2, s12: 5}
    # a stored zero is not listed, so equal elements have equal values
    padded = HeckeElt._from_packed(H, {s1.index: 1, H.system.identity.index: 0}, 2, 1, 1)
    assert padded == H.t_basis(s1)
    assert padded.values_at(1) == H.t_basis(s1).values_at(1) == {s1: 1}
    for q in (0, 2, -2):
        with pytest.raises(ValueError, match="q = 1 or q = -1"):
            h.values_at(q)


def test_an_element_built_from_terms_is_packed_at_its_exact_norm():
    # packed once, at the width of the exact l1 norm 1 + 3 + 2 + 5 = 11; its
    # input terms (zeros dropped) are its decoded view, not a decoding
    H = algebra("A2")
    s1, s12 = H.system.normal_form([1]), H.system.normal_form([1, 2])
    terms = {s1: Q, s12: IntPoly((3, 0, -2)), H.system.identity: ZERO,
             H.system.normal_form([2]): IntPoly((0, 0, 0, 5))}
    h = HeckeElt(H, terms)
    assert (h._norm, h._width, h._longest) == (11, hecke._width(11), 2)
    assert h.terms == {w: p for w, p in terms.items() if p}
    assert all(h.terms[w] is terms[w] for w in h.terms)
    assert {k: hecke._decode(v, h._width) for k, v in h._packed.items()} == {
        w.index: p for w, p in h.terms.items()}
    zero = H.zero()
    assert not zero and zero._packed == {} and zero.values_at(1) == {}


def test_terms_is_read_only():
    # a write into the decoded view would change what ==, repr and terms read
    # but not the packed coefficients, so both kinds of element refuse it
    H = algebra("A2")
    s = H.system.normal_form([1])
    for h in (H.t_basis(s), HeckeElt(H, {s: ONE})):
        with pytest.raises(TypeError):
            h.terms[s] = IntPoly((5,))
        assert h == H.t_basis(s) and repr(h) == "T[1]" and h.coefficient(s) == ONE


@pytest.mark.parametrize("bad", [(0.5,), (1, 2.0), (1, 2), 3])
def test_non_integer_coefficients_are_refused(bad):
    # a float would die inside the width computation or ride along in a sum:
    # a coefficient must be an IntPoly, and an IntPoly of floats is never built
    H = algebra("A1")
    s = H.system.normal_form([1])
    with pytest.raises(TypeError, match=r"coefficient .* is not an IntPoly of integers"):
        HeckeElt(H, {s: bad})
    if isinstance(bad, tuple) and not all(isinstance(c, int) for c in bad):
        with pytest.raises(TypeError, match="is not an int"):
            IntPoly(bad) * H.t_basis(s)


_SCALARS = st.one_of(
    st.sampled_from([0, -1, -3, 10**30, -(10**30)]), st.integers(-50, 50),
    _COEFFS.map(IntPoly), st.just(IntPoly((0, 10**30, -1))))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_sums_and_scalar_multiples_match_intpoly_reference(data):
    # +, - and scalar * work on packed dicts at a common width; the
    # reference adds and scales the IntPoly terms
    label = data.draw(st.sampled_from(["B3", "I2(inf)"]))
    H = algebra(label)
    system = H.system
    elements = system.elements if label == "B3" else system.elements_up_to(6)
    picks = st.lists(st.tuples(st.integers(0, len(elements) - 1), _COEFFS),
                     min_size=0, max_size=4)
    a = _general(H, elements, data.draw(picks))
    b = _general(H, elements, data.draw(picks))
    # operands of every kind: built from terms, a basis element, a product
    # result, and a result packed wider than its norm needs
    t = H.t_basis(elements[data.draw(st.integers(0, len(elements) - 1))])
    kinds = [a, t, H.product(a, t), _packed_wider(H, a, data.draw(st.integers(0, 40)))]
    x = kinds[data.draw(st.integers(0, 3))]
    y = kinds[data.draw(st.integers(0, 3))] if data.draw(st.booleans()) else b
    c = data.draw(_SCALARS)
    cp = IntPoly((c,)) if isinstance(c, int) else c
    want_x, want_y = x.terms, y.terms
    sum_want = dict(want_x)
    for w, p in want_y.items():
        sum_want[w] = sum_want.get(w, ZERO) + p
    diff_want = dict(want_x)
    for w, p in want_y.items():
        diff_want[w] = diff_want.get(w, ZERO) - p
    for got, want in ((x + y, sum_want), (x - y, diff_want), (-x, {w: -p for w, p in want_x.items()}),
                      (x * c, {w: p * cp for w, p in want_x.items()}),
                      (c * x, {w: p * cp for w, p in want_x.items()})):
        want = _nonzero(want)
        assert got.terms == want
        _assert_bounds_hold(got)
        _assert_values_at_pm1(got, want)
        # results chain: a product of a result is the reference product
        assert H.product(got, t) == product_fixed_direction(H, HeckeElt(H, want), t, right=True)
