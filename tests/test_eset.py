"""Diagonal-support set tests: the closed-form dihedral laws, the infinite
dihedral truncations, the longest-element and Coxeter-element facts, and the
report invariants."""

import pytest

from heckeflag.coxeter import build_system
from heckeflag.eset import e_set
from heckeflag.hecke import HeckeAlgebra


def algebra(label):
    return HeckeAlgebra(build_system(label))


def alt_word(first, length):
    other = 3 - first
    return tuple(first if i % 2 == 0 else other for i in range(length))


# ---------------------------------------------------------------------------
# examples


def test_identity_has_full_support_set():
    H = algebra("A2")
    rep = e_set(H, H.system.identity)
    assert rep.member_elements() == list(H.system.elements)
    assert rep.d == 0
    assert rep.e_prime == list(H.system.elements)
    assert rep.truncation is None


def test_i24_squared_coxeter_word():
    H = algebra("I2(4)")
    rep = e_set(H, H.system.normal_form([1, 2, 1, 2]))
    assert [z.word for z in rep.member_elements()] == [
        (1, 2, 1), (2, 1, 2), (1, 2, 1, 2)]


def test_infinite_rotation_powers_empty():
    H = algebra("I2(inf)")
    rep = e_set(H, H.system.normal_form([1, 2]), max_len=12)
    assert rep.members == []
    assert rep.d is None
    assert rep.e_prime == []
    assert rep.truncation == 12


def test_in_w_bullet():
    # w is in W_bullet iff its diagonal-support set is nonempty; a truncated
    # empty scan certifies nothing and says so through its bound
    H3 = algebra("A3")
    for w in H3.system.elements:
        assert e_set(H3, w).members
    Hi = algebra("I2(inf)")
    rep = e_set(Hi, Hi.system.normal_form([1, 2]), 12)
    assert rep.members == [] and rep.truncation == 12
    assert e_set(Hi, Hi.system.normal_form([1, 2, 1]), 6).members


def test_d_and_e_prime_examples():
    H = algebra("A2")
    for w in H.system.elements:
        assert e_set(H, w).d == w.length
    Hi = algebra("I2(inf)")
    assert e_set(Hi, Hi.system.normal_form([1, 2, 1]), 10).d == 2  # below l(s1s2s1) = 3
    rep = e_set(Hi, Hi.system.normal_form([1, 2]), 10)
    assert rep.d is None and rep.e_prime == [] and rep.truncation == 10


def test_full_support_maximizers_sample_a3():
    H = algebra("A3")
    w0 = H.system.longest_element()
    for word in ([1, 2, 3], [2, 1, 3, 2], [1, 2, 1, 3, 2, 1]):
        w = H.system.normal_form(word)
        assert H.system.is_full_support(w)
        rep = e_set(H, w)
        assert rep.e_prime == [w0]


# ---------------------------------------------------------------------------
# bound handling


def test_max_len_required_for_infinite():
    H = algebra("I2(inf)")
    with pytest.raises(ValueError, match="max_len is required"):
        e_set(H, H.system.normal_form([1, 2]))


def test_max_len_rejected_for_finite():
    H = algebra("A2")
    with pytest.raises(ValueError, match="only applies to infinite"):
        e_set(H, H.system.identity, max_len=5)


# ---------------------------------------------------------------------------
# paper-level laws


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dihedral_law(n):
    H = algebra(f"I2({2 * n})")
    sys_ = H.system
    for k in range(1, n + 1):
        w = sys_.normal_form([1, 2] * k)
        got = set(e_set(H, w).member_elements())
        want = {z for z in sys_.elements if z.length >= 2 * n - k + 1}
        assert got == want


def test_infinite_dihedral_truncated_sets():
    H = algebra("I2(inf)")
    sys_ = H.system
    bound = 14
    for k in range(1, 6):
        assert e_set(H, sys_.normal_form([1, 2] * k), bound).members == []
    rep = e_set(H, sys_.normal_form([1, 2, 1]), bound)
    want = [alt_word(1, length) for length in range(2, bound + 1)]
    assert [z.word for z in rep.member_elements()] == want


@pytest.mark.parametrize("label", ["A3", "B3", "I2(7)"])
def test_longest_element_is_always_a_member(label):
    H = algebra(label)
    w0 = H.system.longest_element()
    for w in H.system.elements:
        assert w0 in e_set(H, w).member_elements()


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_coxeter_elements_have_singleton_set(label):
    H = algebra(label)
    w0 = H.system.longest_element()
    for c in H.system.coxeter_elements():
        assert e_set(H, c).member_elements() == [w0]


def test_d_bounded_by_length():
    H = algebra("A3")
    for w in H.system.elements:
        rep = e_set(H, w)
        assert rep.d <= w.length
    Hi = algebra("I2(inf)")
    for word in ([1, 2, 1], [2, 1, 2], [1, 2, 1, 2, 1]):
        w = Hi.system.normal_form(word)
        rep = e_set(Hi, w, 12)
        if rep.members:
            assert rep.d <= w.length


# ---------------------------------------------------------------------------
# report invariants


@pytest.mark.parametrize("label,word,bound", [
    ("A3", [1, 2], None),
    ("B2", [2, 1, 2], None),
    ("I2(inf)", [1, 2, 1], 9),
])
def test_report_invariants(label, word, bound):
    H = algebra(label)
    w = H.system.normal_form(word)
    rep = e_set(H, w, bound)
    for z, n, deg in rep.members:
        assert n
        assert n.degree == deg
        assert H.structure_constant(w, z, z) == n
    keys = [(z.length, z.word) for z in rep.member_elements()]
    assert keys == sorted(keys)
    assert set(rep.e_prime) <= set(rep.member_elements())
    if rep.members:
        assert rep.e_prime
        assert all(deg == rep.d for z, n, deg in rep.members if z in rep.e_prime)


def test_report_json_schema():
    H = algebra("I2(4)")
    rep = e_set(H, H.system.normal_form([1, 2]))
    doc = rep.to_json()
    assert set(doc) == {"w", "truncation", "members", "d", "e_prime"}
    assert doc["w"] == [1, 2]
    assert doc["truncation"] is None
    assert doc["members"] == [{"z": [1, 2, 1, 2], "N": [1, -2, 1], "deg": 2}]
    assert doc["d"] == 2
    assert doc["e_prime"] == [[1, 2, 1, 2]]
