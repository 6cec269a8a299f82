"""Coxeter-system tests, including independent oracles: a plain permutation
model of the symmetric and dihedral groups, an exhaustive all-reduced-words
subword test for Bruhat order, and root-counting for lengths."""

import itertools
import math
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from heckeflag import coxeter, hecke
from heckeflag.coxeter import MAX_FINITE_ORDER, MAX_WORD_LETTERS, CoxeterSystem, build_system


# ---------------------------------------------------------------------------
# oracles


def _compose(p, q):
    # (p o q)(x) = p(q(x)), one-line tuples
    return tuple(p[q[x] - 1] for x in range(len(p)))


def _sym_oracle(n):
    """BFS the symmetric group by words in ShortLex order; first word reaching
    a permutation is its canonical reduced word.  Independent of the package's
    root-system arithmetic."""
    gens = []
    for i in range(n - 1):
        t = list(range(1, n + 1))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append(tuple(t))
    identity = tuple(range(1, n + 1))
    canon = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in range(n - 1):
                img = _compose(p, gens[g])
                if img not in canon:
                    canon[img] = canon[p] + (g + 1,)
                    nxt.append(img)
        frontier = nxt
    return gens, canon


def _word_to_perm(word, gens, n):
    p = tuple(range(1, n + 1))
    for g in word:
        p = _compose(p, gens[g - 1])
    return p


def _all_reduced_words(system, x):
    """Every reduced word of x, by exhaustive descent recursion."""
    if not x.word:
        return {()}
    out = set()
    for g in range(1, system.rank + 1):
        y = system.right_mult(x, g)
        if y.length < x.length:
            out.update(w + (g,) for w in _all_reduced_words(system, y))
    return out


def _is_subword(small, big):
    it = iter(big)
    return all(ch in it for ch in small)


def _bruhat_oracle(system, a, b):
    """Subword criterion, brute force: some reduced word of a appears as a
    subword of the canonical reduced word of b."""
    return any(_is_subword(w, b.word) for w in _all_reduced_words(system, a))


def _bond(system, i, j, bound=12):
    """The order of s_i s_j in the built group: the least k with
    (s_i s_j)^k = e, or None when there is none up to bound."""
    return next((k for k in range(1, bound + 1)
                 if system.normal_form((i, j) * k) is system.identity), None)


# ---------------------------------------------------------------------------
# construction


def test_build_a3():
    a3 = build_system("A3")
    assert a3.rank == 3
    assert _bond(a3, 1, 2) == 3
    assert _bond(a3, 2, 3) == 3
    assert _bond(a3, 1, 3) == 2
    assert a3.order == 24


def test_build_i2_4():
    s = build_system("I2(4)")
    assert s.rank == 2
    assert _bond(s, 1, 2) == 4
    assert s.order == 8


def test_build_i2_inf():
    s = build_system("I2(inf)")
    assert not s.is_finite
    assert _bond(s, 1, 2, bound=200) is None
    with pytest.raises(ValueError):
        s.elements
    with pytest.raises(ValueError):
        s.order


@pytest.mark.parametrize("bad", ["H3", "H4"])
def test_unsupported_types(bad):
    with pytest.raises(ValueError, match="unsupported type"):
        build_system(bad)


@pytest.mark.parametrize("bad", ["", "A0", "E8", "I2(1)", "X5", "A-3", "I2()"])
def test_malformed_specs(bad):
    with pytest.raises(ValueError):
        build_system(bad)


def test_dihedral_size_guard(monkeypatch):
    # I2(m) is refused on 2m and on the m^2 letters of its canonical words
    # alone, before any table is filled
    class Filled(Exception):
        pass

    def no_fill(self, m):
        raise Filled

    monkeypatch.setattr(CoxeterSystem, "_fill_dihedral", no_fill)
    build = build_system.__wrapped__  # past the cache
    with pytest.raises(ValueError, match="2000000000 elements"):
        build("I2(1000000000)")
    with pytest.raises(ValueError, match=f"{MAX_FINITE_ORDER + 2} elements"):
        build(f"I2({MAX_FINITE_ORDER // 2 + 1})")
    with pytest.raises(ValueError, match="625000000 letters"):
        build(f"I2({MAX_FINITE_ORDER // 2})")
    with pytest.raises(ValueError, match=f"1002001 letters.*at most {MAX_WORD_LETTERS}"):
        build("I2(1001)")
    # the most letters allowed, 1000^2, get as far as the fill
    assert MAX_WORD_LETTERS == 1000 ** 2
    with pytest.raises(Filled):
        build("I2(1000)")


def test_root_system_size_guard(monkeypatch):
    # A-D ranks are refused on the closed-form order alone, before the n x n
    # Cartan matrix is built
    class Built(Exception):
        pass

    def no_cartan(family, n):
        raise Built

    monkeypatch.setattr(coxeter, "_cartan", no_cartan)
    for spec in ("A100000", "D100000", "C10000000000"):
        with pytest.raises(ValueError, match=f"{spec} has more than {MAX_FINITE_ORDER} elements"):
            build_system(spec)
    # the count is exact once the last degree is reached
    for spec, order in (("A8", 362880), ("B7", 645120), ("D7", 322560)):
        with pytest.raises(ValueError, match=f"{spec} has {order} elements;"):
            build_system(spec)
    # the largest allowed ranks, and G2 and F4, get as far as the Cartan
    # matrix (past the cache)
    for spec in ("A7", "B6", "C6", "D6", "G2", "F4"):
        with pytest.raises(Built):
            build_system.__wrapped__(spec)


@pytest.mark.parametrize(
    "label,order",
    [
        ("A1", 2),
        ("A2", 6),
        ("A3", 24),
        ("A4", 120),
        ("B2", 8),
        ("B3", 48),
        ("C3", 48),
        ("D2", 4),
        ("D4", 192),
        ("G2", 12),
        ("F4", 1152),
        ("I2(2)", 4),
        ("I2(3)", 6),
        ("I2(5)", 10),
        ("I2(7)", 14),
    ],
)
def test_known_orders(label, order):
    assert build_system(label).order == order


def test_build_system_is_cached():
    assert build_system("A2") is build_system("A2")


def test_generator_numbering_convention():
    b3 = build_system("B3")
    assert _bond(b3, 1, 2) == 3
    assert _bond(b3, 2, 3) == 4  # bond 4 at the high-index end
    c3 = build_system("C3")
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    assert [_bond(c3, i, j) for i, j in pairs] == [_bond(b3, i, j) for i, j in pairs]
    d4 = build_system("D4")
    assert _bond(d4, 1, 2) == 3
    assert _bond(d4, 2, 3) == 3
    assert _bond(d4, 2, 4) == 3  # fork: node n bonded to node n-2
    assert _bond(d4, 3, 4) == 2
    assert _bond(build_system("G2"), 1, 2) == 6
    f4 = build_system("F4")
    assert [_bond(f4, i, i + 1) for i in (1, 2, 3)] == [3, 4, 3]


# ---------------------------------------------------------------------------
# normal forms and arithmetic


def test_normal_form_examples():
    a2 = build_system("A2")
    assert a2.normal_form([1, 1]).word == ()
    assert a2.normal_form([1, 2, 1, 2]).word == (2, 1)
    i3 = build_system("I2(3)")
    assert i3.normal_form([2, 1, 2]).word == (1, 2, 1)


def test_element_repr():
    a2 = build_system("A2")
    assert repr(a2.identity) == "<e>"
    assert repr(a2.normal_form([1, 2])) == "<s1.s2>"


def test_normal_form_range_check():
    a2 = build_system("A2")
    with pytest.raises(ValueError, match="out of range"):
        a2.normal_form([3])


def test_normal_form_matches_symmetric_group_oracle():
    a2 = build_system("A2")
    gens, canon = _sym_oracle(3)
    for length in range(6):
        for word in itertools.product([1, 2], repeat=length):
            expect = canon[_word_to_perm(word, gens, 3)]
            assert a2.normal_form(word).word == expect


def test_multiply_examples():
    a2 = build_system("A2")
    a = a2.normal_form([1, 2])
    assert a2.multiply(a, a2.identity) == a
    s1 = a2.normal_form([1])
    assert a2.multiply(s1, s1) == a2.identity
    assert a2.multiply(a, a2.normal_form([2, 1])) == a2.identity


def test_multiply_rejects_foreign_elements():
    a2, a3 = build_system("A2"), build_system("A3")
    with pytest.raises(ValueError):
        a2.multiply(a2.identity, a3.identity)


def test_length_examples():
    a3 = build_system("A3")
    assert a3.identity.length == 0
    assert a3.longest_element().length == 6
    i4 = build_system("I2(4)")
    assert i4.normal_form([1, 2, 1]).length == 3


def test_longest_element():
    assert build_system("A1").longest_element().word == (1,)
    i4 = build_system("I2(4)")
    assert i4.longest_element().word == (1, 2, 1, 2)
    a3 = build_system("A3")
    w0 = a3.longest_element()
    assert w0.word == (1, 2, 1, 3, 2, 1)
    gens, _ = _sym_oracle(4)
    assert _word_to_perm(w0.word, gens, 4) == (4, 3, 2, 1)
    with pytest.raises(ValueError, match="no longest element"):
        build_system("I2(inf)").longest_element()


@pytest.mark.parametrize("label", ["A3", "B2", "I2(5)"])
def test_canonical_word_is_shortlex_least_reduced_word(label):
    system = build_system(label)
    for x in system.elements:
        words = _all_reduced_words(system, x)
        assert x.word in words
        assert x.word == min(words)


def _perm_of(word, gens):
    # the permutation of a word: the product of its letters' permutations,
    # composed so that word -> permutation is a homomorphism
    p = tuple(range(len(gens[0])))
    for g in word:
        gen = gens[g - 1]
        p = tuple(p[gen[i]] for i in range(len(p)))
    return p


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13])
def test_dihedral_against_permutation_model(m):
    # s1: (i, e) -> (-i, 1 - e), s2: (i, e) -> (1 - i, 1 - e) on the 2m
    # points (i, e) of Z/m x Z/2, point i + m e, realize I2(m) faithfully
    # (the flip of e keeps s1 nontrivial for m = 2); multiplication in the
    # package must match composition in this independent model, and every
    # table must match a breadth-first walk of the model
    system = build_system(f"I2({m})")
    gens = [tuple((-i) % m + m * (1 - e) for e in (0, 1) for i in range(m)),
            tuple((1 - i) % m + m * (1 - e) for e in (0, 1) for i in range(m))]
    seen = {}
    for x in system.elements:
        key = _perm_of(x.word, gens)
        assert key not in seen, "distinct elements collapse in the model"
        seen[key] = x
    for x in system.elements:
        for y in system.elements:
            assert _perm_of(system.multiply(x, y).word, gens) == _perm_of(x.word + y.word, gens)
    walk = _keyed_bfs(tuple(range(2 * m)), lambda p, g: tuple(p[i] for i in gens[g]), 2)
    assert _layout(system) == walk
    assert [x.index for x in system.elements] == list(range(2 * m))
    assert sum(len(x.word) for x in system.elements) == m * m  # the letter guard's count


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_order_and_exhaustiveness():
    a3 = build_system("A3")
    words = [e.word for e in a3.elements]
    assert len(set(words)) == 24
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_enumerate_infinite_bounded():
    inf = build_system("I2(inf)")
    got = [e.word for e in inf.elements_up_to(3)]
    assert got == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)]
    assert len(got) == 7


def test_elements_up_to_infinite_refuses_past_the_cap():
    # refused on the predicted length alone, before an element is listed
    class Listed(Exception):
        pass

    class NoListing:
        def __getitem__(self, i):
            raise Listed

    system = build_system.__wrapped__("I2(inf)")
    system._elements = NoListing()
    cap = coxeter.MAX_INFINITE_LEN
    for max_len in (cap + 1, 10**12):
        with pytest.raises(ValueError, match=f"up to length {cap}, got {max_len}"):
            system.elements_up_to(max_len)
    with pytest.raises(Listed):
        system.elements_up_to(cap)


def test_elements_up_to_finite():
    a3 = build_system("A3")
    assert [e.word for e in a3.elements_up_to(1)] == [(), (1,), (2,), (3,)]


def test_f4_enumeration():
    f4 = build_system("F4")
    assert f4.order == 1152
    assert f4.longest_element().length == 24


def _left_columns(system, indices):
    """The left products s_{g+1} x by index, one column per generator, read
    through left_mult."""
    return [[system.left_mult(system._elements[x], g).index for x in indices]
            for g in range(1, system.rank + 1)]


def _layout(system):
    """What _keyed_bfs returns, read from a finite system."""
    return ([x.word for x in system.elements], system._rmult,
            _left_columns(system, range(system.order)), system._inv, system._lengths,
            system._last)


def _keyed_bfs(identity, apply, rank):
    """The breadth-first walk of the right Cayley graph keyed by an
    independent model of the group, apply(key, g) being right multiplication
    by s_{g+1}, with the inverse found by folding the reversed word: (words,
    rmult, lmult, inv, lengths, last)."""
    keys = [identity]
    key_index = {identity: 0}
    words, rmult = [()], [[-1] * rank]
    idx = 0
    while idx < len(keys):
        for g in range(rank):
            if rmult[idx][g] < 0:
                key = apply(keys[idx], g)
                j = key_index.get(key)
                if j is None:
                    j = key_index[key] = len(keys)
                    keys.append(key)
                    words.append(words[idx] + (g + 1,))
                    rmult.append([-1] * rank)
                rmult[idx][g], rmult[j][g] = j, idx
        idx += 1
    inv = []
    for w in words:
        j = 0
        for g in reversed(w):
            j = rmult[j][g - 1]
        inv.append(j)
    lmult = [[inv[rmult[inv[i]][g]] for g in range(rank)] for i in range(len(words))]
    # the system keeps one column per generator: column g holds entry g of
    # every row
    return (words, [list(col) for col in zip(*rmult)], [list(col) for col in zip(*lmult)],
            inv, [len(w) for w in words], [w[-1] if w else 0 for w in words])


def _matrix_bfs(cartan):
    """The walk keyed by each element's integer matrix on simple-root
    coordinates (its images of the simple roots, as columns)."""
    n = len(cartan)

    def apply(key, i):
        # right multiplication by s_i: col_j -> col_j - C[i][j] col_i (j != i),
        # col_i -> -col_i
        cols = list(key)
        for j in range(n):
            if j == i:
                cols[j] = tuple(-a for a in key[i])
            elif cartan[i][j]:
                cols[j] = tuple(a - cartan[i][j] * b for a, b in zip(key[j], key[i]))
        return tuple(cols)

    return _keyed_bfs(tuple(tuple(int(i == j) for i in range(n)) for j in range(n)), apply, n)


# every root type with at most 2000 elements
_SMALL_ROOT_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3",
                     "C4", "D2", "D3", "D4", "D5", "G2", "F4"]
# every root type build_system accepts
_ROOT_TYPES = ([f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(1, 7)]
               + [f"C{n}" for n in range(1, 7)] + [f"D{n}" for n in range(2, 7)]
               + ["G2", "F4"])


@pytest.mark.parametrize("label", _SMALL_ROOT_TYPES)
def test_weight_keyed_walk_matches_matrix_keyed_walk(label):
    system = build_system(label)
    assert _layout(system) == _matrix_bfs(system._model.cartan)
    assert [x.index for x in system.elements] == list(range(system.order))


@pytest.mark.parametrize("label", _SMALL_ROOT_TYPES + ["I2(2)", "I2(5)", "I2(7)", "I2(inf)"])
def test_index_order_is_length_order(label):
    # the Hecke generator step tells an ascent by col[x] > x alone: that needs
    # lengths that never decrease along the index, and then x s (or s x) is
    # one longer than x exactly when its index is larger
    system = build_system(label)
    indices = range(system.order if system.is_finite else 400)
    lengths = system._lengths
    assert [lengths[i] for i in indices] == [len(system._elements[i].word) for i in indices]
    assert all(lengths[i] <= lengths[i + 1] for i in indices[:-1])
    for cols in (system._rmult, _left_columns(system, indices)):
        assert len(cols) == system.rank
        for col in cols:
            for x in indices:
                assert (col[x] > x) == (lengths[col[x]] == lengths[x] + 1)


class _Tree:
    # a rank-3 model whose walk never closes: each key has two new children;
    # its order is the largest build_system admits
    rank = 3
    order = MAX_FINITE_ORDER

    def __init__(self, longest):
        self.longest = longest

    def identity(self):
        return 0

    def apply(self, key, gen0):
        return 3 * key + gen0 + 1


@pytest.mark.parametrize("longest, found", [
    (40, f"more than {MAX_FINITE_ORDER} elements"), (5, "longer than 5")])
def test_a_faulty_model_stops_the_walk(longest, found):
    # the walk overruns the order before depth 40, and reaches depth 5 first
    message = (f"tree: the walk left the group (more than {MAX_FINITE_ORDER} "
               f"elements or a word longer than {longest})")
    assert found in message
    with pytest.raises(AssertionError, match=re.escape(message)):
        CoxeterSystem("tree", _Tree(longest))


def test_a_walk_must_fill_its_order():
    # the walk of A2 closes on its 6 elements: an order of 7 from faulty
    # degrees is refused with both counts, and an order of 5 is overrun
    cartan = coxeter._cartan("A", 2)
    with pytest.raises(AssertionError, match=r"^A2: enumerated 6 elements, expected 7$"):
        CoxeterSystem("A2", coxeter._RootModel(cartan, 7))
    with pytest.raises(AssertionError, match="more than 5 elements"):
        CoxeterSystem("A2", coxeter._RootModel(cartan, 5))


@pytest.mark.parametrize("label", _ROOT_TYPES)
def test_every_root_type_fits_the_key_width(label):
    # v(x) = x^-1 rho, computed here unpacked from the parent's vector
    # (v(x s) = v(x) - v_s alpha_s), lies strictly inside the digit range,
    # and each key packs exactly v + bias; built past the cache, so the
    # largest groups are freed after their test
    system = build_system.__wrapped__(label)
    model = system._model
    cartan, width = model.cartan, model.width
    bias = 1 << (width - 1)
    vectors = {(): (1,) * system.rank}
    keys = {(): model.identity()}
    largest = 0
    for x in system.elements:
        if x.word:
            parent, s = vectors[x.word[:-1]], x.word[-1] - 1
            vectors[x.word] = tuple(
                c - parent[s] * cartan[j][s] for j, c in enumerate(parent))
            # the walk's step, from the parent's key
            keys[x.word] = model.apply(keys[x.word[:-1]], s)
        v, key = vectors[x.word], keys[x.word]
        largest = max(largest, *map(abs, v))
        assert type(key) is int
        assert key == sum((c + bias) << (width * j) for j, c in enumerate(v))
    assert largest < bias, (largest, width)
    # the letter guard's count, |W| l(w0) / 2, with |W| and l(w0) = |Phi+|
    # from the degrees, is every letter of every canonical word
    longest = len(model.positive_roots)
    assert _order_and_longest(label[0], int(label[1:])) == (system.order, longest)
    letters = sum(len(x.word) for x in system.elements)
    assert letters == system.order * longest // 2 <= MAX_WORD_LETTERS


def _order_and_longest(family, n):
    # |W| = the product of the degrees, l(w0) = the sum of the d_i - 1
    degrees = list(coxeter._DEGREES[family](n))
    return math.prod(degrees), sum(d - 1 for d in degrees)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 1000])
def test_dihedral_degrees_give_the_order_and_longest_length(m):
    system = build_system(f"I2({m})")
    assert _order_and_longest("I", m) == (system.order, system.longest_element().length)


# ---------------------------------------------------------------------------
# Bruhat order


def test_bruhat_examples():
    a2 = build_system("A2")
    s1, s12, s21 = (a2.normal_form(w) for w in ([1], [1, 2], [2, 1]))
    for b in a2.elements:
        assert a2.bruhat_leq(a2.identity, b)
    assert a2.bruhat_leq(s1, s12)
    assert not a2.bruhat_leq(s12, s21)


def test_bruhat_matches_subword_oracle():
    for label in ("A2", "A3"):
        system = build_system(label)
        for a in system.elements:
            for b in system.elements:
                assert system.bruhat_leq(a, b) == _bruhat_oracle(system, a, b), (
                    label, a.word, b.word)


def test_bruhat_is_partial_order_on_a3():
    a3 = build_system("A3")
    els = a3.elements
    leq = {(a, b): a3.bruhat_leq(a, b) for a in els for b in els}
    for a in els:
        assert leq[a, a]
    for a in els:
        for b in els:
            if leq[a, b] and leq[b, a]:
                assert a == b
            for c in els:
                if leq[a, b] and leq[b, c]:
                    assert leq[a, c]


def test_bruhat_on_infinite_dihedral():
    inf = build_system("I2(inf)")
    a = inf.normal_form([1, 2])
    b = inf.normal_form([1, 2, 1, 2, 1])
    assert inf.bruhat_leq(a, b)
    assert not inf.bruhat_leq(b, a)


# ---------------------------------------------------------------------------
# conjugacy classes, Coxeter elements, support


def test_conjugacy_class_examples():
    a2 = build_system("A2")
    assert list(a2.conjugacy_class(a2.identity)) == [a2.identity]
    cls1 = a2.conjugacy_class(a2.normal_form([1]))
    assert {e.word for e in cls1} == {(1,), (2,), (1, 2, 1)}
    assert cls1.min_length == 1
    cls2 = a2.conjugacy_class(a2.normal_form([1, 2]))
    assert {e.word for e in cls2} == {(1, 2), (2, 1)}
    assert cls2.min_length == 2


def test_conjugacy_class_is_closed_under_conjugation():
    b2 = build_system("B2")
    for a in b2.elements:
        cls = set(b2.conjugacy_class(a))
        for g in b2.elements:
            gi = b2.inverse(g)
            assert b2.multiply(b2.multiply(g, a), gi) in cls


def test_conjugacy_infinite_rejected():
    inf = build_system("I2(inf)")
    with pytest.raises(ValueError):
        inf.conjugacy_class(inf.identity)


def test_coxeter_elements():
    assert [e.word for e in build_system("A1").coxeter_elements()] == [(1,)]
    assert [e.word for e in build_system("A2").coxeter_elements()] == [(1, 2), (2, 1)]
    assert [e.word for e in build_system("B2").coxeter_elements()] == [(1, 2), (2, 1)]
    a3 = build_system("A3")
    cox = a3.coxeter_elements()
    assert all(c.length == 3 and a3.is_full_support(c) for c in cox)


def test_is_full_support():
    a2 = build_system("A2")
    assert a2.is_full_support(a2.normal_form([1, 2]))
    assert not a2.is_full_support(a2.normal_form([1]))
    a3 = build_system("A3")
    assert a3.is_full_support(a3.longest_element())


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("label", ["A3", "B3", "I2(7)"])
def test_inverse_preserves_length(label):
    system = build_system(label)
    for a in system.elements:
        assert system.inverse(a).length == a.length
        assert system.multiply(a, system.inverse(a)) == system.identity


@pytest.mark.parametrize("label", ["A3", "B3", "I2(7)"])
def test_longest_element_complements_length(label):
    system = build_system(label)
    w0 = system.longest_element()
    for a in system.elements:
        assert system.multiply(w0, a).length == w0.length - a.length


@pytest.mark.parametrize("label", ["A3", "I2(6)"])
def test_generator_changes_length_by_one(label):
    system = build_system(label)
    for a in system.elements:
        for g in range(1, system.rank + 1):
            assert abs(system.left_mult(a, g).length - a.length) == 1
            assert abs(system.right_mult(a, g).length - a.length) == 1


def test_infinite_dihedral_generator_steps():
    # the steps themselves are checked in test_one_element_object_per_index;
    # bad generators and elements of another system (a fresh copy of the same
    # type included) are refused on every kind of system, and so is B3's w0,
    # whose index 47 lies past the last index of A3 (23) and I2(5) (9)
    for label in ("I2(inf)", "A3", "B3", "I2(5)"):
        system = build_system(label)
        other = build_system("A3" if label == "B3" else "B3")
        foreign = [other.normal_form([1, 2]), build_system.__wrapped__(label).identity,
                   build_system.__wrapped__("B3").longest_element()]
        for a in system.elements_up_to(3):
            for g in (-1, 0, system.rank + 1):
                with pytest.raises(ValueError, match="out of range"):
                    system.right_mult(a, g)
                with pytest.raises(ValueError, match="out of range"):
                    system.left_mult(a, g)
        for a in foreign:
            for g in range(1, system.rank + 1):
                with pytest.raises(ValueError, match="does not belong"):
                    system.right_mult(a, g)
                with pytest.raises(ValueError, match="does not belong"):
                    system.left_mult(a, g)


def test_infinite_normal_form_and_inverse_build_no_prefixes():
    system = build_system.__wrapped__("I2(inf)")
    for a in system.elements_up_to(9):
        assert system.inverse(a).word == a.word[::-1]
    # building every prefix element would cost time and memory quadratic in
    # the word length: the walk reads one row per prefix, and only the result
    # (and its inverse) joins the elements
    before = len(system._elements)
    x = system.normal_form((1, 2) * 2000 + (1, 1))
    assert x.word == (1, 2) * 2000
    assert system.inverse(x).word == (2, 1) * 2000
    assert len(system._elements) == before + 2


def test_a_long_infinite_word_leaves_no_table_entry_per_prefix():
    # a walk stores the steps of the elements every Hecke row or nconst
    # product can reach and computes the steps past them, so a long word
    # leaves its result behind and no table entry per prefix
    bound = coxeter._alt_index(2, coxeter.MAX_INFINITE_LEN) + 1
    assert hecke.ROW_MAX_LEN == coxeter.MAX_INFINITE_LEN
    system = build_system.__wrapped__("I2(inf)")
    assert system._walk_stored == bound
    word = (1, 2) * 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = system.normal_form(word)
        back = system.multiply(x, system.inverse(x))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert x.word == word and x.index == coxeter._alt_index(1, len(word))
    assert back is system.identity
    assert retained < 1_000_000, retained
    assert all(len(col) <= bound for col in system._rmult)


def test_a_root_system_build_peaks_near_what_it_keeps():
    # each column is allocated once, at |W| from the degrees, and the walk's
    # keys are freed before the left tables and the elements are built, so a
    # fresh B5 build peaks within 12% of what the system keeps (a walk that
    # kept its keys beside the tables peaked about 20% past it)
    tracemalloc.start()
    try:
        system = build_system.__wrapped__("B5")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.12 * retained, (peak, retained)
    allocated = sys.getsizeof([-1] * system.order)
    assert all(sys.getsizeof(col) == allocated for col in system._rmult)


def test_a_b5_build_keeps_one_byte_per_letter():
    # every canonical word is stored as bytes, one byte per letter, so a fresh
    # B5 build (3840 elements, 48 000 letters) keeps at most 1.1 MB; with one
    # tuple per word, 8 bytes a letter, it kept 1.3 MB
    tracemalloc.start()
    try:
        system = build_system.__wrapped__("B5")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert system.order == 3840
    assert retained <= 1_100_000, retained


def test_elements_up_to_a_negative_length_is_empty():
    for label in ("A2", "I2(inf)"):
        system = build_system(label)
        assert system.elements_up_to(-1) == []
        assert system.elements_up_to(0) == [system.identity]


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "I2(5)", "I2(inf)"])
def test_one_element_object_per_index(label):
    system = build_system(label)
    elements = system.elements_up_to(40)
    if system.is_finite:
        assert elements == list(system.elements)
    for position, x in enumerate(elements):
        assert x.index == position
        assert system.normal_form(x.word) is x
        assert system.inverse(x) is system.normal_form(x.word[::-1])
        for g in range(1, system.rank + 1):
            assert system.right_mult(x, g) is system.normal_form(x.word + (g,))
            assert system.left_mult(x, g) is system.normal_form((g,) + x.word)
    for x, y in itertools.product(elements, repeat=2):
        assert system.multiply(x, y) is system.normal_form(x.word + y.word)


def _free_reduction(word):
    # I2(inf) has no relation but s^2 = 1: cancel equal neighbours
    out = []
    for g in word:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def test_infinite_dihedral_tables_match_free_reduction():
    # the ShortLex list of alternating words, built apart from the closed forms
    words = [()] + sorted(
        (tuple(first if k % 2 == 0 else 3 - first for k in range(length))
         for length in range(1, 62) for first in (1, 2)),
        key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(words)}
    system = build_system("I2(inf)")
    for i, word in enumerate(words):
        if len(word) > 60:
            break
        assert system._elements[i].word == word
        assert system._lengths[i] == len(word)
        assert system._last[i] == (word[-1] if word else 0)
        assert system._inv[i] == index[word[::-1]]
        for g in (1, 2):
            assert system._rmult[g - 1][i] == index[_free_reduction(word + (g,))]
            assert system.left_mult(system._elements[i], g).index == index[
                _free_reduction((g,) + word)]


@given(st.lists(st.integers(1, 3), max_size=8), st.lists(st.integers(1, 3), max_size=8))
def test_normal_form_is_multiplicative_a3(u, v):
    a3 = build_system("A3")
    assert a3.normal_form(u + v) == a3.multiply(a3.normal_form(u), a3.normal_form(v))


@given(st.lists(st.integers(1, 2), max_size=10), st.lists(st.integers(1, 2), max_size=10))
def test_normal_form_is_multiplicative_infinite(u, v):
    inf = build_system("I2(inf)")
    assert inf.normal_form(u + v) == inf.multiply(inf.normal_form(u), inf.normal_form(v))


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_length_equals_root_inversions(label):
    system = build_system(label)
    for a in system.elements:
        assert system.root_inversions(a) == a.length


def test_root_inversions_reads_no_enumeration_key():
    # the length oracle folds its own matrix from the word; a system keeps
    # no enumeration key for it to read
    system = build_system("B3")
    assert not hasattr(system, "_keys")
    assert [system.root_inversions(a) for a in system.elements] == [
        a.length for a in system.elements]


def test_positive_root_counts():
    assert len(build_system("A3").positive_roots()) == 6
    assert len(build_system("B3").positive_roots()) == 9
    assert len(build_system("F4").positive_roots()) == 24


def _alternating_words(m, top):
    """The canonical words of I2(m) (m None for I2(inf)) up to length top, in
    ShortLex order, built apart from the closed forms: the alternating words,
    of which w0 keeps the one that starts with 1."""
    longest = top if m is None else min(top, m)
    words = sorted((tuple(first if k % 2 == 0 else 3 - first for k in range(length))
                    for length in range(1, longest + 1) for first in (1, 2)),
                   key=lambda w: (len(w), w))
    if m is not None and longest == m:
        words.pop()
    return [()] + words


def _check_public_word(x, word):
    # the public forms of the stored word: a tuple and a list of plain ints,
    # and the s<i> repr
    assert type(x.word) is tuple and x.word == word
    assert all(type(g) is int for g in x.word)
    assert x.length == len(word)
    assert x.to_json() == list(word) and all(type(g) is int for g in x.to_json())
    assert repr(x) == ("<" + ".".join(f"s{g}" for g in word) + ">" if word else "<e>")


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "F4", "I2(7)", "I2(inf)"])
def test_every_element_word_is_a_tuple_of_its_canonical_word(label):
    system = build_system(label)
    if label.startswith("I2"):
        m = 7 if label == "I2(7)" else None
        words = _alternating_words(m, 40)
        elements = system.elements_up_to(40)
    else:
        words = _matrix_bfs(system._model.cartan)[0]
        elements = system.elements
    assert len(elements) == len(words)
    for x, word in zip(elements, words):
        _check_public_word(x, word)


def test_a_500_letter_infinite_word_is_a_tuple():
    system = build_system("I2(inf)")
    word = (2, 1) * 250
    x = system.normal_form(word)
    _check_public_word(x, word)
    assert x.index == coxeter._alt_index(2, 500)


def test_element_json():
    a2 = build_system("A2")
    assert a2.identity.to_json() == []
    assert a2.normal_form([1, 2]).to_json() == [1, 2]
