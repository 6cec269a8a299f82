"""Coxeter systems with exact integer element arithmetic.

Every system numbers its elements densely in ShortLex order of their
canonical words (the ShortLex-least reduced words): index 0 is e, and an
element's index is its position in ``elements``/``elements_up_to``.  Index
order is length order: a longer element always has a larger index.  The
system holds its multiplication table as one column per generator,
``_rmult[g][x]`` = x s_{g+1} by index (a left product s x = (x^-1 s)^-1 is
read from it and the inverses), its inverse, length and last-letter tables by
index, and one Element object per index, so elements compare by identity.  An
element stores its canonical word as ``bytes``, one byte per letter (a rank
is far below 256), and holds no reference to its system: the system decides
membership, by the object stored at the index.

Two constructions fill these tables:

* crystallographic root systems (types A/B/C/D/G2/F4) by a breadth-first walk
  of the right Cayley graph, eagerly: an element x is keyed by the weight
  x^-1 rho, and its length equals the number of positive roots it sends
  negative.  The walk visits elements in (length, lexicographic) order of
  their canonical words, which is ShortLex order;
* dihedral groups I2(m), m >= 2, and I2(inf) from closed forms of the index.
  Canonical words alternate, and the word of first letter f and length L >= 1
  has index 2L - 2 + f, for every L < m; w0, of length m, has index 2m - 1.
  I2(m) fills lists of 2m entries eagerly, I2(inf) fills each entry on first
  use.

    >>> i5 = build_system("I2(5)")
    >>> i5.longest_element().index
    9
    >>> i5.normal_form([2, 1, 2, 1, 2]).word
    (1, 2, 1, 2, 1)
    >>> build_system("I2(inf)").normal_form([2, 1, 2, 1, 2]).index
    10

Root systems key the walk by v(x) = x^-1 rho in fundamental-weight
coordinates, v_j = <x^-1 rho, alpha_j^vee>, with rho = (1, ..., 1).  rho is
regular (its stabilizer in W is trivial), so v is injective on W.  Right
multiplication by s is one vector update, v(x s) = s v(x) = v - v_s alpha_s,
where alpha_s in weight coordinates is column s of the Cartan matrix
C[i][j] = <alpha_j, alpha_i^vee>.  v is packed into one int of fixed-width
digits: digit j holds v_j + 2^(B-1) in B bits, so a step reads digit s,
multiplies and subtracts, and the int is the dict key.  The width holds every
coordinate: v_j = <rho, x alpha_j^vee> and x alpha_j^vee is a coroot, on
which rho takes plus or minus its height (rho is 1 on every simple coroot).
A positive coroot of height h > 1 is a positive coroot of height h - 1 plus
a simple coroot, so there are positive coroots of every height 1..h, and
h <= |Phi^vee+| = |Phi+|.  B = bit_length(|Phi+|) + 1 gives
|v_j| <= |Phi+| < 2^(B-1): every digit lies in 1 .. 2^B - 1 and no step
borrows across digits (B6: |Phi+| = 36, B = 7).

Generator numbering convention (1-based): A_n is a path with consecutive bond
3; B_n/C_n add the bond 4 between the two highest indices; D_n forks at the
high end (nodes n-2 and n bonded); G2 has bond 6; F4 is the path 3, 4, 3.
"""

from __future__ import annotations

import bisect
import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "CoxeterSystem",
    "Element",
    "ConjugacyClass",
    "MAX_FINITE_ORDER",
    "MAX_INFINITE_LEN",
    "MAX_WORD_LETTERS",
    "build_system",
]


class Element:
    """A group element in canonical form: the ShortLex-least reduced word.

    ``index`` is the element's position in the ShortLex numbering of its
    system.  The system holds one Element per index and every operation
    returns that object, so equality and hashing are object identity: the
    same system and the same word.  It holds no reference to its system,
    which decides membership (``_owns``), so the two form no reference cycle.

    The word is stored as ``bytes``, one byte per letter: an 18-letter word
    (the mean on B6) takes 51 bytes where a tuple takes 184, and bytes are
    not tracked by the cyclic garbage collector.  ``word`` builds the public
    tuple of generator numbers when it is read; ``length`` counts the stored
    bytes.
    """

    __slots__ = ("_word", "index")

    def __init__(self, word: bytes, index: int):
        self._word = word
        self.index = index

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(self._word)

    @property
    def length(self) -> int:
        return len(self._word)

    def __repr__(self):
        if not self._word:
            return "<e>"
        return "<" + ".".join(f"s{i}" for i in self._word) + ">"

    def to_json(self) -> list[int]:
        return list(self._word)


@dataclass(frozen=True)
class ConjugacyClass:
    """A full conjugacy class together with its minimal occurring length."""

    elements: tuple[Element, ...]
    min_length: int

    def __contains__(self, x):
        return x in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# element models


class _RootModel:
    """Finite crystallographic backend: x is keyed by v(x) = x^-1 rho in
    fundamental-weight coordinates, packed into one int (module docstring).

    ``apply(key, g)`` is right multiplication by s = s_{g+1}: v(x s) = v -
    v_s alpha_s, with alpha_s (column s of the Cartan matrix) packed once.
    ``order`` is |W|, the product of the degrees, which sizes the walk.
    """

    def __init__(self, cartan: Sequence[Sequence[int]], order: int):
        self.cartan = tuple(tuple(row) for row in cartan)
        self.order = order
        self.rank = n = len(cartan)
        self.positive_roots = _positive_roots(self.cartan)
        # the length of w0 is |Phi+|, and |v_j| <= |Phi+| < 2^(width - 1):
        # see the module docstring
        self.longest = len(self.positive_roots)
        self.width = width = self.longest.bit_length() + 1
        self.bias = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.shifts = tuple(width * g for g in range(n))
        self.simple_roots = tuple(
            sum(self.cartan[j][g] << (width * j) for j in range(n)) for g in range(n)
        )

    def identity(self) -> int:
        # rho = (1, ..., 1); digit j holds v_j + bias
        return sum((1 + self.bias) << shift for shift in self.shifts)

    def apply(self, key: int, gen0: int) -> int:
        v_s = ((key >> self.shifts[gen0]) & self.mask) - self.bias
        return key - v_s * self.simple_roots[gen0]


class _Memo(dict):
    """i -> fn(i), computed on first use: a lazily filled I2(inf) table whose
    hits are plain dict lookups."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, i):
        # setdefault keeps the first value stored, so threads that race on one
        # index all return the same object
        return self.setdefault(i, self.fn(i))


def _alt_word(i: int) -> bytes:
    """Canonical word of the dihedral element of index i: the alternating
    word of first letter 2 - i % 2 and length (i + 1) // 2."""
    first, length = 2 - i % 2, (i + 1) // 2
    pairs = bytes((first, 3 - first)) * (length // 2)
    return pairs + bytes((first,)) if length % 2 else pairs


def _alt_index(first: int, length: int) -> int:
    """Index of the alternating word of that first letter and length."""
    return 2 * length - 2 + first if length else 0


def _alt_last(i: int) -> int:
    """Last letter of the dihedral element of index i, 0 for the identity:
    the word 2L - 1 (first letter 1) ends in 1 and the word 2L (first letter
    2) ends in 2 exactly when L is odd."""
    return 1 + (i >> 1) % 2 if i else 0


def _alt_right(i: int, g: int, top: int | None = None) -> int:
    """Index of x s_{g+1} for x of index i: s cancels x's last letter, two
    indices down (to e from a generator), or extends the word, two indices
    up.  In I2(m), top = 2m - 1 is the index of w0: an up-step that would
    land past w0 lands on w0, and w0 s drops the last letter of whichever of
    w0's two alternating words ends in s."""
    if not i:
        return g + 1
    if (i >> 1) % 2 == g:  # s is x's last letter (_alt_last)
        return i - 2 if i > 2 else 0  # indices 1 and 2 are the generators
    if i == top:
        return i - 1  # w0's word (2, 1, ...) ends in s
    return i + 2 if top is None or i + 2 < top else top


def _inverse_table(rmult: list[list[int]], last: list[int]) -> list[int]:
    """The inverses, by index, of a walk's right columns and last letters.
    x = p s with p = x s its parent, earlier in the walk, as is the inverse
    of p (same length), so x^-1 = s p^-1; the left columns s_g x = (s_g p) s
    that this reads are built here and dropped on return."""
    last_cols = [rmult[s - 1] for s in last[1:]]
    parents = [col[x] for x, col in enumerate(last_cols, 1)]
    lmult = []
    for col in rmult:
        lcol = [col[0]]  # s_g e = e s_g
        for c, p in zip(last_cols, parents):
            lcol.append(c[lcol[p]])
        lmult.append(lcol)
    inv = [0]
    for s, p in zip(last[1:], parents):
        inv.append(lmult[s - 1][inv[p]])
    return inv


# the longest length an I2(inf) system lists (elements_up_to), a Hecke row
# scans on any system and an nconst product reaches (re-exported as
# hecke.ROW_MAX_LEN); its walks (normal_form, multiply) store the steps of the
# elements up to this length and compute the steps of longer ones without
# storing them, so a long word leaves no table entry per prefix
MAX_INFINITE_LEN = 500


# ---------------------------------------------------------------------------
# degrees and Cartan data


def _path_cartan(n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    return c


# the degrees d_i of each finite family, I2(n) included: |W| is their product
# and l(w0) = |Phi+| the sum of the d_i - 1 (A_n: (n + 1)!, B_n/C_n: 2^n n!,
# D_n: 2^(n-1) n!); ranges, so a huge rank lists nothing
_DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: itertools.chain((n,), range(2, 2 * n - 1, 2)),
    "G": lambda n: (2, 6),
    "F": lambda n: (2, 6, 8, 12),
    "I": lambda m: (2, m),
}


def _cartan(family: str, n: int) -> list[list[int]]:
    if family == "G":
        return [[2, -1], [-3, 2]]
    c = _path_cartan(n)
    if family == "F":
        c[1][2], c[2][1] = -2, -1
    elif family in ("B", "C") and n >= 2:
        # bond 4 at the high-index end; B and C differ only by which of the
        # two roots is short, which transposes the pair of entries
        c[n - 2][n - 1], c[n - 1][n - 2] = (-1, -2) if family == "B" else (-2, -1)
    elif family == "D":
        # fork at the high end: node n is bonded to n - 2, not to n - 1
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        if n >= 3:
            c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


def _positive_roots(cartan: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The positive roots in simple-root coordinates, sorted: the orbit of the
    simple roots under the simple reflections, kept while nonnegative."""
    n = len(cartan)
    simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        r = frontier.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * r[j] for j in range(n))
            img = tuple(r[j] - pairing if j == i else r[j] for j in range(n))
            if all(c >= 0 for c in img) and img not in roots:
                roots.add(img)
                frontier.append(img)
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# the system


class CoxeterSystem:
    """A Coxeter group with exact arithmetic, canonical words and a dense
    ShortLex index.

    Every system holds its elements in ShortLex order, so index order is
    length order, with tables indexed by position: ``_elements``, one column
    per generator ``_rmult[g][x]`` (x s_{g+1}), ``_inv``, ``_lengths`` and
    ``_last`` (the last letter of x's canonical word, 0 for the identity).  A
    root system fills them by a walk keyed by the packed weight x^-1 rho, and
    keeps no key; a dihedral system fills them from the closed forms of the
    index (module docstring).

    A finite system is immutable after construction.  I2(inf) fills its
    tables on first use (a word walk stores the entries of elements of
    length at most ``MAX_INFINITE_LEN`` only); an entry, once stored, never
    changes, and racing threads store and read back one value, so instances
    of either kind are safe to share across threads.
    """

    def __init__(self, label: str, model=None, m: int | None = None):
        self.label = label
        self._model = model
        # a root system takes its rank from its model; a system without one
        # is I2(m), or I2(inf) for m None
        self.rank = 2 if model is None else model.rank
        self.is_finite = model is not None or m is not None
        if model is None:
            self._fill_dihedral(m)
        else:
            self._enumerate_all()

    # -- construction ------------------------------------------------------

    def _enumerate_all(self):
        model = self._model
        apply, longest, order = model.apply, model.longest, model.order
        keys = [model.identity()]
        key_index = {keys[0]: 0}
        words = [b""]
        # the one-letter word of each generator: a word grows by one byte
        letters = [bytes((g + 1,)) for g in range(self.rank)]
        # one column per generator, of |W| entries; -1 marks one not yet known
        rmult = [[-1] * order for _ in range(self.rank)]
        # keys grows while it is walked: a breadth-first queue
        for idx, x in enumerate(keys):
            word = words[idx]
            for g, col in enumerate(rmult):
                if col[idx] >= 0:
                    continue
                key = apply(x, g)
                j = key_index.get(key)
                if j is None:
                    j = key_index[key] = len(keys)
                    if j == order or len(word) == longest:
                        # a faulty model must not walk past the columns, nor
                        # along words longer than w0's
                        raise AssertionError(
                            f"{self.label}: the walk left the group (more than "
                            f"{order} elements or a word longer than {longest})")
                    keys.append(key)
                    words.append(word + letters[g])
                col[idx] = j
                col[j] = idx  # generators are involutions
        if len(keys) != order:
            raise AssertionError(
                f"{self.label}: enumerated {len(keys)} elements, expected {order}")
        del keys, key_index  # the keys served the walk only
        self._rmult = rmult
        self._lengths = [len(w) for w in words]
        self._last = last = [w[-1] if w else 0 for w in words]
        # before the elements, so that no temporary left column is alive
        # beside them
        self._inv = _inverse_table(rmult, last)
        self._elements = tuple(map(Element, words, itertools.count()))
        self._walk_stored = order

    def _fill_dihedral(self, m: int | None):
        # each entry from the closed forms of the index (module docstring),
        # into lists here for I2(m) and on first use for I2(inf)
        if m is None:
            top, table = None, _Memo
        else:
            top = 2 * m - 1  # the index of w0

            def table(fn):
                return list(map(fn, range(2 * m)))
        self._lengths = lengths = table(lambda i: (i + 1) // 2)
        self._last = last = table(_alt_last)
        # the reversed word alternates from the last letter, with equal
        # length; w0 is its own inverse
        self._inv = table(
            lambda i: i if i == top else _alt_index(last[i], lengths[i]))
        self._rmult = [table(lambda i, g=g: _alt_right(i, g, top)) for g in (0, 1)]
        elements = table(lambda i: Element(_alt_word(i), i))
        self._elements = elements if m is None else tuple(elements)
        self._walk_stored = _alt_index(2, MAX_INFINITE_LEN) + 1 if m is None else 2 * m

    def _check_generator(self, gen: int):
        if not 1 <= gen <= self.rank:
            raise ValueError(f"generator index {gen} out of range 1..{self.rank}")

    # -- basic queries -------------------------------------------------------

    @property
    def identity(self) -> Element:
        return self._elements[0]

    @property
    def generators(self) -> tuple[Element, ...]:
        return tuple(self.normal_form((i,)) for i in range(1, self.rank + 1))

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self.label} is infinite")
        return len(self._elements)

    @property
    def elements(self) -> tuple[Element, ...]:
        """All elements, by length then lexicographic canonical word."""
        if not self.is_finite:
            raise ValueError(
                f"{self.label} is infinite; use elements_up_to(max_len)"
            )
        return self._elements

    def elements_up_to(self, max_len: int) -> list[Element]:
        """Elements of length <= max_len, same ordering as ``elements``: an
        index prefix, as index order is length order (I2(inf) has two
        elements of every length >= 1, so it takes max_len <=
        MAX_INFINITE_LEN)."""
        if self.is_finite:
            end = bisect.bisect_right(self._lengths, max_len)
        elif max_len > MAX_INFINITE_LEN:
            raise ValueError(
                f"{self.label} lists elements up to length {MAX_INFINITE_LEN}, "
                f"got {max_len}")
        else:
            end = max(2 * max_len + 1, 0)
        return [self._elements[i] for i in range(end)]

    def _owns(self, a: Element) -> bool:
        """a is the object stored at its index; I2(inf) reads without filling."""
        elements, i = self._elements, a.index
        if self.is_finite:
            return 0 <= i < len(elements) and elements[i] is a
        return elements.get(i) is a

    def _check_member(self, a: Element):
        if not self._owns(a):
            raise ValueError("element does not belong to this system")

    # -- arithmetic ----------------------------------------------------------

    def normal_form(self, word: Iterable[int]) -> Element:
        """Canonical element for a product of generators (empty word = 1)."""
        word = tuple(word)
        for g in word:
            self._check_generator(g)
        return self._walk(0, word)

    def _walk(self, i: int, word: tuple[int, ...]) -> Element:
        # the element of index i times the word, one column lookup per letter:
        # no prefix element is built; past _walk_stored (only I2(inf) gets
        # there: a finite system stores every index) a step is computed from
        # the closed form and not stored
        rmult, stored = self._rmult, self._walk_stored
        for g in word:
            i = rmult[g - 1][i] if i < stored else _alt_right(i, g - 1)
        return self._elements[i]

    def multiply(self, a: Element, b: Element) -> Element:
        self._check_member(a)
        self._check_member(b)
        return self._walk(a.index, b.word)

    def inverse(self, a: Element) -> Element:
        self._check_member(a)
        return self._elements[self._inv[a.index]]

    def right_mult(self, a: Element, gen: int) -> Element:
        """a * s_gen."""
        self._check_member(a)
        self._check_generator(gen)
        return self._elements[self._rmult[gen - 1][a.index]]

    def left_mult(self, a: Element, gen: int) -> Element:
        """s_gen * a, read as (a^-1 s_gen)^-1."""
        self._check_member(a)
        self._check_generator(gen)
        inv = self._inv
        return self._elements[inv[self._rmult[gen - 1][inv[a.index]]]]

    def longest_element(self) -> Element:
        if not self.is_finite:
            raise ValueError(f"{self.label} has no longest element (infinite)")
        w0 = self._elements[-1]
        if len(self._elements) > 1 and self._elements[-2].length == w0.length:
            raise AssertionError("longest element is not unique; enumeration is broken")
        return w0

    # -- order-theoretic and structural queries ------------------------------

    def bruhat_leq(self, a: Element, b: Element) -> bool:
        """Bruhat order via the lifting property of left descents."""
        self._check_member(a)
        self._check_member(b)
        while True:
            if a.length > b.length:
                return False
            if not a.length or a == b:
                return True
            g = b._word[0]  # a left descent of b
            b = self.left_mult(b, g)
            sa = self.left_mult(a, g)
            if sa.length < a.length:
                a = sa

    def conjugacy_class(self, a: Element) -> ConjugacyClass:
        """Closure of {a} under conjugation by generators (finite backends)."""
        if not self.is_finite:
            raise ValueError(f"{self.label} is infinite")
        self._check_member(a)
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            for g in range(1, self.rank + 1):
                y = self.left_mult(self.right_mult(x, g), g)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        ordered = tuple(sorted(seen, key=lambda e: e.index))
        return ConjugacyClass(ordered, ordered[0].length)

    def coxeter_elements(self) -> tuple[Element, ...]:
        """Products of all generators, each used once, over all orderings."""
        if not self.is_finite:
            raise ValueError(f"{self.label} is infinite")
        found = {
            self.normal_form(p)
            for p in itertools.permutations(range(1, self.rank + 1))
        }
        return tuple(sorted(found, key=lambda e: e.index))

    def is_full_support(self, a: Element) -> bool:
        """True iff every generator appears in the (any) reduced word of a."""
        self._check_member(a)
        return set(a.word) == set(range(1, self.rank + 1))

    # -- root-system extras (crystallographic backends only) -----------------

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        if not isinstance(self._model, _RootModel):
            raise ValueError("positive roots only defined for root-system backends")
        return self._model.positive_roots

    def root_inversions(self, a: Element) -> int:
        """Number of positive roots sent negative: an independent length.

        Reads neither the enumeration's keys nor its tables: a's matrix on
        simple-root coordinates (the images of the simple roots, as columns)
        is folded from the identity along a's word.
        """
        self._check_member(a)
        roots = self.positive_roots()
        cartan = self._model.cartan
        n = self.rank
        cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        for g in a.word:
            # right multiplication by s_i acts by column operations:
            # col_j -> col_j - C[i][j] * col_i (j != i), col_i -> -col_i
            i = g - 1
            pivot = cols[i]
            for j, c in enumerate(cartan[i]):
                if j != i and c:
                    cols[j] = [x - c * y for x, y in zip(cols[j], pivot)]
            cols[i] = [-b for b in pivot]
        count = 0
        for r in roots:
            img = [0] * n
            for j, c in enumerate(r):
                if c:
                    col = cols[j]
                    for i in range(n):
                        img[i] += c * col[i]
            if any(c < 0 for c in img):
                count += 1
        return count

    def __repr__(self):
        size = f"{len(self._elements)} elements" if self.is_finite else "infinite"
        return f"CoxeterSystem({self.label}, {size})"


# ---------------------------------------------------------------------------
# parsing


# finite systems are built eagerly, each element with its canonical word;
# groups with more elements, or with more letters over all their words, are
# refused up front
MAX_FINITE_ORDER = 50_000
MAX_WORD_LETTERS = 1_000_000

# A<n>, B<n>, C<n>, D<n>, G2 and F4 as family and n; I2(<m>) as m (or inf)
# in the third group
_SPEC_RE = re.compile(r"([ABCD]|G(?=2$)|F(?=4$))(\d+)|I2\((inf|\d+)\)")


@lru_cache(maxsize=None)
def build_system(spec: str) -> CoxeterSystem:
    """Build a Coxeter system from a type string.

    Recognized: ``A<n>`` (n >= 1), ``B<n>``/``C<n>`` (n >= 1), ``D<n>``
    (n >= 2), ``G2``, ``F4``, ``I2(<m>)`` (m >= 2), ``I2(inf)``.  A finite
    system is built eagerly once its order and the letter count of its
    canonical words, both from its degrees, pass the guards, and a root
    system's walk must find exactly that order.  Results are
    cached, so equal type strings share one system object.
    """
    spec = spec.strip()
    if spec in ("H3", "H4"):
        raise ValueError(
            f"unsupported type {spec}: needs irrational root coordinates"
        )
    m = _SPEC_RE.fullmatch(spec)
    if not m:
        raise ValueError(f"malformed type spec {spec!r}")
    family, arg = m.group(1) or "I", m.group(2) or m.group(3)
    if arg == "inf":
        return CoxeterSystem("I2(inf)")
    n = int(arg)
    if family == "I" and n < 2:
        raise ValueError(f"malformed type spec {spec!r}: need m >= 2")
    if n < 1 or (family == "D" and n < 2):
        raise ValueError(f"malformed type spec {spec!r}: rank too small")
    # the order first: the Cartan matrix alone has n^2 entries
    order = _check_order(spec, _DEGREES[family](n))
    if family == "I":
        return CoxeterSystem(spec, m=n)
    return CoxeterSystem(spec, _RootModel(_cartan(family, n), order))


def _check_order(spec: str, degrees: Iterable[int]) -> int:
    """|W|, the product of the degrees, once it and the letters of all
    canonical words pass the guards.  The product is abandoned as soon as it
    passes MAX_FINITE_ORDER, so a huge rank is refused after a few steps; the
    count is exact when the last degree was reached."""
    order, longest = 1, 0
    degrees = iter(degrees)
    for d in degrees:
        order *= d
        longest += d - 1
        if order > MAX_FINITE_ORDER:
            count = f"more than {MAX_FINITE_ORDER}" if next(degrees, None) else order
            raise ValueError(
                f"{spec} has {count} elements; eager enumeration targets "
                f"desk-scale groups (at most {MAX_FINITE_ORDER} elements)"
            )
    # w -> w w0 pairs length l with l(w0) - l, so the canonical words hold
    # |W| l(w0) / 2 letters in all (I2(m): m^2)
    letters = order * longest // 2
    if letters > MAX_WORD_LETTERS:
        raise ValueError(
            f"{spec} has {order} elements whose canonical words hold {letters} "
            f"letters; eager enumeration targets desk-scale groups (at most "
            f"{MAX_WORD_LETTERS} letters)"
        )
    return order
