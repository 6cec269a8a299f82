"""The Iwahori-Hecke algebra of a Coxeter system over Z[q].

Elements are finite formal sums of standard basis terms T_w with IntPoly
coefficients.  The defining relations are

    T_x T_s = T_{xs}                       if the length goes up,
    T_x T_s = q T_{xs} + (q - 1) T_x       if the length goes down,

for a generator s, and symmetrically on the left.  A product keeps its left
factor and expands the basis terms of its right one along their reduced
words, by right steps; the structure constants of the T-basis and the trace
of left multiplication are read off from such products.

Every element holds each coefficient p(q) as one packed Python int, p(2^B)
(Kronecker substitution): adding coefficients is adding ints, multiplying by
q is ``<< B`` and multiplying two coefficients is multiplying ints, all
exact.  Digits are balanced, so p decodes uniquely while every coefficient
has |c| < 2^(B-1).  An element carries a bound on its l1 norm (the sum of |c|
over all terms), which B holds, and one on its longest word.  One built from
terms carries their exact measures, a sum the sum of the norms, a multiple
by a scalar c the norm times |c|_1, and a product a proven bound: a
length-raising step moves a term, a length-lowering step turns p into q p
and (q - 1) p, so a step at most triples the l1 norm, and every coefficient
of a * b is at most |a|_1 |b|_1 3^L, L the longest word of b.  So an
operation sizes its result without reading terms, and uses an operand's
packed dict as it is when its width covers the new bound (a basis element is
1 at width 2).
Terms are keyed by the element's index, and a step by s reads one entry of
the system's multiplication column of s per term, for finite systems and
I2(inf) alike.  It reads no length: index order is length order, so of x
and xs the longer one is the one with the larger index.

Results decode lazily: ``coefficient(w)`` decodes one entry, ``terms``
(Element -> IntPoly) is built the first time it is read unless the element
was built from terms, and ``values_at`` reads every nonzero value at q = 1 or
q = -1 without decoding.  One walk of the prefix tree of canonical words,
``_row_walk``, forms T_w T_z for all z, each as (T_w T_z') T_s with z' the
prefix of z's canonical word: one generator step per z.  On a finite system
T_w starts at the width of |W| 3^l(w0), which bounds sum |p_z|_1 over a whole
row and so every coefficient of a row's sum.  ``row_products`` steps by
products by a unit T_s, one generator step each as the row's width holds their
bounds; ``diagonal_row`` (under ``e_set``) decodes one coefficient of each,
and the verify suites read their checks from the same rows.  ``regular_trace``
steps the packed dicts themselves and decodes one polynomial per trace: it
adds the packed diagonal entries p_z(2^B) as ints, which is (sum p_z)(2^B).

    >>> from heckeflag import build_system
    >>> H = HeckeAlgebra(build_system("A1"))
    >>> s = H.t_basis(H.system.normal_form([1]))
    >>> s * s                                    # the quadratic relation
    (q)*T[] + (q - 1)*T[1]
    >>> big = 10**30 * s                         # coefficients far past 64 bits
    >>> (big * big).coefficient(H.system.identity) == IntPoly((0, 10**60))
    True

Everything is exact integer arithmetic.  Values are immutable; ``terms`` is a
read-only view, cached on first read, and two threads that race to build it
build equal views, so concurrent use needs no coordination.
"""

from __future__ import annotations

from types import MappingProxyType

from .coxeter import MAX_INFINITE_LEN, CoxeterSystem, Element
from .poly import ZERO, IntPoly

__all__ = ["HeckeAlgebra", "HeckeElt", "ROW_MAX_LEN"]

# longest z a row reaches (max_len, or l(w0) of a finite system) and longest
# l(w) + l(wp) the nconst command multiplies out, the cap of coxeter's I2(inf)
# walks: for a w at least max_len long the last products hold about 2 max_len
# terms of degree up to max_len in digits about 1.6 max_len bits wide, so work
# grows like max_len^3 (at 500 about 0.6 s and 45 MB on a 2-vCPU x86 host, and
# the trace of w0 in I2(500) 8 s and 124 MB)
ROW_MAX_LEN = MAX_INFINITE_LEN


class HeckeElt:
    """A finite formal sum of T-basis terms with IntPoly coefficients, held
    packed with the bounds it carries (module docstring).

    One built from a dict of terms packs them once, at the width of their
    exact l1 norm, and keeps its nonzero input terms as ``terms``; any other
    builds ``terms`` (Element -> IntPoly, no zero coefficient) when it is
    first read.  ``terms`` is a read-only view; use the arithmetic operators.
    """

    __slots__ = ("algebra", "_terms", "_packed", "_width", "_norm", "_longest")

    def __init__(self, algebra: "HeckeAlgebra", terms: dict[Element, IntPoly]):
        if not all(map(algebra.system._owns, terms)):
            raise ValueError("term keys must belong to the algebra's system")
        self._norm = sum(map(_l1, terms.values()))
        self.algebra = algebra
        nonzero = {w: p for w, p in terms.items() if p}
        self._terms = MappingProxyType(nonzero)
        self._width = _width(self._norm)
        self._longest = max((w.length for w in nonzero), default=0)
        base = 1 << self._width
        self._packed = {w.index: p(base) for w, p in nonzero.items()}

    @classmethod
    def _from_packed(cls, algebra: "HeckeAlgebra", packed: dict, width: int,
                     norm: int, longest: int) -> "HeckeElt":
        # packed maps term keys to coefficients p(2^width); zeros may be stored;
        # norm bounds the l1 norm, so |c| <= norm < 2^(width - 1) for every c,
        # and longest bounds the length of every key
        elt = cls.__new__(cls)
        elt.algebra = algebra
        elt._terms = None
        elt._packed = packed
        elt._width = width
        elt._norm = norm
        elt._longest = longest
        return elt

    @property
    def terms(self) -> MappingProxyType[Element, IntPoly]:
        if self._terms is None:
            elements, width = self.algebra.system._elements, self._width
            self._terms = MappingProxyType({
                elements[k]: _decode(v, width) for k, v in self._packed.items() if v
            })
        return self._terms

    def _at_width(self, width: int) -> dict:
        """The packed dict at width, at least the element's own: its own dict
        as it is when the widths are equal, else every packed int
        re-evaluated at the new width; ``terms`` stays unread."""
        if width == self._width:
            return self._packed
        return {k: _repack(v, self._width, width) for k, v in self._packed.items()}

    def coefficient(self, w: Element) -> IntPoly:
        if not self.algebra.system._owns(w):
            return ZERO
        return _decode(self._packed.get(w.index, 0), self._width)

    def values_at(self, q: int) -> dict[Element, int]:
        """Each term's nonzero coefficient value at q = 1 or q = -1; a term
        whose value is zero is left out.

        A packed coefficient v = p(2^B) is read without decoding: 2^B is 1
        mod 2^B - 1 and -1 mod 2^B + 1, so p(q) is the balanced residue of v
        mod 2^B - q, exact because |p(q)| <= the l1 bound < 2^(B-1).
        """
        if q not in (1, -1):
            raise ValueError(f"values_at reads q = 1 or q = -1, got {q}")
        modulus = (1 << self._width) - q
        half = modulus >> 1
        elements = self.algebra.system._elements
        out = {}
        for k, v in self._packed.items():
            r = v % modulus
            if r:
                out[elements[k]] = r - modulus if r > half else r
        return out

    def support(self) -> list[Element]:
        """Basis elements with nonzero coefficient, in index (ShortLex) order."""
        return sorted(self.terms, key=lambda e: e.index)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElt)
            and self.algebra.system is other.algebra.system
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        if not isinstance(other, HeckeElt):
            return NotImplemented
        algebra = self.algebra
        algebra._check_same(other)
        # the sum's l1 norm is at most the sum of the norms; both operands
        # are packed at one width that holds it
        norm = self._norm + other._norm
        width = max(self._width, other._width, _width(norm))
        out = dict(self._at_width(width))
        for k, v in other._at_width(width).items():
            out[k] = out.get(k, 0) + v
        return HeckeElt._from_packed(
            algebra, out, width, norm, max(self._longest, other._longest))

    def __neg__(self):
        return self * -1

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return self.algebra.product(self, other)
        if isinstance(other, (int, IntPoly)):
            # p(2^B) c(2^B) = (p c)(2^B) for every packed p, and the l1 norm
            # of p c is at most the product of the two norms
            c = IntPoly((other,)) if isinstance(other, int) else other
            norm = self._norm * _l1(c)
            width = max(self._width, _width(norm))
            packed = self._at_width(width)
            factor = c(1 << width)
            return HeckeElt._from_packed(
                self.algebra, {k: v * factor for k, v in packed.items()}, width, norm,
                self._longest)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, IntPoly)):
            return self.__mul__(other)
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in self.support():
            p = self.terms[w]
            name = "T[" + ",".join(map(str, w.word)) + "]"
            coeff = str(p)
            bits.append(name if coeff == "1" else f"({coeff})*{name}")
        return " + ".join(bits)


class HeckeAlgebra:
    """The Hecke algebra attached to a Coxeter system."""

    def __init__(self, system: CoxeterSystem):
        self.system = system

    def _check_same(self, h: HeckeElt):
        if h.algebra is not self and h.algebra.system is not self.system:
            raise ValueError("operands belong to different Hecke algebras")

    def t_basis(self, w: Element) -> HeckeElt:
        """The basis element 1*T_w, born packed: 1 at width 2, norm 1."""
        self.system._check_member(w)
        return HeckeElt._from_packed(self, {w.index: 1}, 2, 1, w.length)

    def one(self) -> HeckeElt:
        return self.t_basis(self.system.identity)

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    # -- products --------------------------------------------------------------

    def product(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """The algebra product a * b: each basis term T_z of b is expanded
        along z's reduced word by right steps T_s, from a, and the results
        are summed with b's coefficients.  The product's width is never
        narrower than either factor's, so a chain of products keeps one width
        and packs nothing: when a's width already holds the product's bound
        and b's width, the product takes it and steps a's packed dict as it
        is (a unit b = T_s is then one generator step).  b is read without
        decoding: a coefficient of 1 is 1 at every width, and any other is
        re-evaluated only when its width is not the product's.
        """
        if a.algebra is not self or b.algebra is not self:
            self._check_same(a)
            self._check_same(b)
        system = self.system
        cols, elements = system._rmult, system._elements
        coeffs, coeff_width = b._packed, b._width
        norm = a._norm * b._norm * 3 ** b._longest
        width = a._width
        if norm.bit_length() < width and coeff_width <= width:
            start = a._packed
        else:
            width = max(_width(norm), coeff_width, width)
            start = a._at_width(width)
        total: dict = {}
        for k, c in coeffs.items():
            if not c:
                continue
            cur = start
            for gen in elements[k]._word:  # the stored bytes, no tuple
                cur = _generator_step(cur, cols[gen - 1], width)
            if c != 1 and coeff_width != width:
                c = _repack(c, coeff_width, width)
            if c == 1 and len(coeffs) == 1:
                total = cur
            else:
                for key, v in cur.items():
                    total[key] = total.get(key, 0) + v * c
        return HeckeElt._from_packed(self, total, width, norm, a._longest + b._longest)

    def structure_constant(self, w: Element, wp: Element, wpp: Element) -> IntPoly:
        """Coefficient of T_wpp in T_w * T_wp (zero polynomial if absent)."""
        return self.product(self.t_basis(w), self.t_basis(wp)).coefficient(wpp)

    def _row_top(self, w: Element, max_len: int | None) -> tuple[int, int]:
        """(top, width) of w's row, checked before any step.  top, the longest
        z, is l(w0) on a finite system, which takes no max_len (a bound would
        silently change the meaning), and the max_len an infinite one needs;
        it lies in 0..ROW_MAX_LEN.  T_w T_z has l1 norm at most 3^l(z), so the
        width of |W| 3^l(w0), or 3^max_len on I2(inf), holds every product and
        the sum of a row."""
        system = self.system
        system._check_member(w)
        if system.is_finite:
            if max_len is not None:
                raise ValueError("max_len only applies to infinite systems")
            top, size = system.longest_element().length, len(system._elements)
        elif max_len is None:
            raise ValueError("max_len is required for infinite systems")
        else:
            top, size = max_len, 1
        if not 0 <= top <= ROW_MAX_LEN:
            raise ValueError(
                f"{system.label} rows up to length {top} refused: max_len, or l(w0) "
                f"of a finite system, must lie in 0..{ROW_MAX_LEN}")
        return top, _width(size * 3**top)

    def row_products(self, w: Element, max_len: int | None = None):
        """Iterator of (z, T_w * T_z) over the row of ``_row_top`` (a finite
        group, or the elements of length <= max_len of I2(inf)) in
        ``_row_walk`` order: T_w T_z is the product (T_w T_z') T_s at the
        row's width, and T_w T_e is product(T_w, T_e)."""
        top, width = self._row_top(w, max_len)
        units = [self.t_basis(s) for s in self.system.generators]
        tw = HeckeElt._from_packed(self, {w.index: 1}, width, 1, w.length)
        elements = self.system._elements
        for x, h in _row_walk(self.system, top, self.product(tw, self.one()),
                              lambda h, g: self.product(h, units[g])):
            yield elements[x], h

    def diagonal_row(self, w: Element, max_len: int | None = None):
        """List of (z, N(w, z, z)) over the candidates of ``row_products``, in
        element order; N(w, z, z), the coefficient of T_z in T_w * T_z, is
        the one coefficient decoded per product."""
        row = [(z, h.coefficient(z)) for z, h in self.row_products(w, max_len)]
        row.sort(key=lambda zn: zn[0].index)
        return row

    def regular_trace(self, w: Element) -> IntPoly:
        """Trace of left multiplication by T_w on the T-basis: the sum of the
        diagonal entries N(w, z, z) over the whole group; finite systems only.

        ``_row_walk`` steps plain packed dicts, T_w T_z = (T_w T_z') T_s by
        one ``_generator_step`` per z != e and no product, at the width B of
        ``_row_top``.  Each diagonal entry is read packed, v_z = p_z(2^B), so
        their int sum is (sum p_z)(2^B), and every coefficient of sum p_z is
        at most sum |p_z|_1 <= |W| 3^l(w0) < 2^(B-1): one decode gives the
        trace.
        """
        system = self.system
        if not system.is_finite:
            raise ValueError(f"a regular trace needs a finite system; {system.label} is infinite")
        top, width = self._row_top(w, None)
        cols = system._rmult
        total = 0
        for z, d in _row_walk(system, top, {w.index: 1},
                              lambda d, g: _generator_step(d, cols[g], width)):
            total += d.get(z, 0)
        return _decode(total, width)


def _row_walk(system: CoxeterSystem, top: int, root, step):
    """Iterator of (z's index, z's value) over the elements of length <= top,
    in the lexicographic order of canonical words (so each z after its
    parent).  e's value is root; every other z is its parent z' (its
    canonical word without its last letter s) times s, one length up, and its
    value is step(the parent's value, s's generator index).  The walk visits
    this prefix tree depth first, so one value per length is alive at a time."""
    lengths, last = system._lengths, system._last
    # (column, letter) of every generator, last letter first: the children of
    # x go on the stack in that order, so they come off in letter order
    children = [(col, g + 1) for g, col in enumerate(system._rmult)][::-1]
    # (z, the parent's value, z's last letter); an entry waits until its
    # parent is visited, and all waiting entries hang off the current path
    pending = []
    x, value = system.identity.index, root
    while True:
        yield x, value
        if lengths[x] < top:
            for col, letter in children:
                z = col[x]
                # z = x s is x's child iff s is z's last letter; s is then a
                # descent of z, so l(z) = l(x) + 1 needs no check
                if last[z] == letter:
                    pending.append((z, value, letter))
        if not pending:
            return
        x, parent, letter = pending.pop()
        value = step(parent, letter - 1)


def _generator_step(terms: dict, col, width: int) -> dict:
    """terms * T_s for every packed term, col being s's right multiplication
    column (col[x] = x s).

    The pairs {x, xs} with l(xs) = l(x) + 1 partition the group, and a pair
    maps to itself: p_x T_x + p_xs T_xs goes to q p_xs T_x + (p_x + (q - 1)
    p_xs) T_xs.  So each output key is written once, from the longer member
    when it is present and from the shorter one otherwise.  The index order
    is ShortLex, so it never puts a longer element first, and xs is the
    longer member exactly when xs > x: no length is read.
    """
    out = {}
    for x, p in terms.items():
        xs = col[x]
        if xs > x:
            if xs not in terms:
                out[xs] = p
        else:
            qp = p << width
            out[xs] = qp
            out[x] = qp - p + terms.get(xs, 0)
    return out


def _l1(p: IntPoly) -> int:
    """The l1 norm of p, the sum of |c| over its coefficients (an IntPoly
    holds integers only)."""
    if not isinstance(p, IntPoly):
        raise TypeError(f"coefficient {p!r} is not an IntPoly of integers")
    return sum(map(abs, p))


def _width(bound: int) -> int:
    """Digit width B holding every coefficient of absolute value <= bound."""
    return bound.bit_length() + 1


def _repack(v: int, width: int, new_width: int) -> int:
    """p(2^new_width) for the packed v = p(2^width)."""
    return _decode(v, width)(1 << new_width)


def _decode(v: int, width: int) -> IntPoly:
    """The polynomial p with p(2^width) = v, reading balanced digits."""
    if not v:
        return ZERO  # most diagonal entries are zero
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    coeffs = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        coeffs.append(d)
        v = (v - d) >> width
    return IntPoly(coeffs)
