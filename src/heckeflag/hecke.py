"""The Iwahori-Hecke algebra of a Coxeter system over Z[q].

Elements are finite formal sums of standard basis terms T_w with IntPoly
coefficients.  The defining relations are

    T_x T_s = T_{xs}                       if the length goes up,
    T_x T_s = q T_{xs} + (q - 1) T_x       if the length goes down,

for a generator s, and symmetrically on the left.  Products of general
elements expand basis terms along reduced words; the structure constants of
the T-basis and the trace of left multiplication are read off from such
products.

Everything is exact integer polynomial arithmetic; values are immutable and
all operations are pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem, Element
from .poly import ONE, ZERO, IntPoly

__all__ = ["HeckeAlgebra", "HeckeElt"]


class HeckeElt:
    """A finite formal sum of T-basis terms with IntPoly coefficients.

    ``terms`` maps Element -> IntPoly with no stored zero coefficient.
    Instances are immutable by convention; use the arithmetic operators.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "HeckeAlgebra", terms: dict[Element, IntPoly]):
        system = algebra.system
        for w in terms:
            if w.system is not system:
                raise ValueError("term keys must belong to the algebra's system")
        self.algebra = algebra
        self.terms = {w: p for w, p in terms.items() if p}

    def coefficient(self, w: Element) -> IntPoly:
        return self.terms.get(w, ZERO)

    def support(self) -> list[Element]:
        """Basis elements with nonzero coefficient, by length then word."""
        return sorted(self.terms, key=lambda e: (len(e.word), e.word))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElt)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        if not isinstance(other, HeckeElt):
            return NotImplemented
        self.algebra._check_same(other)
        out = dict(self.terms)
        for w, p in other.terms.items():
            acc = out.get(w)
            out[w] = p if acc is None else acc + p
        return HeckeElt(self.algebra, out)

    def __neg__(self):
        return HeckeElt(self.algebra, {w: -p for w, p in self.terms.items()})

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return self.algebra.product(self, other)
        if isinstance(other, (int, IntPoly)):
            c = IntPoly((other,)) if isinstance(other, int) else other
            return HeckeElt(self.algebra, {w: p * c for w, p in self.terms.items()})
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

    def _check_same(self, other):
        algebra = other.algebra if isinstance(other, HeckeElt) else other
        if algebra is not self and algebra.system is not self.system:
            raise ValueError("operands belong to different Hecke algebras")

    def t_basis(self, w: Element) -> HeckeElt:
        """The basis element 1*T_w."""
        self.system._check_member(w)
        return HeckeElt(self, {w: ONE})

    def one(self) -> HeckeElt:
        return self.t_basis(self.system.identity)

    def zero(self) -> HeckeElt:
        return HeckeElt(self, {})

    # -- single-generator steps ----------------------------------------------

    def mul_right_simple(self, h: HeckeElt, gen: int) -> HeckeElt:
        """h * T_s for a single generator s."""
        self._check_same(h)
        self.system._check_generator(gen)
        return HeckeElt(self, _step(h.terms, gen, self.system.right_mult))

    def mul_left_simple(self, h: HeckeElt, gen: int) -> HeckeElt:
        """T_s * h for a single generator s."""
        self._check_same(h)
        self.system._check_generator(gen)
        return HeckeElt(self, _step(h.terms, gen, self.system.left_mult))

    # -- products --------------------------------------------------------------

    def product(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """The algebra product, expanding basis terms along reduced words.

        The factor whose support carries less total word length is the one
        expanded (the right factor on ties): expanding T_z on the right walks
        z's reduced word with right steps, expanding T_y on the left walks
        y's reduced word with left steps.  Both directions evaluate the same
        bilinear product; choosing the cheaper one keeps basis-times-general
        products linear in the word length instead of linear in the support.
        """
        self._check_same(a)
        self._check_same(b)
        cost_left = sum(len(y.word) for y in a.terms)
        cost_right = sum(len(z.word) for z in b.terms)
        right = cost_right <= cost_left
        kept, expanded = (a, b) if right else (b, a)
        mult = self.system.right_mult if right else self.system.left_mult
        total: dict[Element, IntPoly] = {}
        for x, c in expanded.terms.items():
            cur = kept.terms
            for gen in x.word if right else reversed(x.word):
                cur = _step(cur, gen, mult)
            _accumulate_scaled(total, cur, c)
        return HeckeElt(self, total)

    def structure_constant(self, w: Element, wp: Element, wpp: Element) -> IntPoly:
        """Coefficient of T_wpp in T_w * T_wp (zero polynomial if absent)."""
        return self.product(self.t_basis(w), self.t_basis(wp)).coefficient(wpp)

    def regular_trace(self, w: Element) -> IntPoly:
        """Trace of left multiplication by T_w on the T-basis.

        Sums the diagonal structure constants over the whole group, one
        independent product per basis element; finite systems only.  Cost
        grows with |W|^2 * l(w0), fine at desk scale.
        """
        if not self.system.is_finite:
            raise ValueError("regular trace needs a finite basis")
        self.system._check_member(w)
        tw = self.t_basis(w)
        acc = ZERO
        for z in self.system.elements:
            acc = acc + self.product(tw, self.t_basis(z)).coefficient(z)
        return acc


def _step(terms: dict[Element, IntPoly], gen: int, mult) -> dict:
    """One generator applied to every term: terms * T_s when mult is the
    system's right_mult, T_s * terms when it is left_mult."""
    out: dict[Element, IntPoly] = {}
    for x, p in terms.items():
        xs = mult(x, gen)
        if len(xs.word) > len(x.word):
            acc = out.get(xs)
            out[xs] = p if acc is None else acc + p
        else:
            qp = p.shifted(1)
            acc = out.get(xs)
            out[xs] = qp if acc is None else acc + qp
            acc = out.get(x)
            dp = qp - p
            out[x] = dp if acc is None else acc + dp
    return out


def _accumulate_scaled(total: dict, part: dict, c: IntPoly):
    if c == ONE:
        for w, p in part.items():
            acc = total.get(w)
            total[w] = p if acc is None else acc + p
    else:
        for w, p in part.items():
            cp = p * c
            acc = total.get(w)
            total[w] = cp if acc is None else acc + cp
