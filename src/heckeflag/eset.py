"""Diagonal-support sets of Hecke structure constants and their invariants.

For an element w, the set reported here collects every z whose diagonal
structure constant N(w, z, z) — the coefficient of T_z in T_w T_z — is
nonzero, together with the maximal degree d over the set and the subset of
degree maximizers.  For infinite systems the scan is truncated at a length
bound that is always carried in the report, so a truncated result can never
masquerade as a complete one: membership of each tested z is exact, absence
beyond the bound is not certified.

Membership is decided by computing the product T_w * T_z for every candidate
z, each as (T_w T_z') T_s from the product of its prefix z' (one generator
step per z, see ``HeckeAlgebra.diagonal_row``); no shortcut identities are
used.  Infinite systems accept 0 <= max_len <= ``hecke.ROW_MAX_LEN``, and
finite ones l(w0) up to the same bound.

    >>> from heckeflag import HeckeAlgebra, build_system
    >>> system = build_system("I2(4)")
    >>> report = e_set(HeckeAlgebra(system), system.normal_form([1, 2]))
    >>> [(z.word, str(n), deg) for z, n, deg in report.members], report.d
    ([((1, 2, 1, 2), 'q^2 - 2q + 1', 2)], 2)
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import Element
from .hecke import HeckeAlgebra
from .poly import IntPoly

__all__ = ["ESetReport", "e_set"]


@dataclass
class ESetReport:
    """Result of a diagonal-support scan for a fixed w.

    members lists (z, N(w, z, z), degree) for exactly the z with nonzero
    diagonal constant, sorted by (length, word); d is the maximal degree over
    members (None when empty); e_prime lists the degree maximizers; truncation
    is the length bound used, present iff the system is infinite.
    """

    w: Element
    members: list[tuple[Element, IntPoly, int]]
    d: int | None
    e_prime: list[Element]
    truncation: int | None

    def member_elements(self) -> list[Element]:
        return [z for z, _, _ in self.members]

    def to_json(self) -> dict:
        return {
            "w": self.w.to_json(),
            "truncation": self.truncation,
            "members": [
                {"z": z.to_json(), "N": list(p), "deg": deg}
                for z, p, deg in self.members
            ],
            "d": self.d,
            "e_prime": [z.to_json() for z in self.e_prime],
        }


def e_set(algebra: HeckeAlgebra, w: Element, max_len: int | None = None) -> ESetReport:
    """Scan for all z with N(w, z, z) != 0.

    Finite systems scan the whole group and the result is complete; infinite
    systems scan elements of length <= max_len and record the bound in the
    report.  Passing max_len for a finite system is an error: the finite scan
    is always complete and a bound would silently change the semantics.
    """
    members = [(z, n, n.degree) for z, n in algebra.diagonal_row(w, max_len) if n]
    d = max((deg for _, _, deg in members), default=None)
    e_prime = [z for z, _, deg in members if deg == d] if members else []
    truncation = None if algebra.system.is_finite else max_len
    return ESetReport(w=w, members=members, d=d, e_prime=e_prime, truncation=truncation)
