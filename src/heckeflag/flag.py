"""Model of the complete flag variety over a prime field.

A flag 0 < V_1 < ... < V_{n-1} < F_q^n is stored as an invertible n x n
matrix over F_q in a canonical coset-representative form: V_i is the span of
the first i columns, each column's lowest nonzero entry (largest row index)
is 1, and that pivot row is zero in all later columns.  Two matrices encode
the same flag exactly when their canonical forms coincide, so flag equality
is a matrix comparison.

The relative position of two flags is the permutation read off the incidence
profile r_ij = d_ij - d_{i-1,j} - d_{i,j-1} + d_{i-1,j-1} where
d_ij = dim(V_i meet V'_j).  Concretely, for canonical matrices it is the
pivot-row permutation of the column reduction of inverse(F) * F', which is
the same data; the test suite checks the two computations against each other.
Only the pivot rows are needed, so the reduction never normalises a column,
and inverse(F) * F' is solved against the pivots of F column by column, with
no inverse stored per flag.

Relative position takes values in the symmetric group S_n, identified with
the Coxeter system A_{n-1} by sending generator i to the transposition
(i, i+1).  This pins an orientation (a position versus its inverse); the
orientation used here is validated by the count identities in the test suite
before any larger run.

The flags are enumerated Bruhat cell by Bruhat cell: cell(z), the flags F
with pos(standard, F) = z, are the q^l(z) canonical matrices whose pivot rows
spell z, and the space records the index range of each cell.  The counts scan
one cell, not every flag, after moving their base flag to the standard flag
by an exact group identity.  With g the matrix of base,
{F : pos(base, F) = z} = g.cell(z) and pos(base2, g.F) = pos(g^-1.base2, F).
A torus-fixed base is P_v.standard for a permutation matrix P_v, and
conjugating P_v.F by diag(s) is P_v times F conjugated by the permuted
diagonal s'_j = s_{v(j)}.  Every count is a histogram of relative positions
over one scan, exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Sequence

from .coxeter import CoxeterSystem, Element, build_system

__all__ = [
    "FLAG_SPACE_MAX_FLAGS", "Flag", "FlagSpace", "build_space", "canonical_cols", "check_space",
]

Matrix = tuple[tuple[int, ...], ...]  # tuple of columns, each a tuple of rows

# GL4(F7) has 182 400 flags; GL5(F7) has 510 902 400 and is refused
FLAG_SPACE_MAX_FLAGS = 200_000


@dataclass(frozen=True)
class Flag:
    """A complete flag, as the canonical column matrix described above."""

    cols: Matrix

    def __repr__(self):
        rows = len(self.cols[0])
        body = ";".join(
            " ".join(str(self.cols[j][i]) for j in range(len(self.cols)))
            for i in range(rows)
        )
        return f"Flag[{body}]"


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_space(n: int, q: int) -> int:
    """The flag count of F_q^n, the q-factorial prod_{k<n} (1 + q + ... + q^k).

    Raises ValueError, enumerating nothing, unless 2 <= n <= q - 1, the count
    is at most FLAG_SPACE_MAX_FLAGS and q is prime.  The product is abandoned
    as soon as it passes the bound, so a huge n or q is refused after a few
    multiplications, and primality is tested only on a q under the bound.
    """
    if not 2 <= n <= q - 1:
        raise ValueError(
            f"need 2 <= n <= q - 1 (got n = {n}, q = {q}): "
            "no split regular semisimple element over F_q otherwise"
        )
    count = 1
    for k in range(1, n):
        count *= (q ** (k + 1) - 1) // (q - 1)
        if count > FLAG_SPACE_MAX_FLAGS:
            more = "" if k == n - 1 else "more than "
            raise ValueError(
                f"flag space of F_{q}^{n} refused: {more}{count} flags exceed "
                f"the bound {FLAG_SPACE_MAX_FLAGS}"
            )
    if not _is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    return count


def canonical_cols(cols: Sequence[Sequence[int]], q: int) -> Matrix:
    """Column-reduce modulo upper-triangular change of basis.

    Processes columns left to right: clears the pivot rows of earlier columns,
    then scales the lowest remaining nonzero entry to 1.  Raises if the matrix
    is singular.
    """
    n = len(cols)
    work = [[c % q for c in col] for col in cols]
    pivots: list[int] = []
    for j in range(n):
        col = work[j]
        for jp in range(j):
            factor = col[pivots[jp]]
            if factor:
                prev = work[jp]
                for i in range(n):
                    if prev[i]:
                        col[i] = (col[i] - factor * prev[i]) % q
        pivot = _pivot(col)
        inv = pow(col[pivot], q - 2, q)
        if inv != 1:
            for i in range(n):
                if col[i]:
                    col[i] = col[i] * inv % q
        pivots.append(pivot)
    return tuple(tuple(col) for col in work)


def _pivot(col: Sequence[int]) -> int:
    """Row index of the lowest nonzero entry; raises on a zero column."""
    for i in range(len(col) - 1, -1, -1):
        if col[i]:
            return i
    raise ValueError("matrix is singular over F_q")


class FlagSpace:
    """All complete flags in F_q^n, with relative-position machinery.

    The Weyl group is the Coxeter system A_{n-1}; permutations are one-line
    tuples p with p[j-1] = image of j.  Immutable after construction; counts
    are pure scans.
    """

    def __init__(self, n: int, q: int):
        expected = check_space(n, q)
        self.n = n
        self.q = q
        self.weyl: CoxeterSystem = build_system(f"A{n - 1}")

        self._perm_of: dict[Element, tuple[int, ...]] = {}
        self._elt_of: dict[tuple[int, ...], Element] = {}
        for w in self.weyl.elements:
            perm = list(range(1, n + 1))
            for g in w.word:
                perm[g - 1], perm[g] = perm[g], perm[g - 1]
            self._perm_of[w] = tuple(perm)
            self._elt_of[tuple(perm)] = w

        self.flags: list[Flag] = []
        # cell(z) = {F : pos(standard, F) = z} is flags[self._cells[z]]
        self._cells: dict[Element, range] = {}
        # the pivot row of each column, one tuple shared by a cell; the keys
        # are the members of the space
        self._pivots: dict[Matrix, tuple[int, ...]] = {}
        for w, pivots, cell in self._enumerate_flags():
            self._cells[w] = range(len(self.flags), len(self.flags) + len(cell))
            self.flags += cell
            for f in cell:
                self._pivots[f.cols] = pivots
        if len(self.flags) != expected:
            raise AssertionError("flag enumeration does not match the q-factorial")
        if len(self._pivots) != len(self.flags):
            raise AssertionError("flag enumeration has duplicates")

    def _enumerate_flags(self):
        """Yield (z, pivot rows, the flags of cell(z)) in weyl.elements order."""
        n, q = self.n, self.q
        for w in self.weyl.elements:
            perm = self._perm_of[w]
            pivots = tuple(p - 1 for p in perm)  # pivot row of each column, 0-based
            free: list[list[int]] = []
            for j in range(n):
                taken = set(pivots[:j])
                free.append([i for i in range(pivots[j]) if i not in taken])
            slots = [(j, i) for j in range(n) for i in free[j]]
            cell = []
            for values in iter_product(range(q), repeat=len(slots)):
                cols = [[0] * n for _ in range(n)]
                for j in range(n):
                    cols[j][pivots[j]] = 1
                for (j, i), v in zip(slots, values):
                    cols[j][i] = v
                cell.append(Flag(tuple(tuple(c) for c in cols)))
            yield w, pivots, cell

    # -- basic maps ----------------------------------------------------------

    def permutation_of(self, w: Element) -> tuple[int, ...]:
        return self._perm_of[w]

    def element_of_permutation(self, perm: Sequence[int]) -> Element:
        return self._elt_of[tuple(perm)]

    @property
    def standard_flag(self) -> Flag:
        return self.coordinate_flag(self.weyl.identity)

    def coordinate_flag(self, w: Element) -> Flag:
        """The flag spanned by the permuted standard basis for w."""
        perm = self._perm_of[w]
        n = self.n
        cols = tuple(
            tuple(1 if i == perm[j] - 1 else 0 for i in range(n)) for j in range(n)
        )
        return Flag(cols)

    def flag_of_matrix(self, cols: Sequence[Sequence[int]]) -> Flag:
        """Canonicalize an arbitrary invertible matrix into a Flag."""
        return Flag(canonical_cols(cols, self.q))

    def default_torus(self) -> tuple[int, ...]:
        """diag(1, 2, ..., n): distinct nonzero residues since q > n."""
        return tuple(range(1, self.n + 1))

    def _check_torus(self, s: Sequence[int]):
        if len(s) != self.n:
            raise ValueError("diagonal length must equal n")
        residues = [x % self.q for x in s]
        if 0 in residues or len(set(residues)) != self.n:
            raise ValueError(
                "not regular semisimple: diagonal entries must be distinct "
                "and nonzero mod q"
            )

    def torus_fixed_flags(self, s: Sequence[int]) -> list[Flag]:
        """The flags stable under conjugation by diag(s): coordinate flags."""
        self._check_torus(s)
        return [self.coordinate_flag(w) for w in self.weyl.elements]

    def conjugate_flag(self, s: Sequence[int], f: Flag) -> Flag:
        """The flag of s B s^{-1} for B the stabilizer of f: the flag s.f.

        Scaling rows keeps every zero of a canonical matrix, so s.f is
        canonical once each column is divided by its pivot entry, which is
        s at the pivot row.
        """
        self._check_torus(s)
        q = self.q
        cols = []
        for p, col in zip(self._pivots_of(f), f.cols):
            scale = pow(s[p], q - 2, q)
            cols.append(tuple([x * si * scale % q for x, si in zip(col, s)]))
        return Flag(tuple(cols))

    # -- relative position -----------------------------------------------------

    def _pivots_of(self, f: Flag) -> tuple[int, ...]:
        try:
            return self._pivots[f.cols]
        except KeyError:
            raise ValueError("flag does not belong to this space") from None

    def _coordinates(self, f: Flag, cols: Sequence[Sequence[int]]) -> list[list[int]]:
        """The columns of inverse(f) * cols, reduced mod q.

        Column k of f is 1 at its pivot row and 0 at the pivot rows of the
        columns before it, so the k-th coordinate of c is its entry at that
        pivot row once the earlier columns' parts are subtracted.
        """
        q = self.q
        basis = list(zip(self._pivots_of(f), f.cols))
        out = []
        for c in cols:
            x = []
            for p, col in basis:
                xk = c[p] % q
                if xk:
                    c = [a - xk * b for a, b in zip(c, col)]
                x.append(xk)
            out.append(x)
        return out

    def relative_position(self, f1: Flag, f2: Flag) -> Element:
        """The permutation w with incidence profile r_ij = [i = w(j)]."""
        self._pivots_of(f2)  # membership: the reduction below trusts f2 to be invertible
        q, n = self.q, self.n
        done: list[tuple[int, list[int]]] = []  # (pivot row, reduced column)
        # the last pivot is the row the other columns leave, so the last
        # column is neither solved for nor reduced
        for col in self._coordinates(f1, f2.cols[:-1]):
            for p, prev in done:
                f = col[p]
                if f:
                    g = prev[p]
                    col = [(g * x - f * y) % q for x, y in zip(col, prev)]
            done.append((_pivot(col), col))
        perm = [p + 1 for p, _ in done]
        perm.append(n * (n + 1) // 2 - sum(perm))
        return self._elt_of[tuple(perm)]

    # -- counts ----------------------------------------------------------------

    def _histogram(self, pairs) -> dict[Element, int]:
        """{w: how many of the flag pairs (f1, f2) have pos(f1, f2) = w}."""
        counts: dict[Element, int] = {}
        for f1, f2 in pairs:
            w = self.relative_position(f1, f2)
            counts[w] = counts.get(w, 0) + 1
        return counts

    def _cell(self, z: Element) -> list[Flag]:
        try:
            cell = self._cells[z]
        except KeyError:
            raise ValueError(f"{z!r} is not in the Weyl group of this space") from None
        return self.flags[cell.start:cell.stop]

    def histogram_Y_cell(self, s: Sequence[int], base: Flag, z: Element) -> dict[Element, int]:
        """{w: #{F : pos(base, F) = z and pos(F, s.F) = w}}, base torus-fixed."""
        if self.conjugate_flag(s, base) != base:
            raise ValueError("base flag is not torus-fixed")
        # base = P_v.standard, and s P_v = P_v s' with s'_j = s at the pivot of column j
        permuted = tuple(s[p] for p in self._pivots_of(base))
        return self._histogram(
            (f, self.conjugate_flag(permuted, f)) for f in self._cell(z)
        )

    def histogram_Z(self, base: Flag, base2: Flag) -> dict[Element, int]:
        """{w: #{F : pos(base, F) = pos(base, base2) and pos(base2, F) = w}}."""
        z = self.relative_position(base, base2)
        # g^-1.base2 for g the matrix of base
        translated = self.flag_of_matrix(self._coordinates(base, base2.cols))
        return self._histogram((translated, f) for f in self._cell(z))

    def histogram_Y_total(self, s: Sequence[int]) -> dict[Element, int]:
        """{w: #{F : pos(F, s.F) = w}}."""
        self._check_torus(s)
        return self._histogram((f, self.conjugate_flag(s, f)) for f in self.flags)

    def count_Y_cell(self, s: Sequence[int], base: Flag, z: Element, w: Element) -> int:
        """#{F : pos(base, F) = z and pos(F, s.F) = w}, base torus-fixed."""
        return self.histogram_Y_cell(s, base, z).get(w, 0)

    def count_Z(self, base: Flag, base2: Flag, w: Element) -> int:
        """#{F : pos(base, F) = pos(base, base2) and pos(base2, F) = w}."""
        return self.histogram_Z(base, base2).get(w, 0)

    def count_Y_total(self, s: Sequence[int], w: Element) -> int:
        """#{F : pos(F, s.F) = w}."""
        return self.histogram_Y_total(s).get(w, 0)

    def __repr__(self):
        return f"FlagSpace(n={self.n}, q={self.q}, {len(self.flags)} flags)"


def build_space(n: int, q: int) -> FlagSpace:
    """Enumerate the complete flags of F_q^n (q prime, 2 <= n <= q - 1).

    Raises ValueError from check_space before any enumeration, in particular
    when the q-factorial flag count exceeds FLAG_SPACE_MAX_FLAGS.
    """
    return FlagSpace(n, q)
