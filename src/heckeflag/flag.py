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

A canonical column is a nonzero vector whose lowest nonzero entry is 1, one
per point of the projective space: there are (q^n - 1)/(q - 1) of them (156
on GL4(F5)), and every one is the first column of some flag.  The space
interns them, so every flag's columns are shared tuples, and gives each a
packed int with lane i holding entry i in B bits.  The solve for the
coordinates x of a column c of F' reads x_k as lane p_k of C mod q, p_k the
pivot row of column k of F, and adds (q - x_k) b_k, b_k the packed column k;
this is c - x_k b_k mod q lane by lane, with every lane kept non-negative.
Each lane starts at most q - 1 and each of the n steps adds at most
(q - 1)^2 to it, so with B = bit_length((q - 1) + n (q - 1)^2) no lane
reaches 2^B, no addition carries into the next lane, and every lane read is
exact (B = 7 on GL4(F5), 37 on GL2(F_199999)).

Relative position takes values in the symmetric group S_n, identified with
the Coxeter system A_{n-1} by sending generator i to the transposition
(i, i+1).  This pins an orientation (a position versus its inverse); the
orientation used here is validated by the count identities in the test suite
before any larger run.

The space stores no flag: ``space.flags`` has the q-factorial as its length
and builds the flags Bruhat cell by Bruhat cell when iterated.  Cell(z), the
flags F with pos(standard, F) = z, are the q^l(z) canonical matrices whose
pivot rows spell z.  Column j of such a matrix is 1 at its pivot row, 0 below
it and at the pivot rows of the columns before it, and free elsewhere, so the
cell is the product of each column's interned choices.  Each flag the space
builds carries its pivot rows; a caller's flag is checked to be canonical,
and every flag's columns are looked up among the space's.  The counts read
one cell, not every flag, after moving their base flag to the standard flag
by an exact group identity.  With g the matrix of base,
{F : pos(base, F) = z} = g.cell(z) and pos(base2, g.F) = pos(g^-1.base2, F).
A torus-fixed base is P_v.standard for a permutation matrix P_v, and
conjugating P_v.F by diag(s) is P_v times F conjugated by the permuted
diagonal s'_j = s_{v(j)}.  Conjugation maps columns one by one: scaling the
rows of a canonical column by the units s keeps every zero, so its pivot row
stays, and dividing by the pivot entry gives a vector whose lowest nonzero
entry is 1, another interned column.

A cell is not scanned flag by flag but one flag per torus orbit.  The
diagonal torus T fixes the standard flag, so it maps every cell to itself:
t.F scales entry (i, j) of F by t_i / t_{p_j}, p_j the pivot row of column j.
Relative position is invariant, pos(t.F, t.F') = pos(F, F'), and t commutes
with the diagonal s, so the cell count's pos(F, s'.F) is constant on the
T-orbits of the cell, and the fixed-pair count's pos(g^-1.base2, F) on the
orbits of the subtorus fixing g^-1.base2: the t constant on each connected
component of the graph on the rows with an edge i - p_j for every nonzero
entry (i, j) off the pivots of g^-1.base2.  ``_orbits`` walks the free
entries of the cell in order and keeps the components of those edges and of
the nonzero entries chosen so far; the torus elements fixing everything
chosen are the t constant on each component.  An entry whose two rows lie in
different components is scaled by them through every unit, so it is 0, or 1
standing for the q - 1 nonzero values (its orbit weight times q - 1); an
entry inside one component is fixed by them, so each of its q values starts
an orbit of its own.  Each entry's choices thus weigh q in all, the weights
of a cell add up to q^l(z), and the walk checks that they do.  Every count is
a histogram of relative positions weighted by orbit size, exact and
deterministic; the whole-space count iterates ``space.flags``, every flag
with weight 1.

    >>> len(build_space(3, 5).flags)
    186
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat, product as iter_product
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .coxeter import CoxeterSystem, Element, build_system

__all__ = [
    "FLAG_SPACE_MAX_FLAGS", "Flag", "FlagSpace", "build_space", "canonical_cols", "check_space",
]

Column = tuple[int, ...]  # one entry per row
Matrix = tuple[Column, ...]  # tuple of columns

# GL4(F7) has 182 400 flags; GL5(F7) has 510 902 400 and is refused
FLAG_SPACE_MAX_FLAGS = 200_000

_FOREIGN = "flag does not belong to this space"


@dataclass(frozen=True, slots=True)
class Flag:
    """A complete flag, as the canonical column matrix described above.  Flags a
    FlagSpace builds carry their pivot rows, which == ignores and Flag() cannot set."""

    cols: Matrix
    _pivots: tuple[int, ...] | None = field(default=None, init=False, compare=False)

    def __repr__(self):
        return f"Flag[{';'.join(' '.join(map(str, row)) for row in zip(*self.cols))}]"


# the slots' own setters, which the frozen guard does not see
_set_cols, _set_pivots = Flag.cols.__set__, Flag._pivots.__set__


def _flag(cols: Matrix, pivots: tuple[int, ...]) -> Flag:
    """The flag of the canonical matrix cols, carrying its pivot rows."""
    f = object.__new__(Flag)
    _set_cols(f, cols)
    _set_pivots(f, pivots)
    return f


@dataclass(frozen=True, slots=True)
class _Flags:
    """The flags of a space, built cell by cell in weyl.elements order."""

    space: FlagSpace

    def __len__(self) -> int:
        return self.space._count

    def __iter__(self) -> Iterator[Flag]:
        return chain.from_iterable(map(self.space._cell, self.space.weyl.elements))


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


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
    work: list[Column] = []
    pivots: list[int] = []
    for col in cols:
        col = [c % q for c in col]
        for p, prev in zip(pivots, work):
            factor = col[p]
            if factor:
                col = [(x - factor * y) % q for x, y in zip(col, prev)]
        pivots.append(_pivot(col))
        inv = pow(col[pivots[-1]], q - 2, q)
        work.append(tuple([x * inv % q for x in col]))
    return tuple(work)


def _pivot(col: Sequence[int]) -> int:
    """Row index of the lowest nonzero entry; raises on a zero column."""
    for i in range(len(col) - 1, -1, -1):
        if col[i]:
            return i
    raise ValueError("matrix is singular over F_q")


def _free_rows(pivots: Sequence[int]) -> list[list[int]]:
    """The free rows of each column of the cell whose pivot rows are pivots:
    the rows above the column's pivot that no earlier column pivots on."""
    return [[i for i in range(p) if i not in pivots[:j]] for j, p in enumerate(pivots)]


def _join(label: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """The component label of each row, once rows i and j are joined."""
    a, b = label[i], label[j]
    return label if a == b else tuple([b if c == a else c for c in label])


def _lane_width(n: int, q: int) -> int:
    """Bits per lane of a packed column: a solve's lanes stay under 2^B."""
    return ((q - 1) + n * (q - 1) ** 2).bit_length()


def _pack(col: Column, width: int) -> int:
    return sum(x << width * i for i, x in enumerate(col))


def _solve(pivots: Sequence[int], basis: Sequence[int], cols: Iterable[int], q: int,
           width: int) -> list[list[int]]:
    """The coordinates mod q of each packed column of cols in the packed basis
    whose column k is 1 at row pivots[k] and 0 at the pivot rows before it."""
    mask = (1 << width) - 1
    out = []
    for c in cols:
        x = []
        for p, b in zip(pivots, basis):
            xk = (c >> width * p & mask) % q
            if xk:
                c += (q - xk) * b
            x.append(xk)
        out.append(x)
    return out


def _position(pivots: Sequence[int], basis: Sequence[int], cols: Sequence[int], q: int,
              width: int) -> tuple[int, ...]:
    """The relative position of F and F' as a one-line permutation from 0:
    the pivot row of each column of the column reduction of inverse(F) * F'.
    F is given by its pivot rows and packed columns, F' by its packed columns."""
    n = len(pivots)
    done: list[tuple[int, list[int]]] = []  # (pivot row, reduced column)
    perm = []
    # the last pivot is the row the other columns leave, so the last column
    # is neither solved for nor reduced
    for col in _solve(pivots, basis, cols[:-1], q, width):
        for p, prev in done:
            f = col[p]
            if f:
                g = prev[p]
                col = [(g * x - f * y) % q for x, y in zip(col, prev)]
        p = n - 1
        while not col[p]:
            p -= 1
        done.append((p, col))
        perm.append(p)
    perm.append(n * (n - 1) // 2 - sum(perm))
    return tuple(perm)


class _ScaledColumns(dict):
    """Canonical column c -> the interned canonical column of diag(s) c,
    computed on first use, so a scan of a few flags of a huge space fills only
    the columns it meets."""

    __slots__ = ("s", "q", "inverse", "columns")

    def __init__(self, s: tuple[int, ...], q: int, columns: dict[Column, Column]):
        super().__init__()
        self.s, self.q, self.columns = s, q, columns
        self.inverse = [pow(x, q - 2, q) for x in s]

    def __missing__(self, col: Column) -> Column:
        if col not in self.columns:
            raise ValueError(_FOREIGN)
        q = self.q
        scale = self.inverse[_pivot(col)]
        scaled = tuple([x * si * scale % q for x, si in zip(col, self.s)])
        return self.setdefault(col, self.columns[scaled])


class FlagSpace:
    """All complete flags in F_q^n, with relative-position machinery.

    The Weyl group is the Coxeter system A_{n-1}; w is held as the pivot rows
    of cell(w), the one-line permutation with entry j the image of j, both
    counted from 0.  The space stores no flag, only its interned columns (see
    the module docstring).  The one state that changes is a memo no caller
    can see: the column map of the last torus conjugate_flag was given,
    validated and rebuilt whenever the torus changes, so every result is the
    one a fresh space gives.
    """

    def __init__(self, n: int, q: int):
        self._count = check_space(n, q)
        self.n = n
        self.q = q
        self.weyl: CoxeterSystem = build_system(f"A{n - 1}")

        self._rows: dict[Element, tuple[int, ...]] = {}
        for w in self.weyl.elements:
            rows = list(range(n))
            for g in w.word:
                rows[g - 1], rows[g] = rows[g], rows[g - 1]
            self._rows[w] = tuple(rows)
        self._elt_of = {rows: w for w, rows in self._rows.items()}

        width = self._width = _lane_width(n, q)
        # every canonical column, interned: maps a column to its one shared
        # tuple, and _packed maps it to its packed int
        self._columns: dict[Column, Column] = {}
        self._packed: dict[Column, int] = {}
        for p in range(n):
            for above in iter_product(range(q), repeat=p):
                col = (*above, 1) + (0,) * (n - 1 - p)
                self._columns[col] = col
                self._packed[col] = _pack(col, width)
        # the column map of the last torus conjugate_flag validated
        self._scaled: _ScaledColumns | None = None

    @property
    def flags(self) -> _Flags:
        """Every flag of the space, built cell by cell on each iteration."""
        return _Flags(self)

    def _cell(self, z: Element) -> Iterator[Flag]:
        """The flags of cell(z), the last free entry fastest: each column takes
        the columns with its pivot row that are 0 at the earlier pivot rows."""
        n, q, pivots = self.n, self.q, self._rows[z]
        choices = [[self._columns[(*above, 1) + (0,) * (n - 1 - p)] for above in iter_product(
                        *[(0,) if r in pivots[:j] else range(q) for r in range(p)])]
                   for j, p in enumerate(pivots)]
        return map(_flag, iter_product(*choices), repeat(pivots))

    # -- basic maps ----------------------------------------------------------

    @property
    def standard_flag(self) -> Flag:
        return self.coordinate_flag(self.weyl.identity)

    def coordinate_flag(self, w: Element) -> Flag:
        """The flag spanned by the permuted standard basis for w."""
        pivots = self._rows[w]
        return _flag(tuple(tuple(int(i == p) for i in range(self.n)) for p in pivots), pivots)

    def flag_of_matrix(self, cols: Sequence[Sequence[int]]) -> Flag:
        """Canonicalize an arbitrary invertible n x n matrix into a Flag."""
        cols = canonical_cols(cols, self.q)
        if len(cols) != self.n:  # the flag would carry too few pivot rows
            raise ValueError(_FOREIGN)
        return _flag(cols, tuple(map(_pivot, cols)))

    def default_torus(self) -> tuple[int, ...]:
        """diag(1, 2, ..., n): distinct nonzero residues since q > n."""
        return tuple(range(1, self.n + 1))

    def _check_torus(self, s: Sequence[int]):
        if len(s) != self.n:
            raise ValueError("diagonal length must equal n")
        residues = {x % self.q for x in s}
        if 0 in residues or len(residues) != self.n:
            raise ValueError("not regular semisimple: diagonal entries must be distinct "
                             "and nonzero mod q")

    def conjugate_flag(self, s: Sequence[int], f: Flag) -> Flag:
        """The flag of s B s^{-1} for B the stabilizer of f: the flag s.f.

        Scaling rows maps each canonical column to a multiple of another
        canonical column, so s.f maps f column by column.
        """
        key = tuple(s)
        scaled = self._scaled
        if scaled is None or scaled.s != key:
            self._check_torus(key)
            scaled = self._scaled = _ScaledColumns(key, self.q, self._columns)
        pivots = f._pivots or self._read(f)[0]
        # scaling keeps every pivot row; scaled refuses a column not of this space
        return _flag(tuple([scaled[c] for c in f.cols]), pivots)

    # -- relative position -----------------------------------------------------

    def _read(self, f: Flag) -> tuple[tuple[int, ...], list[int]]:
        """The pivot rows and packed columns of f.  Raises ValueError unless
        its columns are this space's and, if f carries no pivot rows, f is
        canonical: each pivot row zero in all later columns, so invertible."""
        try:
            packed = [self._packed[c] for c in f.cols]
        except KeyError:
            raise ValueError(_FOREIGN) from None
        pivots = f._pivots
        if pivots is None:
            pivots = tuple(map(_pivot, f.cols))
            if len(pivots) != self.n or any(
                    c[p] for j, p in enumerate(pivots) for c in f.cols[j + 1:]):
                raise ValueError(_FOREIGN)
        return pivots, packed

    def relative_position(self, f1: Flag, f2: Flag) -> Element:
        """The permutation w with incidence profile r_ij = [i = w(j)]."""
        pivots, basis = self._read(f1)
        # f2 is read in full: the reduction trusts it to be invertible
        return self._elt_of[_position(pivots, basis, self._read(f2)[1], self.q, self._width)]

    # -- counts ----------------------------------------------------------------

    def _histogram(self, weighted) -> dict[Element, int]:
        """{w: the summed weights of the flag pairs (f1, f2) with pos(f1, f2) = w},
        over (f1, f2, weight) triples."""
        counts: dict[Element, int] = {}
        for f1, f2, weight in weighted:
            w = self.relative_position(f1, f2)
            counts[w] = counts.get(w, 0) + weight
        return counts

    def _orbits(self, z: Element, ref: Flag | None = None):
        """Yield (F, weight): one flag F of cell(z) per orbit of the torus
        elements that fix ref (the whole torus when ref is None), weight the
        orbit's size.

        The walk described in the module docstring: the components start from
        ref's nonzero entries, and are kept as one label per row (a
        quick-find union-find: a join relabels one component).  Raises
        AssertionError, yielding nothing, unless the weights add up to q^l(z).
        """
        try:
            pivots = self._rows[z]
        except KeyError:
            raise ValueError(f"{z!r} is not in the Weyl group of this space") from None
        n, q = self.n, self.q
        label = tuple(range(n))
        if ref is not None:
            for p, col in zip(self._read(ref)[0], ref.cols):
                for i, x in enumerate(col):
                    if x:
                        label = _join(label, i, p)
        free = _free_rows(pivots)
        # the partial flags: (the values of the entries walked, labels, weight)
        states = [((), label, 1)]
        for p, rows in zip(pivots, free):
            for i in rows:
                grown = []
                for values, label, weight in states:
                    if label[i] == label[p]:
                        grown += [(values + (v,), label, weight) for v in range(q)]
                    else:
                        grown.append((values + (0,), label, weight))
                        grown.append((values + (1,), _join(label, i, p), weight * (q - 1)))
                states = grown
        if sum(weight for _, _, weight in states) != q ** z.length:
            raise AssertionError(f"the torus orbits of cell {z!r} miss some of its flags")
        columns = self._columns
        for values, _, weight in states:
            entries = iter(values)
            cols = []
            for p, rows in zip(pivots, free):
                col = [0] * n
                col[p] = 1
                for i in rows:
                    col[i] = next(entries)
                cols.append(columns[tuple(col)])
            yield _flag(tuple(cols), pivots), weight

    def histogram_Y_cell(self, s: Sequence[int], base: Flag, z: Element) -> dict[Element, int]:
        """{w: #{F : pos(base, F) = z and pos(F, s.F) = w}}, base torus-fixed."""
        if self.conjugate_flag(s, base) != base:
            raise ValueError("base flag is not torus-fixed")
        # base = P_v.standard, and s P_v = P_v s' with s'_j = s at the pivot of column j
        permuted = tuple(s[p] for p in self._read(base)[0])
        # the whole torus commutes with diag(permuted) and maps cell(z) to itself
        return self._histogram(
            (f, self.conjugate_flag(permuted, f), weight) for f, weight in self._orbits(z)
        )

    def histogram_Z(self, base: Flag, base2: Flag) -> dict[Element, int]:
        """{w: #{F : pos(base, F) = pos(base, base2) and pos(base2, F) = w}}."""
        # g^-1.base2 for g the matrix of base, whose pivot rows are the
        # permutation pos(base, base2)
        translated = self.flag_of_matrix(
            _solve(*self._read(base), self._read(base2)[1], self.q, self._width))
        z = self._elt_of[translated._pivots]
        return self._histogram(
            (translated, f, weight) for f, weight in self._orbits(z, translated)
        )

    def histogram_Y_total(self, s: Sequence[int]) -> dict[Element, int]:
        """{w: #{F : pos(F, s.F) = w}}."""
        self._check_torus(s)
        return self._histogram((f, self.conjugate_flag(s, f), 1) for f in self.flags)

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
    """The space of complete flags of F_q^n (q prime, 2 <= n <= q - 1).

    Raises ValueError from check_space before any set-up, in particular
    when the q-factorial flag count exceeds FLAG_SPACE_MAX_FLAGS.
    """
    return FlagSpace(n, q)
