"""The verification suites behind ``heckeflag verify``, as ``Check`` records:
one function per suite, whose parameters are the options it reads.

Expected values are formulas, not golden files.  ``dihedral_suite()`` checks
the closed-form diagonal-support sets of I2(4), I2(6), I2(8) and I2(inf);
``hecke_suite(type_spec)`` reads w0 membership and top degree, the degree
bound, positivity, q = 1 and the q = -1 trace from one row T_w * T_z over all
z per w, checks the trace against a q = -1 matrix oracle, and refuses
|W| > 720 or l(w0) > 64; ``flags_suite(spaces)`` checks
the paper's identity on each GL_n(F_q) in turn: fixed-pair counts equal
N(w, z^-1, z^-1)(q), cell counts equal fixed-pair counts, whole-space counts
(the sums of the cell counts) equal the regular trace at q, with every Hecke
value from one diagonal row per w, and refuses any pair that ``check_space``
refuses, or more than 200 000 flags in all, before it builds a space.  Each
suite makes |W|^2 products of one generator step; ``all_suites()`` runs the
three on fixed small inputs.

    >>> [c.ok for c in dihedral_suite()].count(True)
    15
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coxeter import build_system
from .eset import e_set
from .flag import FLAG_SPACE_MAX_FLAGS, build_space, check_space
from .hecke import HeckeAlgebra
from .poly import ZERO

__all__ = ["Check", "HECKE_SUITE_MAX_LEN", "HECKE_SUITE_MAX_ORDER", "all_suites",
           "dihedral_suite", "flags_suite", "hecke_suite"]

# the hecke suite does |W|^2 products at a width that grows with l(w0), and
# its q = -1 oracle up to |W|^2 sparse steps: on a 2-vCPU x86 host B4 (384)
# takes about 2.5 s, A5 (720), the largest type admitted, about 7 s and F4
# (1152) about 61 s; I2(m) has l(w0) = m, and I2(64) takes about 1.6 s
HECKE_SUITE_MAX_ORDER = 720
HECKE_SUITE_MAX_LEN = 64


@dataclass(frozen=True)
class Check:
    """One compared value; ok is observed == predicted.

    Flag-count checks also carry their space (n, q), w and z as words, with
    z = "total" for the whole-space counts.
    """

    suite: str
    name: str
    observed: object
    predicted: object
    ok: bool
    n: int | None = None
    q: int | None = None
    w: tuple[int, ...] | None = None
    z: tuple[int, ...] | str | None = None

    def to_json(self) -> dict:
        return {"suite": self.suite, "check": self.name, "observed": self.observed,
                "predicted": self.predicted, "ok": self.ok}


def _check(suite: str, name: str, observed, predicted, **count) -> Check:
    return Check(suite, name, observed, predicted, observed == predicted, **count)


def _word_str(word) -> str:
    return ",".join(str(g) for g in word)


def all_suites() -> list[Check]:
    """The three suites on fixed small inputs."""
    checks = dihedral_suite()
    for t in ("A2", "A3", "B3", "I2(4)"):
        checks += hecke_suite(t)
    return checks + flags_suite(((2, 3), (2, 5), (2, 7), (3, 5)))


def dihedral_suite() -> list[Check]:
    """The closed-form diagonal-support sets of I2(4), I2(6), I2(8) and I2(inf)."""
    checks: list[Check] = []
    for n in (2, 3, 4):
        system = build_system(f"I2({2 * n})")
        algebra = HeckeAlgebra(system)
        for k in range(1, n + 1):
            w = system.normal_form([1, 2] * k)
            got = sorted(z.to_json() for z in e_set(algebra, w).member_elements())
            want = sorted(
                z.to_json() for z in system.elements if z.length >= 2 * n - k + 1
            )
            checks.append(_check("dihedral", f"I2({2*n}) members((s1s2)^{k})", got, want))
    system = build_system("I2(inf)")
    algebra = HeckeAlgebra(system)
    bound = 14
    for k in range(1, 6):
        w = system.normal_form([1, 2] * k)
        got = [z.to_json() for z in e_set(algebra, w, bound).member_elements()]
        checks.append(
            _check("dihedral", f"I2(inf) members((s1s2)^{k}) up to {bound}", got, []))
    w = system.normal_form([1, 2, 1])
    got = [z.to_json() for z in e_set(algebra, w, bound).member_elements()]
    want = [
        [1 if i % 2 == 0 else 2 for i in range(length)] for length in range(2, bound + 1)
    ]
    checks.append(_check("dihedral", f"I2(inf) members(s1s2s1) up to {bound}", got, want))
    return checks


def _minus_one_traces(system) -> list[int]:
    """Trace of left multiplication by T_w at q = -1, for every w in order.

    Built from the defining relations alone, independent of HeckeAlgebra:
    at q = -1 the generator acts by T_s e_x = e_{sx} if sx > x, else
    -e_{sx} - 2 e_x, so each column has at most two nonzeros.  Every w != e
    is s w' with s its first letter and w' = s w one shorter (its canonical
    word without s, as every suffix of a canonical word is canonical), so
    T_w e_z = T_s (T_w' e_z).  For each basis vector e_z the walk goes down
    this suffix tree depth first, one sparse step per w from its parent's
    vector, and adds the z-th entry to w's trace: |W|^2 steps, each over the
    support of one vector, except that a leaf of the tree (a third of the
    elements) needs only its z-th entry, read from the two entries of the
    parent's vector at z and s z.
    """
    elements = system.elements
    steps = []
    for g in range(1, system.rank + 1):
        row = []
        for x in elements:
            sx = system.left_mult(x, g)
            row.append((sx.index, sx.length > x.length))
        steps.append(row)
    # (w, step of w's first letter) under each w' of the suffix tree
    children: list[list] = [[] for _ in elements]
    for w in elements[1:]:
        s = w.word[0]
        children[system.left_mult(w, s).index].append((w.index, steps[s - 1]))
    size = len(elements)
    traces = [size] + [0] * (size - 1)  # T_e acts as the identity
    for z in range(size):
        # (T_w' e_z, the children of w') for each w' whose children wait
        pending = [({z: 1}, children[0])]
        while pending:
            vec, kids = pending.pop()
            for w, step in kids:
                # c_x e_x + c_sx e_sx with sx the longer goes to -c_sx e_x +
                # (c_x - 2 c_sx) e_sx; the trace reads the z-th entry alone
                sz, up = step[z]
                traces[w] += -vec.get(sz, 0) if up else vec.get(sz, 0) - 2 * vec.get(z, 0)
                if not children[w]:
                    continue
                # the whole vector, for the children: each pair written from
                # sx when it is present, else from x
                out: dict[int, int] = {}
                for x, c in vec.items():
                    sx, up = step[x]
                    if not up:
                        out[sx] = -c
                        out[x] = vec.get(sx, 0) - 2 * c
                    elif sx not in vec:
                        out[sx] = c
                pending.append((out, children[w]))
    return traces


def hecke_suite(type_spec: str) -> list[Check]:
    """Hecke-algebra identities on one finite type, refused past the bounds."""
    system = build_system(type_spec)
    if not system.is_finite:
        raise ValueError("hecke suite needs a finite type")
    w0 = system.longest_element()
    if system.order > HECKE_SUITE_MAX_ORDER or w0.length > HECKE_SUITE_MAX_LEN:
        raise ValueError(
            f"hecke suite on {type_spec} refused: it needs |W| <= {HECKE_SUITE_MAX_ORDER} "
            f"and l(w0) <= {HECKE_SUITE_MAX_LEN}, got |W| = {system.order} and "
            f"l(w0) = {w0.length} (the suite does |W|^2 products)"
        )
    algebra = HeckeAlgebra(system)
    elements = system.elements
    rmult, last = system._rmult, system._last
    suite = f"hecke[{type_spec}]"

    # one row T_w * T_z over all z per w feeds every check
    bad_membership, bad_top, bad_deg, bad_pos, bad_q1 = [], [], [], [], []
    traces = []
    wz = [0] * len(elements)  # w z by the index of z, for the z walked so far
    # diagonal entries repeat across the rows (B3's 580 nonzero ones take 50
    # values): each distinct one is evaluated at q = -1 and q in {2, 3, 4} once
    evaluated: dict = {}
    for w in elements:
        trace, diag_sum = ZERO, 0
        wz[0] = w.index
        for z, prod in algebra.row_products(w):
            x = z.index
            if x:
                # z = z' s with z' = z s visited before z, so wz = (wz') s
                col = rmult[last[x] - 1]
                wz[x] = col[wz[col[x]]]
            entry = prod.coefficient(z)
            if z is w0:
                # the longest element always carries a nonzero constant of
                # top degree
                if not entry:
                    bad_membership.append(w.to_json())
                if entry.degree != w.length:
                    bad_top.append(w.to_json())
            # diagonal degrees are bounded by l(w) and positive at small q
            if entry:
                if entry not in evaluated:
                    evaluated[entry] = (entry(-1), [m for m in (2, 3, 4) if entry(m) <= 0])
                at_minus_one, nonpositive = evaluated[entry]
                trace += entry
                diag_sum += at_minus_one
                if entry.degree > w.length:
                    bad_deg.append((w.to_json(), z.to_json()))
                for m in nonpositive:
                    bad_pos.append((w.to_json(), z.to_json(), m))
            # specializing q = 1 degenerates to the group algebra: T_{wz} alone
            # (a zero for wz is not listed, so it counts as missing)
            ones = prod.values_at(1)
            want = elements[wz[x]]
            if len(ones) != 1 or ones.get(want) != 1:
                wrong = [y for y, v in ones.items() if v != 1 or y is not want]
                if want not in ones:
                    wrong.append(want)
                for y in sorted(wrong, key=lambda e: e.index):
                    bad_q1.append((w.to_json(), z.to_json(), y.to_json()))
        traces.append((trace(-1), diag_sum))
    # the row runs lexicographically; findings go in (w, z) element order,
    # by length then lexicographic (a stable sort keeps each pair's order)
    for bad in (bad_deg, bad_pos, bad_q1):
        bad.sort(key=lambda f: (len(f[0]), f[0], len(f[1]), f[1]))

    # trace at q = -1 agrees with the specialized-algebra matrix trace
    bad_trace = [
        (w.to_json(), matrix_trace, poly_trace, diag_sum)
        for w, matrix_trace, (poly_trace, diag_sum)
        in zip(elements, _minus_one_traces(system), traces)
        if not matrix_trace == poly_trace == diag_sum
    ]

    return [
        _check(suite, "w0 membership fails for", bad_membership, []),
        _check(suite, "top degree != l(w) for", bad_top, []),
        _check(suite, "degree bound violations", bad_deg, []),
        _check(suite, "positivity violations at q in {2,3,4}", bad_pos, []),
        _check(suite, "q=1 group-algebra violations", bad_q1, []),
        _check(suite, "q=-1 trace mismatches", bad_trace, []),
    ]


def flags_suite(spaces: Sequence[tuple[int, int]]) -> list[Check]:
    """Flag counts against Hecke values on each GL_n(F_q), (n, q) in spaces."""
    flags = sum(check_space(n, q) for n, q in spaces)
    if flags > FLAG_SPACE_MAX_FLAGS:
        raise ValueError(
            f"flags suite refused: its spaces hold {flags} flags in all, over "
            f"the bound {FLAG_SPACE_MAX_FLAGS}")
    return [c for n, q in spaces for c in _space_checks(n, q)]


def _space_checks(n: int, q: int) -> list[Check]:
    space = build_space(n, q)
    weyl = space.weyl
    algebra = HeckeAlgebra(weyl)
    s = space.default_torus()
    base = space.standard_flag
    checks: list[Check] = []
    suite = f"flags[n={n},q={q}]"
    # N(w, x, x)(q) for all x, one diagonal row per w; its sum is T_w's trace
    rows = [[value(q) for _, value in algebra.diagonal_row(w)] for w in weyl.elements]
    totals: dict = {}
    for z in weyl.elements:
        # pos(standard, coordinate_flag(z)) = z, so the pair spans cell(z)
        other = space.coordinate_flag(z)
        zi = weyl.inverse(z)
        # one walk of cell(z)'s torus orbits per histogram yields the counts
        # of every w
        pair = space.histogram_Z(base, other)
        cell = space.histogram_Y_cell(s, base, z)
        for w in weyl.elements:
            observed = pair.get(w, 0)
            predicted = rows[w.index][zi.index]
            key = dict(n=n, q=q, w=w.word, z=z.word)
            label = f"z=[{_word_str(z.word)}] w=[{_word_str(w.word)}]"
            checks.append(_check(suite, f"count_Z {label}", observed, predicted, **key))
            checks.append(_check(suite, f"cell=Z {label}", cell.get(w, 0), observed, **key))
        # the cells partition the space, and with the standard base the cell
        # scan conjugates by s itself, so the cells add up to the totals
        for w, count in cell.items():
            totals[w] = totals.get(w, 0) + count
    for w in weyl.elements:
        checks.append(_check(suite, f"count_Y_total w=[{_word_str(w.word)}]",
                             totals.get(w, 0), sum(rows[w.index]),
                             n=n, q=q, w=w.word, z="total"))
    return checks
