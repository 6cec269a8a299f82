"""Flag-space tests.  The relative-position pivot computation is checked
against an independent oracle that evaluates the incidence profile
r_ij = d_ij - d_{i-1,j} - d_{i,j-1} + d_{i-1,j-1} with d_ij computed as rank
defects of stacked prefix matrices, with its own Gaussian elimination."""

import itertools
import random
from collections import Counter

import pytest

from heckeflag import flag
from heckeflag.flag import (
    FLAG_SPACE_MAX_FLAGS, Flag, FlagSpace, build_space, canonical_cols, check_space,
)
from heckeflag.hecke import HeckeAlgebra


# ---------------------------------------------------------------------------
# oracle: incidence profile via ranks


def _rank(vectors, q):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        piv = next(
            (r for r in range(len(rows)) if not used[r] and rows[r][c] % q), None
        )
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        inv = pow(rows[piv][c], q - 2, q)
        rows[piv] = [x * inv % q for x in rows[piv]]
        for r in range(len(rows)):
            if r != piv and rows[r][c] % q:
                f = rows[r][c]
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[piv])]
    return rank


def _pos_oracle(space, f1, f2):
    n, q = space.n, space.q
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            if i == 0 or j == 0:
                d[i][j] = 0
                continue
            stacked = [f1.cols[a] for a in range(i)] + [f2.cols[b] for b in range(j)]
            d[i][j] = i + j - _rank(stacked, q)
    perm = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if d[i][j] - d[i - 1][j] - d[i][j - 1] + d[i - 1][j - 1]:
                perm[j - 1] = i
    return _element_of(space, perm)


def _element_of(space, perm):
    """The Weyl element of a one-line permutation, from the Coxeter side: a
    bubble sort records the adjacent swaps that sort perm, and the element's
    word is those swaps in reverse."""
    perm, swaps = list(perm), []
    for end in range(len(perm) - 1, 0, -1):
        for i in range(end):
            if perm[i] > perm[i + 1]:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                swaps.append(i + 1)
    return space.weyl.normal_form(reversed(swaps))


def _fixed_flags(space):
    # the flags a regular torus fixes are the coordinate flags
    return [space.coordinate_flag(w) for w in space.weyl.elements]


# ---------------------------------------------------------------------------
# construction


def test_build_space_counts():
    assert len(build_space(2, 3).flags) == 4
    assert len(build_space(3, 5).flags) == 186
    assert len(build_space(2, 7).flags) == 8


def test_build_space_2_3_is_the_line_set():
    # brute force: the four lines of F_3^2, each normalized so its lowest
    # nonzero coordinate is 1, must be exactly the first columns of the flags
    q = 3
    space = build_space(2, q)
    lines = set()
    for v in itertools.product(range(q), repeat=2):
        if v == (0, 0):
            continue
        inv = pow(next(x for x in reversed(v) if x), q - 2, q)
        lines.add(tuple(x * inv % q for x in v))
    got = {f.cols[0] for f in space.flags}
    assert got == lines
    assert len(got) == 4


def test_build_space_preconditions():
    with pytest.raises(ValueError, match="n <= q - 1|not prime|no split"):
        build_space(2, 2)
    with pytest.raises(ValueError, match="not prime"):
        build_space(2, 9)
    with pytest.raises(ValueError):
        build_space(1, 5)
    with pytest.raises(ValueError):
        build_space(5, 5)


def _no_columns(col, width):
    raise AssertionError("column interning started")


def test_build_space_size_guard(monkeypatch):
    # the guard reads the q-factorial alone: no space is set up, and no
    # column interned, before a refusal
    monkeypatch.setattr(flag, "_pack", _no_columns)
    bound = FLAG_SPACE_MAX_FLAGS
    with pytest.raises(ValueError, match=f"510902400 flags exceed the bound {bound}"):
        build_space(5, 7)
    # GL4(F7), 182 400 flags, passes the guard and reaches the columns
    with pytest.raises(AssertionError, match="column interning started"):
        build_space(4, 7)


def test_check_space_refuses_huge_inputs_quickly():
    # the q-factorial is abandoned once past the bound, and primality is only
    # tested below it: a huge prime q, a huge n or a huge composite q is
    # refused after a few multiplications, with no trial division
    bound = FLAG_SPACE_MAX_FLAGS
    big_prime = 2**127 - 1
    refused = f"refused: {big_prime + 1} flags exceed the bound {bound}"
    with pytest.raises(ValueError, match=refused):
        check_space(2, big_prime)
    with pytest.raises(ValueError, match=f"refused: more than {10**6 + 4} flags"):
        check_space(10**6, 10**6 + 3)
    with pytest.raises(ValueError, match=f"refused: more than {8 * 57 * 400 * 2801} flags"):
        check_space(6, 7)
    with pytest.raises(ValueError, match="flags exceed"):
        check_space(3, 10**40)
    assert check_space(4, 7) == 182400
    assert check_space(3, 5) == 186


def test_enumerated_flags_are_canonical():
    space = build_space(3, 5)
    for f in list(space.flags)[:50]:
        assert canonical_cols(f.cols, 5) == f.cols


def test_canonical_form_is_coset_invariant():
    # right-multiplying by an invertible upper-triangular matrix must not
    # change the canonical form
    q = 5
    rng = random.Random(3)
    space = build_space(3, q)
    for f in rng.sample(list(space.flags), 25):
        upper = [[0] * 3 for _ in range(3)]
        for i in range(3):
            upper[i][i] = rng.randrange(1, q)
            for j in range(i + 1, 3):
                upper[i][j] = rng.randrange(q)
        # columns of f.cols * upper
        mixed = [
            [
                sum(f.cols[k][i] * upper[k][j] for k in range(3)) % q
                for i in range(3)
            ]
            for j in range(3)
        ]
        assert canonical_cols(mixed, q) == f.cols


def test_canonical_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        canonical_cols([[1, 0], [1, 0]], 3)


# ---------------------------------------------------------------------------
# relative position


def test_relative_position_identity():
    space = build_space(3, 5)
    for f in list(space.flags)[:20]:
        assert space.relative_position(f, f) == space.weyl.identity


@pytest.mark.parametrize("n", [3, 4])
def test_coordinate_flag_lies_in_its_cell(n):
    # the flags suite scans cell(w) against coordinate_flag(w): the two must
    # name the same w, by the pivot computation and by the rank oracle
    space = build_space(n, 5)
    base = space.standard_flag
    for w in space.weyl.elements:
        other = space.coordinate_flag(w)
        assert space.relative_position(base, other) == w
        assert _pos_oracle(space, base, other) == w


def test_relative_position_rejects_foreign_flag():
    space = build_space(3, 5)
    std, s = space.standard_flag, space.default_torus()
    w0 = space.weyl.longest_element()
    # flags that carry the pivot rows another space gave them: one of F_7^3
    # with an entry 6, one of F_3^2
    wide = build_space(3, 7).flag_of_matrix([[6, 1, 0], [1, 0, 0], [0, 0, 1]])
    small = build_space(2, 3).standard_flag
    for foreign in (wide, small):
        assert foreign._pivots is not None
        for call in (lambda: space.relative_position(foreign, std),
                     lambda: space.relative_position(std, foreign),
                     lambda: space.conjugate_flag(s, foreign),
                     lambda: space.histogram_Z(foreign, std),
                     lambda: space.histogram_Z(std, foreign),
                     lambda: space.histogram_Y_cell(s, foreign, w0)):
            with pytest.raises(ValueError, match="does not belong"):
                call()
    # a caller's flag carries no pivot rows, and is checked from its columns
    caller = Flag(space.coordinate_flag(w0).cols)
    assert caller._pivots is None
    assert space.relative_position(caller, std) == w0 == space.relative_position(std, caller)
    not_canonical = Flag(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    too_short = Flag(((1, 0, 0), (0, 1, 0)))  # canonical columns, one too few
    for caller in (not_canonical, too_short):
        with pytest.raises(ValueError, match="does not belong"):
            space.conjugate_flag(s, caller)
        with pytest.raises(ValueError, match="does not belong"):
            space.relative_position(std, caller)
    # a matrix with a column too few makes no flag, so none carries pivot rows
    with pytest.raises(ValueError, match="does not belong"):
        space.flag_of_matrix(too_short.cols)


def test_relative_position_transverse_lines():
    space = build_space(2, 3)
    e1 = space.standard_flag
    e2 = space.coordinate_flag(space.weyl.normal_form([1]))
    assert space.relative_position(e1, e2).word == (1,)


def test_relative_position_reversed_flag():
    space = build_space(3, 5)
    std = space.standard_flag
    reversed_flag = space.flag_of_matrix(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]]  # columns e3, e2, e1
    )
    assert space.relative_position(std, reversed_flag) == space.weyl.longest_element()


def test_relative_position_matches_incidence_oracle_gl2():
    space = build_space(2, 3)
    for f1 in space.flags:
        for f2 in space.flags:
            assert space.relative_position(f1, f2) == _pos_oracle(space, f1, f2)


def test_relative_position_matches_incidence_oracle_gl3_sampled():
    space = build_space(3, 5)
    flags = list(space.flags)
    rng = random.Random(11)
    for _ in range(300):
        f1, f2 = rng.choice(flags), rng.choice(flags)
        assert space.relative_position(f1, f2) == _pos_oracle(space, f1, f2)


@pytest.mark.parametrize("n, q, width", [(2, 199_999, 37), (3, 53, 13)])
def test_relative_position_at_the_lane_width_bound(n, q, width):
    # the largest spaces of rank 1 and 2 under the flag bound; flags whose
    # entries are all 0, 1 or q - 1 make the solve's lanes grow the most
    space = build_space(n, q)
    assert space._width == width == ((q - 1) + n * (q - 1) ** 2).bit_length()
    extreme = [f for f in space.flags if all(x in (0, 1, q - 1) for c in f.cols for x in c)]
    assert len(extreme) == sum(3**w.length for w in space.weyl.elements)
    for f1 in extreme:
        for f2 in extreme:
            # inverse(f1) * f2 times f1 gives f2 back
            coords = flag._solve(*space._read(f1), space._read(f2)[1], q, space._width)
            assert [[sum(x * b[i] for x, b in zip(c, f1.cols)) % q for i in range(n)]
                    for c in coords] == [list(c) for c in f2.cols]
    rng = random.Random(q)
    for flags in (extreme, list(space.flags)):
        for _ in range(200):
            f1, f2 = rng.choice(flags), rng.choice(flags)
            assert space.relative_position(f1, f2) == _pos_oracle(space, f1, f2)


def test_position_antisymmetry_exhaustive():
    for n, q in ((2, 3), (3, 5)):
        space = build_space(n, q)
        inverse = space.weyl.inverse
        for f1 in space.flags:
            for f2 in space.flags:
                assert space.relative_position(f2, f1) == inverse(
                    space.relative_position(f1, f2)
                )


def test_cell_sizes_exhaustive_gl3():
    space = build_space(3, 5)
    q = space.q
    for f in space.flags:
        sizes = {}
        for f2 in space.flags:
            w = space.relative_position(f, f2)
            sizes[w] = sizes.get(w, 0) + 1
        for w in space.weyl.elements:
            assert sizes.get(w, 0) == q**w.length


# ---------------------------------------------------------------------------
# torus-fixed flags


def test_torus_fixed_flags():
    space = build_space(3, 5)
    s = space.default_torus()
    fixed = _fixed_flags(space)
    assert len(fixed) == 6
    # independent route: filter the full enumeration by s-stability
    filtered = [f for f in space.flags if space.conjugate_flag(s, f) == f]
    assert sorted(f.cols for f in fixed) == sorted(f.cols for f in filtered)


def test_torus_fixed_flags_gl2():
    space = build_space(2, 3)
    fixed = _fixed_flags(space)
    assert all(space.conjugate_flag(space.default_torus(), f) == f for f in fixed)
    assert [f.cols for f in fixed] == [
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
    ]


def test_torus_validation():
    space = build_space(2, 5)
    for s in ((1, 1), (0, 1), (1, 6)):  # 6 = 1 mod 5
        with pytest.raises(ValueError, match="regular semisimple"):
            space.conjugate_flag(s, space.standard_flag)
        with pytest.raises(ValueError, match="regular semisimple"):
            space.histogram_Y_total(s)


# ---------------------------------------------------------------------------
# counts


def test_count_y_cell_example():
    space = build_space(2, 3)
    s = (1, 2)
    s1 = space.weyl.normal_form([1])
    assert space.count_Y_cell(s, space.standard_flag, s1, s1) == 2


def test_count_y_cell_identity_cases():
    space = build_space(2, 5)
    s = space.default_torus()
    B = space.standard_flag
    e = space.weyl.identity
    s1 = space.weyl.normal_form([1])
    assert space.count_Y_cell(s, B, e, s1) == 0
    assert space.count_Y_cell(s, B, e, e) == 1


def test_count_y_cell_requires_fixed_base():
    space = build_space(2, 5)
    moving = space.flag_of_matrix([[1, 1], [0, 1]])  # line through e1 + e2
    with pytest.raises(ValueError, match="not torus-fixed"):
        space.count_Y_cell(space.default_torus(), moving, space.weyl.identity,
                           space.weyl.identity)


def test_count_z_examples():
    space = build_space(2, 3)
    B = space.standard_flag
    Bp = space.coordinate_flag(space.weyl.normal_form([1]))
    s1 = space.weyl.normal_form([1])
    assert space.count_Z(B, Bp, s1) == 2
    assert space.count_Z(B, Bp, space.weyl.identity) == 1
    # degenerate pair: z = pos(B, B) = identity pins the scanned flag to B
    # itself, so the count collapses to the w = identity indicator
    for w in space.weyl.elements:
        assert space.count_Z(B, B, w) == (1 if w == space.weyl.identity else 0)


def test_count_y_total_examples():
    space = build_space(2, 3)
    s = (1, 2)
    assert space.count_Y_total(s, space.weyl.identity) == 2
    assert space.count_Y_total(s, space.weyl.normal_form([1])) == 2
    total = sum(space.count_Y_total(s, w) for w in space.weyl.elements)
    assert total == len(space.flags)


def test_count_y_total_partition_gl3():
    space = build_space(3, 5)
    s = space.default_torus()
    total = sum(space.count_Y_total(s, w) for w in space.weyl.elements)
    assert total == len(space.flags)


@pytest.mark.parametrize("n", [2, 3])
def test_cell_histograms_add_up_to_the_total(n):
    # the cells partition the space and the standard flag leaves the torus
    # as it is, so the verify flags suite builds its totals from the cells
    space = build_space(n, 5)
    s = space.default_torus()
    totals = {}
    for z in space.weyl.elements:
        for w, count in space.histogram_Y_cell(s, space.standard_flag, z).items():
            totals[w] = totals.get(w, 0) + count
    assert totals == space.histogram_Y_total(s)


# ---------------------------------------------------------------------------
# the Hecke-side identities, small space (the full sweep is in acceptance)


def test_hecke_oracle_gl2():
    space = build_space(2, 3)
    H = HeckeAlgebra(space.weyl)
    s = space.default_torus()
    B = space.standard_flag
    for wb in space.weyl.elements:
        Bp = space.coordinate_flag(wb)
        z = space.relative_position(B, Bp)
        zi = space.weyl.inverse(z)
        for w in space.weyl.elements:
            assert space.count_Z(B, Bp, w) == H.structure_constant(w, zi, zi)(3)
            assert space.count_Y_cell(s, B, z, w) == space.count_Z(B, Bp, w)
    for w in space.weyl.elements:
        assert space.count_Y_total(s, w) == H.regular_trace(w)(3)


# ---------------------------------------------------------------------------
# the cell scans against full scans with the rank oracle (GL3(F5))


def _scaled(space, s, f):
    """s.f by canonicalising the row-scaled matrix, not by the closed form."""
    return Flag(canonical_cols([[s[i] * c[i] for i in range(space.n)] for c in f.cols],
                               space.q))


def test_conjugate_flag_closed_form_every_flag():
    space = build_space(3, 5)
    for s in (space.default_torus(), (2, 4, 1)):
        for f in space.flags:
            assert space.conjugate_flag(s, f) == _scaled(space, s, f)


def test_conjugate_flag_keeps_one_torus_map():
    # the space keeps the column map of the last torus: alternating tori,
    # spelt as lists, tuples or unreduced residues, must each be validated
    # and scaled afresh
    space = build_space(3, 5)
    columns = {id(c) for f in space.flags for c in f.cols}
    foreign = Flag(((6, 1, 0), (1, 0, 0), (0, 0, 1)))  # a flag of F_7^3
    for s in ([1, 2, 3], (2, 4, 1), (1, 2, 3), (6, 2, 3), [2, 4, 1], (6, 2, 3)):
        for f in space.flags:
            moved = space.conjugate_flag(s, f)
            assert moved == _scaled(space, s, f)
            assert {id(c) for c in moved.cols} <= columns
        with pytest.raises(ValueError, match="regular semisimple"):
            space.conjugate_flag((1, 6, 3), space.standard_flag)
        with pytest.raises(ValueError, match="does not belong"):
            space.conjugate_flag(s, foreign)


@pytest.mark.parametrize("n, points", [(3, 31), (4, 156)])
def test_flags_share_one_tuple_per_column(n, points):
    # (q^n - 1)/(q - 1) column objects for the whole space, one per point of
    # the projective space
    space = build_space(n, 5)
    assert len({id(c) for f in space.flags for c in f.cols}) == points == (5**n - 1) // 4


def test_count_z_matches_full_scan_for_arbitrary_bases():
    space = build_space(3, 5)
    rng = random.Random(5)
    fixed = _fixed_flags(space)
    moving = [f for f in space.flags if f not in fixed]
    for _ in range(6):
        base, base2 = rng.sample(moving, 2)
        z = _pos_oracle(space, base, base2)
        want = {}
        for f in space.flags:
            if _pos_oracle(space, base, f) == z:
                w = _pos_oracle(space, base2, f)
                want[w] = want.get(w, 0) + 1
        for w in space.weyl.elements:
            assert space.count_Z(base, base2, w) == want.get(w, 0), (base, base2, w.word)


def test_count_y_cell_matches_full_scan_for_every_fixed_base():
    space = build_space(3, 5)
    for s in (space.default_torus(), (2, 4, 1)):
        moved = {f: _pos_oracle(space, f, _scaled(space, s, f)) for f in space.flags}
        for base in _fixed_flags(space):
            want = {}
            for f in space.flags:
                key = (_pos_oracle(space, base, f), moved[f])
                want[key] = want.get(key, 0) + 1
            for z in space.weyl.elements:
                for w in space.weyl.elements:
                    assert space.count_Y_cell(s, base, z, w) == want.get((z, w), 0), (
                        s, base, z.word, w.word)


def test_count_y_cell_scans_the_translated_pairs(monkeypatch):
    # every regular torus gives the same counts, so no count can see a wrong
    # translation of the base; check the scanned pairs flag by flag instead
    space = build_space(3, 5)
    s = (2, 4, 1)
    scanned = []
    original = FlagSpace._histogram

    def capture(self, weighted):
        weighted = list(weighted)
        scanned.extend(weighted)
        return original(self, weighted)

    monkeypatch.setattr(FlagSpace, "_histogram", capture)
    for base in _fixed_flags(space):
        for z in space.weyl.elements:
            scanned.clear()
            space.histogram_Y_cell(s, base, z)
            # one pair per torus orbit of cell(z), weighted by the orbit's size
            assert sum(weight for _, _, weight in scanned) == 5**z.length
            for f, g, _ in scanned:
                # the flag base.f that (f, g) stands for
                moved = space.flag_of_matrix(
                    [[sum(c[k] * base.cols[k][i] for k in range(3)) for i in range(3)]
                     for c in f.cols])
                assert _pos_oracle(space, base, moved) == z
                assert _pos_oracle(space, f, g) == _pos_oracle(
                    space, moved, _scaled(space, s, moved))


# ---------------------------------------------------------------------------
# one flag per torus orbit: the orbits by brute force, the counts by plain scans


def _cells(space):
    """{z: the flags of cell(z)}, each flag filed by the lowest nonzero row of
    each of its columns, read off its matrix."""
    by_pivots = {}
    for f in space.flags:
        pivots = tuple(max(i for i, x in enumerate(c) if x) for c in f.cols)
        by_pivots.setdefault(pivots, []).append(f)
    return {_element_of(space, [p + 1 for p in pivots]): cell
            for pivots, cell in by_pivots.items()}


def _torus(space):
    """The diagonal torus modulo scalars, which fix every flag: diag(1, t_2, ..., t_n)."""
    return [(1, *t) for t in itertools.product(range(1, space.q), repeat=space.n - 1)]


@pytest.mark.parametrize("n, q, lengths", [(3, 5, None), (3, 7, None), (4, 5, (3, 4))])
def test_orbits_are_the_torus_orbits(n, q, lengths):
    # every orbit of the torus elements fixing ref, computed by scaling rows,
    # has exactly one flag among _orbits(z, ref), weighted by the orbit's size
    space = build_space(n, q)
    flags = list(space.flags)
    torus = _torus(space)
    cells = _cells(space)
    rng = random.Random(n * q)
    zs = space.weyl.elements
    if lengths is not None:
        zs = rng.sample([z for z in zs if z.length in lengths], 4)
    seen = set()
    for z in zs:
        cell = cells[z]
        for ref in (None, space.standard_flag, rng.choice(cell), rng.choice(flags)):
            fixing = [t for t in torus if ref is None or _scaled(space, t, ref) == ref]
            orbit_of = {}
            for f in cell:
                if f not in orbit_of:
                    orbit = frozenset(_scaled(space, t, f) for t in fixing)
                    orbit_of.update((g, orbit) for g in orbit)
            reps = list(space._orbits(z, ref))
            assert {orbit_of[f] for f, _ in reps} == set(orbit_of.values())
            assert len(reps) == len(set(orbit_of.values()))
            assert all(weight == len(orbit_of[f]) for f, weight in reps)
            if 1 < len(fixing) < len(torus):
                seen.add("partly fixed reference")
            if any(weight >= (q - 1) ** 2 for _, weight in reps):
                seen.add("weight (q - 1)^k, k >= 2")
            if ref is None and len(reps) > 2**z.length:
                seen.add("cycle")  # an entry inside one component takes q values
    assert seen == {"partly fixed reference", "weight (q - 1)^k, k >= 2", "cycle"}


@pytest.mark.parametrize("n, q, lengths", [(3, 7, None), (4, 5, (2, 3, 4, 5))])
def test_orbit_counts_match_the_plain_scan(n, q, lengths):
    # the orbit-weighted cell and fixed-pair histograms against a scan of
    # every flag of the cell, with the references drawn from the cell
    space = build_space(n, q)
    cells = _cells(space)
    rng = random.Random(q)
    zs = space.weyl.elements
    if lengths is not None:
        zs = rng.sample([z for z in zs if z.length in lengths], 4)
    pos, base = space.relative_position, space.standard_flag
    for z in zs:
        cell = cells[z]
        for s in (space.default_torus(), tuple(rng.sample(range(1, q), n))):
            want = Counter(pos(f, _scaled(space, s, f)) for f in cell)
            assert space.histogram_Y_cell(s, base, z) == dict(want), (s, z.word)
        for ref in rng.sample(cell, min(3, len(cell))):
            # the translate of ref against the standard flag is ref itself
            want = Counter(pos(ref, f) for f in cell)
            assert space.histogram_Z(base, ref) == dict(want), (ref, z.word)


def test_count_z_matches_full_scan_for_arbitrary_bases_gl3_f7():
    space = build_space(3, 7)
    flags = list(space.flags)
    rng = random.Random(7)
    pos = space.relative_position
    for _ in range(4):
        base, base2 = rng.sample(flags, 2)
        z = pos(base, base2)
        want = Counter(pos(base2, f) for f in flags if pos(base, f) == z)
        assert space.histogram_Z(base, base2) == dict(want), (base, base2)


def test_orbit_walk_checks_its_weights(monkeypatch):
    # a walk that skips the first free entry of every column misses flags
    space = build_space(3, 5)
    original = flag._free_rows
    monkeypatch.setattr(flag, "_free_rows", lambda pivots: [r[1:] for r in original(pivots)])
    with pytest.raises(AssertionError, match="orbits of cell"):
        next(space._orbits(space.weyl.longest_element()))


# ---------------------------------------------------------------------------
# work counts: deterministic, independent of the machine


def count_calls(monkeypatch, name):
    """Count calls of the FlagSpace method name from here on; returns the counter."""
    calls = [0]
    original = getattr(FlagSpace, name)

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(FlagSpace, name, counted)
    return calls


def test_count_z_scans_one_cell(monkeypatch):
    space = build_space(3, 5)
    rng = random.Random(2)
    base = rng.choice(list(space.flags))
    base2 = next(f for f in space.flags if space.relative_position(base, f).length == 2)
    calls = count_calls(monkeypatch, "relative_position")
    space.count_Z(base, base2, space.weyl.identity)
    # one per torus orbit of cell(z), z read off the translate's pivot rows:
    # base2 is the standard flag, so its translate is a coordinate flag,
    # fixed by the whole torus, and the 25 flags of the cell fall into the
    # orbits of 0/1 entries
    assert calls[0] == 2**2


def test_count_y_total_scans_every_flag_once(monkeypatch):
    space = build_space(3, 5)
    positions = count_calls(monkeypatch, "relative_position")
    conjugations = count_calls(monkeypatch, "conjugate_flag")
    space.count_Y_total(space.default_torus(), space.weyl.normal_form((1, 2)))
    assert positions[0] == conjugations[0] == len(space.flags) == 186
