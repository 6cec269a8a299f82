"""The benchmark workloads: set-up, a seeded op list, and a correctness oracle
for every op.

Each oracle checks a closed-form law (the q = 1 group-algebra trace, the top
degree carried by w0, the generator trace, flag counts equal to the Hecke
value at q) and evaluates polynomials with its own arithmetic.  None of them
reruns the code an op times: the flag counts are checked against the Hecke
side, whose values are computed once while the op list is made.

Ops call the package through module and class attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

from heckeflag import cli, coxeter, eset, flag, hecke

# e_set cost grows steeply with l(w); one w per stratum keeps every seed's op
# list equally heavy
ESET_LENGTHS = (6, 9, 12, 15, 18)
TRACE_LENGTHS = (1, 2, 3)
FLAG_N, FLAG_Q = 4, 5
# z of one length gives every seed cells of the same size to rescan
FLAG_Z_LENGTH = 3


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    setup: Callable[[], Any]
    make_ops: Callable[[Any, Any], list]


def value_at(coeffs, q):
    """Evaluate an ascending coefficient sequence at q."""
    return sum(c * q**k for k, c in enumerate(coeffs))


def top_degree(coeffs):
    nonzero = [k for k, c in enumerate(coeffs) if c]
    return nonzero[-1] if nonzero else None


def by_length(system):
    groups = {}
    for x in system.elements:
        groups.setdefault(len(x.word), []).append(x)
    return groups


def word_label(w):
    return ",".join(map(str, w.word))


# ---------------------------------------------------------------------------
# eset-f4: few products, each with thousands of terms


def check_e_set(w, w0, report):
    members = {z: (coeffs, deg) for z, coeffs, deg in report.members}
    if any(top_degree(coeffs) != deg for coeffs, deg in members.values()):
        return False
    if w0 not in members or members[w0][1] != len(w.word):
        return False
    if report.d != max(deg for _, deg in members.values()):
        return False
    return not w.word or sum(value_at(c, 1) for c, _ in members.values()) == 0


def make_eset_ops(algebra, rng):
    groups = by_length(algebra.system)
    w0 = algebra.system.longest_element()
    ops = []
    for length in ESET_LENGTHS:
        w = rng.choice(groups[length])
        ops.append(Op(
            f"e_set F4 [{word_label(w)}]",
            lambda w=w: eset.e_set(algebra, w),
            lambda report, w=w: check_e_set(w, w0, report),
        ))
    return ops


# ---------------------------------------------------------------------------
# trace-b6: many small products over a large group


def check_trace(w, order, trace):
    coeffs = tuple(trace)
    if value_at(coeffs, 1) != 0:
        return False
    if len(w.word) == 1:
        return coeffs == (-order // 2, order // 2)  # (q - 1) |W| / 2
    return True


def make_trace_ops(algebra, rng):
    groups = by_length(algebra.system)
    order = len(algebra.system.elements)
    ops = []
    for length in TRACE_LENGTHS:
        w = rng.choice(groups[length])
        ops.append(Op(
            f"regular_trace B6 [{word_label(w)}]",
            lambda w=w: algebra.regular_trace(w),
            lambda trace, w=w: check_trace(w, order, trace),
        ))
    return ops


# ---------------------------------------------------------------------------
# flags-gl4f5: exhaustive flag scans against the Hecke side


def make_flag_ops(space, rng):
    weyl, q = space.weyl, space.q
    algebra = hecke.HeckeAlgebra(weyl)
    s = space.default_torus()
    base = space.standard_flag
    middle = by_length(weyl)[FLAG_Z_LENGTH]

    def diagonal_pick(z):
        # a w whose predicted count N(w, z^-1, z^-1)(q) is nonzero
        zi = weyl.inverse(z)
        values = [(w, value_at(algebra.structure_constant(w, zi, zi), q))
                  for w in weyl.elements]
        return rng.choice([(w, v) for w, v in values if v])

    w_total = rng.choice(weyl.elements)
    total = value_at(algebra.regular_trace(w_total), q)
    other = space.coordinate_flag(rng.choice(middle))
    z_pair = space.relative_position(base, other)
    w_pair, pair = diagonal_pick(z_pair)
    z_cell = rng.choice(middle)
    w_cell, cell = diagonal_pick(z_cell)
    return [
        Op(f"count_Y_total [{word_label(w_total)}]",
           lambda: space.count_Y_total(s, w_total),
           lambda got: got == total),
        Op(f"count_Z z=[{word_label(z_pair)}] w=[{word_label(w_pair)}]",
           lambda: space.count_Z(base, other, w_pair),
           lambda got: got == pair),
        Op(f"count_Y_cell z=[{word_label(z_cell)}] w=[{word_label(w_cell)}]",
           lambda: space.count_Y_cell(s, base, z_cell, w_cell),
           lambda got: got == cell),
    ]


# ---------------------------------------------------------------------------
# verify-all: the headline command


# the summary line of a verify report
SUMMARY = re.compile(r"^(\d+) checks, (\d+) mismatches$", re.M)
# bound before the tracer can swap coxeter.build_system for its wrapper
_clear_systems = coxeter.build_system.cache_clear


def check_verify(result):
    found = SUMMARY.search(result.payload)
    return (
        result.status == "ok"
        and result.exit_code == 0
        and found is not None
        and int(found.group(1)) > 0
        and found.group(2) == "0"
    )


def run_verify_all():
    # the suites build their own systems through the lru cache; clearing it
    # makes every op pay for them, as one invocation of the command does
    _clear_systems()
    return cli.run(["verify", "all"])


def make_verify_ops(_, rng):
    return [Op("verify all", run_verify_all, check_verify)]


WORKLOADS = {
    "eset-f4": Workload(
        lambda: hecke.HeckeAlgebra(coxeter.build_system("F4")), make_eset_ops),
    "trace-b6": Workload(
        lambda: hecke.HeckeAlgebra(coxeter.build_system("B6")), make_trace_ops),
    "flags-gl4f5": Workload(
        lambda: flag.build_space(FLAG_N, FLAG_Q), make_flag_ops),
    "verify-all": Workload(lambda: None, make_verify_ops),
}
