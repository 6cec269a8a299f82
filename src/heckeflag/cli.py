"""Command-line surface: structure-constant tables, diagonal-support reports,
regular traces, and the self-contained verification suites.

Words on the command line are comma-separated 1-based generator indices; the
empty string is the identity.  Payload goes to stdout, diagnostics to stderr.
Exit codes: 0 ok, 2 at least one checked identity mismatched, 1 error.  Every
command is deterministic: identical invocations produce identical payloads.

The verify suites embed their expected values as formulas, not golden files,
so a fresh checkout self-verifies:

    heckeflag verify dihedral
    heckeflag verify flags --n 2 --q 3
    heckeflag verify hecke --type A3
    heckeflag verify all

The hecke suite computes each product T_w * T_z once and reads every check
from it; its q = -1 matrix trace applies sparse generator operators to each
basis vector.  Both cost O(|W|^2 * l(w0)) generator steps (A4, 120 elements:
about 2 s on a 2-vCPU x86 host); types with |W| > 400 are refused with exit 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

from .coxeter import build_system
from .eset import e_set
from .flag import build_space
from .hecke import HeckeAlgebra
from .poly import IntPoly

__all__ = ["CommandResult", "main", "cmd_nconst", "cmd_eset", "cmd_trace", "cmd_verify"]

_EXIT_CODES = {"ok": 0, "verification_failed": 2, "error": 1}
# the hecke suite does |W|^2 products; F4 (1152) and A5 (720) would take minutes
HECKE_SUITE_MAX_ORDER = 400


@dataclass
class CommandResult:
    status: str  # ok | verification_failed | error
    payload: str = ""
    diagnostics: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed word {text!r}: expected comma-separated integers")


def _word_str(word) -> str:
    return ",".join(str(g) for g in word)


def _clip(cell: str, limit: int = 48) -> str:
    return cell if len(cell) <= limit else cell[: limit - 3] + "..."


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    rows = [[_clip(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands


def cmd_nconst(type_spec: str, w_word: str, wp_word: str, fmt: str = "table") -> CommandResult:
    """All nonzero structure constants N(w, wp, .) as records."""
    try:
        system = build_system(type_spec)
        w = system.normal_form(_parse_word(w_word))
        wp = system.normal_form(_parse_word(wp_word))
        algebra = HeckeAlgebra(system)
        prod = algebra.product(algebra.t_basis(w), algebra.t_basis(wp))
    except ValueError as exc:
        return CommandResult("error", diagnostics=[str(exc)])

    records = [
        {"w": w.to_json(), "wp": wp.to_json(), "wpp": wpp.to_json(),
         "N": list(prod.coefficient(wpp))}
        for wpp in prod.support()
    ]
    if fmt == "json":
        payload = json.dumps(records, indent=2) + "\n"
    elif fmt == "csv":
        rows = [
            [_word_str(r["w"]), _word_str(r["wp"]), _word_str(r["wpp"]), _word_str(r["N"])]
            for r in records
        ]
        payload = _render_csv(["w", "wp", "wpp", "N"], rows)
    else:
        rows = [
            [_word_str(r["w"]), _word_str(r["wp"]), _word_str(r["wpp"]),
             str(IntPoly(r["N"]))]
            for r in records
        ]
        payload = _render_table(["w", "wp", "wpp", "N"], rows)
    return CommandResult("ok", payload)


def cmd_eset(type_spec: str, w_word: str, max_len: int | None, fmt: str = "table") -> CommandResult:
    """Diagonal-support report for w, including d and the degree maximizers."""
    try:
        system = build_system(type_spec)
        w = system.normal_form(_parse_word(w_word))
        report = e_set(HeckeAlgebra(system), w, max_len)
    except ValueError as exc:
        return CommandResult("error", diagnostics=[str(exc)])

    doc = report.to_json()
    if fmt == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        rows = [
            [_word_str(m["z"]), _word_str(m["N"]), str(m["deg"])] for m in doc["members"]
        ]
        payload = _render_csv(["z", "N", "deg"], rows)
    else:
        head = [
            f"w = [{_word_str(doc['w'])}]",
            f"truncation = {doc['truncation']}",
            f"d = {doc['d']}",
            "e_prime = " + "; ".join(f"[{_word_str(z)}]" for z in doc["e_prime"]),
        ]
        rows = [
            [f"[{_word_str(m['z'])}]", str(IntPoly(m["N"])), str(m["deg"])]
            for m in doc["members"]
        ]
        payload = "\n".join(head) + "\n" + _render_table(["z", "N", "deg"], rows)
    return CommandResult("ok", payload)


def cmd_trace(type_spec: str, w_word: str, at: int | None, fmt: str = "table") -> CommandResult:
    """Regular trace of T_w as a polynomial, optionally evaluated."""
    try:
        system = build_system(type_spec)
        w = system.normal_form(_parse_word(w_word))
        trace = HeckeAlgebra(system).regular_trace(w)
    except ValueError as exc:
        return CommandResult("error", diagnostics=[str(exc)])

    value = trace(at) if at is not None else None
    doc = {"type": type_spec, "w": w.to_json(), "trace": list(trace),
           "at": at, "value": value}
    if fmt == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        payload = _render_csv(
            ["type", "w", "trace", "at", "value"],
            [[type_spec, _word_str(doc["w"]), _word_str(doc["trace"]),
              "" if at is None else str(at), "" if value is None else str(value)]],
        )
    else:
        lines = [f"trace(T_[{_word_str(doc['w'])}]) = {trace}"]
        if at is not None:
            lines.append(f"value at q = {at}: {value}")
        payload = "\n".join(lines) + "\n"
    return CommandResult("ok", payload)


# ---------------------------------------------------------------------------
# verification suites


def _check(checks: list, suite: str, name: str, observed, predicted):
    checks.append(
        {
            "suite": suite,
            "check": name,
            "observed": observed,
            "predicted": predicted,
            "ok": observed == predicted,
        }
    )


def _dihedral_suite() -> list[dict]:
    checks: list[dict] = []
    for n in (2, 3, 4):
        system = build_system(f"I2({2 * n})")
        algebra = HeckeAlgebra(system)
        for k in range(1, n + 1):
            w = system.normal_form([1, 2] * k)
            got = sorted(z.to_json() for z in e_set(algebra, w).member_elements())
            want = sorted(
                z.to_json() for z in system.elements if z.length >= 2 * n - k + 1
            )
            _check(checks, "dihedral", f"I2({2*n}) members((s1s2)^{k})", got, want)
    system = build_system("I2(inf)")
    algebra = HeckeAlgebra(system)
    bound = 14
    for k in range(1, 6):
        w = system.normal_form([1, 2] * k)
        got = [z.to_json() for z in e_set(algebra, w, bound).member_elements()]
        _check(checks, "dihedral", f"I2(inf) members((s1s2)^{k}) up to {bound}", got, [])
    w = system.normal_form([1, 2, 1])
    got = [z.to_json() for z in e_set(algebra, w, bound).member_elements()]
    want = [
        [1 if i % 2 == 0 else 2 for i in range(length)] for length in range(2, bound + 1)
    ]
    _check(checks, "dihedral", f"I2(inf) members(s1s2s1) up to {bound}", got, want)
    return checks


def _minus_one_traces(system) -> list[int]:
    """Trace of left multiplication by T_w at q = -1, for every w in order.

    Built from the defining relations alone, independent of HeckeAlgebra:
    at q = -1 the generator acts by T_s e_x = e_{sx} if sx > x, else
    -e_{sx} - 2 e_x, so each column has at most two nonzeros.  T_w is applied
    to each basis vector e_z letter by letter, last letter first, and the
    z-th entries are summed.  Cost O(|W|^2 * l(w0)) steps on sparse vectors.
    """
    elements = system.elements
    steps = []
    for g in range(1, system.rank + 1):
        row = []
        for x in elements:
            sx = system.left_mult(x, g)
            row.append((sx.index, sx.length > x.length))
        steps.append(row)
    traces = []
    for w in elements:
        letters = [steps[g - 1] for g in reversed(w.word)]
        total = 0
        for z in range(len(elements)):
            vec = {z: 1}
            for step in letters:
                out: dict[int, int] = {}
                for x, c in vec.items():
                    sx, up = step[x]
                    if up:
                        out[sx] = out.get(sx, 0) + c
                    else:
                        out[sx] = out.get(sx, 0) - c
                        out[x] = out.get(x, 0) - 2 * c
                vec = out
            total += vec.get(z, 0)
        traces.append(total)
    return traces


def _hecke_suite(type_spec: str) -> list[dict]:
    system = build_system(type_spec)
    if not system.is_finite:
        raise ValueError("hecke suite needs a finite type")
    if system.order > HECKE_SUITE_MAX_ORDER:
        raise ValueError(
            f"hecke suite on {type_spec} refused: |W| = {system.order} exceeds "
            f"the bound {HECKE_SUITE_MAX_ORDER} (the suite does |W|^2 products)"
        )
    algebra = HeckeAlgebra(system)
    elements = system.elements
    w0 = system.longest_element()
    checks: list[dict] = []
    suite = f"hecke[{type_spec}]"

    # one product T_w * T_z per pair feeds every check; each list keeps the
    # (w, z, ...) order of the element enumeration
    bad_membership, bad_top, bad_deg, bad_pos, bad_q1 = [], [], [], [], []
    traces = []
    for w in elements:
        tw = algebra.t_basis(w)
        diag_sum = 0
        for z in elements:
            prod = algebra.product(tw, algebra.t_basis(z))
            entry = prod.coefficient(z)
            diag_sum += entry(-1)
            if z == w0:
                # the longest element always carries a nonzero constant of
                # top degree
                if not entry:
                    bad_membership.append(w.to_json())
                if entry.degree != w.length:
                    bad_top.append(w.to_json())
            # diagonal degrees are bounded by l(w) and positive at small q
            if entry:
                if entry.degree > w.length:
                    bad_deg.append((w.to_json(), z.to_json()))
                for m in (2, 3, 4):
                    if entry(m) <= 0:
                        bad_pos.append((w.to_json(), z.to_json(), m))
            # specializing q = 1 degenerates to the group algebra: T_{wz} alone
            wz = system.multiply(w, z)
            wrong = [x for x, p in prod.terms.items() if p(1) != (1 if x == wz else 0)]
            if wz not in prod.terms:
                wrong.append(wz)
            for x in sorted(wrong, key=lambda e: e.index):
                bad_q1.append((w.to_json(), z.to_json(), x.to_json()))
        traces.append((algebra.regular_trace(w)(-1), diag_sum))

    # trace at q = -1 agrees with the specialized-algebra matrix trace
    bad_trace = [
        (w.to_json(), matrix_trace, poly_trace, diag_sum)
        for w, matrix_trace, (poly_trace, diag_sum)
        in zip(elements, _minus_one_traces(system), traces)
        if not matrix_trace == poly_trace == diag_sum
    ]

    _check(checks, suite, "w0 membership fails for", bad_membership, [])
    _check(checks, suite, "top degree != l(w) for", bad_top, [])
    _check(checks, suite, "degree bound violations", bad_deg, [])
    _check(checks, suite, "positivity violations at q in {2,3,4}", bad_pos, [])
    _check(checks, suite, "q=1 group-algebra violations", bad_q1, [])
    _check(checks, suite, "q=-1 trace mismatches", bad_trace, [])
    return checks


def _flags_suite(n: int, q: int) -> list[dict]:
    space = build_space(n, q)
    algebra = HeckeAlgebra(space.weyl)
    s = space.default_torus()
    base = space.standard_flag
    checks: list[dict] = []
    suite = f"flags[n={n},q={q}]"
    for wb in space.weyl.elements:
        other = space.coordinate_flag(wb)
        z = space.relative_position(base, other)
        zi = space.weyl.inverse(z)
        # one scan of cell(z) per histogram yields the counts of every w
        pair = space.histogram_Z(base, other)
        cell = space.histogram_Y_cell(s, base, z)
        for w in space.weyl.elements:
            observed = pair.get(w, 0)
            predicted = algebra.structure_constant(w, zi, zi)(q)
            _check(checks, suite, f"count_Z z=[{_word_str(z.word)}] w=[{_word_str(w.word)}]",
                   observed, predicted)
            _check(checks, suite, f"cell=Z z=[{_word_str(z.word)}] w=[{_word_str(w.word)}]",
                   cell.get(w, 0), observed)
    totals = space.histogram_Y_total(s)
    for w in space.weyl.elements:
        observed = totals.get(w, 0)
        predicted = algebra.regular_trace(w)(q)
        _check(checks, suite, f"count_Y_total w=[{_word_str(w.word)}]", observed, predicted)
    return checks


def _flags_csv_rows(n: int, q: int, checks: list[dict]) -> list[list[str]]:
    # count reports in the documented row schema: n,q,w,z,observed,predicted,match
    rows = []
    for c in checks:
        name = c["check"]
        if name.startswith("count_Z") or name.startswith("cell=Z"):
            zpart = name.split("z=[")[1].split("]")[0]
            wpart = name.split("w=[")[1].split("]")[0]
        elif name.startswith("count_Y_total"):
            wpart = name.split("w=[")[1].split("]")[0]
            zpart = "total"
        else:
            continue
        rows.append(
            [str(n), str(q), wpart, zpart, str(c["observed"]), str(c["predicted"]),
             "1" if c["ok"] else "0"]
        )
    return rows


def cmd_verify(suite: str, type_spec: str = "A3", n: int = 2, q: int = 3,
               fmt: str = "table") -> CommandResult:
    """Run a verification suite; mismatches are listed and set exit code 2."""
    try:
        if suite == "dihedral":
            checks = _dihedral_suite()
        elif suite == "hecke":
            checks = _hecke_suite(type_spec)
        elif suite == "flags":
            checks = _flags_suite(n, q)
        elif suite == "all":
            checks = _dihedral_suite()
            for t in ("A2", "A3", "B3", "I2(4)"):
                checks += _hecke_suite(t)
            for nn, qq in ((2, 3), (2, 5), (2, 7), (3, 5)):
                checks += _flags_suite(nn, qq)
        else:
            raise ValueError(f"unknown suite {suite!r}: expected hecke|dihedral|flags|all")
    except ValueError as exc:
        return CommandResult("error", diagnostics=[str(exc)])

    failures = [c for c in checks if not c["ok"]]
    status = "ok" if not failures else "verification_failed"
    summary = f"{len(checks)} checks, {len(failures)} mismatches"

    if fmt == "json":
        doc = {"status": status, "summary": summary, "checks": checks}
        payload = json.dumps(doc, indent=2, default=str) + "\n"
    elif fmt == "csv":
        if suite == "flags":
            payload = _render_csv(
                ["n", "q", "w", "z", "observed", "predicted", "match"],
                _flags_csv_rows(n, q, checks),
            )
        else:
            rows = [
                [c["suite"], c["check"], str(c["observed"]), str(c["predicted"]),
                 "1" if c["ok"] else "0"]
                for c in checks
            ]
            payload = _render_csv(["suite", "check", "observed", "predicted", "ok"], rows)
    else:
        shown = failures if failures else checks
        rows = [
            [c["suite"], c["check"], str(c["observed"]), str(c["predicted"]),
             "ok" if c["ok"] else "MISMATCH"]
            for c in shown
        ]
        payload = _render_table(["suite", "check", "observed", "predicted", "status"], rows)
        payload += summary + "\n"
    diagnostics = [] if not failures else [f"{len(failures)} verification mismatches"]
    return CommandResult(status, payload, diagnostics)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which collides with the
    # verification_failed exit code; raise instead and map to 1.
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="heckeflag", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = dict(default="table", choices=["table", "json", "csv"])

    p = sub.add_parser("nconst", help="nonzero structure constants of T_w * T_wp")
    p.add_argument("--type", required=True)
    p.add_argument("--w", default="")
    p.add_argument("--wp", default="")
    p.add_argument("--format", **common)

    p = sub.add_parser("eset", help="diagonal-support report for w")
    p.add_argument("--type", required=True)
    p.add_argument("--w", default="")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--format", **common)

    p = sub.add_parser("trace", help="regular trace of T_w")
    p.add_argument("--type", required=True)
    p.add_argument("--w", default="")
    p.add_argument("--at", type=int, default=None)
    p.add_argument("--format", **common)

    p = sub.add_parser("verify", help="run a self-contained verification suite")
    p.add_argument("suite_pos", nargs="?", default=None,
                   metavar="suite", help="hecke|dihedral|flags|all")
    p.add_argument("--suite", default=None)
    p.add_argument("--type", default="A3")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--format", **common)
    return parser


def run(argv: list[str] | None = None) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "nconst":
            return cmd_nconst(args.type, args.w, args.wp, args.format)
        if args.command == "eset":
            return cmd_eset(args.type, args.w, args.max_len, args.format)
        if args.command == "trace":
            return cmd_trace(args.type, args.w, args.at, args.format)
        suite = args.suite if args.suite is not None else args.suite_pos
        if suite is None:
            raise ValueError("verify needs a suite: hecke|dihedral|flags|all")
        return cmd_verify(suite, args.type, args.n, args.q, args.format)
    except ValueError as exc:
        return CommandResult("error", diagnostics=[str(exc)])


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    if result.payload:
        sys.stdout.write(result.payload)
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
