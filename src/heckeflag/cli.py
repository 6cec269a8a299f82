"""Command-line surface: structure-constant tables, diagonal-support reports,
regular traces, and the verification suites of heckeflag.verify.

Words on the command line are comma-separated 1-based generator indices; the
empty string is the identity.  Payload goes to stdout, diagnostics to stderr.
Exit codes: 0 ok, 2 at least one checked identity mismatched, 1 error.  Every
command is deterministic: identical invocations produce identical payloads.

The verify suites embed their expected values as formulas, not golden files,
so a fresh checkout self-verifies:

    heckeflag verify dihedral
    heckeflag verify flags --n 2 --q 3 --n 3 --q 5
    heckeflag verify hecke --type A3
    heckeflag verify all

This module parses arguments and renders the suites' check records.  Repeated
--n/--q pairs run the flags suite on each space in order; its CSV has one
header and a row n,q,w,z,observed,predicted,match per count, with z = "total"
for the whole-space counts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .coxeter import build_system
from .eset import e_set
from .hecke import ROW_MAX_LEN, HeckeAlgebra
from .poly import IntPoly
from .verify import _word_str, run_suite

__all__ = ["CommandResult", "main", "cmd_nconst", "cmd_eset", "cmd_trace", "cmd_verify"]

_EXIT_CODES = {"ok": 0, "verification_failed": 2, "error": 1}


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
        length = len(w.word) + len(wp.word)
        if not system.is_finite and length > ROW_MAX_LEN:
            # the product's time and memory grow steeply with the lengths
            raise ValueError(
                f"nconst on {type_spec} refused: l(w) + l(wp) = {length} exceeds "
                f"{ROW_MAX_LEN}")
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


def cmd_verify(suite: str, type_spec: str = "A3",
               spaces: Sequence[tuple[int, int]] = ((2, 3),),
               fmt: str = "table") -> CommandResult:
    """Run a verification suite; mismatches are listed and set exit code 2.

    type_spec selects the hecke suite's type, spaces the (n, q) flag spaces of
    the flags suite, in order.
    """
    try:
        checks = run_suite(suite, type_spec, spaces)
    except ValueError as exc:
        return CommandResult("error", diagnostics=[str(exc)])

    failures = [c for c in checks if not c.ok]
    status = "ok" if not failures else "verification_failed"
    summary = f"{len(checks)} checks, {len(failures)} mismatches"

    if fmt == "json":
        doc = {"status": status, "summary": summary, "checks": [c.to_json() for c in checks]}
        payload = json.dumps(doc, indent=2, default=str) + "\n"
    elif fmt == "csv" and suite == "flags":
        rows = [
            [str(c.n), str(c.q), _word_str(c.w),
             c.z if isinstance(c.z, str) else _word_str(c.z),
             str(c.observed), str(c.predicted), "1" if c.ok else "0"]
            for c in checks
        ]
        payload = _render_csv(["n", "q", "w", "z", "observed", "predicted", "match"], rows)
    elif fmt == "csv":
        rows = [
            [c.suite, c.name, str(c.observed), str(c.predicted), "1" if c.ok else "0"]
            for c in checks
        ]
        payload = _render_csv(["suite", "check", "observed", "predicted", "ok"], rows)
    else:
        rows = [
            [c.suite, c.name, str(c.observed), str(c.predicted),
             "ok" if c.ok else "MISMATCH"]
            for c in (failures or checks)
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
    # repeated --n/--q pairs select several flag spaces, in order
    p.add_argument("--n", type=int, action="append")
    p.add_argument("--q", type=int, action="append")
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
        ns, qs = args.n or [2], args.q or [3]
        if len(ns) != len(qs):
            raise ValueError(f"verify needs one --q per --n: got {len(ns)} --n and {len(qs)} --q")
        return cmd_verify(suite, args.type, list(zip(ns, qs)), args.format)
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
