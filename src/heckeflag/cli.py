"""Command-line surface: structure-constant tables, diagonal-support reports,
regular traces, and the verification suites of heckeflag.verify.

Words on the command line are comma-separated 1-based generator indices; the
empty string is the identity.  Payload goes to stdout, diagnostics to stderr.
Exit codes: 0 ok, 2 at least one checked identity mismatched, 1 error.  Every
command is deterministic: identical invocations produce identical payloads.

The verify suites embed their expected values as formulas, not golden files,
so a fresh checkout self-verifies.  Each suite's parser declares the options
that its function (heckeflag.verify's hecke_suite, flags_suite,
dihedral_suite or all_suites) reads, and binds it:

    heckeflag verify dihedral
    heckeflag verify flags --n 2 --q 3 --n 3 --q 5
    heckeflag verify hecke --type A3
    heckeflag verify all

Each command computes its data once: a JSON document, CSV rows and a table.
``run`` renders the chosen --format of it and turns any ValueError into exit
1: a usage error, an option the command or suite does not read, or a size
past a bound, refused before any work (hecke: |W| > 720 or l(w0) > 64;
flags: over 200000 flags in all; trace, eset: a row past length 500).
-h/--help is an ok result whose payload is the help text.  Checks that all
name a flag space have a CSV row n,q,w,z,observed,predicted,match per count,
z = "total" for the whole-space counts.  ``run`` returns what ``main`` prints:

    >>> print(run(["trace", "--type", "A1", "--w", "1", "--at", "-1"]).payload, end="")
    trace(T_[1]) = q - 1
    value at q = -1: -2
    >>> run(["verify", "dihedral", "--type", "B3"])
    CommandResult(status='error', payload='', diagnostics=['unrecognized arguments: --type B3'])
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, field

from .coxeter import build_system
from .eset import e_set
from .hecke import ROW_MAX_LEN, HeckeAlgebra
from .verify import _word_str, all_suites, dihedral_suite, flags_suite, hecke_suite

__all__ = ["CommandResult", "main", "run"]

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
    parts = [part.strip() for part in text.split(",")] if text else []
    # exactly the strings int() reads, apart from digit-group underscores
    if not all((p[1:] if p[:1] in "+-" else p).isdecimal() for p in parts):
        raise ValueError(f"malformed word {text!r}: expected comma-separated integers")
    return tuple(map(int, parts))


def _clip(cell: str, limit: int = 48) -> str:
    return cell if len(cell) <= limit else cell[: limit - 3] + "..."


def _render_table(header: list[str], rows: list[list]) -> str:
    rows = [[_clip(str(c)) for c in row] for row in rows]
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


# ---------------------------------------------------------------------------
# commands: each returns (JSON document, CSV rows thunk with the header row
# first, table text thunk, number of mismatched checks); its parser binds it
# as ``compute``, and run renders one format of what it returns


def _nconst(args):
    """All nonzero structure constants N(w, wp, .) as records."""
    system = build_system(args.type)
    w = system.normal_form(_parse_word(args.w))
    wp = system.normal_form(_parse_word(args.wp))
    length = w.length + wp.length
    if length > ROW_MAX_LEN:
        # the product's time and memory grow steeply with the lengths
        raise ValueError(
            f"nconst on {args.type} refused: l(w) + l(wp) = {length} exceeds {ROW_MAX_LEN}")
    algebra = HeckeAlgebra(system)
    prod = algebra.product(algebra.t_basis(w), algebra.t_basis(wp))
    terms = [(x, prod.coefficient(x)) for x in prod.support()]
    doc = [{"w": w.to_json(), "wp": wp.to_json(), "wpp": x.to_json(), "N": list(n)}
           for x, n in terms]
    header = ["w", "wp", "wpp", "N"]

    def rows(poly_str):
        return [[_word_str(w.word), _word_str(wp.word), _word_str(x.word), poly_str(n)]
                for x, n in terms]

    return doc, lambda: [header, *rows(_word_str)], lambda: _render_table(header, rows(str)), 0


def _eset(args):
    """Diagonal-support report for w, including d and the degree maximizers."""
    system = build_system(args.type)
    w = system.normal_form(_parse_word(args.w))
    report = e_set(HeckeAlgebra(system), w, args.max_len)
    doc = report.to_json()
    header = ["z", "N", "deg"]

    def table():
        head = [
            f"w = [{_word_str(w.word)}]",
            f"truncation = {report.truncation}",
            f"d = {report.d}",
            "e_prime = " + "; ".join(f"[{_word_str(z.word)}]" for z in report.e_prime),
        ]
        rows = [[f"[{_word_str(z.word)}]", n, deg] for z, n, deg in report.members]
        return "\n".join(head) + "\n" + _render_table(header, rows)

    def csv_rows():
        return [header] + [[_word_str(z.word), _word_str(n), deg] for z, n, deg in report.members]

    return doc, csv_rows, table, 0


def _trace(args):
    """Regular trace of T_w as a polynomial, optionally evaluated."""
    system = build_system(args.type)
    w = system.normal_form(_parse_word(args.w))
    trace = HeckeAlgebra(system).regular_trace(w)
    at = args.at
    value = trace(at) if at is not None else None
    doc = {"type": args.type, "w": w.to_json(), "trace": list(trace), "at": at, "value": value}
    line = f"trace(T_[{_word_str(w.word)}]) = {trace}\n"
    # the CSV writer writes None as an empty cell
    return (doc,
            lambda: [["type", "w", "trace", "at", "value"],
                     [args.type, _word_str(w.word), _word_str(trace), at, value]],
            lambda: line if at is None else line + f"value at q = {at}: {value}\n", 0)


def _verify(args):
    """The checks of the suite its parser binds; a mismatch sets exit code 2."""
    checks = args.checks(args)
    failures = [c for c in checks if not c.ok]
    summary = f"{len(checks)} checks, {len(failures)} mismatches"
    doc = {"status": "verification_failed" if failures else "ok", "summary": summary,
           "checks": [c.to_json() for c in checks]}

    def csv_rows():
        # one row per count when every check names its flag space
        if all(c.n is not None for c in checks):
            return [["n", "q", "w", "z", "observed", "predicted", "match"]] + [
                [c.n, c.q, _word_str(c.w), c.z if isinstance(c.z, str) else _word_str(c.z),
                 c.observed, c.predicted, int(c.ok)] for c in checks]
        return [["suite", "check", "observed", "predicted", "ok"]] + [
            [c.suite, c.name, c.observed, c.predicted, int(c.ok)] for c in checks]

    def table():
        return _render_table(["suite", "check", "observed", "predicted", "status"], [
            [c.suite, c.name, c.observed, c.predicted, "ok" if c.ok else "MISMATCH"]
            for c in (failures or checks)]) + summary + "\n"

    return doc, csv_rows, table, len(failures)


def _spaces(ns: list[int] | None, qs: list[int] | None) -> list[tuple[int, int]]:
    """The flag spaces of the --n/--q pairs, in order; 2 3 when neither is given."""
    if ns is None and qs is None:
        return [(2, 3)]
    ns, qs = ns or [], qs or []
    if len(ns) != len(qs):
        raise ValueError(f"verify needs one --q per --n: got {len(ns)} --n and {len(qs)} --q")
    return list(zip(ns, qs))


# ---------------------------------------------------------------------------
# argument parsing and rendering


class _HelpRequested(Exception):
    """-h/--help was given; carries the help text."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which collides with the
    # verification_failed exit code; raise instead and map to 1.
    def error(self, message):
        raise ValueError(message)

    # argparse prints the help and exits with code 0; raise the text instead,
    # and run returns it as an ok payload
    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


@functools.cache  # parsing leaves the parser as it was, so one serves every run
def _build_parser() -> _Parser:
    parser = _Parser(prog="heckeflag", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nconst", help="nonzero structure constants of T_w * T_wp")
    p.add_argument("--type", required=True)
    p.add_argument("--w", default="")
    p.add_argument("--wp", default="")
    p.set_defaults(compute=_nconst)

    p = sub.add_parser("eset", help="diagonal-support report for w")
    p.add_argument("--type", required=True)
    p.add_argument("--w", default="")
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(compute=_eset)

    p = sub.add_parser("trace", help="regular trace of T_w")
    p.add_argument("--type", required=True)
    p.add_argument("--w", default="")
    p.add_argument("--at", type=int, default=None)
    p.set_defaults(compute=_trace)

    verify = sub.add_parser("verify", help="run a self-contained verification suite")
    verify.set_defaults(compute=_verify)
    suites = verify.add_subparsers(dest="suite", required=True)
    p = suites.add_parser("hecke", help="Hecke-algebra identities on one finite type")
    p.add_argument("--type", default="A3")
    p.set_defaults(checks=lambda args: hecke_suite(args.type))
    p = suites.add_parser("flags", help="flag counts on GL_n(F_q) against Hecke values")
    # repeated --n/--q pairs select several flag spaces, in order
    p.add_argument("--n", type=int, action="append")
    p.add_argument("--q", type=int, action="append")
    p.set_defaults(checks=lambda args: flags_suite(_spaces(args.n, args.q)))
    p = suites.add_parser("dihedral", help="diagonal-support sets of dihedral groups")
    p.set_defaults(checks=lambda args: dihedral_suite())
    p = suites.add_parser("all", help="the three suites on fixed small inputs")
    p.set_defaults(checks=lambda args: all_suites())

    for p in (*sub.choices.values(), *suites.choices.values()):
        if p is not verify:
            p.add_argument("--format", default="table", choices=["table", "json", "csv"])
    return parser


def run(argv: list[str] | None = None) -> CommandResult:
    try:
        args = _build_parser().parse_args(argv)
        doc, csv_rows, table, mismatches = args.compute(args)
        # rendering stays inside the try: str() of an int past Python's digit
        # limit (a huge --at) raises ValueError too
        if args.format == "json":
            payload = json.dumps(doc, indent=2, default=str) + "\n"
        elif args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(csv_rows())
            payload = buf.getvalue()
        else:
            payload = table()
    except ValueError as exc:
        return CommandResult("error", diagnostics=[str(exc)])
    except _HelpRequested as help_text:
        return CommandResult("ok", str(help_text))
    if mismatches:
        return CommandResult("verification_failed", payload,
                             [f"{mismatches} verification mismatches"])
    return CommandResult("ok", payload)


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    if result.payload:
        sys.stdout.write(result.payload)
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
