#!/usr/bin/env python3
"""Sweep flag spaces and emit the count-report CSV.

For each space the script runs `heckeflag verify flags --format csv`, which
compares three observed counts with their algebraic predictions: the
fixed-pair counts against structure constants at q, the whole-space counts
against the regular trace at q, and the cell counts against the fixed-pair
counts.  The reports are joined under one header; rows follow the schema

    n,q,w,z,observed,predicted,match

with z = "total" for whole-space rows.  Exits 2 on any mismatch, 1 on a space
the command refuses.

Usage: python scripts/flag_crosscheck.py [n q [n q ...]]
"""

import sys

from heckeflag import cli


def main():
    args = [int(a) for a in sys.argv[1:]]
    spaces = list(zip(args[::2], args[1::2])) if args else [(2, 3), (2, 5), (2, 7), (3, 5)]
    bad = 0
    for k, (n, q) in enumerate(spaces):
        result = cli.cmd_verify("flags", n=n, q=q, fmt="csv")
        if result.status == "error":
            print("\n".join(result.diagnostics), file=sys.stderr)
            return 1
        header, *rows = result.payload.splitlines(keepends=True)
        sys.stdout.write("".join(rows if k else [header] + rows))
        bad += sum(row.rstrip("\n").endswith(",0") for row in rows)
    if bad:
        print(f"{bad} mismatches", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
