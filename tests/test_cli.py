"""CLI tests call ``cli.run`` in process and check the payloads of every
format, the exit-code contract, and determinism; one subprocess smoke test
covers the real entry point."""

import csv
import io
import json
import re
import shlex
import subprocess
import sys
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from heckeflag import cli, coxeter, flag, hecke, verify
from heckeflag.coxeter import MAX_FINITE_ORDER, MAX_WORD_LETTERS, CoxeterSystem
from heckeflag.flag import FLAG_SPACE_MAX_FLAGS, FlagSpace, build_space
from heckeflag.hecke import ROW_MAX_LEN, HeckeAlgebra, HeckeElt
from heckeflag.poly import ONE, Q_MINUS_ONE

_README = Path(__file__).resolve().parents[1] / "README.md"


def run_json(argv):
    result = cli.run(argv)
    assert result.status == "ok", result.diagnostics
    return json.loads(result.payload)


# ---------------------------------------------------------------------------
# nconst


def test_nconst_a1_quadratic():
    doc = run_json(["nconst", "--type", "A1", "--w", "1", "--wp", "1", "--format", "json"])
    assert doc == [
        {"w": [1], "wp": [1], "wpp": [], "N": [0, 1]},
        {"w": [1], "wp": [1], "wpp": [1], "N": [-1, 1]},
    ]


def test_nconst_a2_example():
    doc = run_json(["nconst", "--type", "A2", "--w", "1,2", "--wp", "2", "--format", "json"])
    assert doc == [
        {"w": [1, 2], "wp": [2], "wpp": [1], "N": [0, 1]},
        {"w": [1, 2], "wp": [2], "wpp": [1, 2], "N": [-1, 1]},
    ]


def test_nconst_identity_unit():
    doc = run_json(["nconst", "--type", "A2", "--w", "", "--wp", "2,1", "--format", "json"])
    assert doc == [{"w": [], "wp": [2, 1], "wpp": [2, 1], "N": [1]}]


def test_a_signed_letter_reads_as_the_letter():
    # a word reads exactly the strings int() reads: +1 is the letter 1
    signed = cli.run(["trace", "--type", "A2", "--w", "+1,2"])
    assert signed.status == "ok"
    assert signed == cli.run(["trace", "--type", "A2", "--w", "1,2"])


def test_nconst_csv():
    result = cli.run(["nconst", "--type", "A1", "--w", "1", "--wp", "1", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(result.payload)))
    assert rows == [["w", "wp", "wpp", "N"], ["1", "1", "", "0,1"], ["1", "1", "1", "-1,1"]]


def test_nconst_parse_error():
    result = cli.run(["nconst", "--type", "A2", "--w", "one", "--wp", ""])
    assert result.status == "error"
    assert result.exit_code == 1
    assert result.payload == ""
    assert result.diagnostics


# ---------------------------------------------------------------------------
# eset


def test_eset_i24():
    doc = run_json(["eset", "--type", "I2(4)", "--w", "1,2", "--format", "json"])
    assert doc["members"] == [{"z": [1, 2, 1, 2], "N": [1, -2, 1], "deg": 2}]
    assert doc["d"] == 2
    assert doc["e_prime"] == [[1, 2, 1, 2]]
    assert doc["truncation"] is None


def test_eset_infinite_with_bound():
    doc = run_json(
        ["eset", "--type", "I2(inf)", "--w", "1,2", "--max-len", "12", "--format", "json"]
    )
    assert doc["members"] == []
    assert doc["truncation"] == 12
    assert doc["d"] is None


def test_eset_infinite_missing_bound_is_error():
    result = cli.run(["eset", "--type", "I2(inf)", "--w", "1,2"])
    assert result.status == "error"
    assert result.exit_code == 1


@pytest.mark.parametrize("max_len", ["1000000000", "-3", str(ROW_MAX_LEN + 1)])
def test_eset_infinite_refuses_a_bound_out_of_range(monkeypatch, max_len):
    # the row's width grows like 3^max_len: refuse before listing any element
    def no_listing(self, max_len):
        raise AssertionError("the bound must be refused before elements_up_to")

    monkeypatch.setattr(CoxeterSystem, "elements_up_to", no_listing)
    result = cli.run(["eset", "--type", "I2(inf)", "--w", "1,2,1", "--max-len", max_len])
    assert result.status == "error"
    assert result.exit_code == 1
    assert result.payload == ""
    assert f"0..{ROW_MAX_LEN}" in result.diagnostics[0]


def test_eset_infinite_accepts_the_largest_bound():
    doc = run_json(["eset", "--type", "I2(inf)", "--w", "1,2,1",
                    "--max-len", str(ROW_MAX_LEN), "--format", "json"])
    assert doc["truncation"] == ROW_MAX_LEN
    assert len(doc["members"]) == ROW_MAX_LEN - 1  # every alternating z from s1s2 on


def test_eset_identity_full_group():
    doc = run_json(["eset", "--type", "A2", "--w", "", "--format", "json"])
    assert len(doc["members"]) == 6


# ---------------------------------------------------------------------------
# trace


def test_trace_values():
    doc = run_json(["trace", "--type", "A1", "--w", "1", "--format", "json"])
    assert doc["trace"] == [-1, 1]
    assert doc["value"] is None
    doc = run_json(["trace", "--type", "A1", "--w", "1", "--at", "-1", "--format", "json"])
    assert doc["value"] == -2
    doc = run_json(["trace", "--type", "A2", "--w", "", "--at", "5", "--format", "json"])
    assert doc["value"] == 6


def test_trace_infinite_is_error():
    result = cli.run(["trace", "--type", "I2(inf)", "--w", "1"])
    assert result.status == "error"


def test_infinite_system_diagnostics_name_what_is_missing():
    # trace takes no --max-len, so it asks for a finite system; eset asks for
    # the bound it takes and names no regular trace
    trace = cli.run(["trace", "--type", "I2(inf)", "--w", "1"])
    assert (trace.exit_code, trace.diagnostics) == (
        1, ["a regular trace needs a finite system; I2(inf) is infinite"])
    eset = cli.run(["eset", "--type", "I2(inf)", "--w", "1"])
    assert (eset.exit_code, eset.diagnostics) == (1, ["max_len is required for infinite systems"])


def test_trace_agrees_with_nconst_rows_a2():
    # sum of diagonal structure constants evaluated at n equals the trace value
    system_doc = run_json(["trace", "--type", "A2", "--w", "1,2", "--at", "7", "--format", "json"])
    total = 0
    from heckeflag.coxeter import build_system
    a2 = build_system("A2")
    for z in a2.elements:
        rows = run_json(
            ["nconst", "--type", "A2", "--w", "1,2", "--wp", ",".join(map(str, z.word)),
             "--format", "json"]
        )
        for row in rows:
            if row["wpp"] == list(z.word):
                poly = row["N"]
                total += sum(c * 7**k for k, c in enumerate(poly))
    assert total == system_doc["value"]


# ---------------------------------------------------------------------------
# verify


_DIHEDRAL_CHECKS = (
    ["I2(4) members((s1s2)^1)", "I2(4) members((s1s2)^2)"]
    + [f"I2(6) members((s1s2)^{k})" for k in (1, 2, 3)]
    + [f"I2(8) members((s1s2)^{k})" for k in (1, 2, 3, 4)]
    + [f"I2(inf) members((s1s2)^{k}) up to 14" for k in (1, 2, 3, 4, 5)]
    + ["I2(inf) members(s1s2s1) up to 14"])


def test_verify_dihedral_ok():
    result = cli.run(["verify", "dihedral"])
    assert result.status == "ok"
    assert result.exit_code == 0
    # with no mismatch the table lists every check, one ok row each, under
    # its header and above the summary
    lines = result.payload.splitlines()
    rows = [re.split(r"\s{2,}", line) for line in lines[2:-1]]
    assert [(r[0], r[1], r[-1]) for r in rows] == [
        ("dihedral", name, "ok") for name in _DIHEDRAL_CHECKS]
    assert lines[-1] == "15 checks, 0 mismatches"


def test_verify_flags_ok():
    result = cli.run(["verify", "flags", "--n", "2", "--q", "3"])
    assert result.status == "ok"


def test_verify_unknown_suite():
    result = cli.run(["verify", "everything"])
    assert result.status == "error"
    assert result.exit_code == 1


def test_verify_missing_suite():
    result = cli.run(["verify"])
    assert result.status == "error"


@pytest.mark.parametrize("argv", [
    ["dihedral", "--type", "B3"],
    ["dihedral", "--n", "3", "--q", "5"],
    ["all", "--type", "B3"],
    ["flags", "--type", "G2", "--n", "2", "--q", "3"],
    ["hecke", "--n", "2"],
    ["--suite", "dihedral"],
    ["--format", "csv", "dihedral"],
], ids=" ".join)
def test_verify_refuses_options_its_suite_does_not_read(monkeypatch, argv):
    # each suite's parser declares only the options that suite reads, and
    # --format comes after the suite, so anything else is a usage error
    # before any system or flag space is built
    def no_build(*args):
        raise AssertionError("a suite started before its options were read")

    monkeypatch.setattr(verify, "build_system", no_build)
    monkeypatch.setattr(verify, "build_space", no_build)
    result = cli.run(["verify", *argv])
    assert result.exit_code == 1 and result.payload == ""
    assert result.diagnostics and all(result.diagnostics)


def test_verify_flags_csv_schema():
    result = cli.run(["verify", "flags", "--n", "2", "--q", "3", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(result.payload)))
    assert rows[0] == ["n", "q", "w", "z", "observed", "predicted", "match"]
    assert all(row[6] == "1" for row in rows[1:])
    assert any(row[3] == "total" for row in rows[1:])


def _no_columns(col, width):
    raise AssertionError("column interning started")


def test_verify_flags_refuses_large_space(monkeypatch):
    monkeypatch.setattr(flag, "_pack", _no_columns)
    result = cli.run(["verify", "flags", "--n", "5", "--q", "7"])
    assert result.exit_code == 1
    assert "510902400 flags" in result.diagnostics[0]


def _count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(FlagSpace, name)

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(FlagSpace, name, counted)
    return calls


def test_verify_flags_scans_once_per_base_pair(monkeypatch):
    calls = _count_calls(monkeypatch, "relative_position")
    result = cli.run(["verify", "flags", "--n", "3", "--q", "5"])
    assert result.status == "ok"
    # per base pair (6): one flag per torus orbit of cell(z) for the pair
    # counts and again for the cell counts (the pair's translate is a
    # coordinate flag, so both walk the orbits of the whole torus,
    # 1 + 2 + 2 + 4 + 4 + 11 = 24 of the 186 flags), so 2 * 24; histogram_Z
    # reads z off the translate's pivot rows, and the totals add up the cell
    # histograms, so neither scans
    assert calls[0] == 2 * 24 == 48


def test_verify_flags_gl4_f5_work_counts(monkeypatch):
    positions = _count_calls(monkeypatch, "relative_position")
    conjugations = _count_calls(monkeypatch, "conjugate_flag")
    result = cli.run(["verify", "flags", "--n", "4", "--q", "5"])
    assert result.status == "ok"
    # 666 torus orbits in the 24 cells of GL4(F5)'s 29016 flags; two
    # positions per orbit, one conjugation per orbit and one per cell to
    # check that its base is fixed
    assert positions[0] == 2 * 666 == 1332
    assert conjugations[0] == 666 + 24 == 690


def test_verify_flags_never_enumerates_a_space(monkeypatch):
    # every count walks torus orbits; the cell iterator behind space.flags,
    # which builds every flag, is never called
    def no_cell(self, z):
        raise AssertionError("a whole cell was enumerated")

    monkeypatch.setattr(FlagSpace, "_cell", no_cell)
    result = cli.run(["verify", "flags", "--n", "4", "--q", "7"])
    assert result.exit_code == 0
    assert result.payload.endswith("1176 checks, 0 mismatches\n")


@pytest.mark.parametrize("kind", ["cell", "pair"])
def test_verify_flags_detects_a_wrong_orbit_weight(monkeypatch, kind):
    # one more flag in one orbit of cell(w0) moves exactly the counts of the
    # w that orbit's flag stands for: the cell count and the total it feeds,
    # or the fixed-pair count and the cell count compared with it
    space = build_space(3, 5)
    w0 = space.weyl.longest_element()
    original = FlagSpace._orbits
    hit = []

    def heavier(self, z, ref=None):
        for k, (f, weight) in enumerate(original(self, z, ref)):
            if z.word == w0.word and (ref is None) == (kind == "cell") and k == 3:
                hit.append((f, ref))
                weight += 1
            yield f, weight

    monkeypatch.setattr(FlagSpace, "_orbits", heavier)
    result = cli.run(["verify", "flags", "--n", "3", "--q", "5", "--format", "json"])
    assert result.exit_code == 2
    [(f, ref)] = hit
    if kind == "cell":
        w = space.relative_position(f, space.conjugate_flag(space.default_torus(), f))
        names = {"cell=Z z=[{z}] w=[{w}]", "count_Y_total w=[{w}]"}
    else:
        w = space.relative_position(ref, f)
        names = {"count_Z z=[{z}] w=[{w}]", "cell=Z z=[{z}] w=[{w}]"}
    want = {name.format(z=",".join(map(str, w0.word)), w=",".join(map(str, w.word)))
            for name in names}
    assert {c["check"] for c in json.loads(result.payload)["checks"] if not c["ok"]} == want


@pytest.mark.parametrize("argv, products", [
    (["hecke", "--type", "A3"], 24**2),
    (["flags", "--n", "3", "--q", "5"], 6**2),
])
def test_verify_makes_one_product_per_pair(monkeypatch, argv, products):
    # every T_w T_z of a suite comes from one walk per w, one product each;
    # no second scan rebuilds a trace or a structure constant
    calls = [0]
    original = HeckeAlgebra.product

    def counted(self, a, b):
        calls[0] += 1
        return original(self, a, b)

    monkeypatch.setattr(HeckeAlgebra, "product", counted)
    assert cli.run(["verify", *argv]).status == "ok"
    assert calls[0] == products


def test_verify_detects_mismatches(monkeypatch):
    # breaking the predictions must flip the status and the exit code
    original = HeckeAlgebra.diagonal_row

    def wrong(self, w, max_len=None):
        return [(z, n + 1) for z, n in original(self, w, max_len)]

    monkeypatch.setattr(HeckeAlgebra, "diagonal_row", wrong)
    result = cli.run(["verify", "flags", "--n", "2", "--q", "3"])
    assert result.status == "verification_failed"
    assert result.exit_code == 2
    assert "MISMATCH" in result.payload
    assert result.payload.endswith("10 checks, 6 mismatches\n")
    assert result.diagnostics == ["6 verification mismatches"]


SPACES = ["--n", "2", "--q", "3", "--n", "2", "--q", "5", "--n", "2", "--q", "7",
          "--n", "3", "--q", "5"]


def test_verify_flags_several_spaces_csv():
    result = cli.run(["verify", "flags", *SPACES, "--format", "csv"])
    assert result.status == "ok"
    rows = list(csv.reader(io.StringIO(result.payload)))
    assert rows.count(rows[0]) == 1
    # each space in order: 2 * |W|^2 pair and cell rows, then |W| totals
    spaces = [(row[0], row[1]) for row in rows[1:]]
    assert spaces == ([("2", "3")] * 10 + [("2", "5")] * 10 + [("2", "7")] * 10
                      + [("3", "5")] * 78)
    single = cli.run(["verify", "flags", "--n", "2", "--q", "5", "--format", "csv"])
    assert single.payload.splitlines()[1:] == result.payload.splitlines()[11:21]


def test_verify_flags_several_spaces_detect_mismatches(monkeypatch):
    original = HeckeAlgebra.diagonal_row
    monkeypatch.setattr(HeckeAlgebra, "diagonal_row", lambda self, w, max_len=None: [
        (z, n + 1) for z, n in original(self, w, max_len)])
    result = cli.run(["verify", "flags", *SPACES, "--format", "csv"])
    assert result.exit_code == 2
    assert result.diagnostics == ["60 verification mismatches"]


def test_verify_flags_refuses_any_pair():
    result = cli.run(["verify", "flags", "--n", "2", "--q", "3", "--n", "5", "--q", "7",
                      "--format", "csv"])
    assert result.exit_code == 1
    assert result.payload == ""
    assert "510902400 flags" in result.diagnostics[0]


def test_verify_flags_refuses_a_later_pair_before_any_space(monkeypatch):
    monkeypatch.setattr(flag, "_pack", _no_columns)
    result = cli.run(["verify", "flags", "--n", "2", "--q", "3", "--n", "5", "--q", "7"])
    assert result.exit_code == 1
    assert "510902400 flags" in result.diagnostics[0]


def test_verify_flags_refuses_the_summed_flag_count(monkeypatch):
    # each GL4(F7) pair passes alone (182400 flags), two of them (364800,
    # about 8 s of work) are refused before the first space is built
    def no_build(n, q):
        raise AssertionError("a flag space was built")

    monkeypatch.setattr(verify, "build_space", no_build)
    result = cli.run(["verify", "flags", "--n", "4", "--q", "7", "--n", "4", "--q", "7"])
    assert result.exit_code == 1 and result.payload == ""
    assert f"364800 flags in all, over the bound {FLAG_SPACE_MAX_FLAGS}" in result.diagnostics[0]


@pytest.mark.parametrize("pairs", [["--n", "2", "--n", "3", "--q", "5"],
                                   ["--q", "3", "--q", "5"],
                                   pytest.param(["--n", "3"], id="lone-n"),
                                   pytest.param(["--q", "7"], id="lone-q")])
def test_verify_flags_needs_one_q_per_n(monkeypatch, pairs):
    # the default pair 2 3 stands in only when neither option is given, so a
    # lone --n or --q is refused before any space is built, not paired with
    # the other option's default
    def no_build(n, q):
        raise AssertionError("a flag space was built")

    monkeypatch.setattr(verify, "build_space", no_build)
    result = cli.run(["verify", "flags", *pairs])
    assert result.exit_code == 1 and result.payload == ""
    assert "one --q per --n" in result.diagnostics[0]


@pytest.mark.parametrize("label", ["A2", "A3", "I2(4)"])
def test_verify_hecke_ok(label):
    doc = run_json(["verify", "hecke", "--type", label, "--format", "json"])
    assert doc["summary"] == "6 checks, 0 mismatches"
    assert {c["suite"] for c in doc["checks"]} == {f"hecke[{label}]"}


def test_verify_hecke_detects_trace_mismatch(monkeypatch):
    # the walk hands out T_w T_e + (q - 1) T_e for w != e (its own parent stays
    # exact): N(w, e, e) turns from 0 into q - 1, which passes the degree,
    # positivity and q = 1 checks but moves the row's trace at q = -1 by -2
    original = HeckeAlgebra.row_products

    def shifted(self, w, max_len=None):
        e = self.system.identity
        for z, h in original(self, w, max_len):
            yield z, (h + Q_MINUS_ONE * self.t_basis(e) if z == e != w else h)

    monkeypatch.setattr(HeckeAlgebra, "row_products", shifted)
    result = cli.run(["verify", "hecke", "--type", "A2", "--format", "json"])
    assert result.status == "verification_failed"
    assert result.exit_code == 2
    checks = {c["check"]: c for c in json.loads(result.payload)["checks"]}
    bad = checks["q=-1 trace mismatches"]["observed"]
    # (w, matrix trace, row trace, diagonal sum): the independent matrix
    # trace keeps its value, both sums over the row are off by -2
    assert bad == [[[1], -6, -8, -8], [[2], -6, -8, -8], [[1, 2], 4, 2, 2],
                   [[2, 1], 4, 2, 2], [[1, 2, 1], -2, -4, -4]]
    assert [name for name, c in checks.items() if not c["ok"]] == ["q=-1 trace mismatches"]


# the checks each perturbation fails, with their observed payloads.  The walk
# builds T_w T_z as (T_w T_z') T_s, so product(T_s1, T_s2) is T_s1 T_s2 for
# w = s1 and (T_e T_s1) T_s2 for w = e, and each perturbed result is the
# parent of one more z: (T_s1 T_s2) T_s1 gives T_w T_s2s1 for w = s1 and
# T_e T_s1s2s1 for w = e.  A stray T_e there leaves a stray T_s1; a cancelled
# T_s1s2 leaves 0, which also drops N(e, s1s2, s1s2) and N(e, w0, w0), so w0
# membership and top degree fail for w = e and (w, matrix trace, row trace,
# diagonal sum) at q = -1 reads ([], 6, 4, 4)
_Q1_FAILURES = {
    (): {"q=1 group-algebra violations": [
        [[], [1, 2], []], [[], [1, 2, 1], [1]], [[1], [2], []], [[1], [2, 1], [1]]]},
    (1, 2): {"w0 membership fails for": [[]],
             "top degree != l(w) for": [[]],
             "q=1 group-algebra violations": [
                 [[], [1, 2], [1, 2]], [[], [1, 2, 1], [1, 2, 1]],
                 [[1], [2], [1, 2]], [[1], [2, 1], [1, 2, 1]]],
             "q=-1 trace mismatches": [[[], 6, 4, 4]]},
}


@pytest.mark.parametrize("wpp, delta", [((), ONE), ((1, 2), -ONE)])
def test_verify_hecke_detects_q1_violation(monkeypatch, wpp, delta):
    # perturb one off-diagonal coefficient of T_s1 * T_s2: add a stray T_e,
    # or cancel T_s1s2 so that the expected term drops out of the support
    original = HeckeAlgebra.product

    def perturbed(self, a, b):
        out = original(self, a, b)
        if [x.word for x in a.terms] == [(1,)] and [x.word for x in b.terms] == [(2,)]:
            x = self.system.normal_form(wpp)
            terms = dict(out.terms)
            terms[x] = out.coefficient(x) + delta
            return HeckeElt(self, terms)
        return out

    monkeypatch.setattr(HeckeAlgebra, "product", perturbed)
    result = cli.run(["verify", "hecke", "--type", "A2", "--format", "json"])
    assert result.exit_code == 2
    checks = {c["check"]: c for c in json.loads(result.payload)["checks"]}
    assert [[1], [2], list(wpp)] in checks["q=1 group-algebra violations"]["observed"]
    assert {name: c["observed"] for name, c in checks.items() if not c["ok"]} == (
        _Q1_FAILURES[wpp])


def test_verify_hecke_findings_keep_element_order(monkeypatch):
    # the walk runs lexicographically (s1s2 before s2); a stray T_e in every
    # T_w T_z with z != e fails q = 1 for each such pair, and the findings
    # list the pairs in (w, z) element order
    original = HeckeAlgebra.row_products

    def stray(self, w, max_len=None):
        e = self.t_basis(self.system.identity)
        for z, h in original(self, w, max_len):
            yield z, (h + e if z.word else h)

    monkeypatch.setattr(HeckeAlgebra, "row_products", stray)
    result = cli.run(["verify", "hecke", "--type", "A2", "--format", "json"])
    assert result.exit_code == 2
    checks = {c["check"]: c for c in json.loads(result.payload)["checks"]}
    elements = coxeter.build_system("A2").elements
    assert checks["q=1 group-algebra violations"]["observed"] == [
        [w.to_json(), z.to_json(), []] for w in elements for z in elements if z.word]
    assert [name for name, c in checks.items() if not c["ok"]] == [
        "q=1 group-algebra violations"]


@pytest.mark.parametrize("label, order", [
    ("F4", 1152), ("A6", 5040), ("B5", 3840), ("D5", 1920), ("I2(65)", 130),
    ("I2(200)", 400)])
def test_verify_hecke_refuses_large_groups(monkeypatch, label, order):
    # a missing guard fails fast here instead of running for minutes; I2(m)
    # is refused on l(w0) = m > 64 (I2(100) took 20 s, I2(200) over 400 s)
    def no_products(self, a, b):
        raise AssertionError("the size guard must refuse before any product")

    monkeypatch.setattr(HeckeAlgebra, "product", no_products)
    result = cli.run(["verify", "hecke", "--type", label])
    assert result.status == "error"
    assert result.exit_code == 1
    assert result.payload == ""
    assert str(order) in result.diagnostics[0]
    assert str(verify.HECKE_SUITE_MAX_ORDER) in result.diagnostics[0]
    assert f"l(w0) <= {verify.HECKE_SUITE_MAX_LEN}" in result.diagnostics[0]


class _FirstProduct(Exception):
    pass


def test_verify_hecke_admits_a5(monkeypatch):
    # A5 (720 elements, l(w0) = 15) passes the guard: the suite gets as far
    # as its first product, which stops it
    def first_product(self, a, b):
        raise _FirstProduct

    monkeypatch.setattr(HeckeAlgebra, "product", first_product)
    with pytest.raises(_FirstProduct):
        cli.run(["verify", "hecke", "--type", "A5"])


@pytest.mark.parametrize("label", ["F4", "B4"])
def test_minus_one_oracle_suffix_tree(label):
    # the q = -1 oracle walks w = s w' from w' = s w, s the first letter of
    # w: every w != e has exactly one such parent, the element spelled by its
    # canonical word without the first letter, one shorter
    system = coxeter.build_system(label)
    for w in system.elements[1:]:
        parents = [g for g in range(1, system.rank + 1)
                   if (g,) + system.left_mult(w, g).word == w.word]
        assert parents == [w.word[0]], w.word


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4", "I2(5)"])
def test_minus_one_oracle_matches_regular_trace(label):
    system = coxeter.build_system(label)
    algebra = HeckeAlgebra(system)
    assert verify._minus_one_traces(system) == [
        algebra.regular_trace(w)(-1) for w in system.elements]


def test_verify_hecke_d4_detects_trace_mismatch(monkeypatch):
    # the shifted walk of test_verify_hecke_detects_trace_mismatch on D4, a
    # type that verify all does not run: every w != e is reported, with the
    # row's trace and diagonal sum at q = -1 two below the oracle's
    original = HeckeAlgebra.row_products

    def shifted(self, w, max_len=None):
        e = self.system.identity
        for z, h in original(self, w, max_len):
            yield z, (h + Q_MINUS_ONE * self.t_basis(e) if z == e != w else h)

    monkeypatch.setattr(HeckeAlgebra, "row_products", shifted)
    result = cli.run(["verify", "hecke", "--type", "D4", "--format", "json"])
    assert result.exit_code == 2
    checks = {c["check"]: c for c in json.loads(result.payload)["checks"]}
    assert [name for name, c in checks.items() if not c["ok"]] == ["q=-1 trace mismatches"]
    system = coxeter.build_system("D4")
    bad = checks["q=-1 trace mismatches"]["observed"]
    assert len(bad) == 191
    assert bad == [[w.to_json(), t, t - 2, t - 2] for w, t in
                   zip(system.elements[1:], verify._minus_one_traces(system)[1:])]


@pytest.mark.parametrize("command", ["trace", "eset"])
def test_rows_refuse_a_longest_element_past_the_row_cap(monkeypatch, command):
    # I2(501) passes the group guards, but its rows reach l(w0) = 501 > 500
    # (the trace of w0 in I2(1000) took 132 s and 876 MB); the trace steps
    # packed dicts without products, so the generator step is refused too
    def no_products(self, a, b):
        raise AssertionError("the row cap must refuse before any product")

    def no_steps(terms, col, width):
        raise AssertionError("the row cap must refuse before any step")

    monkeypatch.setattr(HeckeAlgebra, "product", no_products)
    monkeypatch.setattr(hecke, "_generator_step", no_steps)
    result = cli.run([command, "--type", "I2(501)", "--w", _alternating(1, 501)])
    assert result.exit_code == 1 and result.payload == ""
    assert "length 501 refused" in result.diagnostics[0]
    assert f"0..{ROW_MAX_LEN}" in result.diagnostics[0]


def test_exit_code_contract():
    assert cli.CommandResult("ok").exit_code == 0
    assert cli.CommandResult("verification_failed").exit_code == 2
    assert cli.CommandResult("error").exit_code == 1


def _alternating(first, length):
    return ",".join(str(first if i % 2 == 0 else 3 - first) for i in range(length))


@pytest.mark.parametrize("spec, w_len, wp_len", [
    pytest.param("I2(inf)", 251, 250, id="251-250"),
    pytest.param("I2(inf)", ROW_MAX_LEN + 1, 0, id="501-0"),
    pytest.param("I2(inf)", 0, 1000, id="0-1000"),
    # w = wp = w0 of a large finite dihedral group: the I2(600) product
    # takes about 40 s and 200 MB
    pytest.param("I2(600)", 600, 600, id="I2(600)-w0-w0"),
    pytest.param("I2(1000)", 1000, 1000, id="I2(1000)-w0-w0"),
])
def test_nconst_refuses_long_infinite_words(monkeypatch, spec, w_len, wp_len):
    # refused on the canonical lengths, before any product, on every system
    def no_products(self, a, b):
        raise AssertionError("the size guard must refuse before any product")

    monkeypatch.setattr(HeckeAlgebra, "product", no_products)
    result = cli.run(["nconst", "--type", spec, "--w", _alternating(1, w_len),
                      "--wp", _alternating(2, wp_len)])
    assert result.exit_code == 1
    assert f"l(w) + l(wp) = {w_len + wp_len} exceeds {ROW_MAX_LEN}" in result.diagnostics[0]


def test_nconst_runs_the_longest_allowed_infinite_words():
    # the costliest pair allowed, w times its inverse: T_w T_w^-1 holds
    # q^l(w) T_e and one term of each odd length below 2 l(w)
    half = ROW_MAX_LEN // 2
    doc = run_json(["nconst", "--type", "I2(inf)", "--w", _alternating(1, half),
                    "--wp", _alternating(2 - half % 2, half), "--format", "json"])
    assert [len(r["wpp"]) for r in doc] == [0, *range(1, 2 * half, 2)]
    assert doc[0]["wpp"] == [] and doc[0]["N"] == [0] * half + [1]


def test_nconst_guard_reads_canonical_lengths():
    # 1000 letters that cancel to the identity are no long word, and on A2
    # 800 alternating letters reduce to a canonical word of length 2
    ok = ["nconst", "--type", "I2(inf)", "--w", ",".join("1" * 1000), "--wp", "2"]
    assert run_json(ok + ["--format", "json"])[0]["wpp"] == [2]
    long_finite = ["nconst", "--type", "A2", "--w", _alternating(1, 800),
                   "--wp", _alternating(2, 800)]
    assert run_json(long_finite + ["--format", "json"])[0]["wpp"] == []


# ---------------------------------------------------------------------------
# parser robustness: every input exits 0 or 1, never 2, and never raises


def _no_huge_dihedral_fill(self, m):
    # a dihedral group past the size guards must be refused before this
    # point: its words hold m^2 letters
    assert m is None or m * m <= MAX_WORD_LETTERS
    return _fill_dihedral(self, m)


def _no_huge_cartan(family, n):
    # every A-D rank from 8 up is past the size guard (A8 has 362880
    # elements), so it must be refused before its Cartan matrix is built
    assert n < 8
    return _cartan(family, n)


_fill_dihedral = CoxeterSystem._fill_dihedral
_cartan = coxeter._cartan


def _assert_exit_contract(argv):
    with mock.patch.object(CoxeterSystem, "_fill_dihedral", _no_huge_dihedral_fill), \
            mock.patch.object(coxeter, "_cartan", _no_huge_cartan):
        result = cli.run(argv)
    assert result.exit_code in (0, 1)
    if result.exit_code == 1:
        assert result.diagnostics and all(result.diagnostics)
    else:
        assert result.payload


def test_nconst_refuses_huge_dihedral(monkeypatch):
    def no_fill(self, m):
        raise AssertionError("tables filled")

    monkeypatch.setattr(CoxeterSystem, "_fill_dihedral", no_fill)
    result = cli.run(["nconst", "--type", "I2(1000000000)"])
    assert result.exit_code == 1
    assert "2000000000 elements" in result.diagnostics[0]


@pytest.mark.parametrize("spec", ["A100000", "D100000"])
def test_nconst_refuses_huge_rank(monkeypatch, spec):
    def no_cartan(family, n):
        raise AssertionError("Cartan matrix built")

    monkeypatch.setattr(coxeter, "_cartan", no_cartan)
    result = cli.run(["nconst", "--type", spec])
    assert result.exit_code == 1
    assert f"{spec} has more than {MAX_FINITE_ORDER} elements" in result.diagnostics[0]


@given(st.sampled_from(["nconst", "eset", "trace"]), st.text(max_size=24))
@settings(max_examples=80, deadline=None)
def test_fuzz_word_argument(command, text):
    _assert_exit_contract([command, "--type", "A3", "--w", text])


_TYPE_SPECS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "A0", "A-3", "D1", "E8", "H3", "G2", "F4", "X5", "I2()",
                     "I2(1)", "I2(inf)", "I2(0x10)", " B3 "]),
    st.tuples(st.sampled_from("ABCD"), st.integers(-1, 4)).map(lambda t: f"{t[0]}{t[1]}"),
    st.tuples(st.sampled_from("ABCD"), st.integers(8, 10**40)).map(lambda t: f"{t[0]}{t[1]}"),
    st.integers(-3, 40).map(lambda m: f"I2({m})"),
    st.integers(MAX_FINITE_ORDER // 2 + 1, 10**40).map(lambda m: f"I2({m})"),
    # past the letter guard alone
    st.integers(isqrt(MAX_WORD_LETTERS) + 1, MAX_FINITE_ORDER // 2).map(lambda m: f"I2({m})"),
)


@given(_TYPE_SPECS, st.sampled_from(["", "1", "2,1"]))
@settings(max_examples=80, deadline=None)
def test_fuzz_type_argument(spec, word):
    _assert_exit_contract(["nconst", "--type", spec, "--w", word, "--wp", word])


# ---------------------------------------------------------------------------
# table and CSV renderers, pinned byte for byte


_A2_NCONST = ["nconst", "--type", "A2", "--w", "1,2", "--wp", "2"]
_I24_ESET = ["eset", "--type", "I2(4)", "--w", "1,2"]
_INF_ESET = ["eset", "--type", "I2(inf)", "--w", "1,2,1", "--max-len", "6"]
_A2_TRACE = ["trace", "--type", "A2", "--w", "1,2"]
_INF_ESET_Z = ("1,2", "1,2,1", "1,2,1,2", "1,2,1,2,1", "1,2,1,2,1,2")


@pytest.mark.parametrize("argv, fmt, payload", [
    (_A2_NCONST, "table",
     "w    wp  wpp  N\n"
     "---  --  ---  -----\n"
     "1,2  2   1    q\n"
     "1,2  2   1,2  q - 1\n"),
    (_A2_NCONST, "csv", 'w,wp,wpp,N\n"1,2",2,1,"0,1"\n"1,2",2,"1,2","-1,1"\n'),
    (_I24_ESET, "table",
     "w = [1,2]\ntruncation = None\nd = 2\ne_prime = [1,2,1,2]\n"
     "z          N             deg\n"
     "---------  ------------  ---\n"
     "[1,2,1,2]  q^2 - 2q + 1  2\n"),
    (_I24_ESET, "csv", 'z,N,deg\n"1,2,1,2","1,-2,1",2\n'),
    (_INF_ESET, "table",
     "w = [1,2,1]\ntruncation = 6\nd = 2\n"
     "e_prime = [1,2]; [1,2,1]; [1,2,1,2]; [1,2,1,2,1]; [1,2,1,2,1,2]\n"
     "z              N        deg\n"
     "-------------  -------  ---\n"
     "[1,2]          q^2 - q  2\n"
     "[1,2,1]        q^2 - q  2\n"
     "[1,2,1,2]      q^2 - q  2\n"
     "[1,2,1,2,1]    q^2 - q  2\n"
     "[1,2,1,2,1,2]  q^2 - q  2\n"),
    (_INF_ESET, "csv",
     "z,N,deg\n" + "".join(f'"{z}","0,-1,1",2\n' for z in _INF_ESET_Z)),
    (_A2_TRACE, "table", "trace(T_[1,2]) = q^2 - 2q + 1\n"),
    (_A2_TRACE, "csv", 'type,w,trace,at,value\nA2,"1,2","1,-2,1",,\n'),
    (_A2_TRACE + ["--at", "-1"], "table",
     "trace(T_[1,2]) = q^2 - 2q + 1\nvalue at q = -1: 4\n"),
    (_A2_TRACE + ["--at", "-1"], "csv", 'type,w,trace,at,value\nA2,"1,2","1,-2,1",-1,4\n'),
], ids=[f"{name}-{fmt}" for name in ("nconst", "eset-I2(4)", "eset-I2(inf)", "trace", "trace-at")
         for fmt in ("table", "csv")])
def test_renderers_are_pinned(argv, fmt, payload):
    result = cli.run(argv + ["--format", fmt])
    assert (result.status, result.payload, result.diagnostics) == ("ok", payload, [])


# ---------------------------------------------------------------------------
# determinism and entry point


def test_payloads_are_deterministic():
    for argv in (
        ["nconst", "--type", "A3", "--w", "1,2,3", "--wp", "2,1", "--format", "json"],
        ["eset", "--type", "I2(6)", "--w", "1,2", "--format", "csv"],
        ["verify", "dihedral", "--format", "csv"],
    ):
        assert cli.run(argv).payload == cli.run(argv).payload


def test_one_parser_serves_every_run():
    # the parser is built once: runs with different repeated --n/--q pairs,
    # usage errors and a help request between them, each give what a freshly
    # built parser gives
    sequence = [
        ["verify", "flags", "--n", "2", "--q", "3", "--n", "2", "--q", "5", "--format", "csv"],
        ["verify", "flags", "--n", "3", "--q", "5"],
        ["verify", "flags", "--n", "x", "--q", "3"],
        ["verify", "flags", "--n", "2", "--q", "7", "--n", "3", "--q", "5", "--format", "json"],
        ["verify", "flags", "--help"],
        ["verify", "flags"],
        ["trace", "--type", "A2", "--bogus"],
        ["verify", "flags", "--n", "2", "--q", "5", "--n", "2", "--q", "3"],
        ["verify", "flags", "--n", "3", "--q", "5"],
    ]
    assert cli._build_parser() is cli._build_parser()
    cached = [cli.run(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(cli.run(argv))
    assert cached == fresh
    assert [r.exit_code for r in cached] == [0, 0, 1, 0, 0, 0, 1, 0, 0]


def test_main_writes_payload_to_stdout(capsys):
    code = cli.main(["trace", "--type", "A1", "--w", "1", "--at", "-1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "-2" in out
    assert err == ""


def test_main_writes_diagnostics_to_stderr(capsys):
    code = cli.main(["trace", "--type", "I2(inf)", "--w", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: heckeflag [-h]"),
    (["-h"], "usage: heckeflag [-h]"),
    (["trace", "--help"], "usage: heckeflag trace [-h] --type TYPE"),
    (["verify", "hecke", "-h"], "usage: heckeflag verify hecke [-h]"),
])
def test_help_is_an_ok_payload(argv, usage, capsys):
    result = cli.run(argv)
    assert result.status == "ok" and result.diagnostics == []
    assert result.payload.startswith(usage) and "--format" in result.payload
    assert capsys.readouterr() == ("", "")  # run prints nothing itself
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out == result.payload and err == ""


def test_help_names_the_size_bounds():
    # the help text is the cli docstring: the bounds it names are the ones
    # run enforces
    payload = cli.run(["--help"]).payload
    for bound in (f"|W| > {verify.HECKE_SUITE_MAX_ORDER}", f"l(w0) > {verify.HECKE_SUITE_MAX_LEN}",
                  f"over {FLAG_SPACE_MAX_FLAGS} flags", f"past length {ROW_MAX_LEN}"):
        assert bound in payload


def test_readme_states_the_size_bounds():
    # the README counterpart of the help text's bounds: each sentence that
    # quotes a bound quotes the value run enforces
    text = " ".join(_README.read_text().split())
    order, length = verify.HECKE_SUITE_MAX_ORDER, verify.HECKE_SUITE_MAX_LEN
    letters = f"{MAX_WORD_LETTERS:,}".replace(",", " ")
    for bound in (f"`verify hecke` on more than {order} elements or on l(w0) > {length}",
                  f"refuses types with more than {order} elements or l(w0) > {length}",
                  f"on a pair over {FLAG_SPACE_MAX_FLAGS} flags",
                  f"holding more than {FLAG_SPACE_MAX_FLAGS} flags in all",
                  f"refuses spaces with more than {FLAG_SPACE_MAX_FLAGS} flags",
                  f"whose w0 is longer than {ROW_MAX_LEN}",
                  f"`eset --max-len` past {ROW_MAX_LEN}",
                  f"`--max-len` from 0 to {ROW_MAX_LEN}",
                  f"refuses l(w) + l(wp) > {ROW_MAX_LEN}",
                  f"up to length {ROW_MAX_LEN} only",
                  f"more than {MAX_FINITE_ORDER} elements or when its words hold more "
                  f"than {letters} letters",
                  f"as soon as it passes {MAX_FINITE_ORDER}",
                  f'("more than {MAX_FINITE_ORDER} elements")'):
        assert bound in text, bound


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckeflag", "trace", "--type", "A1", "--w", "1",
         "--at", "-1", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == -2


def _readme_commands():
    # every heckeflag line of the README's "Command line" block, as argv
    text = _README.read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("heckeflag ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(argv):
    result = cli.run(argv)
    assert result.exit_code == 0, result.diagnostics
    assert result.payload
