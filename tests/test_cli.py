"""End-to-end CLI behavior: outputs, formats, exit codes, diagnostics."""

import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arndt.cli import main
from arndt.core import ResidueSystem, ScaledConstraint
from arndt.enumeration import arndt_compositions, congruence_compositions
from arndt.sequence import export_bfile, sequence_range

from _reference import (
    arndt_ok, bitmask_compositions, ceil_div, congruence_ok, coprime_pairs, fib, residue_list,
)

ARNDT_LINES = "2,1,2,1\n2,1,3\n3,1,2\n4,1,1\n4,2\n5,1\n6\n"
CONGRUENCE_LINES = "1,1,1,1,1,1\n1,1,1,3\n1,1,3,1\n1,3,1,1\n3,1,1,1\n3,3\n6\n"

TABLE_BIJECTION6 = """\
arndt       2,1,2,1  2,1,3    3,1,2    4,1,1    4,2  5,1      6
congruence  3,3      3,1,1,1  1,3,1,1  1,1,3,1  6    1,1,1,3  1,1,1,1,1,1
"""

TABLE_RESIDUES = """\
s\\t  1              2              3              4              5
1    1 (2)          1 (3)          1 (4)          1 (5)          1 (6)
2    1,2 (3)        -              1,3 (5)        -              1,4 (7)
3    1,2,3 (4)      1,2,4 (5)      -              1,3,5 (7)      1,3,6 (8)
4    1,2,3,4 (5)    -              1,2,4,6 (7)    -              1,3,5,7 (9)
5    1,2,3,4,5 (6)  1,2,3,5,6 (7)  1,2,4,5,7 (8)  1,2,4,6,8 (9)  -
"""

TABLE_SEQUENCES = """\
a(s,t)  1  2  3  4   5   6   7   8    9   10
a(2,3)  1  1  2  3   4   7  11  17   27   42
a(3,2)  1  2  3  6  10  19  34  62  112  203
a(2,5)  1  1  1  2   3   4   5   8   12   17
a(4,3)  1  2  3  6  10  19  33  61  109  198
a(5,2)  1  2  4  7  14  27  51  99  190  365
a(3,5)  1  1  2  3   4   7  11  16   26   41
a(5,3)  1  2  3  6  11  20  37  67  124  227
"""


# One digit past CPython's default int-string limit: int() refuses it unless lifted.
HUGE = "9" * 4301


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on its own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@contextmanager
def default_int_limit():
    """CPython's default int-string limit of 4300 digits, for the block only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestCount:
    def test_listed_value(self, capsys):
        assert run(capsys, "count", "-s", "2", "-t", "3", "-n", "6") == (0, "7\n", "")

    def test_single_composition_of_one(self, capsys):
        assert run(capsys, "count", "-s", "1", "-t", "1", "-n", "1") == (0, "1\n", "")

    @pytest.mark.parametrize("method", ["recurrence", "series", "brute"])
    def test_methods_agree(self, capsys, method):
        code, out, err = run(
            capsys, "count", "-s", "3", "-t", "4", "-n", "10", "--method", method
        )
        assert (code, out, err) == (0, "51\n", "")

    def test_affine_defaults_to_brute(self, capsys):
        code, out, _ = run(capsys, "count", "-s", "1", "-t", "1", "-k", "1", "-n", "4")
        assert (code, out) == (0, "2\n")

    def test_affine_rejects_closed_form_methods(self, capsys):
        code, _, err = run(
            capsys,
            "count", "-s", "1", "-t", "1", "-k", "1", "-n", "4",
            "--method", "recurrence",
        )
        assert code == 2
        assert "error:" in err

    def test_brute_ceiling_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys, "count", "-s", "1", "-t", "1", "-n", "40", "--method", "brute"
        )
        assert code == 1
        assert "ceiling" in err

    def test_rejects_nonpositive_scales(self, capsys):
        code, _, err = run(capsys, "count", "-s", "0", "-t", "3", "-n", "6")
        assert code == 2
        assert "positive" in err
        # Not an integer at all: the message names the rule, not a helper.
        for value in ("x", "1.5"):
            code, _, err = run(capsys, "count", "-s", value, "-t", "1", "-n", "3")
            assert code == 2, value
            assert "positive" in err and "_positive" not in err, err

    def test_far_term_prints_in_full(self, capsys):
        # a(25000) of (1, 1) has 5225 digits, past CPython's default
        # 4300-digit int-to-str limit, which main leaves alone: it prints through Decimal.
        limit = sys.get_int_max_str_digits()
        try:
            code, out, _ = run(capsys, "count", "-s", "1", "-t", "1", "-n", "25000")
            sys.set_int_max_str_digits(0)
            assert (code, out) == (0, f"{fib(25000)}\n")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_far_term_prints_without_setting_the_limit(self, capsys, monkeypatch):
        def refused(limit):
            raise AssertionError(f"sys.set_int_max_str_digits({limit}) called")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refused)
        code, out, err = run(capsys, "count", "-s", "1", "-t", "1", "-n", "25000")
        assert (code, out, err) == (0, f"{Decimal(fib(25000))}\n", "")

    def test_index_past_maxsize_is_a_domain_error(self, capsys):
        n = str(sys.maxsize + 1)
        assert run(capsys, "count", "-s", "1", "-t", "1", "-n", n) == (
            1, "", f"error: need 0 <= n_lo <= n_hi <= sys.maxsize, got [{n}, {n}]\n"
        )

    @pytest.mark.parametrize("route", [["--method", "brute"], ["-k", "1"]], ids=["brute", "affine"])
    @pytest.mark.parametrize(
        "n,message",
        [("-1", "cannot compose a negative total: -1"),
         (str(sys.maxsize + 1),
          f"brute-force walk of 2**{sys.maxsize} compositions refused; ceiling is n = 26")],
        ids=["negative", "past-maxsize"],
    )
    def test_brute_force_refuses_as_enumerate_does(self, capsys, route, n, message):
        argv = ["count", "-s", "2", "-t", "3", "-n", n, *route]
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_missing_n_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "count", "-s", "2", "-t", "3")
        assert code == 2


class TestEnumerate:
    @pytest.mark.parametrize("side", [[], ["--congruence"]], ids=["arndt", "cong"])
    def test_refuses_beyond_ceiling(self, capsys, side):
        argv = ["enumerate", "-s", "1", "-t", "1", "-n", "27", *side]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "ceiling" in err

    @pytest.mark.parametrize(
        "n,message",
        [
            ("27", "brute-force walk of 2**26 compositions refused; ceiling is n = 26"),
            ("-1", "cannot compose a negative total: -1"),
        ],
        ids=["ceiling", "negative"],
    )
    def test_congruence_refuses_before_building_the_residues(self, capsys, monkeypatch, n, message):
        # The residue system of s = 10**6 takes about 0.4 s of CPU to build;
        # a total the walk refuses is refused first, so it is never built.
        def refused(cons):
            raise AssertionError(f"residue system of {cons} built")

        monkeypatch.setattr("arndt.cli.residue_system", refused)
        code, out, err = run(capsys, "enumerate", "--congruence", "-s", "1000000", "-t", "1", "-n", n)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("t", [2, 999999999998], ids=["every-part", "even-parts"])
    def test_congruence_at_a_huge_s_builds_no_residues(self, capsys, monkeypatch, t):
        # At s = 999999999999 the residue system is a tuple of about 10**12 ints, and the
        # walk reads only s and s+t.  Parts <= 6 are residues r + ceil((r*t + 1)/s), r < 6,
        # below the modulus: every part for t = 2 (all 32 compositions), 1, 2, 4, 6 for s - 1.
        # Under every name a module binds, residue_system fails rather than run out of memory.
        def refused(*args):
            raise AssertionError("residue system built")

        for module in ("arndt", "arndt.core", "arndt.cli", "arndt.sequence"):
            monkeypatch.setattr(f"{module}.residue_system", refused)
        monkeypatch.setattr("arndt.enumeration.residue_system", refused, raising=False)
        monkeypatch.setattr(ResidueSystem, "__init__", refused)
        monkeypatch.setattr(ResidueSystem, "_from_checked", refused)
        s = 999999999999
        residues = {r + ceil_div(r * t + 1, s) for r in range(6)}
        argv = ["enumerate", "--congruence", "-s", str(s), "-t", str(t), "-n", "6"]
        code, out, err = run(capsys, *argv)
        expected = sorted(p for p in bitmask_compositions(6) if congruence_ok(p, residues, s + t))
        assert len(expected) == (32 if t == 2 else 19)
        assert (code, out, err) == (0, "".join(f"{','.join(map(str, p))}\n" for p in expected), "")

    def test_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-s", "2", "-t", "3", "-n", "6")
        assert (code, out) == (0, ARNDT_LINES)

    def test_congruence_side(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-s", "2", "-t", "3", "-n", "6", "--congruence"
        )
        assert (code, out) == (0, CONGRUENCE_LINES)

    def test_empty_composition_prints_empty_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-s", "1", "-t", "1", "-n", "0")
        assert (code, out) == (0, "\n")

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-s", "2", "-t", "3", "-n", "6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [
            [2, 1, 2, 1], [2, 1, 3], [3, 1, 2], [4, 1, 1], [4, 2], [5, 1], [6],
        ]

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    @pytest.mark.parametrize("s,t,k", [(2, 3, 0), (3, 2, 0), (1, 1, -2), (1, 2, 1)])
    def test_json_bytes_are_those_of_json_dumps(self, capsys, s, t, k, n):
        # The array is written in chunks as the stream runs (n = 12 spans
        # several for (3, 2) and (1, 1, -2)); its bytes stay json.dumps's own.
        argv = ["enumerate", "-s", str(s), "-t", str(t), "-k", str(k), "-n", str(n)]
        argv += ["--format", "json"]
        admitted = [list(p) for p in bitmask_compositions(n) if arndt_ok(p, s, t, k)]
        assert run(capsys, *argv) == (0, json.dumps(sorted(admitted)) + "\n", "")
        if k == 0:
            rs = residue_list(s, t)
            admitted = [
                list(p) for p in bitmask_compositions(n) if congruence_ok(p, rs, s + t)
            ]
            expected = json.dumps(sorted(admitted)) + "\n"
            assert run(capsys, *argv, "--congruence") == (0, expected, "")

    @pytest.mark.parametrize("s,t", coprime_pairs(8))
    def test_text_is_the_library_streams_own(self, capsys, s, t):
        # Both formats of both sides (the congruence side at k = 0 only) over n <= 14 and
        # |k| <= 3: the bytes of the streams' compositions as str lines or as json.dumps.
        for n in range(15):
            for k in range(-3, 4):
                cons = ScaledConstraint(s, t, k)
                sides = {"": arndt_compositions(n, cons)}
                if k == 0:
                    sides["--congruence"] = congruence_compositions(n, cons)
                for flag, stream in sides.items():
                    parts = [c.parts for c in stream]
                    argv = ["enumerate", "-s", str(s), "-t", str(t), "-k", str(k), "-n", str(n)]
                    argv += [flag] if flag else []
                    lines = "".join(f"{','.join(map(str, p))}\n" for p in parts)
                    assert run(capsys, *argv) == (0, lines, "")
                    document = json.dumps(list(map(list, parts))) + "\n"
                    assert run(capsys, *argv, "--format", "json") == (0, document, "")
        for n in (-1, 27):
            for flag in ("", "--congruence"):
                for form in ("lines", "json"):
                    argv = ["enumerate", "-s", str(s), "-t", str(t), "-n", str(n), "--format", form]
                    code, out, err = run(capsys, *argv, *[flag] if flag else [])
                    assert (code, out) == (1, ""), argv
                    assert err.startswith("error: "), err

    def test_json_streams_in_bounded_memory(self, monkeypatch):
        # 2**14 compositions (tracemalloc slows each allocation several times):
        # held whole, the list and its text peak at about 5 MB; streamed, at
        # about 0.4 MB whatever the length.
        argv = ["enumerate", "-s", "1", "-t", "1", "-k", "-100", "-n", "15"]
        with open(os.devnull, "w") as sink, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main([*argv, "--format", "json"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2**20

    def test_json_refuses_a_negative_total_before_writing(self, capsys):
        argv = ["enumerate", "-s", "2", "-t", "3", "-n", "-1", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "cannot compose a negative total" in err

    def test_affine_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-s", "1", "-t", "1", "-k", "1", "-n", "4")
        assert (code, out) == (0, "3,1\n4\n")

    def test_congruence_rejects_affine(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "-s", "2", "-t", "3", "-k", "1", "-n", "6",
            "--congruence",
        )
        assert code == 2
        assert "k = 0" in err


class TestMapUnmap:
    def test_map_example(self, capsys):
        code, out, _ = run(capsys, "map", "-s", "2", "-t", "3", "-c", "4,1,1")
        assert (code, out) == (0, "1,1,3,1\n")

    def test_unmap_example(self, capsys):
        code, out, _ = run(capsys, "unmap", "-s", "2", "-t", "3", "-c", "3,3")
        assert (code, out) == (0, "2,1,2,1\n")

    def test_map_rejects_non_member(self, capsys):
        code, _, err = run(capsys, "map", "-s", "2", "-t", "3", "-c", "3,2,1")
        assert code == 1
        assert "violates" in err

    def test_unmap_rejects_part_outside_class(self, capsys):
        code, _, err = run(capsys, "unmap", "-s", "2", "-t", "3", "-c", "2,4")
        assert code == 1
        assert "outside residue system" in err

    @pytest.mark.parametrize("bad", ["4, 1", "4;1", "x", "1,0"])
    def test_malformed_parts_are_usage_errors(self, capsys, bad):
        code, _, err = run(capsys, "map", "-s", "2", "-t", "3", "-c", bad)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "source", ["2,1,2,1", "2,1,3", "3,1,2", "4,1,1", "4,2", "5,1", "6"]
    )
    def test_round_trip_is_byte_identical(self, capsys, source):
        code, out, _ = run(capsys, "map", "-s", "2", "-t", "3", "-c", source)
        assert code == 0
        code, out, _ = run(capsys, "unmap", "-s", "2", "-t", "3", "-c", out.strip())
        assert (code, out) == (0, source + "\n")

    def test_affine_offset_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "map", "-s", "2", "-t", "3", "-k", "1", "-c", "6")
        assert code == 2

    def test_round_trip_at_huge_s(self, capsys):
        # s = 10**9 has 10**9 residues; map and unmap read only s and t.
        start = time.perf_counter()
        code, out, _ = run(capsys, "map", "-s", "1000000000", "-t", "1", "-c", "5,1")
        assert (code, out) == (0, "1,1,1,1,2\n")
        code, out, _ = run(capsys, "unmap", "-s", "1000000000", "-t", "1", "-c", out.strip())
        assert (code, out) == (0, "5,1\n")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("parts", [f"{10**18},1", "99999999999999999999,1"])
    def test_map_refuses_an_image_past_the_limit(self, capsys, parts):
        code, out, err = run(capsys, "map", "-s", "1", "-t", "1", "-c", parts)
        assert (code, out) == (1, "")
        assert "MAX_IMAGE_PARTS" in err


class TestResidues:
    @pytest.mark.parametrize(
        "s,t,expected",
        [
            ("3", "2", "1,2,4 (mod 5)\n"),
            ("1", "5", "1 (mod 6)\n"),
            ("5", "4", "1,2,4,6,8 (mod 9)\n"),
        ],
    )
    def test_outputs(self, capsys, s, t, expected):
        assert run(capsys, "residues", "-s", s, "-t", t) == (0, expected, "")

    def test_affine_offset_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "residues", "-s", "2", "-t", "3", "-k", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["-s", "1000000000000", "-t", "1"], 1,
             "error: residues of s = 1000000000000 refused; ceiling is s = 1000000\n"),
            (["-s", "2000002", "-t", "2"], 1,
             "notice: (2000002,2) normalized to (1000001,1)\n"
             "error: residues of s = 1000001 refused; ceiling is s = 1000000\n"),
            (["-s", "1000000000000", "-t", "1", "-k", "1"], 2, None),
        ],
        ids=["huge-s", "normalized-past-ceiling", "usage-error-first"],
    )
    def test_refuses_an_s_past_the_ceiling_before_building(
        self, capsys, monkeypatch, argv, code, err
    ):
        # The residue list of s = 10**12 would hold 10**12 ints: each builder fails
        # here rather than run out of memory, and the refusal comes before either.
        def refused(*args):
            raise AssertionError("residues built")

        monkeypatch.setattr("arndt.cli.residue_system", refused)
        monkeypatch.setattr("arndt.core._congruence_parts", refused)
        result = run(capsys, "residues", *argv)
        assert result[:2] == (code, "")
        assert err is None or result[2] == err

    # s + t of 4300 digits: each residue takes at most 4301 characters with its comma.
    LONG_T = str(10**4299 + 1)

    def test_admits_a_long_line_within_the_bound(self, capsys):
        # About 4.3 * 10**6 characters, within the 8 * 10**6 of the ceiling's line at t = 1.
        code, out, err = run(capsys, "residues", "-s", "1000", "-t", self.LONG_T)
        assert (code, err, len(out.split(","))) == (0, "", 1000)

    def test_refuses_a_line_past_the_bound_before_building(self, capsys, monkeypatch):
        def refused(*args):
            raise AssertionError("residues built")

        monkeypatch.setattr("arndt.cli.residue_system", refused)
        assert run(capsys, "residues", "-s", "3000", "-t", self.LONG_T) == (
            1, "", "error: residues line of about 12912000 characters refused; "
                   "bound is 8000000, the line of s = 1000000 at t = 1\n"
        )

    def test_ceiling_reads_the_normalized_s(self, capsys, monkeypatch):
        monkeypatch.setattr("arndt.cli._RESIDUES_CEILING", 3)
        notice = "notice: (6,4) normalized to (3,2)\n"
        assert run(capsys, "residues", "-s", "6", "-t", "4") == (0, "1,2,4 (mod 5)\n", notice)
        assert run(capsys, "residues", "-s", "4", "-t", "3") == (
            1, "", "error: residues of s = 4 refused; ceiling is s = 3\n"
        )


class TestTables:
    def test_bijection6(self, capsys):
        assert run(capsys, "table", "bijection6") == (0, TABLE_BIJECTION6, "")

    def test_residues(self, capsys):
        assert run(capsys, "table", "residues") == (0, TABLE_RESIDUES, "")

    def test_sequences(self, capsys):
        assert run(capsys, "table", "sequences") == (0, TABLE_SEQUENCES, "")

    def test_unknown_table_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "nonsense")
        assert code == 2


class TestBfile:
    def test_short_export(self, capsys):
        code, out, _ = run(
            capsys, "bfile", "-s", "2", "-t", "3", "--range", "1..3", "--offset", "1"
        )
        assert (code, out) == (0, "1 1\n2 1\n3 2\n")

    def test_offset_defaults_to_range_start(self, capsys):
        code, out, _ = run(capsys, "bfile", "-s", "5", "-t", "3", "--range", "9..10")
        assert (code, out) == (0, "9 124\n10 227\n")

    # Ranges on both sides of the writer's 64-line chunks, with offsets.
    @pytest.mark.parametrize(
        "pair,lo,hi,offset",
        [
            ((2, 3), 0, 0, None),
            ((1, 1), 1, 64, None),
            ((7, 1), 1, 65, 0),
            ((3, 5), 63, 200, -4),
            ((4, 3), 5, 1500, 1),
            ((1, 7), 0, 3000, 10**20),
        ],
    )
    def test_bytes_match_export_bfile(self, capsys, pair, lo, hi, offset):
        s, t = pair
        argv = ["bfile", "-s", str(s), "-t", str(t), "--range", f"{lo}..{hi}"]
        if offset is not None:
            argv += ["--offset", str(offset)]
        expected = export_bfile(ScaledConstraint(s, t), lo, hi, offset)
        assert run(capsys, *argv) == (0, expected, "")

    def test_streams_in_bounded_memory(self, monkeypatch):
        # Built whole before writing, the 2.5 MB text of (2, 3) 1..5000
        # peaked near 6.8 MB; streamed, at about one 64-line chunk, 0.25 MB.
        text_bytes = len(export_bfile(ScaledConstraint(2, 3), 1, 5000))
        with open(os.devnull, "w") as sink, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["bfile", "-s", "2", "-t", "3", "--range", "1..5000"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert text_bytes > 2 * 10**6
        assert peak < text_bytes // 5

    @pytest.mark.parametrize("bad", ["1..", "..3", "3", "1..x", "5..2"])
    def test_malformed_ranges_are_usage_errors(self, capsys, bad):
        code, _, _ = run(capsys, "bfile", "-s", "2", "-t", "3", "--range", bad)
        assert code == 2


class TestNormalizationNotice:
    def test_non_coprime_pairs_are_reduced_with_notice(self, capsys):
        code, out, err = run(capsys, "count", "-s", "4", "-t", "6", "-n", "6")
        assert (code, out) == (0, "7\n")
        assert "normalized to (2,3)" in err

    def test_reduced_results_match_the_reduced_pair(self, capsys):
        _, reduced, _ = run(capsys, "map", "-s", "2", "-t", "3", "-c", "4,1,1")
        code, out, err = run(capsys, "map", "-s", "4", "-t", "6", "-c", "4,1,1")
        assert (code, out) == (0, reduced)
        assert "normalized" in err

    def test_non_coprime_with_offset_is_refused(self, capsys):
        code, _, err = run(capsys, "count", "-s", "4", "-t", "6", "-k", "1", "-n", "4")
        assert code == 1
        assert "non-normalizable" in err


SUCCESS_INVOCATIONS = [
    ("count", "-s", "2", "-t", "3", "-n", "6"),
    ("enumerate", "-s", "2", "-t", "3", "-n", "5"),
    ("enumerate", "-s", "1", "-t", "1", "-n", "0"),
    ("enumerate", "-s", "2", "-t", "3", "-n", "5", "--format", "json"),
    ("map", "-s", "2", "-t", "3", "-c", "4,1,1"),
    ("unmap", "-s", "2", "-t", "3", "-c", "3,3"),
    ("residues", "-s", "5", "-t", "4"),
    ("table", "residues"),
    ("table", "sequences"),
    ("table", "bijection6"),
    ("bfile", "-s", "2", "-t", "3", "--range", "1..10"),
]


@pytest.mark.parametrize("argv", SUCCESS_INVOCATIONS)
def test_stdout_ends_with_exactly_one_newline(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.endswith("\n")
    assert not out.endswith("\n\n")


# Each subcommand with the options given takes only k = 0; the last one is a
# non-coprime pair, refused by the k rule before normalize sees it.
@pytest.mark.parametrize(
    "argv",
    [
        ("unmap", "-s", "2", "-t", "3", "-k", "1", "-c", "3,3"),
        ("bfile", "-s", "2", "-t", "3", "-k", "1", "--range", "1..3"),
        ("count", "-s", "2", "-t", "3", "-k", "1", "-n", "6", "--method", "series"),
        ("map", "-s", "2", "-t", "3", "-k", "1", "-c", "6"),
        ("residues", "-s", "2", "-t", "3", "-k", "1"),
        ("enumerate", "-s", "2", "-t", "3", "-k", "1", "-n", "6", "--congruence"),
        ("count", "-s", "2", "-t", "3", "-k", "1", "-n", "6", "--method", "recurrence"),
        ("count", "-s", "4", "-t", "6", "-k", "1", "-n", "6", "--method", "recurrence"),
    ],
)
def test_k_rule_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "k = 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-s", "2", "-t", "3", "-n", "5"),
        ("count", "-s", "2", "-t", "3", "-k", "1", "-n", "5", "--method", "series"),
        ("unmap", "-s", "2", "-t", "3", "-c", "2,4"),
    ],
    ids=["ok", "usage", "domain"],
)
def test_main_restores_the_int_str_digit_limit(capsys, argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_threaded_mains_leave_the_limit_alone(capsys, monkeypatch):
    # Thread A waits inside sequence_range until B is in it too, and B waits there
    # until A's main has returned.  Were the limit lifted for each main's run and
    # restored after, B would print its 5225-digit count under the restored limit
    # (exit 1), then restore the lifted limit it found on entry.
    b_inside, a_returned, codes = threading.Event(), threading.Event(), {}

    def staged(*args):
        if threading.current_thread().name == "A":
            assert b_inside.wait(30)
        else:
            b_inside.set()
            assert a_returned.wait(30)
        return sequence_range(*args)

    def call(n):
        try:
            codes[threading.current_thread().name] = main(["count", "-s", "1", "-t", "1", "-n", n])
        finally:
            a_returned.set()  # by B too, harmlessly: B's main has already waited for A's

    monkeypatch.setattr("arndt.cli.sequence_range", staged)
    with default_int_limit():
        threads = [threading.Thread(target=call, args=(n,), name=name)
                   for name, n in (("A", "10"), ("B", "25000"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert (codes, sys.get_int_max_str_digits()) == ({"A": 0, "B": 0}, 4300)
    assert capsys.readouterr() == (f"55\n{Decimal(fib(25000))}\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-s", "1", "-t", "1", "-n", HUGE),
        ("count", "-s", HUGE, "-t", "1", "-n", "5"),
        ("count", "-s", "1", "-t", "1", "-k", HUGE, "-n", "5"),
        ("residues", "-s", "1", "-t", HUGE),
        ("bfile", "-s", "2", "-t", "3", "--range", "0..3", "--offset", HUGE),
        ("bfile", "-s", "2", "-t", "3", "--range", f"{HUGE}..{HUGE}"),
        ("map", "-s", "1", "-t", "1", "-c", f"{HUGE},1"),
    ],
    ids=["n", "s", "k", "t", "offset", "range", "parts"],
)
def test_an_integer_past_the_limit_is_a_usage_error(capsys, argv):
    with default_int_limit():
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    # Neither a private helper's name nor advice to lift the limit, a call a
    # CLI user cannot make.
    assert "_range" not in err and "set_int_max_str_digits" not in err, err


@pytest.mark.parametrize("flag", ["-s", "--range", "-c"])
def test_a_numeral_past_the_limit_is_named_as_such(capsys, flag):
    argv = {
        "-s": ("count", "-s", HUGE, "-t", "1", "-n", "5"),
        "--range": ("bfile", "-s", "2", "-t", "3", "--range", f"{HUGE}..{HUGE}"),
        "-c": ("map", "-s", "1", "-t", "1", "-c", f"{HUGE},1"),
    }[flag]
    with default_int_limit():
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: an integer of 4301 digits is past the int-string limit" in err, err
    assert "positive" not in err


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("-n", ("count", "-s", "1", "-t", "1", "-n", HUGE)),
        ("-n", ("enumerate", "-s", "1", "-t", "1", "-n", HUGE)),
        ("-k", ("count", "-s", "1", "-t", "1", "-k", f"-{HUGE}", "-n", "5")),
        ("--offset", ("bfile", "-s", "2", "-t", "3", "--range", "0..3", "--offset", HUGE)),
    ],
    ids=["count-n", "enumerate-n", "k", "offset"],
)
def test_a_long_integer_option_names_the_limit_briefly(capsys, flag, argv):
    # The limit is named, and the 4301 digits are not echoed back.
    with default_int_limit():
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: an integer of 4301 digits is past the int-string limit" in err, err
    assert len(err.encode()) < 300, err


def test_bfile_indices_past_the_limit_write_nothing(capsys):
    # The last index, 10**4300 + 30, has 4301 digits: refused before the
    # first chunk of 64 lines is written, not after it.
    offset = str(10**4300 - 70)
    with default_int_limit():
        code, out, err = run(
            capsys, "bfile", "-s", "1", "-t", "1", "--range", "0..100", "--offset", offset
        )
    assert (code, out) == (1, "")
    assert err.startswith("error: b-file indices past the int-string limit"), err
    assert "set_int_max_str_digits" not in err


def test_a_part_outside_a_system_past_the_limit_names_its_modulus_briefly(capsys):
    # s + t = 10**4300 has 4301 digits: the message names it as s+t, and does not
    # ask to lift the limit, a call a CLI user cannot make.
    with default_int_limit():
        code, out, err = run(capsys, "unmap", "-s", "1", "-t", "9" * 4300, "-c", "2")
    assert (code, out) == (1, "")
    assert err == (
        "error: part 2 outside residue system: its remainder 2 mod s+t is not an admitted residue\n"
    ), err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # The modulus 10**4300 has 4301 digits.
        ("residues", "-s", "1", "-t", "9" * 4300),
        # The image is the one anchor 1 + b*3//2 = 15 * 10**4299 - 1, of 4301 digits.
        ("map", "-s", "2", "-t", "1", "-c", f"{5 * 10**4299},{10**4300 - 1}"),
        # The anchor 10**4300 - 1 has rank b = 1, so a = 2 + anchor - 1 = 10**4300.
        ("unmap", "-s", "1", "-t", str(10**4300 - 3), "-c", f"1,1,{10**4300 - 1}"),
    ],
    ids=["residues", "map", "unmap"],
)
def test_an_output_integer_past_the_limit_writes_nothing(capsys, argv):
    with default_int_limit():
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: an output integer is past the int-string limit of 4300 digits\n", err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv,code,out",
    [
        (("count", "-s", "2", "-t", "3", "-n", "6"), 0, "7\n"),
        (("map", "-s", "2", "-t", "3", "-k", "1", "-c", "6"), 2, ""),
        (("unmap", "-s", "2", "-t", "3", "-c", "2,4"), 1, ""),
    ],
)
def test_module_entry_point(argv, code, out):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "arndt.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-s", "1", "-t", "1", "-k", "-100", "-n", "18"),
        ("bfile", "-s", "1", "-t", "1", "--range", "0..20000"),
    ],
    ids=["enumerate", "bfile"],
)
def test_closed_stdout_exits_1_silently(argv):
    # Both outputs far outgrow a pipe's buffer, so the command is still
    # writing when the reader goes, as with `| head -1`.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(
        [sys.executable, "-m", "arndt.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")


def scales():
    return st.one_of(st.integers(0, 12), st.integers(1, 10**12 + 1))


def one_in(n):
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def cli_argvs(draw):
    """An argv for any subcommand, valid or not; about one in ten has one integer
    argument swapped for HUGE."""
    command = draw(st.sampled_from(
        ["count", "count", "enumerate", "map", "unmap", "residues", "table", "bfile"]
    ))
    if command == "table":
        return [command, draw(st.sampled_from(["residues", "sequences", "bijection6", "nope"]))]
    k = draw(st.integers(-10**6, 10**6)) if draw(one_in(3)) else 0
    argv = [command, "-s", str(draw(scales())), "-t", str(draw(scales())), "-k", str(k)]
    if command == "count":
        method = draw(st.sampled_from([None, "recurrence", "series", "brute"]))
        brute = method == "brute" or (method is None and k != 0)
        argv += ["-n", str(draw(st.integers(-2, 20 if brute else 2000)))]
        argv += ["--method", method] if method else []
    elif command == "enumerate":
        argv += ["-n", str(draw(st.integers(-2, 12)))]
        argv += ["--congruence"] if draw(st.booleans()) else []
        argv += ["--format", draw(st.sampled_from(["lines", "json"]))]
    elif command in ("map", "unmap"):
        parts = draw(st.lists(st.integers(1, 10**4), max_size=8))
        argv += ["-c", ",".join(map(str, parts))]
    elif command == "bfile":
        lo = draw(st.integers(0, 2000))
        argv += ["--range", f"{lo}..{lo + draw(st.integers(-1, 199))}"]
        offset = draw(st.one_of(st.none(), st.integers(-10**20, 10**20)))
        argv += [] if offset is None else ["--offset", str(offset)]
    if draw(one_in(10)):
        slot = draw(st.sampled_from([i for i, a in enumerate(argv) if re.match(r"-?\d", a)]))
        argv[slot] = re.sub(r"\d+", HUGE, argv[slot], count=1)
    return argv


# The fuzz bounds its own sizes (n, ranges, parts, and the two ceilings patched small):
# nothing yet refuses a count or b-file by its cost.
@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_every_argv_ends_in_a_classified_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, default_int_limit():
        patch.setattr("arndt.cli._RESIDUES_CEILING", 64)
        patch.setattr("arndt.bijection.MAX_IMAGE_PARTS", 1000)
        start = time.process_time()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        elapsed = time.process_time() - start
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert code == 0 or out == ""
    assert code != 0 or (out.endswith("\n") and not out.endswith("\n\n"))
    assert code != 1 or err.splitlines()[-1].startswith("error: ")
    assert code == 2 or HUGE not in " ".join(argv)
    assert elapsed < 5
