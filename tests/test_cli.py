"""End-to-end CLI behavior: outputs, formats, exit codes, diagnostics."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from arndt.cli import main
from arndt.core import ScaledConstraint
from arndt.sequence import export_bfile

from _reference import arndt_ok, bitmask_compositions, congruence_ok, fib, residue_list

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


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on its own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


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

    def test_far_term_prints_in_full(self, capsys):
        # a(25000) of (1, 1) has 5225 digits, past CPython's default
        # 4300-digit int-to-str limit, which main lifts for its own run only.
        limit = sys.get_int_max_str_digits()
        try:
            code, out, _ = run(capsys, "count", "-s", "1", "-t", "1", "-n", "25000")
            sys.set_int_max_str_digits(0)
            assert (code, out) == (0, f"{fib(25000)}\n")
        finally:
            sys.set_int_max_str_digits(limit)

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
