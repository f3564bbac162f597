"""Composition streams and brute-force counting against the bitmask oracle."""

import re
import sys

import pytest

from arndt.core import Composition, ResidueSystem, ScaledConstraint, residue_system, satisfies
import arndt.core
import arndt.enumeration
import arndt.sequence
from arndt.enumeration import (
    BRUTE_FORCE_CEILING,
    BruteForceCeilingError,
    all_compositions,
    arndt_compositions,
    congruence_compositions,
    count_brute,
)

from _reference import (
    arndt_ok,
    bitmask_compositions,
    ceil_div,
    congruence_counts,
    congruence_ok,
    coprime_pairs,
    fib,
    residue_list,
)

ARNDT_23_OF_6 = [
    (2, 1, 2, 1),
    (2, 1, 3),
    (3, 1, 2),
    (4, 1, 1),
    (4, 2),
    (5, 1),
    (6,),
]

CONGRUENCE_23_OF_6 = [
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 3),
    (1, 1, 3, 1),
    (1, 3, 1, 1),
    (3, 1, 1, 1),
    (3, 3),
    (6,),
]


def parts_list(stream):
    return [c.parts for c in stream]


class TestAllCompositions:
    def test_zero_yields_only_empty(self):
        assert parts_list(all_compositions(0)) == [()]

    def test_three(self):
        assert parts_list(all_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_count_is_two_to_n_minus_one(self):
        for n in range(1, 17):
            assert sum(1 for _ in all_compositions(n)) == 2 ** (n - 1)

    def test_ten_has_512(self):
        assert sum(1 for _ in all_compositions(10)) == 512

    def test_lexicographic_and_complete(self):
        for n in range(0, 10):
            got = parts_list(all_compositions(n))
            assert got == sorted(got)
            assert len(set(got)) == len(got)
            assert set(got) == set(bitmask_compositions(n))

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError):
            list(all_compositions(-1))

    def test_refuses_a_non_integer_total(self):
        with pytest.raises(TypeError):
            all_compositions(3.0)
        with pytest.raises(TypeError):
            arndt_compositions(3.0, ScaledConstraint(2, 3))

    def test_refuses_a_negative_total_when_called(self):
        # Before anything is drawn, so a caller writing as it draws writes nothing.
        cons = ScaledConstraint(2, 3)
        with pytest.raises(ValueError, match="cannot compose a negative total"):
            all_compositions(-1)
        with pytest.raises(ValueError, match="cannot compose a negative total"):
            arndt_compositions(-1, cons)
        with pytest.raises(ValueError, match="cannot compose a negative total"):
            congruence_compositions(-2, residue_system(cons))


class TestArndtCompositions:
    def test_listed_set_for_two_three(self):
        got = parts_list(arndt_compositions(6, ScaledConstraint(2, 3)))
        assert got == ARNDT_23_OF_6

    def test_unit_scale_also_admits_three_two_one(self):
        got = parts_list(arndt_compositions(6, ScaledConstraint(1, 1)))
        assert got == sorted(ARNDT_23_OF_6 + [(3, 2, 1)])
        assert len(got) == 8

    def test_unit_scale_of_three(self):
        # Brute filter of all four compositions of 3 leaves two, F_3.
        got = parts_list(arndt_compositions(3, ScaledConstraint(1, 1)))
        assert got == [(2, 1), (3,)]
        assert len(got) == fib(3)

    def test_affine_offset_of_four(self):
        # Exhaustive filter of the 8 compositions of 4 by a > b + 1.
        got = parts_list(arndt_compositions(4, ScaledConstraint(1, 1, k=1)))
        assert got == [(3, 1), (4,)]

    def test_membership_is_exactly_the_predicate(self):
        cons = ScaledConstraint(3, 2)
        admitted = set(parts_list(arndt_compositions(9, cons)))
        for parts in bitmask_compositions(9):
            member = parts in admitted
            assert member == satisfies(Composition(parts), cons)

    def test_zero_offset_equals_offset_free_filter(self):
        for s, t in coprime_pairs(6):
            cons = ScaledConstraint(s, t, k=0)
            got = parts_list(arndt_compositions(8, cons))
            expected = sorted(
                p for p in bitmask_compositions(8) if arndt_ok(p, s, t)
            )
            assert got == expected


# Every composition of n, from the oracle, for n = 0..12.
BITMASK_UP_TO_12 = [tuple(bitmask_compositions(n)) for n in range(13)]


@pytest.mark.parametrize("s,t", coprime_pairs(8))
def test_streams_against_the_bitmask_oracle(s, t):
    # Both streams, in order, and count_brute, over k = -3..3 and n <= 12;
    # k = -100 admits every pair and k = 100 none, at both clips of the
    # table's bound on b.
    rs = residue_system(ScaledConstraint(s, t))
    for n, every in enumerate(BITMASK_UP_TO_12):
        for k in (*range(-3, 4), -100, 100):
            got = parts_list(arndt_compositions(n, ScaledConstraint(s, t, k)))
            assert got == sorted(p for p in every if arndt_ok(p, s, t, k))
            assert count_brute(n, ScaledConstraint(s, t, k)) == len(got)
        got = parts_list(congruence_compositions(n, rs))
        assert got == sorted(
            p for p in every if congruence_ok(p, residue_list(s, t), s + t)
        )
        assert count_brute(n, rs) == len(got)


@pytest.mark.parametrize("s,t", coprime_pairs(8))
def test_count_brute_past_the_bitmask_oracle(s, t):
    # Deeper than the stream test above: both sides against the reference
    # recurrence for n = 13..18, and affine offsets against the drained stream.
    cons = ScaledConstraint(s, t)
    rs = residue_system(cons)
    expected = congruence_counts(s, t, 18)
    for n in range(13, 19):
        assert count_brute(n, cons) == expected[n]
        assert count_brute(n, rs) == expected[n]
    for n in (13, 14):
        for k in (-3, 3):
            affine = ScaledConstraint(s, t, k)
            assert count_brute(n, affine) == sum(1 for _ in arndt_compositions(n, affine))
    # At k = 100 the smallest pair is large or absent, so the root itself can be a leaf and
    # most remainders are: up to the ceiling, count_brute adds them at their parent.
    sparse = ScaledConstraint(s, t, 100)
    for n in range(13, BRUTE_FORCE_CEILING + 1):
        assert count_brute(n, sparse) == sum(1 for _ in arndt_compositions(n, sparse)), n


@pytest.mark.parametrize("s,t,ns", [(7, 1, (19, 20, 21)), (2, 3, (22,))], ids=["7-1", "2-3"])
def test_count_brute_at_the_benchmark_shapes(s, t, ns):
    # Past n = 18, at the dense counts the benchmark spends its time on: both sides
    # against the reference recurrence.
    cons = ScaledConstraint(s, t)
    rs = residue_system(cons)
    expected = congruence_counts(s, t, max(ns))
    for n in ns:
        assert count_brute(n, cons) == expected[n]
        assert count_brute(n, rs) == expected[n]


def test_count_brute_admits_every_composition_past_twenty():
    # With k far below 0 every pair passes: the widest tree, up to 2**22 compositions.
    cons = ScaledConstraint(1, 1, -10**6)
    for n in (21, 22, 23):
        assert count_brute(n, cons) == 2 ** (n - 1)


def test_count_brute_reads_no_term_engine(monkeypatch):
    # An oracle for the recurrence stays independent of it: with the engine's closed-form
    # taps (_form) and its term runs (_run) patched to fail, both sides still match the
    # reference recurrence on the s + t <= 8 grid.
    def engine(*args, **kwargs):
        raise AssertionError("term engine called")

    monkeypatch.setattr(arndt.sequence, "_form", engine)
    monkeypatch.setattr(arndt.sequence, "_run", engine)
    for s, t in coprime_pairs(8):
        cons = ScaledConstraint(s, t)
        rs = residue_system(cons)
        for n, expected in enumerate(congruence_counts(s, t, 18)):
            assert count_brute(n, cons) == expected, (s, t, n)
            assert count_brute(n, rs) == expected, (s, t, n)


def test_congruence_side_lists_parts_without_membership_tests(monkeypatch):
    # The congruence side's blocks are the parts 1 + b*(s+t)//s, listed by b:
    # no part is tested with ResidueSystem.contains.
    def no_contains(self, part):
        raise AssertionError(f"tested part {part}")

    monkeypatch.setattr(ResidueSystem, "contains", no_contains)
    for s, t in coprime_pairs(8):
        rs = residue_system(ScaledConstraint(s, t))
        for n, every in enumerate(BITMASK_UP_TO_12):
            got = parts_list(congruence_compositions(n, rs))
            assert got == sorted(p for p in every if congruence_ok(p, residue_list(s, t), s + t))
        for n, expected in enumerate(congruence_counts(s, t, 18)):
            assert count_brute(n, rs) == expected, (s, t, n)


@pytest.mark.parametrize("final", [True, False])
def test_walks_take_their_side_from_blocks(monkeypatch, final):
    # A stand-in constraint of neither type gets (1, 1)'s pair blocks and a side from
    # _blocks alone: with the final part, the (1, 1) stream; without, its even-length part.
    streams = {n: parts_list(arndt_compositions(n, ScaledConstraint(1, 1))) for n in range(13)}
    pairs = arndt.enumeration._blocks
    monkeypatch.setattr(
        arndt.enumeration, "_blocks",
        lambda n, c, congruence: (pairs(n, ScaledConstraint(1, 1), congruence)[0], final),
    )
    stand_in = object()
    for n, every in streams.items():
        expected = [p for p in every if final or len(p) % 2 == 0]
        assert parts_list(arndt_compositions(n, stand_in)) == expected
        assert count_brute(n, stand_in) == len(expected)


class TestCongruenceCompositions:
    def test_table_row_for_two_three(self):
        rs = residue_system(ScaledConstraint(2, 3))
        assert parts_list(congruence_compositions(6, rs)) == CONGRUENCE_23_OF_6

    def test_odd_parts_of_two(self):
        rs = residue_system(ScaledConstraint(1, 1))
        assert parts_list(congruence_compositions(2, rs)) == [(1, 1)]

    def test_against_reference_filter_of_seven(self):
        rs = residue_system(ScaledConstraint(3, 2))
        got = parts_list(congruence_compositions(7, rs))
        expected = sorted(
            p for p in bitmask_compositions(7) if congruence_ok(p, {1, 2, 4}, 5)
        )
        assert got == expected
        assert len(got) == 34


@pytest.mark.parametrize("s,t", coprime_pairs(8))
def test_congruence_side_from_a_constraint_matches_its_system(s, t):
    # A k = 0 constraint walks from s and s+t; its system walks through _blocks: one stream.
    cons = ScaledConstraint(s, t)
    rs = residue_system(cons)
    for n in range(15):
        assert parts_list(congruence_compositions(n, cons)) == parts_list(
            congruence_compositions(n, rs)
        ), n


@pytest.mark.parametrize("t", [2, 999999999998], ids=["every-part", "even-parts"])
def test_congruence_side_of_a_huge_s_builds_no_residues(monkeypatch, t):
    # At s = 999999999999 the residue system is a tuple of about 10**12 ints; the stream
    # of a constraint reads only s and s+t, so no route that builds a system is taken:
    # under every name a module binds, residue_system fails rather than run out of memory.
    def refused(*args):
        raise AssertionError("residue system built")

    for module in ("arndt", "arndt.core", "arndt.cli", "arndt.sequence"):
        monkeypatch.setattr(f"{module}.residue_system", refused)
    monkeypatch.setattr(arndt.enumeration, "residue_system", refused, raising=False)
    monkeypatch.setattr(ResidueSystem, "__init__", refused)
    monkeypatch.setattr(ResidueSystem, "_from_checked", refused)
    s = 999999999999
    residues = {r + ceil_div(r * t + 1, s) for r in range(6)}
    expected = sorted(p for p in bitmask_compositions(6) if congruence_ok(p, residues, s + t))
    assert len(expected) == (32 if t == 2 else 19)
    assert parts_list(congruence_compositions(6, ScaledConstraint(s, t))) == expected


def test_congruence_side_of_a_constraint_refuses_in_order():
    # k != 0 first, with residue_system's message, even past the ceiling; then the walk's checks.
    with pytest.raises(ValueError, match="defined only for offset k = 0") as stream:
        congruence_compositions(27, ScaledConstraint(1, 1, 1))
    with pytest.raises(ValueError) as system:
        residue_system(ScaledConstraint(1, 1, 1))
    assert (type(stream.value), str(stream.value)) == (ValueError, str(system.value))
    with pytest.raises(BruteForceCeilingError, match="ceiling is n = 26"):
        congruence_compositions(27, ScaledConstraint(1, 1))
    with pytest.raises(ValueError, match="cannot compose a negative total: -1"):
        congruence_compositions(-1, ScaledConstraint(2, 3))


NEITHER = (TypeError, "expected ScaledConstraint or ResidueSystem, got object")
SYSTEM = (TypeError, "expected ScaledConstraint, got ResidueSystem: use congruence_compositions")
OFFSET = (ValueError, "defined only for offset k = 0: no residue system, bijection or "
          "generating function is known for k != 0 (got k = 1)")
NEGATIVE = (ValueError, "cannot compose a negative total: -1")
CEILING = (BruteForceCeilingError,
           "brute-force walk of 2**26 compositions refused; ceiling is n = 26")
CONSTRAINTS = {"neither": object(), "system": residue_system(ScaledConstraint(2, 3)),
               "affine": ScaledConstraint(1, 1, 1), "pure": ScaledConstraint(2, 3)}

# (constraint, n): the refusals of count_brute, arndt_compositions and congruence_compositions,
# None where the walk is made. One order for all: the type, then k != 0 on a constraint's
# congruence side, then n.
REFUSAL_ORDER = {
    ("neither", 5): (NEITHER, NEITHER, NEITHER),
    ("neither", -1): (NEITHER, NEITHER, NEITHER),
    ("neither", 27): (NEITHER, NEITHER, NEITHER),
    ("system", 5): (None, SYSTEM, None),
    ("system", -1): (NEGATIVE, SYSTEM, NEGATIVE),
    ("system", 27): (CEILING, SYSTEM, CEILING),
    ("affine", 5): (None, None, OFFSET),
    ("affine", -1): (NEGATIVE, NEGATIVE, OFFSET),
    ("affine", 27): (CEILING, CEILING, OFFSET),
    ("pure", -1): (NEGATIVE, NEGATIVE, NEGATIVE),
    ("pure", 27): (CEILING, CEILING, CEILING),
}


@pytest.mark.parametrize(
    "key,refusals", REFUSAL_ORDER.items(), ids=[f"{c}-{n}" for c, n in REFUSAL_ORDER]
)
def test_every_walk_refuses_in_one_order(key, refusals):
    name, n = key
    for walk, refusal in zip((count_brute, arndt_compositions, congruence_compositions), refusals):
        if refusal is None:
            walk(n, CONSTRAINTS[name])
            continue
        with pytest.raises(Exception) as info:
            walk(n, CONSTRAINTS[name])
        assert (type(info.value), str(info.value)) == refusal, walk.__name__


class TestCountBrute:
    def test_listed_count(self):
        assert count_brute(6, ScaledConstraint(2, 3)) == 7

    def test_empty_composition_counts_once(self):
        assert count_brute(0, ScaledConstraint(2, 3)) == 1
        assert count_brute(0, residue_system(ScaledConstraint(2, 3))) == 1

    def test_five_three_of_nine(self):
        assert count_brute(9, ScaledConstraint(5, 3)) == 124

    def test_accepts_residue_systems(self):
        rs = residue_system(ScaledConstraint(2, 3))
        assert count_brute(6, rs) == 7

    def test_bounds_within_all_compositions(self):
        for n in range(1, 13):
            c = count_brute(n, ScaledConstraint(2, 3))
            assert 1 <= c <= 2 ** (n - 1)

    def test_equinumerosity_small_grid(self):
        # The full grid runs in the acceptance suite; spot layers here.
        for s, t in coprime_pairs(6):
            cons = ScaledConstraint(s, t)
            rs = residue_system(cons)
            for n in range(0, 13):
                assert count_brute(n, cons) == count_brute(n, rs)

    def test_counts_without_walking(self, monkeypatch):
        # count_brute reads the table of admissible blocks, not the stream walk.
        def no_walk(n, blocks):
            raise AssertionError("walked")

        monkeypatch.setattr(arndt.enumeration, "_walk", no_walk)
        for s, t in [(1, 1), (2, 3), (3, 2), (7, 1)]:
            cons = ScaledConstraint(s, t)
            rs = residue_system(cons)
            for n, expected in enumerate(congruence_counts(s, t, 14)):
                assert count_brute(n, cons) == expected
                assert count_brute(n, rs) == expected
        with pytest.raises(AssertionError, match="walked"):
            list(arndt_compositions(5, ScaledConstraint(2, 3)))
        with pytest.raises(AssertionError, match="walked"):
            list(congruence_compositions(5, residue_system(ScaledConstraint(2, 3))))

    def test_counts_without_stream_rows(self, monkeypatch):
        # count_brute reads block sizes only, never the streams' table of rows:
        # its counts match drained streams with _steps patched to fail.
        pairs, offsets = [(1, 1), (2, 3), (3, 2), (7, 1)], [-100, *range(-3, 4), 100]
        arndt_lengths, congruence_lengths = {}, {}  # of drained streams
        for s, t in pairs:
            rs = residue_system(ScaledConstraint(s, t))
            for n in range(19):
                congruence_lengths[s, t, n] = sum(1 for _ in congruence_compositions(n, rs))
                for k in offsets if n <= 14 else [0]:
                    stream = arndt_compositions(n, ScaledConstraint(s, t, k))
                    arndt_lengths[s, t, k, n] = sum(1 for _ in stream)

        def no_rows(n, constraint):
            raise AssertionError("built stream rows")

        monkeypatch.setattr(arndt.enumeration, "_steps", no_rows)
        for s, t in pairs:
            cons = ScaledConstraint(s, t)
            rs = residue_system(cons)
            for n, expected in enumerate(congruence_counts(s, t, 18)):
                assert arndt_lengths[s, t, 0, n] == expected, (s, t, n)
                assert congruence_lengths[s, t, n] == expected, (s, t, n)
                assert count_brute(n, cons) == expected, (s, t, n)
                assert count_brute(n, rs) == expected, (s, t, n)
            for k in offsets:
                for n in range(15):
                    assert count_brute(n, ScaledConstraint(s, t, k)) == arndt_lengths[s, t, k, n]
        with pytest.raises(AssertionError, match="stream rows"):
            arndt_compositions(5, ScaledConstraint(2, 3))
        with pytest.raises(AssertionError, match="stream rows"):
            congruence_compositions(5, residue_system(ScaledConstraint(2, 3)))

    def test_every_composition_admitted(self):
        # With k far below 0 every pair passes: the widest tree there is.
        cons = ScaledConstraint(1, 1, -10**6)
        assert count_brute(0, cons) == 1
        for n in range(1, 21):
            assert count_brute(n, cons) == 2 ** (n - 1)

    def test_required_ceiling_capability(self):
        # n = 22 is within contract: 2**21 compositions, Fibonacci check.
        assert count_brute(22, ScaledConstraint(1, 1)) == fib(22)

    def test_refuses_beyond_ceiling(self):
        with pytest.raises(BruteForceCeilingError, match="ceiling"):
            count_brute(BRUTE_FORCE_CEILING + 1, ScaledConstraint(1, 1))

    def test_streams_refuse_beyond_ceiling_when_called(self):
        # The refusal comes at call time, before the stream is drawn from.
        cons = ScaledConstraint(1, 1)
        with pytest.raises(BruteForceCeilingError, match="ceiling"):
            arndt_compositions(BRUTE_FORCE_CEILING + 1, cons)
        with pytest.raises(BruteForceCeilingError, match="ceiling"):
            congruence_compositions(BRUTE_FORCE_CEILING + 1, residue_system(cons))
        with pytest.raises(BruteForceCeilingError, match="ceiling"):
            all_compositions(BRUTE_FORCE_CEILING + 1)
        # The ceiling itself is still served.
        assert next(all_compositions(BRUTE_FORCE_CEILING)) == Composition((1,) * 26)

    @pytest.mark.parametrize(
        "n,walk",
        [(27, "2**26"), (10**4300, f"2**{10**4300 - 1}"), (10**4300 + 1, "2**(n-1)"),
         (10**4301, "2**(n-1)")],
        ids=["27", "n-1-at-the-limit", "n-1-past-the-limit", "n-past-the-limit"],
    )
    def test_every_refusal_past_the_ceiling_is_a_ceiling_error(self, n, walk):
        # Under CPython's default int-string limit an n - 1 of 4301 digits has no text:
        # the message names it as n-1, and is still the ceiling's.
        cons = ScaledConstraint(2, 3)
        message = f"^brute-force walk of {re.escape(walk)} compositions refused; ceiling is n = 26$"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for call in (lambda: count_brute(n, cons), lambda: arndt_compositions(n, cons),
                         lambda: congruence_compositions(n, cons), lambda: all_compositions(n)):
                with pytest.raises(BruteForceCeilingError, match=message):
                    call()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_rejects_other_constraint_types(self):
        with pytest.raises(TypeError):
            count_brute(5, (2, 3))
        # all_compositions' every-part table is not reachable through None.
        with pytest.raises(TypeError):
            count_brute(5, None)
        with pytest.raises(TypeError):
            arndt_compositions(5, None)
        # A residue system stands for the congruence side, which count_brute also takes.
        with pytest.raises(TypeError, match="got ResidueSystem"):
            arndt_compositions(5, residue_system(ScaledConstraint(2, 3)))
