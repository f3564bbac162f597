"""Generating functions, series expansion, recurrence, and b-file export."""

import decimal
import sys
import time
from decimal import MAX_PREC, Decimal, Inexact, localcontext
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arndt.sequence
from arndt.core import ScaledConstraint
from arndt.enumeration import count_brute
from arndt.sequence import (
    RationalGF,
    SeriesExpansion,
    build_gf,
    count_recurrence,
    expand,
    export_bfile,
    sequence_range,
)

from _reference import congruence_counts, coprime_pairs, fib, residue_list

# Series coefficients 0..9 for the four pairs with s + t = 5.
SERIES_SUM_FIVE = {
    (1, 4): (1, 1, 1, 1, 1, 1, 2, 3, 4, 5),
    (2, 3): (1, 1, 1, 2, 3, 4, 7, 11, 17, 27),
    (3, 2): (1, 1, 2, 3, 6, 10, 19, 34, 62, 112),
    (4, 1): (1, 1, 2, 4, 8, 15, 30, 59, 116, 228),
}


class TestBuildGF:
    def test_two_three(self):
        gf = build_gf(ScaledConstraint(2, 3))
        assert gf.numerator == (1, 0, 0, 0, 0, -1)
        assert gf.denominator == (1, -1, 0, -1, 0, -1)

    def test_one_four(self):
        gf = build_gf(ScaledConstraint(1, 4))
        assert gf.numerator == (1, 0, 0, 0, 0, -1)
        assert gf.denominator == (1, -1, 0, 0, 0, -1)

    def test_four_one(self):
        gf = build_gf(ScaledConstraint(4, 1))
        assert gf.numerator == (1, 0, 0, 0, 0, -1)
        assert gf.denominator == (1, -1, -1, -1, -1, -1)

    def test_rejects_affine(self):
        with pytest.raises(ValueError, match="k != 0"):
            build_gf(ScaledConstraint(2, 3, k=1))

    def test_degrees_match_modulus(self):
        for s, t in coprime_pairs(8):
            gf = build_gf(ScaledConstraint(s, t))
            assert len(gf.numerator) == len(gf.denominator) == s + t + 1
            assert gf.denominator[0] == 1


class TestExpand:
    @pytest.mark.parametrize("pair,expected", sorted(SERIES_SUM_FIVE.items()))
    def test_sum_five_series(self, pair, expected):
        series = expand(build_gf(ScaledConstraint(*pair)), 9)
        assert series.coefficients == expected

    def test_zero_length(self):
        series = expand(build_gf(ScaledConstraint(2, 3)), 0)
        assert series.coefficients == (1,)

    def test_denominator_times_series_is_numerator(self):
        # Convolving the expansion back through the denominator must
        # reproduce the numerator exactly, degree by degree.
        n_max = 40
        for s, t in coprime_pairs(8):
            gf = build_gf(ScaledConstraint(s, t))
            c = expand(gf, n_max).coefficients
            den = gf.denominator
            for n in range(n_max + 1):
                conv = sum(
                    den[j] * c[n - j] for j in range(0, min(n, len(den) - 1) + 1)
                )
                expected = gf.numerator[n] if n < len(gf.numerator) else 0
                assert conv == expected

    def test_coefficients_stay_positive(self):
        for s, t in coprime_pairs(8):
            series = expand(build_gf(ScaledConstraint(s, t)), 30)
            assert all(v >= 1 for v in series.coefficients)

    def test_non_unit_taps_follow_the_hand_recurrence(self):
        # c_n = num_n + 2 c_{n-1} - 3 c_{n-2}, with a numerator that
        # outlasts the denominator's degree.
        num = (1, -1, 4, 0, 2)
        gf = RationalGF(ScaledConstraint(2, 3), num, (1, -2, 3))
        c = []
        for n in range(40):
            c.append((num[n] if n < len(num) else 0)
                     + (2 * c[n - 1] if n >= 1 else 0) - (3 * c[n - 2] if n >= 2 else 0))
        assert expand(gf, 39).coefficients == tuple(c)
        assert c[:9] == [1, 1, 3, 3, -1, -11, -19, -5, 47]
        # A denominator with no taps leaves the numerator alone.
        polynomial = RationalGF(ScaledConstraint(2, 3), num, (1, 0, 0))
        assert expand(polynomial, 7).coefficients == num + (0, 0, 0)

    def test_series_type_demands_unit_constant(self):
        with pytest.raises(ValueError):
            SeriesExpansion(ScaledConstraint(2, 3), (2, 1))


class TestTermStream:
    def test_resumes_from_every_start(self):
        # From each start up to 2m, seeded with the m terms below it (zeros
        # below index 0), the stream goes on as the full one does: across
        # the last numerator term and the first tap-only term, on ints and
        # on exact Decimals.
        for s, t in coprime_pairs(8):
            gf = build_gf(ScaledConstraint(s, t))
            m = s + t
            full = list(islice(arndt.sequence._terms(gf), 3 * m + 20))
            padded = [0] * m + full
            with localcontext(arndt.sequence._exact_context()):
                for start in range(2 * m + 1):
                    seed = padded[start : start + m]
                    want = full[start : start + m + 20]
                    for kind in (int, Decimal):
                        stream = arndt.sequence._terms(gf, start, [kind(v) for v in seed])
                        got = list(islice(stream, m + 20))
                        assert got == want, (s, t, start, kind)
                        assert {type(v) for v in got} == {kind}

    def test_huge_s_reads_only_the_taps_up_to_n(self):
        # s + t = 100001 taps, but a(n) for n <= 50 reads at most 50 of them:
        # about 0.1 s, where reading every tap of every term took 7.6 s.
        started = time.process_time()
        assert count_recurrence(ScaledConstraint(10**5, 1), 50) == 2**49
        assert time.process_time() - started < 2.0


class TestCountRecurrence:
    def test_listed_values(self):
        assert count_recurrence(ScaledConstraint(2, 3), 7) == 11
        assert count_recurrence(ScaledConstraint(1, 1), 10) == 55
        assert count_recurrence(ScaledConstraint(5, 2), 10) == 365

    def test_three_five_at_twenty(self):
        cons = ScaledConstraint(3, 5)
        assert count_recurrence(cons, 20) == 3502
        assert expand(build_gf(cons), 20)[20] == 3502

    def test_three_five_spot_check_against_brute(self):
        cons = ScaledConstraint(3, 5)
        assert count_recurrence(cons, 18) == count_brute(18, cons)

    def test_fibonacci_specialization(self):
        cache = {}
        for n in range(1, 31):
            assert count_recurrence(ScaledConstraint(1, 1), n, cache) == fib(n)

    def test_rejects_affine_and_negative(self):
        with pytest.raises(ValueError):
            count_recurrence(ScaledConstraint(2, 3, k=1), 5)
        with pytest.raises(ValueError):
            count_recurrence(ScaledConstraint(2, 3), -1)

    def test_cache_reuse_and_evaluation_order(self):
        cons = ScaledConstraint(3, 2)
        fresh = [count_recurrence(cons, n) for n in range(31)]
        shared: dict[int, int] = {}
        ascending = [count_recurrence(cons, n, shared) for n in range(31)]
        shared2: dict[int, int] = {}
        descending = [count_recurrence(cons, n, shared2) for n in range(30, -1, -1)]
        assert fresh == ascending == descending[::-1]

    def test_ascending_calls_resume_from_the_cache(self, monkeypatch):
        # Past the recurrence order each miss continues from the cached
        # window, so 0..500 draws about 501 terms, not the ~125k of
        # restarting at a(0) on every miss.
        cons = ScaledConstraint(2, 3)
        walked = expand(build_gf(cons), 500).coefficients
        terms, drawn = arndt.sequence._terms, 0

        def counted(*args):
            nonlocal drawn
            for c in terms(*args):
                drawn += 1
                yield c

        monkeypatch.setattr(arndt.sequence, "_terms", counted)
        cache: dict[int, int] = {}
        assert tuple(count_recurrence(cons, n, cache) for n in range(501)) == walked
        assert drawn <= 2 * 501

    def test_resumes_only_from_a_whole_window(self):
        # The cache holds twelve terms, but a(9), one of the five below
        # index 12, is missing, so the miss at 30 walks from a(0).
        cons = ScaledConstraint(2, 3)
        walked = expand(build_gf(cons), 40).coefficients
        cache = {i: walked[i] for i in range(12) if i != 9}
        cache[40] = walked[40]
        assert count_recurrence(cons, 30, cache) == walked[30]
        assert all(cache[i] == walked[i] for i in cache)

    @settings(max_examples=60)
    @given(st.sampled_from(coprime_pairs(8)), st.integers(0, 60))
    def test_recurrence_matches_series(self, pair, n):
        cons = ScaledConstraint(*pair)
        assert count_recurrence(cons, n) == expand(build_gf(cons), n)[n]


class TestSequenceRange:
    def test_recurrence_row(self):
        got = sequence_range(ScaledConstraint(4, 3), 1, 10, "recurrence")
        assert got == [1, 2, 3, 6, 10, 19, 33, 61, 109, 198]

    def test_series_row(self):
        got = sequence_range(ScaledConstraint(2, 5), 1, 10, "series")
        assert got == [1, 1, 1, 2, 3, 4, 5, 8, 12, 17]

    def test_brute_row(self):
        assert sequence_range(ScaledConstraint(2, 3), 6, 6, "brute") == [7]

    def test_methods_agree(self):
        cons = ScaledConstraint(3, 4)
        rec = sequence_range(cons, 0, 14, "recurrence")
        ser = sequence_range(cons, 0, 14, "series")
        bru = sequence_range(cons, 0, 14, "brute")
        assert rec == ser == bru

    def test_rejects_bad_ranges_and_methods(self):
        cons = ScaledConstraint(2, 3)
        with pytest.raises(ValueError):
            sequence_range(cons, 5, 2)
        with pytest.raises(ValueError):
            sequence_range(cons, -1, 2)
        with pytest.raises(ValueError):
            sequence_range(cons, 1, 3, "magic")

    def test_bounds_across_grid(self):
        for s, t in coprime_pairs(8):
            values = sequence_range(ScaledConstraint(s, t), 1, 30)
            for n, v in enumerate(values, start=1):
                assert 1 <= v <= 2 ** (n - 1)

    def test_far_terms_against_reference(self):
        # Recurrence and series share one engine, so check far terms against
        # the recurrence with residues recomputed by the reference.
        for s, t in coprime_pairs(8):
            m, residues = s + t, residue_list(s, t)
            a = sequence_range(ScaledConstraint(s, t), 0, 2000)
            for n in range(m + 1, 2001):
                assert a[n] == sum(a[n - r] for r in residues) + a[n - m]
        fibs = sequence_range(ScaledConstraint(1, 1), 1, 2000)
        assert fibs == [fib(n) for n in range(1, 2001)]


class TestExportBfile:
    def test_short_export(self):
        assert export_bfile(ScaledConstraint(2, 3), 1, 3, 1) == "1 1\n2 1\n3 2\n"

    def test_fibonacci_start(self):
        assert export_bfile(ScaledConstraint(1, 1), 1, 2, 1) == "1 1\n2 1\n"

    def test_shifted_window(self):
        assert export_bfile(ScaledConstraint(5, 3), 9, 10, 9) == "9 124\n10 227\n"

    def test_offset_defaults_to_range_start(self):
        cons = ScaledConstraint(2, 3)
        assert export_bfile(cons, 4, 6) == export_bfile(cons, 4, 6, 4)

    def test_offset_relabels_indices(self):
        assert export_bfile(ScaledConstraint(1, 1), 1, 2, 0) == "0 1\n1 1\n"

    @given(st.sampled_from(coprime_pairs(8)), st.integers(0, 25), st.integers(0, 12))
    def test_parses_back_line_by_line(self, pair, lo, width):
        cons = ScaledConstraint(*pair)
        text = export_bfile(cons, lo, lo + width)
        lines = text.splitlines()
        assert text == "".join(line + "\n" for line in lines)
        values = sequence_range(cons, lo, lo + width)
        assert [tuple(map(int, line.split(" "))) for line in lines] == [
            (lo + i, v) for i, v in enumerate(values)
        ]

    def test_matches_the_reference_over_the_grid(self):
        for s, t in coprime_pairs(8):
            values = [str(v) for v in congruence_counts(s, t, 3000)]
            for offset in (None, 0, 1, 7):
                first = 0 if offset is None else offset
                want = "".join(f"{first + n} {v}\n" for n, v in enumerate(values))
                assert export_bfile(ScaledConstraint(s, t), 0, 3000, offset) == want

    def test_far_values_print_past_the_int_str_limit(self):
        # a(17000) of (3, 2) has 4737 digits; str(int) refuses it under
        # CPython's default limit, and the b-file must not depend on it.
        cons, limit = ScaledConstraint(3, 2), sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            text = export_bfile(cons, 17000, 17001)
            sys.set_int_max_str_digits(0)
            a = sequence_range(cons, 17000, 17001)
            assert len(str(a[0])) > 4300
            assert text == f"17000 {a[0]}\n17001 {a[1]}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "args,error",
        [
            ((ScaledConstraint(2, 3), 0, 300), None),
            ((ScaledConstraint(2, 3, k=1), 1, 5), "k != 0"),
            ((ScaledConstraint(2, 3), 5, 2), "n_lo <= n_hi"),
        ],
        ids=["returns", "affine", "bad_range"],
    )
    def test_leaves_the_decimal_context_alone(self, args, error):
        with localcontext(prec=7, traps=[decimal.Overflow]) as mine:
            before = repr(mine)
            if error is None:
                export_bfile(*args)
            else:
                with pytest.raises(ValueError, match=error):
                    export_bfile(*args)
            assert decimal.getcontext() is mine
            assert repr(mine) == before

    def test_exact_context_holds_a_million_digits(self):
        nines = Decimal("9" * 1_000_001)
        with localcontext(arndt.sequence._exact_context()):
            assert str(nines + 1) == "1" + "0" * 1_000_001
        # Without the lifted Emax the same sum overflows, which rounds.
        with localcontext(prec=MAX_PREC, traps=[Inexact]), pytest.raises(Inexact):
            nines + 1


def test_rational_gf_requires_unit_constant():
    with pytest.raises(ValueError):
        RationalGF(ScaledConstraint(2, 3), (1, -1), (2, -1))
