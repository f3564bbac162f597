"""Generating functions, series expansion, recurrence, and b-file export."""

import decimal
import io
import sys
import time
import tracemalloc
from decimal import MAX_PREC, Decimal, Inexact, localcontext
from itertools import count, islice, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arndt.core
import arndt.sequence
from arndt.cli import main
from arndt.core import ScaledConstraint
from arndt.enumeration import count_brute
from arndt.sequence import (
    RationalGF,
    build_gf,
    count_recurrence,
    expand,
    export_bfile,
    sequence_range,
    write_bfile,
)

from _reference import ceil_div, congruence_counts, coprime_pairs, fib, residue_list

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
        assert series == expected

    def test_zero_length(self):
        series = expand(build_gf(ScaledConstraint(2, 3)), 0)
        assert series == (1,)

    def test_denominator_times_series_is_numerator(self):
        # Convolving the expansion back through the denominator must
        # reproduce the numerator exactly, degree by degree.
        n_max = 40
        for s, t in coprime_pairs(8):
            gf = build_gf(ScaledConstraint(s, t))
            c = expand(gf, n_max)
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
            assert all(v >= 1 for v in series)

    def test_non_unit_taps_follow_the_hand_recurrence(self):
        # c_n = num_n + 2 c_{n-1} - 3 c_{n-2}, with a numerator that
        # outlasts the denominator's degree.
        num = (1, -1, 4, 0, 2)
        gf = RationalGF(ScaledConstraint(2, 3), num, (1, -2, 3))
        c = []
        for n in range(40):
            c.append((num[n] if n < len(num) else 0)
                     + (2 * c[n - 1] if n >= 1 else 0) - (3 * c[n - 2] if n >= 2 else 0))
        assert expand(gf, 39) == tuple(c)
        assert c[:9] == [1, 1, 3, 3, -1, -11, -19, -5, 47]
        # A denominator with no taps leaves the numerator alone.
        polynomial = RationalGF(ScaledConstraint(2, 3), num, (1, 0, 0))
        assert expand(polynomial, 7) == num + (0, 0, 0)
        # So does a denominator with no window at all.
        windowless = RationalGF(ScaledConstraint(2, 3), (1, 2), (1,))
        assert expand(windowless, 3) == (1, 2, 0, 0)


class TestTermStream:
    def test_resumes_from_every_start(self):
        # From each start up to 2m, seeded with the min(start, m+1) terms
        # below it, a request to start+1 or start+m+19 goes on as the full
        # stream does: across the last numerator term and the first tap-only
        # term, on a form cut short of the seed and on the whole one, on ints
        # and on exact Decimals.
        for s, t in coprime_pairs(8):
            cons, m = ScaledConstraint(s, t), s + t
            full = list(arndt.sequence._run(*arndt.sequence._form(cons, 3 * m + 19), 3 * m + 19))
            with localcontext(arndt.sequence._exact_context()):
                for start in range(2 * m + 1):
                    seed = full[max(start - m - 1, 0) : start]
                    for stop in (start + 1, start + m + 19):
                        form, want = arndt.sequence._form(cons, stop), full[start : stop + 1]
                        for kind in (int, Decimal):
                            seeded = [kind(v) for v in seed]
                            got = list(arndt.sequence._run(*form, stop, kind, start, seeded))
                            assert got == want, (s, t, start, stop, kind)
                            assert {type(v) for v in got} == {kind}

    def test_huge_s_reads_only_the_taps_up_to_n(self):
        # (10**5, 1) has s + t = 100001 dense taps, but a(n) for n <= 50
        # reads at most 50 of them: about 0.1 s, where reading every tap of
        # every term took 7.6 s.  It runs telescoped, on 4 taps, so the
        # dense (10**5, 10**5 + 1) keeps the truncation tested: its residues
        # are the odd numbers below 2 * 10**5 + 1, so a(n) counts
        # compositions into odd parts, fib(n); about 0.3 s, where reading
        # all 10**5 taps of every term took about 21 s.
        for pair, n, want in [((10**5, 1), 50, 2**49), ((10**5, 10**5 + 1), 2000, fib(2000))]:
            started = time.process_time()
            assert count_recurrence(ScaledConstraint(*pair), n) == want
            assert time.process_time() - started < 2.0, pair

    def test_huge_t_short_request_reads_only_its_parts(self):
        # A short request of a huge s and t: a(0..30) counts compositions into
        # the parts up to 30, the paper's r + ceil((r*t + 1)/s), all below s + t.
        # (2*10**9 + 1, 10**9) runs telescoped and (10**9, 10**9 + 1) dense;
        # each route takes about 0.01 s and 140 kB.
        n = 30
        for (s, t), last in [((2 * 10**9 + 1, 10**9), 171267522), ((10**9, 10**9 + 1), fib(n))]:
            parts = list(takewhile(lambda p: p <= n, (r + ceil_div(r * t + 1, s) for r in count())))
            want = [1]
            for i in range(1, n + 1):
                want.append(sum(want[i - p] for p in parts if p <= i))
            assert want[n] == last
            cons = ScaledConstraint(s, t)
            lines = "".join(f"{i} {v}\n" for i, v in enumerate(want))
            for call, expect in [
                (lambda: count_recurrence(cons, n), want[n]),
                (lambda: sequence_range(cons, 0, n), want),
                (lambda: export_bfile(cons, 0, n), lines),
            ]:
                peak, spent = _peak_and_cpu(call, expect)
                assert peak < 4 * 2**20 and spent < 2.0, ((s, t), peak, spent)


@pytest.fixture
def forms(monkeypatch):
    """The taps that the engine's loop runs, cut at each request's stop, in order."""
    taps, run = [], arndt.sequence._run

    def recorded(num, form_taps, stop, *rest):
        taps.append([(j, d) for j, d in form_taps if j <= stop])
        return run(num, form_taps, stop, *rest)

    monkeypatch.setattr(arndt.sequence, "_run", recorded)
    return taps


def _gf_form(pair, telescoped):
    # build_gf's numerator {degree: coefficient} and taps [(j, -den_j)],
    # both times (1 - x) when telescoped: the reference for _form.
    gf = build_gf(ScaledConstraint(*pair))
    num, den = gf.numerator, gf.denominator
    if telescoped:
        num, den = (tuple(d - e for d, e in zip((*p, 0), (0, *p))) for p in (num, den))
    return {i: c for i, c in enumerate(num) if c}, [(j, -d) for j, d in enumerate(den) if j and d]


def _whole_form_taps(forms, pair):
    # The taps the engine runs for a request that reads them all: a(s+t+1)
    # reads the telescoped taps' reach.
    forms.clear()
    sequence_range(ScaledConstraint(*pair), 0, sum(pair) + 1)
    return forms


def _runs_telescoped(forms, pair):
    # Whether the engine runs build_gf's taps times (1 - x), which reach
    # one past its degree s + t.
    return _whole_form_taps(forms, pair) == [_gf_form(pair, True)[1]]


# Pairs past the grid, by the largest n whose reference values stay cheap:
# the reference spends O(s) on every term.
LARGE_S = {
    (1000, 1): 3000, (1000, 7): 3000, (7, 1000): 3000, (999, 1000): 2200, (10**4, 3): 200,
}


class TestTelescopedForm:
    def test_the_cheaper_form_runs(self, forms):
        # Six grid pairs need fewer operations per term telescoped; the
        # rest, and every s <= t, keep the dense form, ties included.
        telescoped = {pair for pair in coprime_pairs(8) if _runs_telescoped(forms, pair)}
        assert telescoped == {(3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (5, 2)}
        telescoped = {pair for pair in LARGE_S if _runs_telescoped(forms, pair)}
        assert telescoped == {(1000, 1), (1000, 7), (10**4, 3)}

        def ops(taps):
            # _run's steady loop: one operation per tap past the first, and
            # one more when the first tap's coefficient is not 1.
            return len(taps) - 1 + (taps[0][1] != 1)

        for pair in [*coprime_pairs(40), *LARGE_S]:
            dense, telescoped = (_gf_form(pair, tele)[1] for tele in (False, True))
            want = telescoped if ops(telescoped) < ops(dense) else dense
            assert _whole_form_taps(forms, pair) == [want], pair

    def test_form_is_build_gf_telescoped_iff_s_exceeds_two_t(self):
        # For a request that reads every tap, the closed forms give build_gf's
        # numerator and taps, times (1 - x) exactly when s > 2t, without
        # building the s-tuple.
        for s, t in [*coprime_pairs(40), *LARGE_S]:
            for stop in (s + t + 1, 10**12):
                got = arndt.sequence._form(ScaledConstraint(s, t), stop)
                assert got == _gf_form((s, t), s > 2 * t), (s, t, stop)

    def test_a_short_request_lists_the_taps_it_reads(self):
        # Cut at stop <= s+t+1, the form keeps every tap <= stop of the whole
        # form and lists at most two past it, so a short request of a huge s
        # costs O(stop), not O(min(s, t)).
        for s, t in coprime_pairs(16):
            cons, m = ScaledConstraint(s, t), s + t
            whole_num, whole = arndt.sequence._form(cons, m + 1)
            for stop in range(m + 2):
                num, taps = arndt.sequence._form(cons, stop)
                assert num == whole_num
                assert [tap for tap in taps if tap[0] <= stop] == [
                    tap for tap in whole if tap[0] <= stop
                ], (s, t, stop)
                assert len([tap for tap in taps if tap[0] > stop]) <= 2, (s, t, stop)

    def test_seven_one_doubles_and_subtracts(self, forms):
        # (1 - x)(1 - x - ... - x^8) = 1 - 2x + x^9: a(n) = 2a(n-1) - a(n-9).
        assert _runs_telescoped(forms, (7, 1))
        assert forms[-1] == [(1, 2), (9, -1)]

    def test_grid_agrees_with_the_reference(self):
        # Every coprime pair with s + t <= 16, across the first numerator-free
        # terms and the window's trimming, on ints and on exact Decimals.
        for s, t in coprime_pairs(16):
            cons, n_max = ScaledConstraint(s, t), 3 * (s + t) + 50
            want = congruence_counts(s, t, n_max)
            assert expand(build_gf(cons), n_max) == tuple(want), (s, t)
            lines = "".join(f"{n} {v}\n" for n, v in enumerate(want))
            assert export_bfile(cons, 0, n_max) == lines, (s, t)

    @pytest.mark.parametrize("pair,n_max", sorted(LARGE_S.items()))
    def test_large_s_agrees_with_the_reference(self, pair, n_max):
        cons, want = ScaledConstraint(*pair), congruence_counts(*pair, n_max)
        assert expand(build_gf(cons), n_max) == tuple(want)
        assert export_bfile(cons, 0, n_max) == "".join(f"{n} {v}\n" for n, v in enumerate(want))

    def test_huge_s_far_terms_keep_the_recurrence(self):
        # Past index s + t + 2 every telescoped tap of (10**4, 3) fires; the
        # terms there must still satisfy the dense recurrence, with the
        # residues recomputed by the reference.
        s, t = 10**4, 3
        m, residues = s + t, residue_list(s, t)
        a = sequence_range(ScaledConstraint(s, t), 40, m + 45)  # a[i] = a(40 + i)
        for i in range(m, m + 6):
            assert a[i] == sum(a[i - r] for r in residues) + a[i - m]

    def test_seeded_starts_resume_on_either_form(self):
        # The seed holds up to the s+t+1 terms the telescoped taps reach, so a
        # seeded stream runs one form from its first term, at every start.
        # From s+t to s+t+2 the stream goes on past the window's first trim;
        # elsewhere 20 terms keep (1000, 7) to about a second.
        for pair in [(7, 1), (3, 1), (5, 2), (1000, 7)]:
            cons, m = ScaledConstraint(*pair), sum(pair)
            full = list(arndt.sequence._run(*arndt.sequence._form(cons, 3 * m + 19), 3 * m + 19))
            with localcontext(arndt.sequence._exact_context()):
                for kind in (int, Decimal):
                    terms = [kind(v) for v in full]
                    for start in range(2 * m + 1):
                        seed = terms[max(start - m - 1, 0) : start]
                        stop = start + (m + 19 if m <= start <= m + 2 else 19)
                        form = arndt.sequence._form(cons, stop)
                        got = list(arndt.sequence._run(*form, stop, kind, start, seed))
                        want = terms[start : stop + 1]
                        assert got == want, (pair, start, kind)
                        assert {type(v) for v in got} == {kind}

    @pytest.mark.parametrize("pair", [(7, 1), (1000, 7)])
    def test_every_miss_runs_the_telescoped_form_alone(self, forms, pair):
        # A miss that resumes past s + t seeds the s+t+1 terms that the
        # telescoped taps reach, so it runs those taps alone, cut at n, as a
        # miss from a(0) does: no dense first term before them.
        cons, m = ScaledConstraint(*pair), sum(pair)
        telescoped = _gf_form(pair, True)[1]
        cache: dict[int, int] = {}
        for n in sorted(set(range(0, m, 7)) | set(range(m - 3, m + 30))):
            forms.clear()
            count_recurrence(cons, n, cache)
            assert forms == [[(j, d) for j, d in telescoped if j <= n]], (pair, n)

    @pytest.mark.parametrize("pair,n_max", [((7, 1), 300), ((1000, 7), 2500)])
    def test_ascending_cache_matches_the_uncached_stream(self, pair, n_max):
        # Misses resume from the cache every few terms, around index s + t
        # at every step.
        cons, m = ScaledConstraint(*pair), sum(pair)
        want = expand(build_gf(cons), n_max)
        ns = sorted(set(range(0, n_max + 1, 7)) | set(range(m - 3, m + 4)) | {n_max})
        cache: dict[int, int] = {}
        assert [count_recurrence(cons, n, cache) for n in ns] == [want[n] for n in ns]
        assert cache == dict(enumerate(want))

    def test_huge_s_term_costs_a_few_operations(self):
        # (10**4, 3) telescopes from 10**4 + 1 taps to 6; a(20000) took about
        # 123 s of CPU on the dense form and takes about 0.13 s (Intel Xeon
        # vCPU, Python 3.11).  The b-file's Decimal stream must agree.
        cons = ScaledConstraint(10**4, 3)
        started = time.process_time()
        value = count_recurrence(cons, 20000)
        assert time.process_time() - started < 2.0
        assert Decimal(export_bfile(cons, 20000, 20000).split()[1]) == value

    def test_huge_s_far_term_holds_nothing_of_size_s(self):
        # For n <= ceil(s/t) every part is admissible, so a(n) = 2^(n-1).
        # At (10**9, 7) the 14 telescoped taps all lie past n = 5000 but the
        # first, so the request runs that one tap and holds nothing of size s.
        cons = ScaledConstraint(10**9, 7)
        for call, want in [
            (lambda: count_recurrence(cons, 5000), 2**4999),
            (lambda: export_bfile(cons, 4999, 5000), f"4999 {2**4998}\n5000 {2**4999}\n"),
        ]:
            peak, spent = _peak_and_cpu(call, want)
            assert peak < 4 * 2**20 and spent < 2.0, (peak, spent)
        # Each one-step miss builds its 4 taps afresh: O(t), not O(s).
        cons, cache = ScaledConstraint(10**5, 1), {}
        started = time.process_time()
        got = [count_recurrence(cons, n, cache) for n in range(1, 21)]
        assert time.process_time() - started < 0.1
        assert got == [2 ** (n - 1) for n in range(1, 21)]

    @pytest.mark.parametrize(
        "call,want",
        [
            # The tap at 1 alone: a window of a few terms, not every term below
            # the far taps (108 MB peak when the whole form ran).
            (lambda: count_recurrence(ScaledConstraint(10**9, 7), 40000), 2**39999),
            # Odd parts below 2 * 10**5 + 1: fib(30) from 15 of the 10**5 + 1 dense taps.
            (lambda: count_recurrence(ScaledConstraint(10**5, 10**5 + 1), 30), fib(30)),
            # Telescoped, 2 * 10**5 taps of which a(30) reads 19: the residues
            # up to 30 are those of (201, 100).
            (
                lambda: sequence_range(ScaledConstraint(2 * 10**5 + 1, 10**5), 0, 30),
                congruence_counts(201, 100, 30),
            ),
        ],
        ids=["all-parts", "dense", "telescoped"],
    )
    def test_a_short_request_builds_only_the_taps_it_reads(self, call, want):
        peak, spent = _peak_and_cpu(call, want)
        assert peak < 2**20 and spent < 2.0, (peak, spent)


def _peak_and_cpu(call, want):
    # The tracemalloc peak and the CPU seconds of call(), which must return want.
    tracemalloc.start()
    try:
        started = time.process_time()
        assert call() == want
        spent = time.process_time() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, spent


class _ReadKeys(dict):
    """A cache that records the distinct keys its lookups ask for."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


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

    def test_a_cache_hit_builds_no_generating_function(self, monkeypatch):
        # A hit is answered from the cache alone: it builds no form and
        # runs no term, which a CPU-time bound could only suggest.
        cons, cache = ScaledConstraint(10**6, 1), {}
        assert count_recurrence(cons, 20, cache) == 2**19

        def refused(*args):
            raise AssertionError("a cache hit built or ran the recurrence")

        monkeypatch.setattr(arndt.sequence, "_form", refused)
        monkeypatch.setattr(arndt.sequence, "_run", refused)
        assert count_recurrence(cons, 10, cache) == 2**9

    def test_cache_reuse_and_evaluation_order(self):
        cons = ScaledConstraint(3, 2)
        fresh = [count_recurrence(cons, n) for n in range(31)]
        shared: dict[int, int] = {}
        ascending = [count_recurrence(cons, n, shared) for n in range(31)]
        shared2: dict[int, int] = {}
        descending = [count_recurrence(cons, n, shared2) for n in range(30, -1, -1)]
        assert fresh == ascending == descending[::-1]

    def test_ascending_calls_resume_from_the_cache(self, monkeypatch):
        # Each miss continues from the cached window, a shorter seed
        # below index s+t+1, so 0..500 draws each term once: 501 terms, not
        # the ~125k of restarting at a(0) on every miss.
        cons = ScaledConstraint(2, 3)
        walked = expand(build_gf(cons), 500)
        run, drawn = arndt.sequence._run, 0

        def counted(*args):
            nonlocal drawn
            for c in run(*args):
                drawn += 1
                yield c

        monkeypatch.setattr(arndt.sequence, "_run", counted)
        cache: dict[int, int] = {}
        assert tuple(count_recurrence(cons, n, cache) for n in range(501)) == walked
        assert drawn == 501

    def test_resumes_only_from_a_whole_window(self):
        # At (2, 3) the cache holds twelve terms, but a(9), one of the six
        # below index 12, is missing, so the miss at 30 walks from a(0).
        # At (7, 1) it holds twenty but not a(11), the first of the nine
        # below index 20, which only a check of all s+t+1 of them sees.
        for pair, j, missing in [((2, 3), 12, 9), ((7, 1), 20, 11)]:
            cons = ScaledConstraint(*pair)
            walked = expand(build_gf(cons), 40)
            cache = {i: walked[i] for i in range(j) if i != missing}
            cache[40] = walked[40]
            assert count_recurrence(cons, 30, cache) == walked[30], pair
            assert all(cache[i] == walked[i] for i in cache), pair

    def test_a_one_step_miss_reads_two_entries_at_a_huge_s(self):
        # Below e_1 = ceil(10**9/7) + 1, a(n) of (10**9, 7) reads only the
        # tap at 1, so each ascending miss looks up n and n-1 and nothing
        # of the s+t+1 terms below it.
        cons, cache = ScaledConstraint(10**9, 7), _ReadKeys()
        for n in range(3000):
            cache.read.clear()
            assert count_recurrence(cons, n, cache) == max(2 ** (n - 1), 1)
            assert len(cache.read) <= 2, (n, len(cache.read))

    @pytest.mark.parametrize("pair", coprime_pairs(8))
    def test_a_miss_reads_only_the_reach_of_its_taps(self, pair):
        cons, cache = ScaledConstraint(*pair), _ReadKeys()
        got = []
        for n in range(61):
            _, taps = arndt.sequence._form(cons, n)
            w = max((j for j, _ in taps if j <= n), default=0)
            cache.read.clear()
            got.append(count_recurrence(cons, n, cache))
            assert len(cache.read) <= w + 1, (n, w, sorted(cache.read))
        assert got == sequence_range(cons, 0, 60) == [cache[n] for n in range(61)]

    def test_resumes_past_a_hole_beyond_the_reach(self, monkeypatch):
        # At (2, 3) a(30) reads back w = 5 terms, so a cache of a(0)..a(12)
        # without a(6) still holds a(7)..a(11), and the miss resumes at 12.
        # The hole itself lies below len(cache), so its miss walks from a(0).
        cons = ScaledConstraint(2, 3)
        walked = expand(build_gf(cons), 30)
        run, starts = arndt.sequence._run, []

        def recorded(num, taps, stop, kind=int, start=0, seed=()):
            starts.append(start)
            return run(num, taps, stop, kind, start, seed)

        monkeypatch.setattr(arndt.sequence, "_run", recorded)
        cache = {i: walked[i] for i in range(13) if i != 6}
        assert count_recurrence(cons, 30, cache) == walked[30]
        assert starts == [12] and 6 not in cache
        assert count_recurrence(cons, 6, cache) == walked[6]
        assert starts == [12, 0]
        assert cache == dict(enumerate(walked))

    def test_without_a_cache_holds_a_window_not_every_term(self):
        # a(20000) of (1, 1) has 4180 digits, and the 20001 terms below it
        # take about 19 MB; the stream's window of s+t terms takes a few kB.
        tracemalloc.start()
        try:
            assert count_recurrence(ScaledConstraint(1, 1), 20000) == fib(20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=60)
    @given(st.sampled_from(coprime_pairs(8)), st.integers(0, 60))
    def test_recurrence_matches_series(self, pair, n):
        cons = ScaledConstraint(*pair)
        assert count_recurrence(cons, n) == expand(build_gf(cons), n)[n]


class TestSequenceRange:
    def test_recurrence_row(self):
        got = sequence_range(ScaledConstraint(4, 3), 1, 10)
        assert got == [1, 2, 3, 6, 10, 19, 33, 61, 109, 198]

    def test_series_row(self):
        got = sequence_range(ScaledConstraint(2, 5), 1, 10)
        assert got == [1, 1, 1, 2, 3, 4, 5, 8, 12, 17]

    def test_methods_agree(self):
        # The recurrence against brute-force enumeration, its independent check.
        cons = ScaledConstraint(3, 4)
        assert sequence_range(cons, 0, 14) == [count_brute(n, cons) for n in range(15)]

    def test_rejects_bad_ranges_and_methods(self):
        cons = ScaledConstraint(2, 3)
        with pytest.raises(ValueError):
            sequence_range(cons, 5, 2)
        with pytest.raises(ValueError):
            sequence_range(cons, -1, 2)

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

    def test_the_last_index_is_the_offset_plus_the_width(self):
        # Under the default 4300-digit limit, a(5..6) from 10**4300 - 3 end at index
        # 10**4300 - 2, of 4300 digits; from 10**4300 - 1 they would end at 10**4300,
        # of 4301, so nothing is written.
        cons, limit, out = ScaledConstraint(1, 1), sys.get_int_max_str_digits(), io.StringIO()
        try:
            sys.set_int_max_str_digits(4300)
            text = export_bfile(cons, 5, 6, offset=10**4300 - 3)
            last = f"{10**4300 - 2} "
            with pytest.raises(ValueError, match="^b-file indices past the int-string limit"):
                write_bfile(out, cons, 5, 6, offset=10**4300 - 1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert text.splitlines()[-1].startswith(last)
        assert out.getvalue() == ""

    def test_exact_context_holds_a_million_digits(self):
        nines = Decimal("9" * 1_000_001)
        with localcontext(arndt.sequence._exact_context()):
            assert str(nines + 1) == "1" + "0" * 1_000_001
        # Without the lifted Emax the same sum overflows, which rounds.
        with localcontext(prec=MAX_PREC, traps=[Inexact]), pytest.raises(Inexact):
            nines + 1


def test_rational_gf_requires_unit_constant():
    # Each would construct a GF whose series does not start a(0) = 1.
    for num, den in [((1, -1), (2, -1)), ((0, 1), (1, -1, -1)), ((), (1, -1)), ((1,), ())]:
        with pytest.raises(ValueError):
            RationalGF(ScaledConstraint(2, 3), num, den)


NEGATIVE_INDEX = {
    "count_recurrence": lambda: count_recurrence(ScaledConstraint(2, 3), -1),
    "count_recurrence_cached": lambda: count_recurrence(ScaledConstraint(2, 3), -1, {}),
    "expand": lambda: expand(build_gf(ScaledConstraint(2, 3)), -1),
    "sequence_range": lambda: sequence_range(ScaledConstraint(2, 3), -1, 2),
    "export_bfile": lambda: export_bfile(ScaledConstraint(2, 3), -1, 2),
}


@pytest.mark.parametrize("call", NEGATIVE_INDEX.values(), ids=NEGATIVE_INDEX.keys())
def test_negative_index_has_the_one_range_message(call):
    with pytest.raises(ValueError, match="need 0 <= n_lo <= n_hi"):
        call()


# Past sys.maxsize no index reaches islice, and no route starts a walk it cannot end.
BEYOND_MAXSIZE = {
    "count_recurrence": lambda: count_recurrence(ScaledConstraint(2, 3), sys.maxsize + 1),
    "count_recurrence_cached": lambda: count_recurrence(ScaledConstraint(2, 3), 10**19, {}),
    "expand": lambda: expand(build_gf(ScaledConstraint(2, 3)), 10**19),
    "sequence_range": lambda: sequence_range(ScaledConstraint(2, 3), 0, sys.maxsize + 1),
    "export_bfile": lambda: export_bfile(ScaledConstraint(2, 3), 10**19, 10**19),
}


@pytest.mark.parametrize("call", BEYOND_MAXSIZE.values(), ids=BEYOND_MAXSIZE.keys())
def test_index_past_maxsize_has_the_one_range_message(call):
    with pytest.raises(ValueError, match=r"^need 0 <= n_lo <= n_hi <= sys\.maxsize, got \["):
        call()


def test_an_index_at_maxsize_is_in_range():
    # sys.maxsize itself passes the range check, so the constraint is checked next.
    affine = ScaledConstraint(1, 1, 1)
    with pytest.raises(ValueError, match="k != 0"):
        sequence_range(affine, sys.maxsize, sys.maxsize)
    with pytest.raises(ValueError, match=r"^need 0 <= n_lo <= n_hi <= sys\.maxsize, got \["):
        sequence_range(affine, sys.maxsize + 1, sys.maxsize + 1)


# A float index is a TypeError on every route, before a cache hit or islice can answer.
NON_INTEGRAL_INDEX = {
    "count_recurrence": lambda: count_recurrence(ScaledConstraint(2, 3), 5.0),
    "count_recurrence_cached": lambda: count_recurrence(ScaledConstraint(2, 3), 5.0, {5: 7}),
    "expand": lambda: expand(build_gf(ScaledConstraint(2, 3)), 3.0),
    "sequence_range": lambda: sequence_range(ScaledConstraint(2, 3), 0.0, 3),
    "sequence_range_hi": lambda: sequence_range(ScaledConstraint(2, 3), 0, 3.0),
    "count_brute": lambda: count_brute(3.0, ScaledConstraint(2, 3)),
    "export_bfile": lambda: export_bfile(ScaledConstraint(2, 3), 0.0, 2),
}


@pytest.mark.parametrize("call", NON_INTEGRAL_INDEX.values(), ids=NON_INTEGRAL_INDEX.keys())
def test_non_integral_index_is_a_type_error(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_bool_indices_stay_ints():
    assert sequence_range(ScaledConstraint(2, 3), False, True) == [1, 1]
    assert count_recurrence(ScaledConstraint(2, 3), True, {}) == 1


def test_the_engine_never_builds_the_public_generating_function(monkeypatch, capsys):
    # Every counting route takes its recurrence from the closed forms, so
    # none of them reaches the O(s) builders, which stay the reference.
    cons, want = ScaledConstraint(5, 2), congruence_counts(5, 2, 40)
    lines = "".join(f"{n} {v}\n" for n, v in enumerate(want))
    assert main(["table", "sequences"]) == 0
    table = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("a public O(s) builder was called")

    for module in (arndt.sequence, arndt.core):
        monkeypatch.setattr(module, "residue_system", refuse)
    monkeypatch.setattr(arndt.sequence, "build_gf", refuse)
    assert [count_recurrence(cons, n) for n in range(41)] == want
    cache: dict[int, int] = {}
    assert [count_recurrence(cons, n, cache) for n in range(41)] == want
    assert sequence_range(cons, 0, 40) == want
    assert export_bfile(cons, 0, 40) == lines
    for argv, out in [
        (["count", "-s", "5", "-t", "2", "-n", "40"], f"{want[40]}\n"),
        (["bfile", "-s", "5", "-t", "2", "--range", "0..40"], lines),
        (["table", "sequences"], table),
    ]:
        assert main(argv) == 0
        assert capsys.readouterr().out == out, argv
