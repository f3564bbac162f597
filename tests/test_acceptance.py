"""Acceptance suite.

One test per criterion; each prints a PASS line on success (run with -s to
see them alongside pytest's own report).  All equalities are exact; the
two timed criteria assert their wall-clock budgets.
"""

import re
import time

from arndt.bijection import backward, forward
from arndt.core import Composition, ScaledConstraint, residue_system
from arndt.enumeration import count_brute
from arndt.sequence import build_gf, count_recurrence, expand, export_bfile

from _reference import coprime_pairs, fib

# Golden sequence values a(s,t)(1..10) for seven small coprime pairs.
KNOWN_SEQUENCES = {
    (2, 3): (1, 1, 2, 3, 4, 7, 11, 17, 27, 42),
    (3, 2): (1, 2, 3, 6, 10, 19, 34, 62, 112, 203),
    (2, 5): (1, 1, 1, 2, 3, 4, 5, 8, 12, 17),
    (4, 3): (1, 2, 3, 6, 10, 19, 33, 61, 109, 198),
    (5, 2): (1, 2, 4, 7, 14, 27, 51, 99, 190, 365),
    (3, 5): (1, 1, 2, 3, 4, 7, 11, 16, 26, 41),
    (5, 3): (1, 2, 3, 6, 11, 20, 37, 67, 124, 227),
}

# Series coefficients through x^9 for the four pairs with s + t = 5.
KNOWN_SERIES = {
    (1, 4): (1, 1, 1, 1, 1, 1, 2, 3, 4, 5),
    (2, 3): (1, 1, 1, 2, 3, 4, 7, 11, 17, 27),
    (3, 2): (1, 1, 2, 3, 6, 10, 19, 34, 62, 112),
    (4, 1): (1, 1, 2, 4, 8, 15, 30, 59, 116, 228),
}

# The n = 6 correspondence for (s, t) = (2, 3): Arndt side and image.
BIJECTION_PAIRS_N6 = [
    ((6,), (1, 1, 1, 1, 1, 1)),
    ((5, 1), (1, 1, 1, 3)),
    ((4, 2), (6,)),
    ((4, 1, 1), (1, 1, 3, 1)),
    ((3, 1, 2), (1, 3, 1, 1)),
    ((2, 1, 3), (3, 1, 1, 1)),
    ((2, 1, 2, 1), (3, 3)),
]

# Residue classes and moduli for every coprime pair with s, t <= 5.
RESIDUE_GRID = {
    (1, 1): ((1,), 2),
    (1, 2): ((1,), 3),
    (1, 3): ((1,), 4),
    (1, 4): ((1,), 5),
    (1, 5): ((1,), 6),
    (2, 1): ((1, 2), 3),
    (2, 3): ((1, 3), 5),
    (2, 5): ((1, 4), 7),
    (3, 1): ((1, 2, 3), 4),
    (3, 2): ((1, 2, 4), 5),
    (3, 4): ((1, 3, 5), 7),
    (3, 5): ((1, 3, 6), 8),
    (4, 1): ((1, 2, 3, 4), 5),
    (4, 3): ((1, 2, 4, 6), 7),
    (4, 5): ((1, 3, 5, 7), 9),
    (5, 1): ((1, 2, 3, 4, 5), 6),
    (5, 2): ((1, 2, 3, 5, 6), 7),
    (5, 3): ((1, 2, 4, 5, 7), 8),
    (5, 4): ((1, 2, 4, 6, 8), 9),
}

GRID = coprime_pairs(8)  # the 21 coprime pairs with s + t <= 8


def test_criterion_01_sequence_table_reproduction():
    start = time.perf_counter()
    checks = 0
    for (s, t), expected in KNOWN_SEQUENCES.items():
        cache: dict[int, int] = {}
        for n, want in enumerate(expected, start=1):
            assert count_recurrence(ScaledConstraint(s, t), n, cache) == want
            checks += 1
    elapsed = time.perf_counter() - start
    assert checks == 70
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS - sequence table, 70 exact values in {elapsed:.3f}s")


def test_criterion_02_displayed_series_reproduction():
    start = time.perf_counter()
    for (s, t), expected in KNOWN_SERIES.items():
        series = expand(build_gf(ScaledConstraint(s, t)), 9)
        assert series == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: PASS - four series through x^9 in {elapsed:.3f}s")


def test_criterion_03_bijection_table_reproduction():
    cons = ScaledConstraint(2, 3)
    checks = 0
    for src, img in BIJECTION_PAIRS_N6:
        assert forward(Composition(src), cons).parts == img
        checks += 1
        assert backward(Composition(img), cons).parts == src
        checks += 1
    assert checks == 14
    print("ACCEPTANCE 3: PASS - n=6 bijection table, 14 exact checks")


def test_criterion_04_residue_grid_reproduction():
    for (s, t), (residues, modulus) in RESIDUE_GRID.items():
        rs = residue_system(ScaledConstraint(s, t))
        assert rs.residues == residues
        assert rs.modulus == modulus
    print(f"ACCEPTANCE 4: PASS - residue grid, {len(RESIDUE_GRID)} cells")


def test_criterion_05_fibonacci_specialization():
    cons = ScaledConstraint(1, 1)
    cache: dict[int, int] = {}
    for n in range(1, 31):
        assert count_recurrence(cons, n, cache) == fib(n)
    print("ACCEPTANCE 5: PASS - Fibonacci specialization for n = 1..30")


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    cells = 0
    for s, t in GRID:
        cons = ScaledConstraint(s, t)
        rs = residue_system(cons)
        series = expand(build_gf(cons), 16)
        cache: dict[int, int] = {}
        for n in range(0, 17):
            brute_arndt = count_brute(n, cons)
            brute_congruence = count_brute(n, rs)
            recurrence = count_recurrence(cons, n, cache)
            assert brute_arndt == brute_congruence == recurrence == series[n]
            cells += 1
    elapsed = time.perf_counter() - start
    assert cells == 21 * 17
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6: PASS - four-way agreement on {cells} cells in {elapsed:.1f}s")


def test_criterion_07_bijection_totality():
    from arndt.enumeration import arndt_compositions, congruence_compositions

    for s, t in GRID:
        cons = ScaledConstraint(s, t)
        rs = residue_system(cons)
        for n in range(0, 15):
            originals = list(arndt_compositions(n, cons))
            images = [forward(c, cons).parts for c in originals]
            # injective
            assert len(set(images)) == len(images)
            # image equals the congruence set
            targets = list(congruence_compositions(n, rs))
            assert sorted(images) == [d.parts for d in targets]
            # both round trips are the identity
            for c in originals:
                assert backward(forward(c, cons), cons) == c
            for d in targets:
                assert forward(backward(d, cons), cons) == d
    print("ACCEPTANCE 7: PASS - bijection exhaustive on the grid for n <= 14")


def test_criterion_08_count_bounds():
    for s, t in GRID:
        cache: dict[int, int] = {}
        cons = ScaledConstraint(s, t)
        for n in range(1, 31):
            value = count_recurrence(cons, n, cache)
            assert 1 <= value <= 2 ** (n - 1)
    print("ACCEPTANCE 8: PASS - 1 <= a(n) <= 2^(n-1) for n = 1..30 on the grid")


def test_criterion_09_recurrence_correction_regression():
    # The shifted-sum recurrence without its first term and without
    # series-seeded initial values would read a(n) = sum over r >= 1 of
    # a(n - m_r) plus a(n - s - t), with only a(0) = 1 given.  For
    # (s, t) = (1, 1) that collapses to a(n) = a(n - 2), which is wrong.
    def naive(s, t, n):
        rs = residue_system(ScaledConstraint(s, t))
        def value(i):
            if i < 0:
                return 0
            if i == 0:
                return 1
            return sum(value(i - m) for m in rs.residues[1:]) + value(i - rs.modulus)
        return value(n)

    brute = count_brute(3, ScaledConstraint(1, 1))
    assert brute == 2
    assert naive(1, 1, 3) != brute
    # The corrected recurrence agrees with brute force on the full column.
    cache: dict[int, int] = {}
    for n in range(0, 17):
        assert count_recurrence(ScaledConstraint(1, 1), n, cache) == count_brute(
            n, ScaledConstraint(1, 1)
        )
    print("ACCEPTANCE 9: PASS - uncorrected recurrence fails at (1,1), n=3; corrected agrees")


def test_criterion_10_bfile_round_trip():
    text = export_bfile(ScaledConstraint(2, 3), 1, 10, 1)
    assert re.fullmatch(r"(\d+ \d+\n)+", text)
    parsed = [tuple(map(int, line.split(" "))) for line in text.splitlines()]
    assert [idx for idx, _ in parsed] == list(range(1, 11))
    assert tuple(v for _, v in parsed) == KNOWN_SEQUENCES[(2, 3)]
    rebuilt = "".join(f"{i} {v}\n" for i, v in parsed)
    assert rebuilt == text
    print("ACCEPTANCE 10: PASS - b-file export round-trips byte-exactly")
