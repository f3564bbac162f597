"""Domain types, the pair predicate, and residue systems."""

import io
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arndt
from arndt.bijection import backward, forward
from arndt.core import (
    Composition,
    ResidueSystem,
    ScaledConstraint,
    normalize,
    residue_system,
    satisfies,
)
from arndt.enumeration import (
    all_compositions,
    arndt_compositions,
    congruence_compositions,
    count_brute,
)
from arndt.sequence import (
    RationalGF,
    build_gf,
    count_recurrence,
    expand,
    export_bfile,
    sequence_range,
    write_bfile,
)

from _reference import coprime_pairs, residue_list

# Residue classes and moduli for every coprime pair in the 5x5 corner.
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


class TestComposition:
    def test_parts_and_total(self):
        c = Composition((4, 1, 1))
        assert c.parts == (4, 1, 1)
        assert c.total == 6
        assert len(c) == 3
        assert c[0] == 4
        assert list(c) == [4, 1, 1] and tuple(c) == (4, 1, 1)
        first, *rest = c
        assert (first, rest) == (4, [1, 1])

    def test_empty_composition_of_zero(self):
        c = Composition(())
        assert c.total == 0
        assert str(c) == ""

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Composition((3, 0))
        with pytest.raises(ValueError):
            Composition((-1,))
        with pytest.raises(ValueError):
            Composition((True,))
        with pytest.raises(ValueError):
            Composition((2, False))
        # Values equal (and hash-equal) to 1 but not of type int, deep inside
        # a long tuple: the check is by exact type, part by part.
        for odd in (1.0, Fraction(1), Decimal(1), True):
            parts = [1] * 10**4
            parts[len(parts) // 2] = odd
            with pytest.raises(ValueError, match="positive integers"):
                Composition(tuple(parts))

    def test_string_round_trip(self):
        assert str(Composition.from_string("4,1,1")) == "4,1,1"
        assert Composition.from_string("") == Composition(())

    @pytest.mark.parametrize("bad", ["4, 1", "4,,1", ",1", "1,", "a", "4 1", "0,1"])
    def test_from_string_is_strict(self, bad):
        with pytest.raises(ValueError):
            Composition.from_string(bad)

    @settings(max_examples=300)
    @given(st.text(st.sampled_from("0123456789,,, +-_.aZ\u0663\uff11\u00b2\n"), max_size=12))
    def test_from_string_accepts_the_digit_list_language(self, text):
        # Exactly "" and the strings \d+(,\d+)* matches ("\u0663" and "\uff11"
        # are decimal digits, "\u00b2" is not); a zero field parses, and the
        # constructor then refuses it.
        if text and not re.fullmatch(r"\d+(,\d+)*", text):
            with pytest.raises(ValueError, match="malformed composition"):
                Composition.from_string(text)
            return
        parts = tuple(map(int, text.split(","))) if text else ()
        if 0 in parts:
            with pytest.raises(ValueError, match="positive integers"):
                Composition.from_string(text)
        else:
            assert Composition.from_string(text).parts == parts

    def test_coerces_lists_to_tuples(self):
        assert Composition([2, 1]).parts == (2, 1)


class TestNormalize:
    def test_already_coprime(self):
        assert normalize(2, 3, 0) == ScaledConstraint(2, 3, 0)

    def test_gcd_reduction(self):
        assert normalize(4, 6, 0) == ScaledConstraint(2, 3, 0)
        assert normalize(6, 4, 0) == ScaledConstraint(3, 2, 0)

    def test_offset_is_preserved(self):
        assert normalize(2, 3, 5) == ScaledConstraint(2, 3, 5)

    def test_rejects_affine_with_common_factor(self):
        with pytest.raises(ValueError, match="non-normalizable affine"):
            normalize(4, 6, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize(0, 3)
        with pytest.raises(ValueError):
            normalize(3, -1)

    def test_constructor_insists_on_coprime(self):
        with pytest.raises(ValueError):
            ScaledConstraint(4, 6)

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("bad", [True, 0.0, 1.0, 1.5, Fraction(1)])
    def test_constructor_insists_on_exact_ints(self, field, bad):
        # Each of s, t and k in turn.
        fields = [1, 1, 0]
        fields[field] = bad
        with pytest.raises(ValueError, match="must be ints"):
            ScaledConstraint(*fields)

    @pytest.mark.parametrize(
        "args",
        [(True, 1), (1, True), (True, True, True), (2.0, 3), (4, 6.0), (0.0, 3),
         (Fraction(4), 6), (4, Fraction(6)), (4, 6, True), (2, 3, 1.5), (4, 6, Fraction(0))],
    )
    def test_normalize_insists_on_exact_ints_first(self, args):
        # Before positivity, gcd or the affine check, naming the values given.
        s, t, k = (*args, 0)[:3]
        message = f"s, t and k must be ints, got ({s!r}, {t!r}, {k!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            normalize(*args)

    def test_normalize_refuses_numpy_ints_as_given(self):
        np = pytest.importorskip("numpy")
        s, t = np.int64(4), np.int64(6)
        message = f"s, t and k must be ints, got ({s!r}, {t!r}, 0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            normalize(s, t)
        with pytest.raises(ValueError, match="must be ints"):
            normalize(4, 6, np.int64(0))

    def test_constructor_refuses_numpy_ints(self):
        # Their arithmetic would carry into forward's parts as numpy ints.
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="must be ints"):
            ScaledConstraint(np.int64(2), np.int64(3))
        with pytest.raises(ValueError, match="must be ints"):
            ScaledConstraint(2, 3, np.int64(0))


class TestSatisfies:
    def test_unscaled_allows_strictly_decreasing_pair(self):
        assert satisfies(Composition((3, 2, 1)), ScaledConstraint(1, 1))

    def test_scaling_can_exclude(self):
        # 2*3 is not > 3*2.
        assert not satisfies(Composition((3, 2, 1)), ScaledConstraint(2, 3))

    def test_scaling_can_admit_increasing_pairs(self):
        assert satisfies(Composition((3, 4)), ScaledConstraint(3, 2))
        assert not satisfies(Composition((3, 4)), ScaledConstraint(1, 1))

    def test_single_part_is_vacuous(self):
        assert satisfies(Composition((6,)), ScaledConstraint(2, 3))

    def test_empty_composition_is_vacuous(self):
        assert satisfies(Composition(()), ScaledConstraint(2, 3))
        assert satisfies(Composition(()), ScaledConstraint(1, 1, k=7))

    def test_affine_offset_tightens(self):
        cons = ScaledConstraint(1, 1, k=1)
        assert satisfies(Composition((3, 1)), cons)
        assert not satisfies(Composition((2, 1)), cons)  # 2 > 1+1 fails

    @given(
        st.lists(st.integers(1, 9), max_size=9),
        st.sampled_from(coprime_pairs(8)),
        st.integers(1, 3),
    )
    def test_predicate_ignores_common_scale_factors(self, parts, pair, m):
        # The predicate at (s, t) must match the raw inequality at (m*s, m*t).
        s, t = pair
        c = Composition(tuple(parts))
        base = satisfies(c, ScaledConstraint(s, t))
        raw = all(
            m * s * parts[i] > m * t * parts[i + 1]
            for i in range(0, len(parts) - 1, 2)
        )
        assert base == raw

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_order_sensitivity_at_unit_scale(self, a, b):
        if a == b:
            return
        hi, lo = max(a, b), min(a, b)
        cons = ScaledConstraint(1, 1)
        assert satisfies(Composition((hi, lo)), cons)
        assert not satisfies(Composition((lo, hi)), cons)


class TestResidueSystem:
    def test_small_pair(self):
        rs = residue_system(ScaledConstraint(2, 3))
        assert rs.modulus == 5
        assert rs.residues == (1, 3)

    @pytest.mark.parametrize("pair,expected", sorted(RESIDUE_GRID.items()))
    def test_residue_grid(self, pair, expected):
        rs = residue_system(ScaledConstraint(*pair))
        assert (rs.residues, rs.modulus) == expected

    def test_rejects_affine(self):
        with pytest.raises(ValueError, match="k = 0"):
            residue_system(ScaledConstraint(2, 3, k=1))

    def test_structural_invariants_across_grid(self):
        # Strictly increasing from 1, below the modulus, pairwise distinct.
        for s, t in coprime_pairs(12):
            rs = residue_system(ScaledConstraint(s, t))
            assert len(rs.residues) == s
            assert rs.residues[0] == 1
            assert all(b > a for a, b in zip(rs.residues, rs.residues[1:]))
            assert rs.residues[-1] <= rs.modulus - 1
            assert len(set(r % rs.modulus for r in rs.residues)) == s

    def test_agrees_with_reference_formula(self):
        # The reference keeps the paper's form r + ceil((r*t + 1)/s).  The
        # swapped pair's residues past its first, 1, are the rest of 1..s+t-1:
        # the two systems split it, as the telescoped recurrence reads them.
        for s, t in coprime_pairs(60) + [(1000, 7), (7, 1000), (997, 1000), (1999, 2)]:
            rs = residue_system(ScaledConstraint(s, t)).residues
            swapped = residue_system(ScaledConstraint(t, s)).residues
            assert list(rs) == residue_list(s, t) and list(swapped) == residue_list(t, s)
            assert set(rs).isdisjoint(swapped[1:])
            assert sorted(rs + swapped[1:]) == list(range(1, s + t))

    def test_validation_rejects_malformed_systems(self):
        with pytest.raises(ValueError):
            ResidueSystem(5, (2, 3))  # must start at 1
        with pytest.raises(ValueError):
            ResidueSystem(5, (1, 5))  # residue reaches the modulus
        with pytest.raises(ValueError):
            ResidueSystem(5, (1, 3, 3))  # not strictly increasing
        # Increasing from 1 below the modulus, but not 1 + floor(r*7/3) = (1, 3, 5),
        # so the closed-form lookups could not serve them.
        with pytest.raises(ValueError):
            ResidueSystem(7, (1, 5, 6))
        with pytest.raises(ValueError):
            ResidueSystem(7, (1, 2, 5))


class TestMembershipAndDecomposition:
    def test_contains(self):
        rs = residue_system(ScaledConstraint(2, 3))
        assert rs.contains(6)
        assert rs.contains(3)
        assert not rs.contains(2)

    def test_decompose_examples(self):
        rs = residue_system(ScaledConstraint(2, 3))
        assert rs.decompose(6) == (1, 0)
        assert rs.decompose(3) == (0, 1)

    def test_decompose_rejects_outside_parts(self):
        rs = residue_system(ScaledConstraint(2, 3))
        with pytest.raises(ValueError, match="outside residue system"):
            rs.decompose(2)

    def test_outside_part_message_stays_short_at_large_s(self):
        # Under (10**6, 1) the system holds 10**6 residues; the message names
        # the part, its remainder and the modulus, not the residue list.
        rs = residue_system(ScaledConstraint(10**6, 1))
        with pytest.raises(ValueError, match="outside residue system") as info:
            rs.decompose(10**6 + 1)
        assert len(str(info.value)) < 200
        assert "1000001" in str(info.value)

    def test_rejects_nonpositive_parts(self):
        rs = residue_system(ScaledConstraint(2, 3))
        with pytest.raises(ValueError):
            rs.contains(0)
        with pytest.raises(ValueError):
            rs.decompose(0)

    def test_closed_form_agrees_with_reference_on_every_part(self):
        # Members and non-members alike, against the recomputed residue list.
        for s, t in coprime_pairs(40):
            rs = residue_system(ScaledConstraint(s, t))
            m = s + t
            residues = residue_list(s, t)
            for p in range(1, 3 * m + 1):
                member = p % m in residues
                assert rs.contains(p) == member
                if member:
                    assert rs.decompose(p) == (p // m, residues.index(p % m))
                else:
                    with pytest.raises(ValueError, match="outside residue system"):
                        rs.decompose(p)

    @given(st.sampled_from(coprime_pairs(8)), st.integers(0, 40), st.data())
    def test_decompose_inverts_reconstruction(self, pair, q, data):
        rs = residue_system(ScaledConstraint(*pair))
        r = data.draw(st.integers(0, len(rs.residues) - 1))
        part = q * rs.modulus + rs.residues[r]
        assert rs.contains(part)
        assert rs.decompose(part) == (q, r)


AFFINE = ScaledConstraint(2, 3, k=1)

# Every entry point defined only for k = 0, called with the affine constraint.
K_ZERO_ONLY = {
    "residue_system": lambda: residue_system(AFFINE),
    "build_gf": lambda: build_gf(AFFINE),
    "count_recurrence_cache_hit": lambda: count_recurrence(AFFINE, 3, {3: 2}),
    "sequence_range": lambda: sequence_range(AFFINE, 1, 5),
    "export_bfile": lambda: export_bfile(AFFINE, 1, 5),
    "forward": lambda: forward(Composition((5, 1)), AFFINE),
    "backward": lambda: backward(Composition((1, 1)), AFFINE),
}


@pytest.mark.parametrize("call", K_ZERO_ONLY.values(), ids=K_ZERO_ONLY.keys())
def test_one_offset_guard(call):
    # One guard, which residue_system calls, refuses k != 0, so every
    # k = 0-only entry point fails with residue_system's message, word for word.
    with pytest.raises(ValueError) as expected:
        residue_system(AFFINE)
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == str(expected.value)


OUTSIDE = "part {} outside residue system: its remainder {} mod {} is not an admitted residue"
RANGE = "need 0 <= n_lo <= n_hi <= sys.maxsize, got [{}, {}]"
NEGATIVE = "cannot compose a negative total: n"
FAR = 10**5000

AFFINE_TAIL = "dividing out the gcd changes the affine condition"
OFFSET_ONLY = ("defined only for offset k = 0: no residue system, bijection or generating "
               "function is known for k != 0 (got k = {})")
INDICES = "b-file indices past the int-string limit of 4300 digits"

# Under CPython's default int-string limit of 4300 digits, each message that names an int
# past it names it, or the tuple that holds it, by a fixed name: its field or parameter
# name, or "p" for a part, "r" for a remainder and "s+t" for a modulus.  The ints past it
# here (10**4300 as s + t or alone, 2*10**4300, the part 10**4300 + 2, the remainder
# 10**4300 + 6) have 4301 digits each, and FAR has 5001.  A row's key starts with the name of the call it checks,
# up to the first "-".  No row passes a huge s to residue_system or build_gf, which would
# build the s-tuple of residues.
PAST_THE_LIMIT = {
    "decompose-modulus": (lambda: residue_system(ScaledConstraint(1, 10**4300 - 1)).decompose(2),
                          OUTSIDE.format(2, 2, "s+t")),
    "decompose-part": (lambda: residue_system(ScaledConstraint(2, 3)).decompose(10**4300 + 2),
                       OUTSIDE.format("p", 2, 5)),
    "decompose-remainder": (
        lambda: residue_system(ScaledConstraint(1, 10**4301 - 2)).decompose(
            10**4301 + 10**4300 + 5),
        OUTSIDE.format("p", "r", "s+t"),
    ),
    "backward-byte-scan": (lambda: backward(Composition((1, 2)), ScaledConstraint(1, 10**4300 - 1)),
                           OUTSIDE.format(2, 2, "s+t")),
    "backward-mask-scan": (lambda: backward(Composition((10**4300 + 2,)), ScaledConstraint(2, 3)),
                           OUTSIDE.format("p", 2, 5)),
    "sequence_range-hi": (lambda: sequence_range(ScaledConstraint(2, 3), 0, FAR),
                          RANGE.format(0, "n_hi")),
    "sequence_range-lo": (lambda: sequence_range(ScaledConstraint(2, 3), -FAR, 3),
                          RANGE.format("n_lo", 3)),
    "export_bfile": (lambda: export_bfile(ScaledConstraint(2, 3), 0, FAR), RANGE.format(0, "n_hi")),
    "count_recurrence": (lambda: count_recurrence(ScaledConstraint(2, 3), FAR),
                         RANGE.format(0, "n_hi")),
    "expand": (lambda: expand(build_gf(ScaledConstraint(2, 3)), FAR), RANGE.format(0, "n_hi")),
    "count_brute": (lambda: count_brute(-FAR, ScaledConstraint(2, 3)), NEGATIVE),
    "arndt_compositions": (lambda: arndt_compositions(-FAR, ScaledConstraint(2, 3)), NEGATIVE),
    "congruence_compositions": (lambda: congruence_compositions(-FAR, ScaledConstraint(2, 3)),
                                NEGATIVE),
    "all_compositions": (lambda: all_compositions(-FAR), NEGATIVE),
    "ScaledConstraint-not-coprime": (lambda: ScaledConstraint(2 * 10**4300, 4),
                                     "(s, t) is not coprime; reduce it with normalize()"),
    "ScaledConstraint-negative": (lambda: ScaledConstraint(-10**4300, 4),
                                  "s and t must be positive, got (s, t)"),
    "normalize-affine": (lambda: normalize(2 * 10**4300, 4, 1),
                         f"non-normalizable affine constraint (s, 4, k=1): {AFFINE_TAIL}"),
    "ResidueSystem-modulus": (lambda: ResidueSystem(10**4300, (2,)),
                              "residues[r] must be 1 + r*modulus//s, 0 <= r < s < modulus"),
    "contains-part": (lambda: residue_system(ScaledConstraint(2, 3)).contains(-10**4300),
                      "parts are positive integers, got p"),
    "forward-violates": (lambda: forward(Composition((1, 10**4300)), ScaledConstraint(1, 1)),
                         "(c) violates 1*a > 1*b on some pair"),
    "residue_system-offset": (lambda: residue_system(ScaledConstraint(1, 1, 10**4300)),
                              OFFSET_ONLY.format("k")),
    "Composition-part": (lambda: Composition((1, -10**4300)),
                         "parts must be positive integers: parts"),
    # The exact-int checks, with an int past the limit beside a float or a Fraction.
    "ScaledConstraint-float": (lambda: ScaledConstraint(10**4300, 1.5),
                               "s, t and k must be ints, got (s, t, k)"),
    "normalize-float": (lambda: normalize(10**4300, 1.5), "s, t and k must be ints, got (s, t, k)"),
    "Composition-float": (lambda: Composition((10**4300, 1.5)),
                          "parts must be positive integers: parts"),
    "ResidueSystem-float": (lambda: ResidueSystem(10**4300, (1.5,)),
                            "modulus and residues must be ints, got (modulus, *residues)"),
    "RationalGF-float": (lambda: RationalGF(ScaledConstraint(2, 3), (1,), (1, 10**4300, 1.5)),
                         "coefficients must be ints, got (*numerator, *denominator)"),
    "contains-fraction": (lambda: residue_system(ScaledConstraint(2, 3)).contains(
                              Fraction(10**4300)),
                          "parts are positive integers, got p"),
    "build_gf-offset": (lambda: build_gf(ScaledConstraint(1, 1, 10**4300)),
                        OFFSET_ONLY.format("k")),
    "write_bfile-indices": (
        lambda: write_bfile(io.StringIO(), ScaledConstraint(1, 1), 0, 100, 10**4300 - 70), INDICES),
}


@pytest.mark.parametrize("call,message", PAST_THE_LIMIT.values(), ids=PAST_THE_LIMIT.keys())
def test_no_message_asks_to_lift_the_int_string_limit(call, message):
    # str() of such an int raises its own ValueError, whose advice to call
    # sys.set_int_max_str_digits would replace the message.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as info:
            call()
    finally:
        sys.set_int_max_str_digits(limit)
    assert (type(info.value), str(info.value)) == (ValueError, message)
    assert "set_int_max_str_digits" not in str(info.value)


# The public names with no row in PAST_THE_LIMIT, each with the reason.
NO_ROW = {
    "BRUTE_FORCE_CEILING": "an int, not a callable",
    "BruteForceCeilingError": "raised, not called; test_enumeration pins its text past the limit",
    "satisfies": "builds no message",
}


def test_every_public_callable_has_a_row_past_the_int_string_limit():
    # A new public name needs a row, or an entry above that says why it has none.
    checked = {key.split("-")[0] for key in PAST_THE_LIMIT}
    assert set(arndt.__all__) - checked == set(NO_ROW)
