"""The bijection, checked exhaustively at small n and against an independent
transcription on long inputs."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arndt import bijection
from arndt.bijection import backward, forward
from arndt.core import Composition, ScaledConstraint, residue_system, satisfies
from arndt.enumeration import all_compositions, arndt_compositions, congruence_compositions

from _reference import coprime_pairs, forward_image

# The n = 6, (s, t) = (2, 3) correspondence, singletons first.
BIJECTION_PAIRS_N6 = [
    ((6,), (1, 1, 1, 1, 1, 1)),
    ((5, 1), (1, 1, 1, 3)),
    ((4, 2), (6,)),
    ((4, 1, 1), (1, 1, 3, 1)),
    ((3, 1, 2), (1, 3, 1, 1)),
    ((2, 1, 3), (3, 1, 1, 1)),
    ((2, 1, 2, 1), (3, 3)),
]


def assert_checked(c):
    # The library builds these results without the public constructor's
    # check; they must pass it all the same.
    assert Composition(c.parts) == c
    assert all(type(p) is int and p >= 1 for p in c.parts)


class TestForward:
    def test_table_row(self):
        cons = ScaledConstraint(2, 3)
        for src, img in BIJECTION_PAIRS_N6:
            assert forward(Composition(src), cons).parts == img

    def test_empty_is_fixed_point(self):
        assert forward(Composition(()), ScaledConstraint(2, 3)).parts == ()

    def test_three_two_example(self):
        cons = ScaledConstraint(3, 2)
        image = forward(Composition((6, 2)), cons)
        assert image.parts == (1, 1, 1, 1, 4)
        rs = residue_system(cons)
        assert all(rs.contains(p) for p in image.parts)

    def test_rejects_non_arndt_input(self):
        with pytest.raises(ValueError, match="violates"):
            forward(Composition((3, 2, 1)), ScaledConstraint(2, 3))

    def test_violation_in_a_later_pair_names_the_composition(self):
        # (2, 1) is admissible under (2, 3); the second pair (3, 2) is not.
        with pytest.raises(ValueError, match=r"^\(2,1,3,2\) violates 2\*a > 3\*b"):
            forward(Composition((2, 1, 3, 2)), ScaledConstraint(2, 3))

    def test_rejects_affine(self):
        with pytest.raises(ValueError, match="k = 0"):
            forward(Composition((3, 1)), ScaledConstraint(1, 1, k=1))

    def test_refuses_images_past_the_limit(self, monkeypatch):
        # Under (1, 1) a pair (a, b) becomes a - b parts and a trailing m
        # becomes m parts.
        monkeypatch.setattr(bijection, "MAX_IMAGE_PARTS", 4)
        cons = ScaledConstraint(1, 1)
        for fits in [(5, 1), (4,), (3, 1, 2)]:
            assert len(forward(Composition(fits), cons)) == 4
        for over in [(6, 1), (5,), (3, 1, 3)]:
            with pytest.raises(ValueError, match="MAX_IMAGE_PARTS = 4 "):
                forward(Composition(over), cons)

    def test_limit_before_a_violating_pair_wins(self, monkeypatch):
        # (6, 1) alone makes 5 parts under (1, 1); (1, 2) then violates.
        monkeypatch.setattr(bijection, "MAX_IMAGE_PARTS", 4)
        with pytest.raises(ValueError, match=r"^image exceeds MAX_IMAGE_PARTS = 4 parts$"):
            forward(Composition((6, 1, 1, 2)), ScaledConstraint(1, 1))

    def test_violation_before_the_limit_wins(self, monkeypatch):
        # (3, 1) makes 3 parts, within the limit; (1, 2) violates before
        # (9, 1) would pass the limit.
        monkeypatch.setattr(bijection, "MAX_IMAGE_PARTS", 4)
        message = r"^\(3,1,1,2,9,1\) violates 1\*a > 1\*b on some pair$"
        with pytest.raises(ValueError, match=message):
            forward(Composition((3, 1, 1, 2, 9, 1)), ScaledConstraint(1, 1))

    def test_pairs_exactly_at_the_limit_leave_the_violation(self, monkeypatch):
        # (5, 1) makes 4 parts under (1, 1) and (1, 2) then violates: at a limit of 4
        # the violation is named, at 3 the limit.
        monkeypatch.setattr(bijection, "MAX_IMAGE_PARTS", 4)
        with pytest.raises(ValueError, match=r"^\(5,1,1,2\) violates 1\*a > 1\*b on some pair$"):
            forward(Composition((5, 1, 1, 2)), ScaledConstraint(1, 1))
        monkeypatch.setattr(bijection, "MAX_IMAGE_PARTS", 3)
        with pytest.raises(ValueError, match=r"^image exceeds MAX_IMAGE_PARTS = 3 parts$"):
            forward(Composition((5, 1, 1, 2)), ScaledConstraint(1, 1))

    def test_a_bare_anchor_before_the_violation_counts(self, monkeypatch):
        # (2, 1) is a block of size 1, its anchor 3 alone; with (6, 1) the pairs before
        # the violating (1, 2) make 6 parts, past the limit of 4, so the limit wins.
        monkeypatch.setattr(bijection, "MAX_IMAGE_PARTS", 4)
        with pytest.raises(ValueError, match=r"^image exceeds MAX_IMAGE_PARTS = 4 parts$"):
            forward(Composition((2, 1, 6, 1, 1, 2)), ScaledConstraint(1, 1))

    @pytest.mark.parametrize("parts", [(9,), (2, 1, 9)])
    def test_trailing_part_alone_passes_the_limit(self, monkeypatch, parts):
        # The pair (2, 1) fits in 2 parts; the trailing 9 alone is over 4.
        monkeypatch.setattr(bijection, "MAX_IMAGE_PARTS", 4)
        with pytest.raises(ValueError, match=r"^image exceeds MAX_IMAGE_PARTS = 4 parts$"):
            forward(Composition(parts), ScaledConstraint(1, 1))

    @pytest.mark.parametrize("big", [99999999999999999999, 10**18])
    @pytest.mark.parametrize("shape", ["pair", "trailing"])
    def test_refuses_a_huge_image_before_allocating(self, big, shape):
        parts = (big, 1) if shape == "pair" else (big,)
        with pytest.raises(ValueError, match="MAX_IMAGE_PARTS"):
            forward(Composition(parts), ScaledConstraint(1, 1))


class TestBackward:
    def test_table_row(self):
        cons = ScaledConstraint(2, 3)
        for src, img in BIJECTION_PAIRS_N6:
            assert backward(Composition(img), cons).parts == src

    def test_trailing_ones_become_a_singleton(self):
        result = backward(Composition((1, 1, 1)), ScaledConstraint(1, 1))
        assert result.parts == (3,)
        assert satisfies(result, ScaledConstraint(1, 1))

    def test_rejects_parts_outside_class(self):
        with pytest.raises(ValueError, match="outside residue system"):
            backward(Composition((2, 3)), ScaledConstraint(2, 3))

    def test_rejects_affine(self):
        with pytest.raises(ValueError, match="k = 0"):
            backward(Composition((1, 1)), ScaledConstraint(1, 1, k=1))

    # backward scans an image as bytes when every part is below 256 and
    # through a mask built by comparing each part with 1 otherwise; both
    # scans must give the same blocks and errors.
    @pytest.mark.parametrize(
        "pair, image, preimage",
        [
            ((2, 3), (), ()),
            ((2, 3), (1, 1, 3, 1, 1), (4, 1, 2)),
            ((1, 300), (1, 1, 302, 1), (303, 1, 1)),
            ((1, 253), (255, 1), (254, 1, 1)),
            ((1, 254), (1, 256), (256, 1)),
            ((2, 3), (1, 253, 1, 256, 1, 1), (153, 101, 155, 102, 2)),
            # Consecutive anchors with empty runs and no trailing ones fill
            # exactly 2 * pairs slots; an image of ones only fills one.
            ((2, 3), (3, 3), (2, 1, 2, 1)),
            ((1, 254), (256, 256), (255, 1, 255, 1)),
            ((2, 3), (1,), (1,)),
        ],
    )
    def test_both_scans_at_their_edges(self, pair, image, preimage):
        assert forward_image(preimage, *pair) == image
        result = backward(Composition(image), ScaledConstraint(*pair))
        assert result.parts == preimage
        assert_checked(result)

    @pytest.mark.parametrize(
        "parts, first",
        [
            ((3, 2, 1, 302), 2),
            ((3, 302, 1, 2), 302),
            ((1, 255, 3, 259), 255),
            ((259, 3, 255, 1), 259),
        ],
    )
    def test_names_the_first_part_outside_the_system(self, parts, first):
        # Under (2, 3) the parts 2, 255, 259 and 302 lie outside the system;
        # each composition holds one below 256 and one at or above it.
        with pytest.raises(ValueError, match=rf"^part {first} outside residue system"):
            backward(Composition(parts), ScaledConstraint(2, 3))

    def test_a_part_past_two_to_the_64_takes_the_mask_scan(self):
        # bytearray() refuses 10**30 with the ValueError that bytes() raises,
        # on every supported interpreter, so such an image reaches the mask.
        anchor, b = 10**30 + 1, 5 * 10**29  # an odd anchor of (1, 1): b = (anchor - 1) / 2
        image, preimage = (1, 1, anchor, 1), (b + 3, b, 1)
        assert forward_image(preimage, 1, 1) == image
        result = backward(Composition(image), ScaledConstraint(1, 1))
        assert result.parts == preimage
        assert_checked(result)
        with pytest.raises(ValueError, match=rf"^part {10**30} outside residue system"):
            backward(Composition((1, 3, 10**30, 1)), ScaledConstraint(2, 3))

    @settings(deadline=None)
    @given(st.data())
    def test_round_trips_with_anchors_around_256(self, data):
        # Every anchor of (1, 254), (1, 255) and (1, 300) is 256 or more; the
        # anchors of (2, 3) with b up to 200 lie on both sides of 256, and
        # large excesses give long runs of ones.
        s, t = data.draw(st.sampled_from([(1, 254), (1, 255), (1, 300), (2, 3)]))
        pairs = st.tuples(st.integers(1, 3 if s == 1 else 200), st.integers(0, 300))
        parts = []
        for b, excess in data.draw(st.lists(pairs, max_size=12)):
            parts += (t * b // s + 1 + excess, b)
        parts += data.draw(st.lists(st.integers(1, 300), max_size=1))
        image = forward_image(tuple(parts), s, t)
        assert backward(Composition(image), ScaledConstraint(s, t)).parts == tuple(parts)

    def test_many_anchors_at_large_s_stay_fast(self):
        # 2000 anchors under (10**6, 1): each anchor's rank is closed-form
        # arithmetic on s and t, not a lookup among 10**6 residues.
        start = time.perf_counter()
        result = backward(Composition((999999,) * 2000), ScaledConstraint(10**6, 1))
        assert time.perf_counter() - start < 5
        assert result.parts == (1, 999998) * 2000

    def test_round_trip_memory_does_not_grow_with_s(self):
        # Neither direction builds the 10**6 residues of (10**6, 1).
        cons = ScaledConstraint(10**6, 1)
        tracemalloc.start()
        try:
            image = forward(Composition((5, 1)), cons)
            back = backward(image, cons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (image.parts, back.parts) == ((1, 1, 1, 1, 2), (5, 1))
        assert peak < 10**6


class TestBijectionExhaustive:
    # The full grid (s+t <= 8, n <= 14) runs in the acceptance suite.
    GRID = coprime_pairs(6)
    N_MAX = 10

    @pytest.mark.parametrize("pair", GRID)
    def test_round_trips_and_image(self, pair):
        cons = ScaledConstraint(*pair)
        rs = residue_system(cons)
        for n in range(0, self.N_MAX + 1):
            originals = list(arndt_compositions(n, cons))
            images = [forward(c, cons) for c in originals]
            for c, img in zip(originals, images):
                assert img.total == n
                assert all(rs.contains(p) for p in img.parts)
                assert backward(img, cons) == c
                assert_checked(c)
                assert_checked(img)
                assert_checked(backward(img, cons))
            targets = list(congruence_compositions(n, rs))
            assert sorted(i.parts for i in images) == [c.parts for c in targets]
            for d in targets:
                assert forward(backward(d, cons), cons) == d
                assert_checked(d)
                assert_checked(backward(d, cons))
                assert_checked(forward(backward(d, cons), cons))

    @pytest.mark.parametrize("pair", coprime_pairs(8))
    def test_pairs_become_the_parts_above_one(self, pair):
        # The bijection's statistic: an Arndt composition with j complete
        # pairs maps to a congruence composition with exactly j parts >= 2.
        cons = ScaledConstraint(*pair)
        for n in range(13):
            for c in arndt_compositions(n, cons):
                assert len(c) // 2 == sum(p >= 2 for p in forward(c, cons).parts)
            for d in congruence_compositions(n, residue_system(cons)):
                assert sum(p >= 2 for p in d.parts) == len(backward(d, cons)) // 2

    def test_all_compositions_pass_the_public_check(self):
        for n in range(0, self.N_MAX + 1):
            for c in all_compositions(n):
                assert_checked(c)


@st.composite
def long_arndt_compositions(draw):
    """(s, t) from the grid and an admissible composition of up to 300
    pairs with b up to 10**4.  Pairs come in runs of equal pairs; at the
    least admissible a a pair maps to a bare anchor, so such runs give runs
    of equal anchors with no ones between them.  Half the lengths are odd."""
    s, t = draw(st.sampled_from(coprime_pairs(8)))
    parts: list[int] = []
    runs = st.tuples(
        st.integers(1, 10**4), st.one_of(st.just(0), st.integers(0, 40)), st.integers(1, 5)
    )
    n_pairs = draw(st.integers(0, 300))
    while len(parts) < 2 * n_pairs:
        b, excess, times = draw(runs)
        parts += [t * b // s + 1 + excess, b] * times
    del parts[2 * n_pairs :]
    tail = draw(st.one_of(st.none(), st.integers(1, 10**4)))
    if tail is not None:
        parts.append(tail)
    return (s, t), tuple(parts)


class TestBijectionLongInputs:
    @settings(deadline=None)
    @given(long_arndt_compositions())
    def test_forward_matches_reference_and_round_trips(self, case):
        (s, t), parts = case
        cons = ScaledConstraint(s, t)
        image = forward(Composition(parts), cons)
        assert image.parts == forward_image(parts, s, t)
        assert backward(image, cons).parts == parts
        assert_checked(image)
        assert_checked(backward(image, cons))
