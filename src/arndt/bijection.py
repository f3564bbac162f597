"""The sum-preserving bijection between scaled Arndt compositions and
congruence-restricted compositions.

Both directions read s and t only: the residue classes
m_r = 1 + floor(r*(s+t)/s) (mod s+t) enter through closed forms, so
neither builds anything of size s.  Forward: each part pair (a, b)
becomes a run of ones followed by one anchor part

    (a, b)  ->  (1^(a + b - anchor), anchor)   with anchor = 1 + floor(b*(s+t)/s),

which is q*(s+t) + m_r for b = q*s + r (0 <= r < s); a trailing unpaired
part m becomes a run of m ones.  Since anchor = b + floor(b*t/s) + 1, the
run length a + b - anchor is nonnegative exactly when s*a > t*b.

Backward: scan left to right, grouping each maximal run of ones with the
next part >= 2 into a block (1^c, d).  The anchor's rank
b = ceil((d - 1)*s/(s+t)) inverts the forward formula: d lies in the
system exactly when 1 + floor(b*(s+t)/s) = d, and then a = c + d - b.  A
trailing run of ones with no anchor maps to the single part c.  Parts
equal to 1 are never anchors, even though 1 itself is an admissible
residue; anchors with residue 1 are exactly the parts 1 + q*(s+t), q >= 1.

Both directions check their input, build valid output unchecked, and need k = 0.
"""

from __future__ import annotations

from itertools import accumulate, islice

from .core import Composition, ScaledConstraint, _ints, _rank, _require_pure, _Value

__all__ = ["ArndtPair", "OnesBlock", "map_pair", "unmap_block", "forward", "backward"]

MAX_IMAGE_PARTS = 10**7  # forward's limit: a pair (a, b) becomes up to a + b parts


class ArndtPair(_Value):
    """One (odd, even) part pair; b = 0 encodes an absent final partner."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _ints((a, b), "a and b must be ints, got {!r}")
        if a < 1:
            raise ValueError(f"first part of a pair must be positive, got {a}")
        if b < 0:
            raise ValueError(f"second part of a pair must be >= 0, got {b}")
        super().__init__(a, b)


class OnesBlock(_Value):
    """A run of ``ones`` parts 1, optionally terminated by an anchor >= 2.

    ``anchor=None`` marks the trailing block of a composition, which then
    must contain at least one 1.
    """

    __slots__ = __match_args__ = ("ones", "anchor")

    def __init__(self, ones: int, anchor: int | None = None) -> None:
        _ints((ones,) if anchor is None else (ones, anchor), "ones and anchor must be ints: {!r}")
        if ones < 0:
            raise ValueError(f"run length must be >= 0, got {ones}")
        if anchor is None:
            if ones < 1:
                raise ValueError("a trailing block without anchor must be nonempty")
        elif anchor < 2:
            raise ValueError(f"anchors are parts >= 2, got {anchor}")
        super().__init__(ones, anchor)


def _pair_blocks(parts, s: int, modulus: int) -> tuple[list[int], list[int]]:
    # Block sizes 1 + ones (below 1 exactly when s*a <= t*b) and anchors of parts' pairs (a, b).
    anchors = [1 + b * modulus // s for b in parts[1::2]]
    return [a + b + 1 - anchor for a, b, anchor in zip(parts[0::2], parts[1::2], anchors)], anchors


def map_pair(p: ArndtPair, cons: ScaledConstraint) -> OnesBlock:
    """Image of one complete pair (b >= 1) under the forward map.

    >>> map_pair(ArndtPair(5, 1), ScaledConstraint(2, 3))
    OnesBlock(ones=3, anchor=3)
    """
    _require_pure(cons)
    if p.b < 1:
        raise ValueError("map_pair needs a complete pair (b >= 1)")
    (size,), (anchor,) = _pair_blocks((p.a, p.b), cons.s, cons.s + cons.t)
    if size < 1:
        raise ValueError(f"pair ({p.a}, {p.b}) violates {cons.s}*a > {cons.t}*b")
    return OnesBlock(size - 1, anchor)


def unmap_block(blk: OnesBlock, cons: ScaledConstraint) -> ArndtPair | int:
    """Preimage of one block: an (a, b) pair, or a bare part for the
    anchorless trailing block.

    >>> unmap_block(OnesBlock(2, 3), ScaledConstraint(2, 3))
    ArndtPair(a=4, b=1)
    >>> unmap_block(OnesBlock(6, None), ScaledConstraint(2, 3))
    6
    """
    _require_pure(cons)
    if blk.anchor is None:
        return blk.ones
    b = _rank(blk.anchor, cons.s, cons.s + cons.t)
    return ArndtPair(blk.ones + blk.anchor - b, b)


def forward(c: Composition, cons: ScaledConstraint) -> Composition:
    """Map a scaled Arndt composition to its congruence-restricted partner.

    Sum-preserving; rejects compositions violating the constraint, and
    those whose image would have more than ``MAX_IMAGE_PARTS`` parts.

    >>> str(forward(Composition((4, 1, 1)), ScaledConstraint(2, 3)))
    '1,1,3,1'
    """
    _require_pure(cons)
    parts, limit = c.parts, MAX_IMAGE_PARTS
    sizes, anchors = _pair_blocks(parts, cons.s, cons.s + cons.t)
    size = sum(sizes) + (parts[-1] if len(parts) % 2 else 0)
    if min(sizes, default=1) < 1:  # the limit wins if the pairs before the violation pass it
        size = sum(sizes[: next(i for i, n in enumerate(sizes) if n < 1)])
        if size <= limit:
            raise ValueError(
                f"({','.join(map(str, parts))}) violates "
                f"{cons.s}*a > {cons.t}*b on some pair"
            )
    if size > limit:
        raise ValueError(f"image exceeds MAX_IMAGE_PARTS = {limit} parts")
    out = [1] * size
    for i, anchor in zip(islice(accumulate(sizes, initial=-1), 1, None), anchors):
        out[i] = anchor
    return Composition._from_checked(tuple(out))


def backward(c: Composition, cons: ScaledConstraint) -> Composition:
    """Inverse of :func:`forward`; input parts must all lie in the
    constraint's residue system.

    >>> str(backward(Composition((3, 3)), ScaledConstraint(2, 3)))
    '2,1,2,1'
    """
    _require_pure(cons)
    s, modulus = cons.s, cons.s + cons.t
    out, ones = [], 0
    for p in c.parts:
        if p == 1:
            ones += 1
        else:
            b = _rank(p, s, modulus)  # raises for anchors outside the system
            out += (ones + p - b, b)
            ones = 0
    if ones:
        out.append(ones)
    return Composition._from_checked(tuple(out))
