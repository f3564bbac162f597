"""The sum-preserving bijection between scaled Arndt compositions and
congruence-restricted compositions.

Both directions read the constraint's residue system m_0 < ... < m_{s-1}
(mod s+t) and nothing else.  Forward: each part pair (a, b) with
b = q*s + r (Euclidean division, 0 <= r < s) becomes a run of ones
followed by one anchor part

    (a, b)  ->  (1^(a + b - anchor), anchor)   with anchor = q*(s+t) + m_r,

and a trailing unpaired part m becomes a run of m ones.  Since
m_r = r + floor(r*t/s) + 1, the run length a + b - anchor is nonnegative
exactly when s*a > t*b, and the anchor lies in the residue system.

Backward: scan the congruence-restricted composition left to right,
grouping each maximal run of ones with the next part >= 2 into a block
(1^c, d); the anchor splits as d = q*(s+t) + m_r, which gives b = q*s + r
and a = c + d - b.  A trailing run of ones with no anchor maps to the
single part c.  Parts equal to 1 are never anchors, even though 1 itself
is an admissible residue; anchors with residue 1 are exactly the parts
1 + q*(s+t) with q >= 1.

Both directions validate their input and are defined only for k = 0,
which ``residue_system`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Composition, ScaledConstraint, residue_system

__all__ = ["ArndtPair", "OnesBlock", "map_pair", "unmap_block", "forward", "backward"]

MAX_IMAGE_PARTS = 10**7  # forward's limit: a pair (a, b) becomes up to a + b parts


@dataclass(frozen=True)
class ArndtPair:
    """One (odd, even) part pair; b = 0 encodes an absent final partner."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError(f"first part of a pair must be positive, got {self.a}")
        if self.b < 0:
            raise ValueError(f"second part of a pair must be >= 0, got {self.b}")


@dataclass(frozen=True)
class OnesBlock:
    """A run of ``ones`` parts 1, optionally terminated by an anchor >= 2.

    ``anchor=None`` marks the trailing block of a composition, which then
    must contain at least one 1.
    """

    ones: int
    anchor: int | None = None

    def __post_init__(self) -> None:
        if self.ones < 0:
            raise ValueError(f"run length must be >= 0, got {self.ones}")
        if self.anchor is None:
            if self.ones < 1:
                raise ValueError("a trailing block without anchor must be nonempty")
        elif self.anchor < 2:
            raise ValueError(f"anchors are parts >= 2, got {self.anchor}")


def _pair_to_block(a: int, b: int, s: int, modulus: int, residues) -> tuple[int, int]:
    # (ones, anchor); ones < 0 exactly when s*a <= t*b.
    q, r = divmod(b, s)
    anchor = q * modulus + residues[r]
    return a + b - anchor, anchor


def _block_to_pair(ones: int, anchor: int, s: int, modulus: int, index) -> tuple[int, int]:
    # index[residues[r]] == r; KeyError for anchors outside the residue system.
    q, rem = divmod(anchor, modulus)
    b = q * s + index[rem]
    return ones + anchor - b, b


def map_pair(p: ArndtPair, cons: ScaledConstraint) -> OnesBlock:
    """Image of one complete pair (b >= 1) under the forward map.

    >>> map_pair(ArndtPair(5, 1), ScaledConstraint(2, 3))
    OnesBlock(ones=3, anchor=3)
    """
    rs = residue_system(cons)
    if p.b < 1:
        raise ValueError("map_pair needs a complete pair (b >= 1)")
    ones, anchor = _pair_to_block(p.a, p.b, cons.s, rs.modulus, rs.residues)
    if ones < 0:
        raise ValueError(f"pair ({p.a}, {p.b}) violates {cons.s}*a > {cons.t}*b")
    return OnesBlock(ones, anchor)


def unmap_block(blk: OnesBlock, cons: ScaledConstraint) -> ArndtPair | int:
    """Preimage of one block: an (a, b) pair, or a bare part for the
    anchorless trailing block.

    >>> unmap_block(OnesBlock(2, 3), ScaledConstraint(2, 3))
    ArndtPair(a=4, b=1)
    >>> unmap_block(OnesBlock(6, None), ScaledConstraint(2, 3))
    6
    """
    rs = residue_system(cons)
    if blk.anchor is None:
        return blk.ones
    rs.decompose(blk.anchor)  # rejects anchors outside the residue system
    return ArndtPair(*_block_to_pair(blk.ones, blk.anchor, cons.s, rs.modulus, rs._index))


def forward(c: Composition, cons: ScaledConstraint) -> Composition:
    """Map a scaled Arndt composition to its congruence-restricted partner.

    Sum-preserving; rejects compositions violating the constraint, and
    those whose image would have more than ``MAX_IMAGE_PARTS`` parts.

    >>> str(forward(Composition((4, 1, 1)), ScaledConstraint(2, 3)))
    '1,1,3,1'
    """
    rs = residue_system(cons)
    s, modulus, residues, limit = cons.s, rs.modulus, rs.residues, MAX_IMAGE_PARTS
    parts = c.parts
    out: list[int] = []
    it = iter(parts)
    for a, b in zip(it, it):
        ones, anchor = _pair_to_block(a, b, s, modulus, residues)
        if ones < 0:
            raise ValueError(
                f"({','.join(map(str, parts))}) violates "
                f"{cons.s}*a > {cons.t}*b on some pair"
            )
        if len(out) + ones >= limit:
            raise ValueError(f"image exceeds MAX_IMAGE_PARTS = {limit} parts")
        out += [1] * ones
        out.append(anchor)
    tail = parts[-1] if len(parts) % 2 else 0
    if len(out) + tail > limit:
        raise ValueError(f"image exceeds MAX_IMAGE_PARTS = {limit} parts")
    out += [1] * tail
    return Composition(tuple(out))


def backward(c: Composition, cons: ScaledConstraint) -> Composition:
    """Inverse of :func:`forward`; input parts must all lie in the
    constraint's residue system.

    >>> str(backward(Composition((3, 3)), ScaledConstraint(2, 3)))
    '2,1,2,1'
    """
    rs = residue_system(cons)
    s, modulus, index = cons.s, rs.modulus, rs._index
    out: list[int] = []
    ones = 0
    try:
        for p in c.parts:
            if p == 1:
                ones += 1
            else:
                out += _block_to_pair(ones, p, s, modulus, index)
                ones = 0
    except KeyError:
        rs.decompose(p)  # raises: p lies outside the residue system
    if ones:
        out.append(ones)
    return Composition(tuple(out))
