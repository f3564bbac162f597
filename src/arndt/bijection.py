"""The sum-preserving bijection between scaled Arndt compositions and
congruence-restricted compositions.

Forward direction: each part pair (a, b) with b = q*s + r (Euclidean
division, 0 <= r < s) becomes a run of ones followed by one anchor part

    (a, b)  ->  (1^(a - q*t - L), q*(s+t) + r + L)   with L = ceil((r*t+1)/s),

and a trailing unpaired part m becomes a run of m ones.  The strict
inequality s*a > t*b makes the run length nonnegative, and the anchor
lands in the residue system of the constraint.

Backward direction: scan the congruence-restricted composition left to
right, grouping each maximal run of ones with the next part >= 2 into a
block (1^c, d); a trailing run of ones with no anchor maps to the single
part c.  Parts equal to 1 are never anchors, even though 1 itself is an
admissible residue; anchors with residue 1 are exactly the parts
1 + q*(s+t) with q >= 1.

Both directions validate their input and are defined only for k = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Composition,
    ResidueSystem,
    ScaledConstraint,
    ceil_div,
    residue_system,
    satisfies,
)

__all__ = ["ArndtPair", "OnesBlock", "map_pair", "unmap_block", "forward", "backward"]


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


def _require_unscaled(cons: ScaledConstraint) -> None:
    if cons.k != 0:
        raise ValueError(f"the bijection is defined only for k = 0, got k = {cons.k}")


def _pair_to_block(a: int, b: int, s: int, t: int) -> tuple[int, int]:
    # For a complete pair known to satisfy s*a > t*b, so that ones >= 0.
    q, r = divmod(b, s)
    lift = ceil_div(r * t + 1, s)
    return a - q * t - lift, q * (s + t) + r + lift


def _block_to_pair(ones: int, anchor: int, rs: ResidueSystem, s: int, t: int):
    # decompose rejects anchors outside the residue system.
    q, r = rs.decompose(anchor)
    lift = ceil_div(r * t + 1, s)
    return ones + q * t + lift, q * s + r


def map_pair(p: ArndtPair, cons: ScaledConstraint) -> OnesBlock:
    """Image of one complete pair (b >= 1) under the forward map.

    >>> map_pair(ArndtPair(5, 1), ScaledConstraint(2, 3))
    OnesBlock(ones=3, anchor=3)
    """
    _require_unscaled(cons)
    if p.b < 1:
        raise ValueError("map_pair needs a complete pair (b >= 1)")
    s, t = cons.s, cons.t
    if s * p.a <= t * p.b:
        raise ValueError(f"pair ({p.a}, {p.b}) violates {s}*a > {t}*b")
    return OnesBlock(*_pair_to_block(p.a, p.b, s, t))


def unmap_block(blk: OnesBlock, cons: ScaledConstraint) -> ArndtPair | int:
    """Preimage of one block: an (a, b) pair, or a bare part for the
    anchorless trailing block.

    >>> unmap_block(OnesBlock(2, 3), ScaledConstraint(2, 3))
    ArndtPair(a=4, b=1)
    >>> unmap_block(OnesBlock(6, None), ScaledConstraint(2, 3))
    6
    """
    _require_unscaled(cons)
    if blk.anchor is None:
        return blk.ones
    rs = residue_system(cons)
    return ArndtPair(*_block_to_pair(blk.ones, blk.anchor, rs, cons.s, cons.t))


def forward(c: Composition, cons: ScaledConstraint) -> Composition:
    """Map a scaled Arndt composition to its congruence-restricted partner.

    Sum-preserving; rejects compositions violating the constraint.

    >>> str(forward(Composition((4, 1, 1)), ScaledConstraint(2, 3)))
    '1,1,3,1'
    """
    _require_unscaled(cons)
    if not satisfies(c, cons):
        raise ValueError(
            f"({','.join(map(str, c.parts))}) violates "
            f"{cons.s}*a > {cons.t}*b on some pair"
        )
    s, t = cons.s, cons.t
    parts = c.parts
    out: list[int] = []
    for i in range(0, len(parts) - 1, 2):
        ones, anchor = _pair_to_block(parts[i], parts[i + 1], s, t)
        out.extend([1] * ones)
        out.append(anchor)
    if len(parts) % 2:
        out.extend([1] * parts[-1])
    return Composition(tuple(out))


def backward(c: Composition, cons: ScaledConstraint) -> Composition:
    """Inverse of :func:`forward`; input parts must all lie in the
    constraint's residue system.

    >>> str(backward(Composition((3, 3)), ScaledConstraint(2, 3)))
    '2,1,2,1'
    """
    _require_unscaled(cons)
    rs, s, t = residue_system(cons), cons.s, cons.t
    out: list[int] = []
    ones = 0
    for p in c.parts:
        if p == 1:
            ones += 1
        else:
            out.extend(_block_to_pair(ones, p, rs, s, t))
            ones = 0
    if ones:
        out.append(ones)
    return Composition(tuple(out))
