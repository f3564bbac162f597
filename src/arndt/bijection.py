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

Backward: group each maximal run of ones with the next part >= 2 into a
block (1^c, d), with no Python step per part.  A byte mask marks anchors
1 and ones 0 (by a 256-byte table when all parts are below 256, else by
comparing each part with 1); its pieces between 1s are the runs c.  The
parts become bytes as bytes(bytearray(parts)): bytearray converts a tuple
of ints over twice as fast as bytes does, and raises the same ValueError
on a part of 256 or more, which sends the image to the comparisons.  The
anchor's rank b = ceil((d - 1)*s/(s+t)) inverts the forward formula: d
lies in the system exactly when 1 + floor(b*(s+t)/s) = d, and then
a = c + d - b.  Anchors below 256 read b and d - b from two byte tables
cached per (s, t); larger ones compute b once per distinct anchor.
The preimage is one list of 2*pairs slots, plus one holding the trailing
run c when it is nonempty (a run of ones with no anchor maps to the single
part c); two strided slice assignments write every b and every a.  Parts
equal to 1 are never anchors, even though 1 itself is an admissible
residue; anchors with residue 1 are exactly the parts 1 + q*(s+t), q >= 1.

Both directions check their input, build valid output unchecked, and need k = 0.
"""

from __future__ import annotations

from itertools import accumulate, compress, islice
from operator import add, sub

from .core import Composition, ScaledConstraint, _byte_ranks, _int_text, _rank, _require_pure

__all__ = ["forward", "backward"]

MAX_IMAGE_PARTS = 10**7  # forward's limit: a pair (a, b) becomes up to a + b parts
_IS_ANCHOR = bytes(2) + b"\x01" * 254  # backward's byte mask: part 1 -> 0, each part >= 2 -> 1


def forward(c: Composition, cons: ScaledConstraint) -> Composition:
    """Map a scaled Arndt composition to its congruence-restricted partner.

    Sum-preserving; rejects compositions violating the constraint, and
    those whose image would have more than ``MAX_IMAGE_PARTS`` parts.

    >>> str(forward(Composition((4, 1, 1)), ScaledConstraint(2, 3)))
    '1,1,3,1'
    """
    _require_pure(cons)
    parts, s, modulus, limit = c.parts, cons.s, cons.s + cons.t, MAX_IMAGE_PARTS
    # Block sizes 1 + ones (below 1 exactly when s*a <= t*b) and anchors of the pairs (a, b).
    anchors = [1 + b * modulus // s for b in parts[1::2]]
    sizes = [a + b + 1 - anchor for a, b, anchor in zip(parts[0::2], parts[1::2], anchors)]
    size = sum(sizes) + (parts[-1] if len(parts) % 2 else 0)
    if min(sizes, default=1) < 1:  # the limit wins if the pairs before the violation pass it
        size = sum(sizes[: next(i for i, n in enumerate(sizes) if n < 1)])
        if size <= limit:
            raise ValueError(
                f"({_int_text(c, 'c')}) violates "
                f"{_int_text(cons.s, 's')}*a > {_int_text(cons.t, 't')}*b on some pair"
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
    s, modulus, parts = cons.s, cons.s + cons.t, c.parts
    # A bytearray kept as such measured slower: split would then build one per pair.
    try:  # every part below 256: byte scans (compress() here measured 1.25x slower)
        data = bytes(bytearray(parts))
    except ValueError:  # a part of 256 or more: a rank per distinct anchor
        mask = bytes(map((1).__lt__, parts))
        anchors = list(compress(parts, mask))
        ranks = {p: _rank(p, s, modulus) for p in dict.fromkeys(anchors)}
        bs = list(map(ranks.__getitem__, anchors))
        rests = map(sub, anchors, bs)
    else:  # the ranks b and the rests anchor - b from the constraint's tables
        mask, anchors = data.translate(_IS_ANCHOR), data.translate(None, b"\x01")
        bs, rests = (anchors.translate(table) for table in _byte_ranks(s, modulus))
        if 0 in bs:  # _rank names the first anchor outside the system
            _rank(anchors[bs.index(0)], s, modulus)
    trail, n = len(mask) - 1 - mask.rfind(1), 2 * len(bs)  # the trailing run of ones; 2 * pairs
    out = [trail] * (n + (trail > 0))
    out[1:n:2] = bs
    out[0:n:2] = map(add, map(len, mask.split(b"\x01")), rests)  # a = ones + anchor - b
    return Composition._from_checked(tuple(out))
