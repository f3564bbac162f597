"""Exhaustive composition streams and brute-force counting.

The generators here are the independent ground truth for everything the recurrence
and bijection machinery claims.  Every walk reads one list of the admissible blocks:
part pairs on the Arndt side, and on the congruence side the parts 1 + b*(s+t)//s,
listed from s and s+t alone.  Every admissible prefix finishes in a match, so the
full set is never held: one walk grows the compositions of n depth first, in lexicographic
part order, joining each prefix's blocks once (parts for the streams, text for the CLI) at
amortized O(n) per composition emitted.  ``count_brute`` reads only the blocks' sizes: beside the
listing, its node table takes O(n) steps from prefix counts and its walk O(1) per admissible prefix
that a block can extend short of n; the others' matches count at their parent.  When called, every
walk refuses first a constraint of neither type or a ResidueSystem on the Arndt side (TypeError),
then k != 0 on a constraint's congruence side, then a negative n, then n > ``BRUTE_FORCE_CEILING``.

Streams are single-consumer iterators; counting functions are pure.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from operator import index, itemgetter, neg, sub

from .core import (
    Composition, ResidueSystem, ScaledConstraint, _congruence_parts, _int_text, _require_pure,
)

__all__ = [
    "BRUTE_FORCE_CEILING",
    "BruteForceCeilingError",
    "all_compositions",
    "arndt_compositions",
    "congruence_compositions",
    "count_brute",
]

# Largest n any walk (count_brute, the three streams, enumerate's text) will take: at worst
# (k << 0) 2**25 matches, counted in about 0.3 s, streamed in about 20 s or written as text in
# about 7 s of CPU (Intel Xeon vCPU, Python 3.11); larger n is refused, not run unbounded.
BRUTE_FORCE_CEILING = 26


class BruteForceCeilingError(ValueError):
    """Raised when a brute-force count or stream would pass the documented ceiling."""


def _walk(n: int, steps: list[list], root: tuple | str = ()) -> Iterator:
    # Depth first through a table from _steps, reading row r after a prefix leaving r: each
    # prefix's payloads (tuples of parts, or text) are joined once onto root, leaves at r = 0.
    stack, level, prefix = [], iter(((root, n),)), root[:0]
    while True:
        for block, r in level:
            if r:
                stack.append((level, prefix))
                level, prefix = iter(steps[r]), prefix + block
                break
            yield prefix + block
        else:
            if not stack:
                return
            level, prefix = stack.pop()


def all_compositions(n: int) -> Iterator[Composition]:
    """Every composition of n exactly once, in lexicographic part order.

    n = 0 yields only the empty composition; for n >= 1 the stream has
    2**(n-1) elements.  A negative n, or n beyond :data:`BRUTE_FORCE_CEILING`
    (:class:`BruteForceCeilingError`), is refused when the stream is made.

    >>> [str(c) for c in all_compositions(3)]
    ['1,1,1', '1,2', '2,1', '3']
    """
    # Every pair (a, b) of a composition of n has b < n, so a > b - n: k = -n admits
    # them all.  index() refuses a non-int n with TypeError, as range() does elsewhere.
    return arndt_compositions(n, ScaledConstraint(1, 1, -index(n)))


def _blocks(n: int, cons: ScaledConstraint | ResidueSystem, congruence: bool) -> tuple[list, bool]:
    # One side of cons, after every refusal in one order (type, then k, then n): the blocks that
    # fit in n, lexicographically, each with its size, and if a final part may end. Arndt side:
    # part pairs (a, b), True; congruence: the parts of s classes mod m, from s and m, False.
    if not isinstance(cons, (ScaledConstraint, ResidueSystem)):
        raise TypeError(f"expected ScaledConstraint or ResidueSystem, got {type(cons).__name__}")
    if isinstance(cons, ResidueSystem) and not congruence:
        raise TypeError("expected ScaledConstraint, got ResidueSystem: use congruence_compositions")
    if isinstance(cons, ScaledConstraint) and congruence:
        _require_pure(cons)  # residue_system(cons)'s refusal of k != 0
    if n < 0:
        raise ValueError(f"cannot compose a negative total: {_int_text(n, 'n')}")
    if n > BRUTE_FORCE_CEILING:
        raise BruteForceCeilingError(f"brute-force walk of 2**{_int_text(n - 1, '(n-1)')} "
                                     f"compositions refused; ceiling is n = {BRUTE_FORCE_CEILING}")
    if not congruence:
        s, t, k = cons.s, cons.t, cons.k
        # s*a > t*b + k iff b <= (s*a - k - 1) // t, floored for any k: b = 1 from a > (t+k)/s.
        return [((a, b), a + b) for a in range(max(1, (t + k) // s + 1), n)
                for b in range(1, min(n - a, (s * a - k - 1) // t) + 1)], True
    s, m = ((cons.s, cons.s + cons.t) if isinstance(cons, ScaledConstraint)
            else (len(cons.residues), cons.modulus))
    return [((p,), p) for p in _congruence_parts(s, m, n)], False


def _steps(n: int, side: tuple[list[tuple], bool]) -> list[list]:
    # steps[r]: the blocks of side = _blocks(n, cons, congruence) that fit in r, lexicographically,
    # each with the remainder it leaves; on the Arndt side the final part r comes last.
    blocks, final = side
    return [[(block, r - size) for block, size in blocks if size <= r]
            + ([((r,), 0)] if final else []) for r in range(n + 1)]


def arndt_compositions(n: int, cons: ScaledConstraint) -> Iterator[Composition]:
    """The compositions of n meeting s*a > t*b + k, lexicographically.

    With k != 0 this is the exploratory affine filter, which no closed form checks.
    A ResidueSystem raises TypeError: its side is :func:`congruence_compositions`.
    """
    return map(Composition._from_checked, _walk(n, _steps(n, _blocks(n, cons, False))))


def congruence_compositions(n: int, rs: ScaledConstraint | ResidueSystem) -> Iterator[Composition]:
    """The compositions of n with every part inside ``rs``, lexicographically: a ResidueSystem,
    or a ScaledConstraint (k = 0 only), read from s and s+t alone with no s-tuple built."""
    return map(Composition._from_checked, _walk(n, _steps(n, _blocks(n, rs, True))))


def _text(n: int, cons: ScaledConstraint, congruence: bool, json: bool) -> Iterator[str]:
    # One side's stream as text: a line "4,1,1\n" or a JSON array "[4, 1, 1]" per composition.
    sep, end, root = (", ", "]", "[") if json else (",", "\n", "")
    rows = [[(sep.join(map(str, block)) + (sep if r else end), r) for block, r in row]
            for row in _steps(n, _blocks(n, cons, congruence))]
    return _walk(n, rows, root if n else root + end)  # n = 0: the root is the leaf


def count_brute(n: int, constraint: ScaledConstraint | ResidueSystem) -> int:
    """Cardinality of the matching stream, by exhaustive enumeration.

    ``constraint`` may be a :class:`ScaledConstraint` (Arndt filter, affine
    offsets included) or a :class:`ResidueSystem` (congruence filter).  The
    count reads only the admissible blocks' sizes and builds no composition:
    beside listing them, its node table takes O(n) steps from prefix counts and
    its walk O(1) per admissible prefix.  Refuses n beyond :data:`BRUTE_FORCE_CEILING`.

    >>> count_brute(6, ScaledConstraint(2, 3))
    7
    """
    blocks, final = _blocks(n, constraint, isinstance(constraint, ResidueSystem))
    sizes = sorted(map(itemgetter(1), blocks))
    below = [bisect_left(sizes, m) for m in range(n + 2)]  # below[m]: the blocks of size < m
    fits = [*map(sub, below[1:], below)]  # fits[m]: the blocks of size m
    lo = sizes[0] if sizes else n  # r <= lo: a leaf, no block fits short of r
    # nodes[r] = (ends, kids). No leaf is a kid, so each r <= lo holds a leaf n's (ends, []): its
    # blocks of size n and final part end (n = 0: the empty prefix). Each r = lo + a takes O(1)
    # steps beside its kids: from r end its fits[r] blocks of size r, the Arndt side's final part
    # and the leaf each block of size m >= a leaves (its final part; if m = a, its fits[lo] blocks);
    # kids are nodes[r-m], read as nodes[-m] from back, for the blocks of size m < a, largest first.
    back, nodes = [*map(neg, sizes)], [(fits[n] + final if n else 1, [])] * (lo + 1)
    for a in range(1, n - lo + 1):
        nodes.append((fits[lo + a] + final * (1 + below[lo + a] - below[a]) + fits[a] * fits[lo],
                      [*map(nodes.__getitem__, back[:below[a]])]))
    # One pop per admissible prefix leaving r > lo, brute force: leaves are added by the parent.
    count, stack = 0, [nodes[n]]
    pop = stack.pop
    try:
        while True:
            ends, kids = pop()
            count += ends
            stack += kids
    except IndexError:  # only pop raises it, on the empty stack: every prefix is counted
        return count
