"""Exhaustive composition streams and brute-force counting.

The generators here are the independent ground truth for everything the
recurrence and bijection machinery claims.  Every walk reads one list of the
admissible blocks (part pairs on the Arndt side, single parts on the congruence
side), and every admissible prefix finishes in a match, so the full set is
never held: a stream grows the compositions of n depth first, in lexicographic
part order, from a table of those blocks and pays amortized O(n) per
composition emitted; ``count_brute`` reads only the blocks' sizes and pays
O(1) per admissible prefix that leaves a positive remainder.
Every walk refuses n beyond ``BRUTE_FORCE_CEILING`` when called.

Streams are single-consumer iterators; counting functions are pure.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import index

from .core import Composition, ResidueSystem, ScaledConstraint

__all__ = [
    "BRUTE_FORCE_CEILING",
    "BruteForceCeilingError",
    "all_compositions",
    "arndt_compositions",
    "congruence_compositions",
    "count_brute",
]

# Largest n any walk (count_brute and the three streams) will take: at
# worst (k << 0) 2**25 matches, counted in about 2 s or streamed in about 70 s
# of CPU (Intel Xeon vCPU, Python 3.11); larger n is refused, not run unbounded.
BRUTE_FORCE_CEILING = 26


class BruteForceCeilingError(ValueError):
    """Raised when a brute-force count or stream would pass the documented ceiling."""


def _walk(n: int, steps: list[list]) -> Iterator[Composition]:
    # Depth first through a table from _steps, reading row r after a prefix leaving
    # remainder r; each prefix leaving 0 is yielded unchecked: its parts are range ints.
    parts, stack, composition = [], [], Composition._from_checked
    level, mark = iter((((), n),)), 0  # the root: one empty block leaving n
    while True:
        for block, r in level:
            parts[mark:] = block
            if r:
                stack.append((level, mark))
                level, mark = iter(steps[r]), len(parts)
                break
            yield composition(tuple(parts))
        else:
            if not stack:
                return
            level, mark = stack.pop()


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
    return _walk(n, _steps(n, ScaledConstraint(1, 1, -index(n))))


def _require_walkable(n: int) -> None:
    if n < 0:
        raise ValueError(f"cannot compose a negative total: {n}")
    if n > BRUTE_FORCE_CEILING:
        raise BruteForceCeilingError(
            f"brute-force walk of 2**{n - 1} compositions refused; "
            f"ceiling is n = {BRUTE_FORCE_CEILING}"
        )


def _blocks(n: int, constraint: ScaledConstraint | ResidueSystem) -> tuple[list[tuple], bool]:
    # The blocks that pass the constraint and fit in n, lexicographically, each with its size,
    # and if a final part may end: Arndt side, part pairs (a, b), True; congruence, parts, False.
    _require_walkable(n)
    if isinstance(constraint, ScaledConstraint):
        s, t, k = constraint.s, constraint.t, constraint.k
        # s*a > t*b + k iff b <= (s*a - k - 1) // t, floored for every sign of k.
        return [((a, b), a + b) for a in range(1, n)
                for b in range(1, min(n - a, (s * a - k - 1) // t) + 1)], True
    if isinstance(constraint, ResidueSystem):
        # The parts are 1 + b*m//s for b >= 0, and 1 + b*m//s <= n iff b*m < n*s.
        s, m = len(constraint.residues), constraint.modulus
        parts = [1 + b * m // s for b in range((n * s - 1) // m + 1)]
        return [((p,), p) for p in parts], False
    raise TypeError(
        f"expected ScaledConstraint or ResidueSystem, got {type(constraint).__name__}"
    )


def _steps(n: int, constraint: ScaledConstraint | ResidueSystem) -> list[list]:
    # steps[r]: the blocks that fit in r, lexicographically, each with the remainder
    # it leaves; on the Arndt side the final part r comes last.
    blocks, final = _blocks(n, constraint)
    return [[(block, r - size) for block, size in blocks if size <= r]
            + ([((r,), 0)] if final else []) for r in range(n + 1)]


def arndt_compositions(n: int, cons: ScaledConstraint) -> Iterator[Composition]:
    """The compositions of n meeting s*a > t*b + k, lexicographically.

    With k != 0 this is the exploratory affine filter; there is no
    closed-form counterpart to check it against, only this stream.
    """
    return _walk(n, _steps(n, cons))


def congruence_compositions(n: int, rs: ResidueSystem) -> Iterator[Composition]:
    """The compositions of n with every part inside ``rs``, lexicographically."""
    return _walk(n, _steps(n, rs))


def count_brute(n: int, constraint: ScaledConstraint | ResidueSystem) -> int:
    """Cardinality of the matching stream, by exhaustive enumeration.

    ``constraint`` may be a :class:`ScaledConstraint` (Arndt filter, affine
    offsets included) or a :class:`ResidueSystem` (congruence filter).  The
    count reads only the admissible blocks' sizes and builds no composition.
    Refuses n beyond :data:`BRUTE_FORCE_CEILING`.

    >>> count_brute(6, ScaledConstraint(2, 3))
    7
    """
    blocks, final = _blocks(n, constraint)
    fits = [0] * (n + 1)  # fits[m]: the admissible blocks of size m
    for _, size in blocks:
        fits[size] += 1
    # From remainder r the fits[r] blocks of size r end a composition, as does the Arndt
    # side's final part r (and for n = 0 the empty prefix). inner[r] lists the remainders
    # the others leave, largest first: row r - 1 shifted up by one, then fits[r - 1] ones.
    ends, inner = [1], [[]]
    for r in range(1, n + 1):
        ends.append(fits[r] + final)
        inner.append([left + 1 for left in inner[-1]] + [1] * fits[r - 1])
    # One pop per admissible prefix leaving r > 0: brute force, no subtree counts kept.
    count, stack = 0, [n]
    while stack:
        r = stack.pop()
        count += ends[r]
        stack += inner[r]
    return count
