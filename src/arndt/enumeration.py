"""Exhaustive composition streams and brute-force counting.

The generators here are the independent ground truth for everything the
recurrence and bijection machinery claims: they walk all 2**(n-1)
compositions of n in lexicographic part order, filter by direct predicate
evaluation, and never materialize the full set.  Every filtered walk refuses
n beyond ``BRUTE_FORCE_CEILING`` when it is called.

Streams are single-consumer iterators; counting functions are pure.
"""

from __future__ import annotations

from typing import Iterator

from .core import Composition, ResidueSystem, ScaledConstraint, _satisfies_parts

__all__ = [
    "BRUTE_FORCE_CEILING",
    "BruteForceCeilingError",
    "all_compositions",
    "arndt_compositions",
    "congruence_compositions",
    "count_brute",
]

# Largest n any filtered walk (count_brute and both streams) will take:
# 2**25 compositions, roughly half a minute of CPU.  Enumeration above this
# is refused rather than left to run unbounded.
BRUTE_FORCE_CEILING = 26


class BruteForceCeilingError(ValueError):
    """Raised when a brute-force count would exceed the documented ceiling."""


def _raw_compositions(n: int) -> Iterator[list[int]]:
    # Lexicographic successor walk.  The yielded list is mutated in place
    # between steps; consumers must copy before keeping a reference.
    if n < 0:
        raise ValueError(f"cannot compose a negative total: {n}")
    if n == 0:
        yield []
        return
    parts = [1] * n
    while True:
        yield parts
        if len(parts) == 1:
            return
        # Successor: drop the last part p, bump the new last part, then
        # pad with p-1 ones -- the least list extending the bumped prefix.
        p = parts.pop()
        parts[-1] += 1
        if p > 1:
            parts.extend([1] * (p - 1))


def all_compositions(n: int) -> Iterator[Composition]:
    """Every composition of n exactly once, in lexicographic part order.

    n = 0 yields only the empty composition; for n >= 1 the stream has
    2**(n-1) elements.

    >>> [str(c) for c in all_compositions(3)]
    ['1,1,1', '1,2', '2,1', '3']
    """
    for parts in _raw_compositions(n):
        yield Composition(tuple(parts))


def _matching(n: int, constraint: ScaledConstraint | ResidueSystem) -> Iterator[list]:
    # The raw walk's lists (mutated in place) that pass the constraint's filter.
    if n > BRUTE_FORCE_CEILING:
        raise BruteForceCeilingError(
            f"brute-force walk of 2**{n - 1} compositions refused; "
            f"ceiling is n = {BRUTE_FORCE_CEILING}"
        )
    if isinstance(constraint, ScaledConstraint):
        s, t, k = constraint.s, constraint.t, constraint.k
        return (p for p in _raw_compositions(n) if _satisfies_parts(p, s, t, k))
    if isinstance(constraint, ResidueSystem):
        mod, res = constraint.modulus, constraint.residues
        return (p for p in _raw_compositions(n) if all(x % mod in res for x in p))
    raise TypeError(
        f"expected ScaledConstraint or ResidueSystem, got {type(constraint).__name__}"
    )


def arndt_compositions(n: int, cons: ScaledConstraint) -> Iterator[Composition]:
    """The compositions of n meeting s*a > t*b + k, lexicographically.

    With k != 0 this is the exploratory affine filter; there is no
    closed-form counterpart to check it against, only this stream.
    """
    return (Composition(tuple(parts)) for parts in _matching(n, cons))


def congruence_compositions(n: int, rs: ResidueSystem) -> Iterator[Composition]:
    """The compositions of n with every part inside ``rs``, lexicographically."""
    return (Composition(tuple(parts)) for parts in _matching(n, rs))


def count_brute(n: int, constraint: ScaledConstraint | ResidueSystem) -> int:
    """Cardinality of the matching stream, by exhaustive enumeration.

    ``constraint`` may be a :class:`ScaledConstraint` (Arndt filter, affine
    offsets included) or a :class:`ResidueSystem` (congruence filter).
    Refuses n beyond :data:`BRUTE_FORCE_CEILING`.

    >>> count_brute(6, ScaledConstraint(2, 3))
    7
    """
    return sum(1 for _ in _matching(n, constraint))
