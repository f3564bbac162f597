"""Independent reference implementations used as test oracles.

Nothing here touches the library's code paths: compositions come from a
bitmask construction instead of the successor walk, predicates are
transcribed afresh, and Fibonacci is the plain two-term loop.  When a test
compares the library against these, agreement is evidence, not tautology.
"""

from __future__ import annotations

from typing import Iterator


def bitmask_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of n once, via the gap-subset encoding.

    A composition of n corresponds to a subset of the n-1 gaps between
    n unit cells; bit i of the mask cuts the row after cell i.
    """
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def arndt_ok(parts: tuple[int, ...], s: int, t: int, k: int = 0) -> bool:
    """Direct transcription of the pairwise inequality s*a > t*b + k."""
    return all(
        s * parts[i] > t * parts[i + 1] + k
        for i in range(0, len(parts) - 1, 2)
    )


def congruence_ok(parts: tuple[int, ...], residues, modulus: int) -> bool:
    return all(p % modulus in residues for p in parts)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def residue_list(s: int, t: int) -> list[int]:
    """Allowed residues for coprime (s, t), recomputed from scratch."""
    return [r + ceil_div(r * t + 1, s) for r in range(s)]


def congruence_counts(s: int, t: int, n_max: int) -> list[int]:
    """a(0..n_max): compositions of n into parts congruent to one of
    residue_list(s, t) modulo m = s + t, by their first part.  That part
    is a residue r itself, leaving a(n - r), or is m larger than some
    allowed part, which matches the compositions of n - m (n > m) part for
    part."""
    m, residues = s + t, residue_list(s, t)
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(a[n - r] for r in residues if r <= n) + (a[n - m] if n > m else 0))
    return a


def fib(n: int) -> int:
    """F_0 = 0, F_1 = 1 Fibonacci by the two-term loop."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def coprime_pairs(max_sum: int) -> list[tuple[int, int]]:
    """All coprime (s, t) with s, t >= 1 and s + t <= max_sum."""
    from math import gcd

    return [
        (s, t)
        for s in range(1, max_sum)
        for t in range(1, max_sum + 1 - s)
        if gcd(s, t) == 1
    ]
