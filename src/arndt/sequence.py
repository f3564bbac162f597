"""Exact counting sequences for scaled Arndt compositions.

Counting compositions with parts confined to the residue classes
m_0, ..., m_{s-1} modulo s+t gives the rational generating function

    (1 - x^(s+t)) / (1 - x^(s+t) - sum_r x^(m_r)),

whose denominator yields the recurrence

    a(n) = a(n - m_0) + ... + a(n - m_{s-1}) + a(n - s - t)

valid for n > s+t; running it from a(0) = 1 is expanding the series,
so both routes are the one loop in ``_terms``.  Note the m_0 = 1 term
belongs in the sum: dropping it breaks even the Fibonacci case (1, 1).

Everything is integer-exact; counts never overflow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Literal

from .core import ScaledConstraint, residue_system
from .enumeration import count_brute

__all__ = [
    "RationalGF",
    "SeriesExpansion",
    "build_gf",
    "expand",
    "count_recurrence",
    "sequence_range",
    "export_bfile",
]


@dataclass(frozen=True)
class RationalGF:
    """Numerator and denominator coefficient vectors, constant term first.

    Both polynomials have degree s+t and the denominator's constant term
    is 1, so the power-series quotient is integral.
    """

    constraint: ScaledConstraint
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.denominator[0] != 1:
            raise ValueError("denominator constant term must be 1")


@dataclass(frozen=True)
class SeriesExpansion:
    """Coefficients 0..N of the counting series for one constraint."""

    constraint: ScaledConstraint
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("series must start with the empty composition, a(0) = 1")

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def __len__(self) -> int:
        return len(self.coefficients)


def build_gf(cons: ScaledConstraint) -> RationalGF:
    """The rational generating function for a coprime (s, t), k = 0.

    >>> gf = build_gf(ScaledConstraint(2, 3))
    >>> gf.numerator, gf.denominator
    ((1, 0, 0, 0, 0, -1), (1, -1, 0, -1, 0, -1))
    """
    rs = residue_system(cons)  # refuses k != 0
    m = rs.modulus
    num = [0] * (m + 1)
    num[0], num[m] = 1, -1
    den = [0] * (m + 1)
    den[0], den[m] = 1, -1
    for res in rs.residues:
        den[res] -= 1
    return RationalGF(cons, tuple(num), tuple(den))


def _terms(gf: RationalGF, start: int = 0, seed: list | None = None) -> Iterator[int]:
    """Coefficients start, start+1, ... of numerator/denominator, without end,
    by long division: with den[0] = 1, c_n = num_n - sum_{j>=1} den_j * c_{n-j}.
    ``seed`` is c_{start-m}..c_{start-1} for m = deg(den), needed if start > 0.
    """
    num, den = gf.numerator, gf.denominator
    m = len(den) - 1
    # build_gf's taps are all +1; adding is about twice as fast as multiplying.
    taps = [(-j, -den[j]) for j in range(1, m + 1) if den[j]]
    # window[-j] is c_{n-j}
    window = deque([0] * m if seed is None else seed, maxlen=m)
    for n in count(start):
        c = num[n] if n < len(num) else 0
        for j, d in taps:
            c += window[j] if d == 1 else d * window[j]
        yield c
        window.append(c)


def expand(gf: RationalGF, n_max: int) -> SeriesExpansion:
    """Coefficients 0..n_max of numerator/denominator, exactly.

    >>> expand(build_gf(ScaledConstraint(2, 3)), 9).coefficients
    (1, 1, 1, 2, 3, 4, 7, 11, 17, 27)
    """
    if n_max < 0:
        raise ValueError(f"series length must be >= 0, got {n_max}")
    return SeriesExpansion(gf.constraint, tuple(islice(_terms(gf), n_max + 1)))


def count_recurrence(
    cons: ScaledConstraint, n: int, cache: dict[int, int] | None = None
) -> int:
    """a(n) via the linear recurrence.

    ``cache`` maps index -> count and is owned by the caller; a hit is
    answered from it, and a miss records every term up to a(n) there.  A
    miss resumes at j = len(cache) when m < j and a(j-m)..a(j-1) are cached
    (m the recurrence order), else it walks from a(0); so ascending calls
    compute each term once.  No internal locking: do not share one cache
    between threads.

    >>> count_recurrence(ScaledConstraint(2, 3), 7)
    11
    """
    gf = build_gf(cons)
    if n < 0:
        raise ValueError(f"sequence index must be >= 0, got {n}")
    if cache is None:
        cache = {}
    if n not in cache:
        j, m = len(cache), len(gf.denominator) - 1
        window = range(j - m, j)
        if m < j <= n and all(i in cache for i in window):
            terms = _terms(gf, j, [cache[i] for i in window])
        else:
            j, terms = 0, _terms(gf)
        cache.update(zip(range(j, n + 1), terms))
    return cache[n]


Method = Literal["recurrence", "series", "brute"]


def sequence_range(
    cons: ScaledConstraint, n_lo: int, n_hi: int, method: Method = "recurrence"
) -> list[int]:
    """a(n) for n in [n_lo, n_hi] by the chosen method.

    ``recurrence`` and ``series`` are the same computation and agree by
    construction; ``brute`` enumerates and is bounded by the enumeration
    ceiling.
    """
    if n_lo < 0 or n_lo > n_hi:
        raise ValueError(f"need 0 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if method == "brute":
        return [count_brute(n, cons) for n in range(n_lo, n_hi + 1)]
    if method not in ("recurrence", "series"):
        raise ValueError(f"unknown method {method!r}")
    return list(islice(_terms(build_gf(cons)), n_lo, n_hi + 1))


def export_bfile(
    cons: ScaledConstraint, n_lo: int, n_hi: int, offset: int | None = None
) -> str:
    """OEIS b-file text: one "index value" line per term, ASCII.

    Indices start at ``offset`` (default n_lo) and step by 1; values are
    a(n_lo)..a(n_hi) from the recurrence.

    >>> export_bfile(ScaledConstraint(2, 3), 1, 3)
    '1 1\\n2 1\\n3 2\\n'
    """
    values = sequence_range(cons, n_lo, n_hi, "recurrence")
    start = n_lo if offset is None else offset
    return "".join(f"{start + i} {v}\n" for i, v in enumerate(values))
