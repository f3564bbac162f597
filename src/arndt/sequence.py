"""Exact counting sequences for scaled Arndt compositions.

Counting compositions with parts confined to the residue classes
m_0, ..., m_{s-1} modulo s+t gives the rational generating function

    (1 - x^(s+t)) / (1 - x^(s+t) - sum_r x^(m_r)),

whose denominator yields the recurrence

    a(n) = a(n - m_0) + ... + a(n - m_{s-1}) + a(n - s - t)

valid for n > s+t; running it from a(0) = 1 is expanding the series,
so both routes are the one loop in ``_terms``.  Note the m_0 = 1 term
belongs in the sum: dropping it breaks even the Fibonacci case (1, 1).

Everything is exact; counts never overflow.  B-files run the same loop
on ``Decimal``s that trap any rounding, since printing one is linear in
its digits where printing an int is quadratic (and capped by default).
"""

from __future__ import annotations

import io
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count, islice
from math import inf
from typing import Iterator, Literal, TextIO

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
    "write_bfile",
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


def _terms(gf: RationalGF, start: int = 0, seed: list | None = None) -> Iterator:
    """Coefficients start, start+1, ... of numerator/denominator, without end,
    by long division: with den[0] = 1, c_n = num_n - sum_{j>=1} den_j * c_{n-j}.
    ``seed`` is c_{start-m}..c_{start-1} for m = deg(den), with c_i = 0 for
    i < 0; it defaults to m int zeros.  The terms take the seed's number
    type, so ``Decimal`` zeros give exact ``Decimal`` terms.
    """
    num, den = gf.numerator, gf.denominator
    m = len(den) - 1
    # window[-j] is c_{n-j}: a list, whose index is O(1) where a deque's is
    # O(j); trimmed back to m terms once it holds `cap`.
    window = [0] * m if seed is None else list(seed)
    kind = type(window[-1]) if window else int
    cap = 2 * m + 16
    taps = [(-j, -den[j]) for j in range(1, m + 1) if den[j]]
    reach = [-j for j, _ in taps]
    head, d0 = taps[0] if taps else (0, 1)
    rest = taps[1:]
    # From n = steady on, num_n = 0 and every tap fires; a polynomial has
    # no taps and is all numerator.
    steady = max(len(num), m) if taps else inf
    for n in count(start):
        if n < steady:
            # c_{n-j} = 0 for j > n, so a(n) reads only the taps j <= n,
            # as the GF truncated at degree n gives the same c_0..c_n.
            c = kind(num[n] if n < len(num) else 0)
            live = taps[: bisect_right(reach, n)]
        else:
            # Start from the first tap: in CPython, 0 + x copies all of x.
            c = window[head] if d0 == 1 else d0 * window[head]
            live = rest
        for j, d in live:
            c = c + (window[j] if d == 1 else d * window[j])
        yield c
        window.append(c)
        if len(window) > cap:
            del window[: len(window) - m]


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


def _check_range(n_lo: int, n_hi: int) -> None:
    if n_lo < 0 or n_lo > n_hi:
        raise ValueError(f"need 0 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")


def sequence_range(
    cons: ScaledConstraint, n_lo: int, n_hi: int, method: Method = "recurrence"
) -> list[int]:
    """a(n) for n in [n_lo, n_hi] by the chosen method.

    ``recurrence`` and ``series`` are the same computation and agree by
    construction; ``brute`` enumerates and is bounded by the enumeration
    ceiling.
    """
    _check_range(n_lo, n_hi)
    if method == "brute":
        return [count_brute(n, cons) for n in range(n_lo, n_hi + 1)]
    if method not in ("recurrence", "series"):
        raise ValueError(f"unknown method {method!r}")
    return list(islice(_terms(build_gf(cons)), n_lo, n_hi + 1))


_BFILE_CHUNK = 64  # lines per write


def _exact_context():
    """A ``decimal`` context in which integer sums are exact: any rounding
    raises ``Inexact``.  ``Emax`` must be lifted with ``prec``, or a sum of
    more than 10^6 digits overflows, and so rounds."""
    from decimal import MAX_EMAX, MAX_PREC, Context, Inexact

    return Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


def write_bfile(
    out: TextIO, cons: ScaledConstraint, n_lo: int, n_hi: int, offset: int | None = None
) -> None:
    """Write ``export_bfile``'s text to ``out`` as the terms come, one
    chunk of lines per write, holding s+t terms and one chunk.

    The terms are exact ``Decimal``s, computed in a context entered around
    each chunk's arithmetic only: the caller and ``out.write`` never see it.
    """
    from decimal import Decimal, localcontext

    _check_range(n_lo, n_hi)
    gf = build_gf(cons)
    exact = _exact_context()
    terms = islice(_terms(gf, 0, [Decimal(0)] * (len(gf.denominator) - 1)), n_lo, n_hi + 1)
    first = n_lo if offset is None else offset
    for lo in range(first, first + n_hi - n_lo + 1, _BFILE_CHUNK):
        with localcontext(exact):
            # range first: zip draws no term past the chunk's last index.
            lines = [f"{i} {v!s}\n" for i, v in zip(range(lo, lo + _BFILE_CHUNK), terms)]
        out.write("".join(lines))


def export_bfile(
    cons: ScaledConstraint, n_lo: int, n_hi: int, offset: int | None = None
) -> str:
    """OEIS b-file text: one "index value" line per term, ASCII.

    Indices start at ``offset`` (default n_lo) and step by 1; values are
    a(n_lo)..a(n_hi) from the recurrence, printed in full at any length.

    >>> export_bfile(ScaledConstraint(2, 3), 1, 3)
    '1 1\\n2 1\\n3 2\\n'
    """
    out = io.StringIO()
    write_bfile(out, cons, n_lo, n_hi, offset)
    return out.getvalue()
