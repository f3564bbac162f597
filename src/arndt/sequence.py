"""Exact counting sequences for scaled Arndt compositions.

Counting compositions with parts in the residue classes m_r = 1 +
floor(r(s+t)/s), r = 0..s-1, modulo s+t gives the generating function

    (1 - x^(s+t)) / (1 - x^(s+t) - sum_r x^(m_r)),

whose denominator yields the recurrence

    a(n) = a(n - m_0) + ... + a(n - m_{s-1}) + a(n - s - t)

valid for n > s+t; running it from a(0) = 1 is expanding the series,
so both routes are the one loop in ``_run``.  Note the m_0 = 1 term
belongs in the sum: dropping it breaks even the Fibonacci case (1, 1).

That recurrence has s+1 taps: s big-number operations a term.  For s > t
the residues form t runs of consecutive integers from 1 to s+t-1, split at
the swapped pair (t, s)'s residues e_j = 1 + floor(j(s+t)/t), j = 1..t-1,
and (1 - x) times both polynomials telescopes each run to its ends: 2t
taps, +2 at 1, -1 at each e_j and +1 at e_j + 1, and -1 at s+t+1; one
doubling and 2t-1 additions, as a(n) = 2a(n-1) - a(n-9) for (7, 1).  So
``_form`` telescopes iff s > 2t; for s <= t it would only add taps.  Each
request names its last index n; ``_form`` lists only the taps a(n) reads.

Everything is exact; counts never overflow.  B-files run the same loop
on ``Decimal``s that trap any rounding, since printing one is linear in
its digits where printing an int is quadratic (and capped by default).
"""

from __future__ import annotations

import io
import sys
from collections.abc import Iterator, Sequence
from itertools import islice
from operator import index, sub

from .core import (
    ScaledConstraint, _congruence_parts, _decimal, _int_text, _ints, _require_pure, _Value,
    residue_system,
)

__all__ = [
    "RationalGF",
    "build_gf",
    "expand",
    "count_recurrence",
    "sequence_range",
    "export_bfile",
    "write_bfile",
]


class RationalGF(_Value):
    """Numerator and denominator coefficient vectors, constant term first.

    Both polynomials have degree s+t and constant term 1, so the
    power-series quotient is integral and starts at a(0) = 1.
    """

    __slots__ = __match_args__ = ("constraint", "numerator", "denominator")

    def __init__(self, constraint: ScaledConstraint,
                 numerator: tuple[int, ...], denominator: tuple[int, ...]) -> None:
        if not denominator or denominator[0] != 1:
            raise ValueError("denominator constant term must be 1")
        if not numerator or numerator[0] != 1:
            raise ValueError("numerator constant term must be 1, so that a(0) = 1")
        _ints((*numerator, *denominator), "coefficients must be ints, got ",
              "(*numerator, *denominator)")
        super().__init__(constraint, numerator, denominator)


def build_gf(cons: ScaledConstraint) -> RationalGF:
    """The rational generating function for a coprime (s, t), k = 0.

    >>> gf = build_gf(ScaledConstraint(2, 3))
    >>> gf.numerator, gf.denominator
    ((1, 0, 0, 0, 0, -1), (1, -1, 0, -1, 0, -1))
    """
    rs = residue_system(cons)  # refuses k != 0
    m = rs.modulus
    den = [1] + [0] * (m - 1) + [-1]
    for res in rs.residues:
        den[res] -= 1
    return RationalGF(cons, (1,) + (0,) * (m - 1) + (-1,), tuple(den))


def _form(cons: ScaledConstraint, stop: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """The numerator {degree: coefficient} and taps [(j, d)], j ascending, of the
    form the engine runs, in O(min(s, t, stop)): the parts of (s, t) up to stop, or
    iff s > 2t telescoped, split at those of (t, s) past 1.  Of the taps past
    ``stop``, which a(0)..a(stop) never read, it lists at most two.  Refuses k != 0."""
    _require_pure(cons)
    s, t = cons.s, cons.t
    m = s + t
    if s <= 2 * t:
        taps = [(p, 1) for p in _congruence_parts(s, m, min(stop, m))]
        return {0: 1, m: -1}, taps + [(m, 1)]
    splits = _congruence_parts(t, m, min(stop, m))[1:]  # e_j for j >= 1: the parts of (t, s)
    taps = [(1, 2)] + [tap for e in splits for tap in ((e, -1), (e + 1, 1))]
    return {0: 1, 1: -1, m: -1, m + 1: 1}, taps + [(m + 1, -1)]


def _run(num: dict, taps: list, stop: int, kind: type = int, start: int = 0,
         seed: Sequence = ()) -> Iterator:
    """Coefficients start..stop of num/den, of type ``kind``, by long
    division: c_n = num_n + sum_j d * c_{n-j} over den's taps (j, d).
    ``seed`` ends with the min(start, max j) terms below start."""
    taps = [(j, d) for j, d in taps if j <= stop] or [(1, 0)]  # a polynomial: one zero tap
    m, top = taps[-1][0], max(num)
    # window[-j] is c_{n-j}, and c_n = 0 for n < 0, so every term reads every
    # tap: a list, whose index is O(1) where a deque's is O(j).
    window = [kind(0)] * (m - len(seed)) + list(seed)
    cap = 2 * m + 16  # trimmed back to m terms once it holds more
    (head, d0), *more = [(-j, d) for j, d in taps]
    # Past the head, the +1 taps apart: a dense form adds with no per-tap
    # test and skips the loop over the rest.
    plus = [j for j, d in more if d == 1]
    rest = [(j, d) for j, d in more if d != 1]
    for n in range(start, stop + 1):
        # Start from the head: in CPython, 0 + x copies all of x, and on a
        # long Decimal x + x is about three times as fast as 2 * x.
        w = window[head]
        c = w if d0 == 1 else w + w if d0 == 2 else d0 * w
        for j in plus:
            c = c + window[j]
        if rest:
            for j, d in rest:
                c = c - window[j] if d == -1 else c + d * window[j]
        if n <= top:  # an int comparison: cheaper per term than n in num
            c = c + num.get(n, 0)
        window.append(c)
        if len(window) > cap:
            del window[: len(window) - m]
        yield c


def expand(gf: RationalGF, n_max: int) -> tuple[int, ...]:
    """Coefficients 0..n_max of numerator/denominator, exactly.

    >>> expand(build_gf(ScaledConstraint(2, 3)), 9)
    (1, 1, 1, 2, 3, 4, 7, 11, 17, 27)
    """
    _check_range(0, n_max)
    num, den = gf.numerator, gf.denominator
    if gf.constraint.s > 2 * gf.constraint.t:  # telescoped: (1 - x) times both
        num, den = (tuple(map(sub, (*p, 0), (0, *p))) for p in (num, den))
    taps = [(j, -d) for j, d in enumerate(den) if j and d]
    return tuple(_run(dict(enumerate(num)), taps, n_max))


def count_recurrence(
    cons: ScaledConstraint, n: int, cache: dict[int, int] | None = None
) -> int:
    """a(n) via the linear recurrence.

    Let w <= min(s+t+1, n) be the reach of the taps that a(n) reads.
    ``cache`` maps index -> count and is owned by the caller; a hit is
    answered from it, and a miss records a(j)..a(n) there, resuming at
    j = len(cache) when j <= n and a(max(j-w, 0))..a(j-1) are cached,
    else at j = 0; so ascending calls compute each term once.  Without a
    cache it holds a window of at most 2w+17 terms, cut to the last w as
    it fills.  No internal locking: do not share one cache between threads.

    >>> count_recurrence(ScaledConstraint(2, 3), 7)
    11
    """
    _require_pure(cons)  # before the cache is read
    _check_range(0, n)
    if cache is None:
        return sequence_range(cons, n, n)[0]
    if n not in cache:
        num, taps = _form(cons, n)
        j, w = len(cache), max((i for i, _ in taps if i <= n), default=0)  # a(n)'s reach
        seed = [cache.get(i) for i in range(max(j - w, 0), j)]
        if j > n or None in seed:
            j, seed = 0, []
        cache.update(enumerate(_run(num, taps, n, int, j, seed), j))
    return cache[n]


def _check_range(n_lo: int, n_hi: int) -> None:
    # index: a float is a TypeError, a bool an int
    if index(n_hi) < index(n_lo) or n_lo < 0 or n_hi > sys.maxsize:
        raise ValueError("need 0 <= n_lo <= n_hi <= sys.maxsize, "
                         f"got [{_int_text(n_lo, 'n_lo')}, {_int_text(n_hi, 'n_hi')}]")


def sequence_range(cons: ScaledConstraint, n_lo: int, n_hi: int) -> list[int]:
    """a(n) for n in [n_lo, n_hi], by the recurrence."""
    _check_range(n_lo, n_hi)
    return list(islice(_run(*_form(cons, n_hi), n_hi), n_lo, None))


_BFILE_CHUNK = 64  # lines per write


def _exact_context():
    """A ``decimal`` context in which integer sums are exact: any rounding
    raises ``Inexact``.  ``Emax`` must be lifted with ``prec``, or a sum of
    more than 10^6 digits overflows, and so rounds."""
    from decimal import MAX_EMAX, MAX_PREC, Context, Inexact

    return Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


def write_bfile(
    out: io.TextIOBase, cons: ScaledConstraint, n_lo: int, n_hi: int, offset: int | None = None
) -> None:
    """Write ``export_bfile``'s text to ``out`` as the terms come, one
    chunk of lines per write, holding at most 2w+17 terms for
    w = min(s+t+1, n_hi), as ``count_recurrence`` does, and one chunk.

    The terms are exact ``Decimal``s, computed in a context entered around
    each chunk's arithmetic only: the caller and ``out.write`` never see it.
    Indices too long for the interpreter's int-string limit raise
    ``ValueError`` before anything is written.
    """
    from decimal import Decimal, localcontext

    _check_range(n_lo, n_hi)
    first = n_lo if offset is None else offset
    last = first + n_hi - n_lo
    _decimal((first, last), "b-file indices")  # the ends are the longest indices
    exact = _exact_context()
    terms = islice(_run(*_form(cons, n_hi), n_hi, Decimal), n_lo, None)
    for lo in range(first, last + 1, _BFILE_CHUNK):
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
