"""Domain types and predicates for scaled Arndt compositions.

A composition of n is an ordered tuple of positive integers summing to n;
the empty tuple is the unique composition of 0.  A scaled Arndt composition
with parameters (s, t) is a composition whose consecutive part pairs
(c1, c2), (c3, c4), ... satisfy the strict inequality s*c_odd > t*c_even;
an unpaired final part is unconstrained.  The affine variant replaces the
right-hand side with t*c_even + k for an integer offset k.

Scaling (s, t) by a common factor does not change the condition, so
constraints are kept in lowest terms.  For coprime (s, t) with k = 0 the
admissible compositions are equinumerous with compositions into parts from
s prescribed residue classes modulo s+t; ``residue_system`` computes those
classes.

All arithmetic is exact integer arithmetic.  Every type here is an
immutable value (a ``__slots__`` class on ``_Value``, cheap to import)
and every function is pure, so unrestricted concurrent use is safe.
The compositions the library derives from checked ones (bijection results,
stream items) skip the part check through ``Composition._from_checked``.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd
from operator import countOf

__all__ = [
    "Composition",
    "ScaledConstraint",
    "ResidueSystem",
    "normalize",
    "satisfies",
    "residue_system",
]


def _ints(values: tuple, error: str, name: str) -> tuple:
    if countOf(map(type, values), int) != len(values):  # exact ints: no bool, float or numpy
        raise ValueError(error + _int_text(values, name))
    return values


def _int_text(value: object, name: str, text=str) -> str:
    # text(value), by str or repr, for a message: an int, or a tuple or Composition of ints. Where
    # an int is past the int-string limit, whose ValueError says to lift it, name instead.
    try:
        return text(value)
    except ValueError:
        return name


def _decimal(ints, what: str = "an output integer is") -> str:
    # The ints' decimal text, comma-joined, for output. Past the int-string limit, a ValueError
    # that names the limit: str()'s own says to lift it, a call that a CLI user cannot make.
    try:
        return ",".join(map(str, ints))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} past the int-string limit of {limit} digits") from None


class _Value:
    """Base of the immutable value types, whose fields are their ``__slots__``.

    ``__reduce__`` gives (type, fields), which equality (same type only),
    hash, pickle and copy share, so loading reruns the constructor's checks.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Composition(_Value):
    """An ordered tuple of positive integer parts.

    >>> c = Composition((4, 1, 1))
    >>> c.total, len(c), str(c)
    (6, 3, '4,1,1')

    The empty composition ``Composition(())`` is the one composition of 0.
    Only the library's private ``_from_checked`` skips the parts' check.
    """

    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        # Two C-level passes; exact type int first (no bool), so min sees ints.
        parts = _ints(tuple(parts), "parts must be positive integers: ", "parts")
        if parts and min(parts) < 1:
            raise ValueError(f"parts must be positive integers: {_int_text(parts, 'parts')}")
        object.__setattr__(self, "parts", parts)  # not super().__init__: a hot path

    @property
    def total(self) -> int:
        """The number being composed (sum of parts)."""
        return sum(self.parts)

    @classmethod
    def from_string(cls, text: str) -> "Composition":
        """Parse the CLI wire form, e.g. ``"4,1,1"``; ``""`` is empty.

        Only comma-separated decimal digits are accepted, no whitespace.
        """
        if text == "":
            return cls(())
        fields = text.split(",")
        if not all(map(str.isdecimal, fields)):
            raise ValueError(f"malformed composition {text!r}; expected e.g. '4,1,1'")
        return cls(tuple(map(int, fields)))

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]


def _from_checked(parts: tuple[int, ...], new=object.__new__, cls=Composition,
                  set_parts=Composition.parts.__set__) -> Composition:
    """Unchecked, for parts that are exact ints >= 1 by construction: forward's input
    parts, 1s and anchors 1 + b*(s+t)//s >= 2; backward's a = ones + p - b >= 1, b >= 1
    and trailing run >= 1; enumeration._walk's leaves, joined from its table's range ints.
    A stream calls it per item, so object.__new__ and the slot's setter are bound once."""
    self = new(cls)
    set_parts(self, parts)
    return self


Composition._from_checked = staticmethod(_from_checked)


def _checked_gcd(s: int, t: int, k: int) -> int:
    # gcd(s, t), once s, t and k pass the rules ScaledConstraint and normalize share.
    _ints((s, t, k), "s, t and k must be ints, got ", "(s, t, k)")
    if s < 1 or t < 1:
        raise ValueError(f"s and t must be positive, got {_int_text((s, t), '(s, t)')}")
    return gcd(s, t)


class ScaledConstraint(_Value):
    """Coprime scaling pair (s, t) with affine offset k (default 0).

    The constructor insists on fields of exact type int and on coprime s
    and t; use :func:`normalize` to reduce an arbitrary pair.  k != 0 selects
    the exploratory affine condition, with only brute-force enumeration.
    """

    __slots__ = __match_args__ = ("s", "t", "k")

    def __init__(self, s: int, t: int, k: int = 0) -> None:
        if _checked_gcd(s, t, k) != 1:
            raise ValueError(f"{_int_text((s, t), '(s, t)')} is not coprime; "
                             "reduce it with normalize()")
        super().__init__(s, t, k)


def normalize(s: int, t: int, k: int = 0) -> ScaledConstraint:
    """Reduce (s, t) by their gcd and return the constraint.

    Like the constructor, it first insists on s, t and k of exact type int.
    The reduction is only meaningful for k = 0 (the inequality
    s*a > t*b is invariant under scaling both sides); a non-coprime pair
    together with k != 0 is refused rather than silently rescaled.

    >>> normalize(4, 6)
    ScaledConstraint(s=2, t=3, k=0)
    """
    g = _checked_gcd(s, t, k)
    if g > 1 and k != 0:
        raise ValueError(
            f"non-normalizable affine constraint ({_int_text(s, 's')}, {_int_text(t, 't')}, "
            f"k={_int_text(k, 'k')}): "
            "dividing out the gcd changes the affine condition"
        )
    return ScaledConstraint(s // g, t // g, k)


def satisfies(c: Composition, cons: ScaledConstraint) -> bool:
    """True iff every part pair of ``c`` meets s*a > t*b + k.

    The empty composition and single parts satisfy vacuously.

    >>> satisfies(Composition((3, 2, 1)), ScaledConstraint(1, 1))
    True
    >>> satisfies(Composition((3, 2, 1)), ScaledConstraint(2, 3))
    False
    """
    # Pairs are (parts[0], parts[1]), (parts[2], parts[3]), ...; a final
    # unpaired part imposes nothing, hence the len-1 bound.
    p, s, t, k = c.parts, cons.s, cons.t, cons.k
    return all(s * p[i] > t * p[i + 1] + k for i in range(0, len(p) - 1, 2))


def _congruence_parts(s: int, m: int, stop: int) -> list[int]:
    # The parts 1 + b*m//s <= stop of s classes mod m, b ascending: those with b*m < stop*s.
    return [1 + b * m // s for b in range((stop * s - 1) // m + 1)]


def _rank(part: int, s: int, modulus: int) -> int:
    # The b with part = 1 + floor(b*modulus/s), i.e. b = ceil((part-1)*s/modulus);
    # a part not of that form lies outside the system.
    b = -((1 - part) * s // modulus)
    if b * modulus // s != part - 1:
        raise ValueError(f"part {_int_text(part, 'p')} outside residue system: its remainder "
                         f"{_int_text(part % modulus, 'r')} mod {_int_text(modulus, 's+t')} "
                         "is not an admitted residue")
    return b


@lru_cache(maxsize=256)
def _byte_ranks(s: int, modulus: int) -> tuple[bytes, bytes]:
    # backward's bytes.translate tables, kept per (s, t): each part p < 256 of the system to its
    # rank b and to p - b, any other byte to 0 (no anchor's rank: anchors have b >= 1).
    rank = dict(zip(_congruence_parts(s, modulus, 255), range(256)))
    return bytes(rank.get(p, 0) for p in range(256)), bytes(p - rank.get(p, p) for p in range(256))


def _check_part(part: int) -> None:
    if type(part) is not int or part < 1:  # exact ints only
        raise ValueError(f"parts are positive integers, got {_int_text(part, 'p', repr)}")


class ResidueSystem(_Value):
    """The part residues modulo s+t admissible for a coprime pair (s, t).

    The constructor accepts exactly ``residues[r] = 1 + floor(r*modulus/s)``
    for r = 0..s-1, with s = len(residues) < modulus.  So the system's parts
    are the numbers 1 + floor(b*modulus/s) for b >= 0, and every lookup is
    O(1) arithmetic that never reads the tuple.  The system does not know k:
    :func:`residue_system` is what refuses k != 0.
    """

    __slots__ = __match_args__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: tuple[int, ...]) -> None:
        rs = tuple(residues)  # a tuple is not copied; the check copies it once, with the modulus
        _ints((modulus, *rs), "modulus and residues must be ints, got ", "(modulus, *residues)")
        s = len(rs)
        if not 0 < s < modulus or list(rs) != _congruence_parts(s, modulus, modulus):
            m = _int_text(modulus, "modulus")
            raise ValueError(f"residues[r] must be 1 + r*{m}//s, 0 <= r < s < {m}")
        super().__init__(modulus, rs)

    @classmethod
    def _from_checked(cls, modulus: int, residues: tuple[int, ...]) -> "ResidueSystem":
        """Unchecked, for residue_system's tuple: the closed form that __init__ checks."""
        self = object.__new__(cls)
        _Value.__init__(self, modulus, residues)
        return self

    def contains(self, part: int) -> bool:
        """True iff ``part`` (an exact int >= 1) falls in one of the residue classes."""
        _check_part(part)
        try:
            _rank(part, len(self.residues), self.modulus)
        except ValueError:
            return False
        return True

    def decompose(self, part: int) -> tuple[int, int]:
        """Split ``part`` as q * modulus + residues[r]; return (q, r).

        O(1) in s; raises ValueError for parts outside the system.

        >>> residue_system(ScaledConstraint(2, 3)).decompose(6)
        (1, 0)
        """
        _check_part(part)
        s = len(self.residues)
        return divmod(_rank(part, s, self.modulus), s)


def _require_pure(cons: ScaledConstraint) -> None:
    # The one refusal of k != 0 (residue system, bijection, generating function).
    if cons.k != 0:
        raise ValueError(
            f"defined only for offset k = 0: no residue system, bijection or "
            f"generating function is known for k != 0 (got k = {_int_text(cons.k, 'k')})"
        )


def residue_system(cons: ScaledConstraint) -> ResidueSystem:
    """Residue classes mod s+t whose compositions match the Arndt count.

    The r-th allowed residue is 1 + floor(r*(s+t)/s) for r = 0..s-1, the
    paper's r + ceil((r*t + 1) / s); the r = 0 class is always 1, so
    parts equal to 1 are always admitted.  Defined only for the pure scaled
    condition (k = 0): it refuses k != 0 through the same guard as the
    bijection, which reads only s and t, never this system.

    >>> residue_system(ScaledConstraint(2, 3))
    ResidueSystem(modulus=5, residues=(1, 3))
    """
    _require_pure(cons)
    s, m = cons.s, cons.s + cons.t
    return ResidueSystem._from_checked(m, tuple(_congruence_parts(s, m, m)))
