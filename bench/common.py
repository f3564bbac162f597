"""Helpers shared by the benchmark's runner, worker and oracles.

Nothing here computes a count, a composition or a bijection image; it only
names the constraint grid and turns outputs into comparable digests, so the
oracles stay independent of the routes they check.
"""

from __future__ import annotations

import hashlib
from math import gcd

# Every coprime (s, t) with s + t <= 8, the grid the acceptance tests cover.
PAIRS = [
    (s, t) for s in range(1, 8) for t in range(1, 9 - s) if gcd(s, t) == 1
]


def digest_bytes(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def digest_int(value: int) -> str:
    """Digest of an exact integer, taken without int -> str conversion."""
    size = (value.bit_length() + 8) // 8
    return digest_bytes(value.to_bytes(size, "little", signed=True))


def digest_parts(parts) -> str:
    return digest_bytes(",".join(map(str, parts)).encode())


class LinesDigest:
    """Running digest of a composition stream in the CLI's lines format."""

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=16)
        self.count = 0

    def add(self, parts) -> None:
        self._h.update((",".join(map(str, parts)) + "\n").encode())
        self.count += 1

    def result(self) -> tuple[int, str]:
        return self.count, self._h.hexdigest()
