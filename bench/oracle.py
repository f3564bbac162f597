"""Independent oracles for every output the benchmark checks.

None of this imports ``arndt``.  Each route is computed by a method the
library does not use:

* counts for k = 0 come from the direct sum over residue-class parts,
  a(n) = sum of a(n - p) over admissible parts p <= n, not from the
  generating function's denominator;
* far terms come from Kitamasa's method, x^n reduced modulo the
  characteristic polynomial by repeated squaring, seeded with direct sums;
* affine counts (k != 0) come from the pair transfer sum
  E(n) = sum_m P(m) E(n - m), A(n) = E(0) + ... + E(n), where P(m) counts
  the pairs (a, b) with a + b = m and s*a > t*b + k;
* composition streams come from a depth-first construction in
  lexicographic order, not from the library's successor walk;
* bijection images come from the pair formula transcribed afresh.

The benchmark computes all of these before it starts the timed loop.
"""

from __future__ import annotations

import json
from math import gcd

from common import LinesDigest, digest_bytes, digest_int, digest_parts


def residues(s: int, t: int) -> list[int]:
    return [r - (-(r * t + 1) // s) for r in range(s)]


def class_sum_counts(s: int, t: int, n_max: int) -> list[int]:
    """a(0..n_max): compositions into parts from the residue classes.

    a(n) is the sum of a(n - p) over admissible parts p <= n.  Grouping the
    parts p = m + q*(s+t) by residue m, the inner sum over q is a prefix sum
    along one residue class of indices, kept in ``along``.
    """
    modulus, res = s + t, residues(s, t)
    a: list[int] = []
    along: list[int] = []  # along[x] = a(x) + a(x - modulus) + ...
    for n in range(n_max + 1):
        a.append(1 if n == 0 else sum(along[n - m] for m in res if m <= n))
        along.append(a[n] + (along[n - modulus] if n >= modulus else 0))
    return a


def _mulmod(p: list[int], q: list[int], c: list[int]) -> list[int]:
    # Product of two polynomials of degree < d, reduced by
    # x^d = c[1] x^(d-1) + ... + c[d] x^0.
    d = len(c) - 1
    prod = [0] * (2 * d - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                prod[i + j] += pi * qj
    for deg in range(2 * d - 2, d - 1, -1):
        top = prod[deg]
        if top:
            for j in range(1, d + 1):
                if c[j]:
                    prod[deg - j] += c[j] * top
    return prod[:d]


def far_term(s: int, t: int, n: int) -> int:
    """a(n) for large n by Kitamasa's method."""
    modulus = s + t
    # a(n) = a(n - modulus) + sum_r a(n - m_r) holds for n > modulus, so
    # b(i) = a(i + 1) obeys an order-modulus recurrence from i = modulus on.
    seed = class_sum_counts(s, t, modulus)
    if n <= modulus:
        return seed[n]
    c = [0] * (modulus + 1)
    c[modulus] = 1
    for m in residues(s, t):
        c[m] += 1
    e = n - 1
    result = [1] + [0] * (modulus - 1)
    base = [0, 1] + [0] * (modulus - 2)
    while e:
        if e & 1:
            result = _mulmod(result, base, c)
        e >>= 1
        if e:
            base = _mulmod(base, base, c)
    return sum(r * seed[i + 1] for i, r in enumerate(result))


def affine_counts(s: int, t: int, k: int, n_max: int) -> list[int]:
    """A(0..n_max) for the condition s*a > t*b + k, by the pair transfer sum."""
    pair_counts = [
        sum(1 for a in range(1, m) if s * a > t * (m - a) + k) for m in range(n_max + 1)
    ]
    even = [1]
    for n in range(1, n_max + 1):
        even.append(sum(pair_counts[m] * even[n - m] for m in range(2, n + 1)))
    out, running = [], 0
    for e in even:
        running += e
        out.append(running)
    return out


def arndt_stream(n: int, s: int, t: int, k: int):
    """Compositions of n meeting s*a > t*b + k, depth first, lexicographic."""
    parts: list[int] = []

    def pairs_from(rest):
        if rest == 0:
            yield tuple(parts)
            return
        for a in range(1, rest + 1):
            parts.append(a)
            if a == rest:
                yield tuple(parts)
            for b in range(1, rest - a + 1):
                if s * a <= t * b + k:
                    break
                parts.append(b)
                yield from pairs_from(rest - a - b)
                parts.pop()
            parts.pop()

    return pairs_from(n)


def congruence_stream(n: int, s: int, t: int):
    """Compositions of n into admissible residue-class parts, lexicographic."""
    modulus, res = s + t, set(residues(s, t))
    allowed = [p for p in range(1, n + 1) if p % modulus in res]
    parts: list[int] = []

    def rec(rest):
        if rest == 0:
            yield tuple(parts)
            return
        for p in allowed:
            if p > rest:
                break
            parts.append(p)
            yield from rec(rest - p)
            parts.pop()

    return rec(n)


def stream_digest(stream) -> tuple[int, str]:
    d = LinesDigest()
    for parts in stream:
        d.add(parts)
    return d.result()


def forward_image(parts, s: int, t: int) -> list[int]:
    """Image of an admissible composition under the pair formula."""
    out: list[int] = []
    for i in range(0, len(parts) - 1, 2):
        a, b = parts[i], parts[i + 1]
        q, r = divmod(b, s)
        lift = -(-(r * t + 1) // s)
        out.extend([1] * (a - q * t - lift))
        out.append(q * (s + t) + r + lift)
    if len(parts) % 2:
        out.extend([1] * parts[-1])
    return out


def bfile_text(values: list[int], start: int) -> str:
    return "".join(f"{start + i} {v}\n" for i, v in enumerate(values))


class Oracle:
    """Expected outcome of every benchmark op, with per-constraint tables."""

    def __init__(self) -> None:
        self._tables: dict[tuple, list[int]] = {}

    def counts(self, s: int, t: int, k: int, n_max: int) -> list[int]:
        key = (s, t, k)
        table = self._tables.get(key)
        if table is None or len(table) <= n_max:
            if k == 0:
                table = class_sum_counts(s, t, n_max)
            else:
                table = affine_counts(s, t, k, n_max)
            self._tables[key] = table
        return table

    def expect(self, op):
        """The outcome the worker must report for ``op``."""
        kind = op[0]
        if kind == "bfile":
            _, (s, t, _k), lo, hi = op
            return ("ok", digest_bytes(bfile_text(self.values(s, t, 0, lo, hi), lo).encode()))
        if kind == "nth":
            _, (s, t, _k), n, _method = op
            return ("ok", digest_int(far_term(s, t, n)))
        if kind in ("count", "count_rs"):
            _, (s, t, k), n = op
            if n > 26:
                return ("raised", "BruteForceCeilingError")
            return ("ok", self.counts(s, t, k, n)[n])
        if kind == "arndt":
            _, (s, t, k), n = op
            return ("ok", stream_digest(arndt_stream(n, s, t, k)))
        if kind == "cong":
            _, (s, t, _k), n = op
            return ("ok", stream_digest(congruence_stream(n, s, t)))
        if kind == "bij":
            _, (s, t, _k), parts = op
            return ("ok", (digest_parts(forward_image(parts, s, t)), True))
        if kind == "cli":
            return self.cli(op[1], op[2])
        raise ValueError(f"unknown op kind {kind!r}")

    # -- the CLI contract ------------------------------------------------
    # Each expectation is (exit code, stdout); a list of strings instead
    # of stdout text means "these whitespace-separated tokens, ending in
    # one newline", which is how the aligned tables are compared.

    def cli(self, argv: list[str], usage_error: bool):
        # ``usage_error`` marks an argument list built to break the CLI's
        # grammar (bad format, k != 0 where k = 0 is required, ...).
        if usage_error:
            return ("exit", 2, "")
        cmd = argv[0]
        if cmd == "table":
            return ("exit", 0, self._table_tokens(argv[1]))
        opts = _options(argv[1:])
        s, t, k = int(opts["-s"]), int(opts["-t"]), int(opts.get("-k", 0))
        g = gcd(s, t)
        s, t = s // g, t // g
        if cmd == "count":
            n = int(opts["-n"])
            if opts.get("--method") == "brute" or k != 0:
                if n > 26:
                    return ("exit", 1, "")
            return ("exit", 0, f"{self.values(s, t, k, n, n)[0]}\n")
        if cmd == "enumerate":
            n = int(opts["-n"])
            if "--congruence" in opts:
                comps = list(congruence_stream(n, s, t))
            else:
                comps = list(arndt_stream(n, s, t, k))
            if opts.get("--format") == "json":
                return ("exit", 0, json.dumps([list(c) for c in comps]) + "\n")
            return ("exit", 0, "".join(",".join(map(str, c)) + "\n" for c in comps))
        if cmd == "map":
            parts = [int(p) for p in opts["-c"].split(",")]
            pairs_ok = all(
                s * parts[i] > t * parts[i + 1] for i in range(0, len(parts) - 1, 2)
            )
            if not pairs_ok:
                return ("exit", 1, "")
            return ("exit", 0, ",".join(map(str, forward_image(parts, s, t))) + "\n")
        if cmd == "unmap":
            parts = [int(p) for p in opts["-c"].split(",")]
            res = set(residues(s, t))
            if any(p % (s + t) not in res for p in parts):
                return ("exit", 1, "")
            return ("exit", 0, ",".join(map(str, _backward(parts, s, t))) + "\n")
        if cmd == "residues":
            res = ",".join(map(str, residues(s, t)))
            return ("exit", 0, f"{res} (mod {s + t})\n")
        if cmd == "bfile":
            lo, hi = (int(x) for x in opts["--range"].split(".."))
            start = int(opts.get("--offset", lo))
            return ("exit", 0, bfile_text(self.values(s, t, 0, lo, hi), start))
        raise ValueError(f"no oracle for CLI command {cmd!r}")

    def values(self, s: int, t: int, k: int, lo: int, hi: int) -> list[int]:
        """a(lo..hi); far indices (the CLI's probes) by Kitamasa's method."""
        if k == 0 and hi > 4000:
            return [far_term(s, t, n) for n in range(lo, hi + 1)]
        return self.counts(s, t, k, hi)[lo : hi + 1]

    def _table_tokens(self, which: str) -> list[str]:
        if which == "residues":
            toks = ["s\\t", "1", "2", "3", "4", "5"]
            for s in range(1, 6):
                toks.append(str(s))
                for t in range(1, 6):
                    if gcd(s, t) > 1:
                        toks.append("-")
                    else:
                        toks += [",".join(map(str, residues(s, t))), f"({s + t})"]
            return toks
        if which == "sequences":
            toks = ["a(s,t)"] + [str(n) for n in range(1, 11)]
            for s, t in [(2, 3), (3, 2), (2, 5), (4, 3), (5, 2), (3, 5), (5, 3)]:
                toks.append(f"a({s},{t})")
                toks += [str(v) for v in self.counts(s, t, 0, 10)[1:11]]
            return toks
        if which == "bijection6":
            comps = list(arndt_stream(6, 2, 3, 0))
            return (
                ["arndt"]
                + [",".join(map(str, c)) for c in comps]
                + ["congruence"]
                + [",".join(map(str, forward_image(c, 2, 3))) for c in comps]
            )
        raise ValueError(f"unknown table {which!r}")


def _options(args: list[str]) -> dict[str, str]:
    # The generator writes every option as "--congruence" or "-x value".
    opts, rest = {}, list(args)
    while rest:
        flag = rest.pop(0)
        opts[flag] = "" if flag == "--congruence" else rest.pop(0)
    return opts


def _backward(parts: list[int], s: int, t: int) -> list[int]:
    """Preimage of a congruence composition: solve the pair formula for
    (a, b) block by block."""
    out: list[int] = []
    res = residues(s, t)
    ones = 0
    for p in parts:
        if p == 1:
            ones += 1
            continue
        q, rem = divmod(p, s + t)
        r = res.index(rem)
        lift = -(-(r * t + 1) // s)
        out += [ones + q * t + lift, q * s + r]
        ones = 0
    if ones:
        out.append(ones)
    return out
