"""Command-line front end.

Subcommands: count, enumerate, map, unmap, residues, table, bfile.
Data goes to stdout (always ending in exactly one newline), diagnostics
to stderr.  Exit codes: 0 success, 1 domain error (e.g. a composition
outside the bijection's domain, brute-force ceiling exceeded), 2 usage
error (malformed arguments, k != 0 where only k = 0 is supported).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import gcd

from .bijection import backward, forward
from .core import Composition, ScaledConstraint, normalize, residue_system
from .enumeration import arndt_compositions, congruence_compositions
from .sequence import export_bfile, sequence_range

__all__ = ["main", "entry_point"]


class CliUsageError(Exception):
    """Bad invocation detected after argparse; reported with exit code 2."""


_RANGE_RE = re.compile(r"(\d+)\.\.(\d+)")

# Grid shown by `table residues` and the rows of `table sequences`.
_TABLE_GRID = range(1, 6)
_TABLE_SEQUENCE_PAIRS = [(2, 3), (3, 2), (2, 5), (4, 3), (5, 2), (3, 5), (5, 3)]


def _resolve_constraint(args, allow_affine: bool) -> ScaledConstraint:
    k = getattr(args, "k", 0)
    if not allow_affine and k != 0:
        raise CliUsageError(
            f"'{args.command}' supports only k = 0 (no structure theory "
            "exists for the affine condition)"
        )
    if args.s < 1 or args.t < 1:
        raise CliUsageError(f"s and t must be positive, got ({args.s}, {args.t})")
    cons = normalize(args.s, args.t, k)  # raises for a non-coprime pair with k != 0
    if (cons.s, cons.t) != (args.s, args.t):
        print(
            f"notice: ({args.s},{args.t}) normalized to ({cons.s},{cons.t})",
            file=sys.stderr,
        )
    return cons


def _parse_composition(text: str) -> Composition:
    try:
        return Composition.from_string(text)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None


def cmd_count(args) -> int:
    cons = _resolve_constraint(args, allow_affine=True)
    method = args.method
    if method is None:
        method = "brute" if cons.k != 0 else "recurrence"
    elif cons.k != 0 and method != "brute":
        raise CliUsageError(
            f"--method {method} requires k = 0; only brute-force counting "
            "handles affine offsets"
        )
    value = sequence_range(cons, args.n, args.n, method)[0]
    sys.stdout.write(f"{value}\n")
    return 0


def cmd_enumerate(args) -> int:
    if args.congruence:
        cons = _resolve_constraint(args, allow_affine=False)
        stream = congruence_compositions(args.n, residue_system(cons))
    else:
        cons = _resolve_constraint(args, allow_affine=True)
        stream = arndt_compositions(args.n, cons)
    if args.format == "json":
        sys.stdout.write(json.dumps([list(c.parts) for c in stream]) + "\n")
    else:
        for c in stream:
            sys.stdout.write(f"{c}\n")
    return 0


def cmd_map(args) -> int:
    cons = _resolve_constraint(args, allow_affine=False)
    image = forward(_parse_composition(args.composition), cons)
    sys.stdout.write(f"{image}\n")
    return 0


def cmd_unmap(args) -> int:
    cons = _resolve_constraint(args, allow_affine=False)
    preimage = backward(_parse_composition(args.composition), cons)
    sys.stdout.write(f"{preimage}\n")
    return 0


def cmd_residues(args) -> int:
    cons = _resolve_constraint(args, allow_affine=False)
    rs = residue_system(cons)
    residues = ",".join(str(r) for r in rs.residues)
    sys.stdout.write(f"{residues} (mod {rs.modulus})\n")
    return 0


def _render_table(rows: list[list[str]], aligns: str) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.rjust(w) if a == "r" else cell.ljust(w)
            for cell, w, a in zip(row, widths, aligns)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _table_residues() -> str:
    rows = [["s\\t"] + [str(t) for t in _TABLE_GRID]]
    for s in _TABLE_GRID:
        row = [str(s)]
        for t in _TABLE_GRID:
            if gcd(s, t) > 1:
                row.append("-")
            else:
                rs = residue_system(ScaledConstraint(s, t))
                row.append(f"{','.join(map(str, rs.residues))} ({rs.modulus})")
        rows.append(row)
    return _render_table(rows, "l" * 6)


def _table_sequences() -> str:
    rows = [["a(s,t)"] + [str(n) for n in range(1, 11)]]
    for s, t in _TABLE_SEQUENCE_PAIRS:
        values = sequence_range(ScaledConstraint(s, t), 1, 10)
        rows.append([f"a({s},{t})"] + [str(v) for v in values])
    return _render_table(rows, "l" + "r" * 10)


def _table_bijection6() -> str:
    cons = ScaledConstraint(2, 3)
    originals = list(arndt_compositions(6, cons))
    rows = [
        ["arndt"] + [str(c) for c in originals],
        ["congruence"] + [str(forward(c, cons)) for c in originals],
    ]
    return _render_table(rows, "l" * (len(originals) + 1))


def cmd_table(args) -> int:
    renderers = {
        "residues": _table_residues,
        "sequences": _table_sequences,
        "bijection6": _table_bijection6,
    }
    sys.stdout.write(renderers[args.which]())
    return 0


def cmd_bfile(args) -> int:
    cons = _resolve_constraint(args, allow_affine=False)
    m = _RANGE_RE.fullmatch(args.range)
    if not m:
        raise CliUsageError(f"malformed range {args.range!r}; expected LO..HI")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise CliUsageError(f"empty range {args.range!r}")
    sys.stdout.write(export_bfile(cons, lo, hi, args.offset))
    return 0


def _add_constraint_args(sub: argparse.ArgumentParser, affine: bool) -> None:
    sub.add_argument("-s", type=int, required=True, help="left scale factor")
    sub.add_argument("-t", type=int, required=True, help="right scale factor")
    sub.add_argument(
        "-k",
        type=int,
        default=0,
        help="affine offset (default 0)" if affine else "must be 0 here",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arndt",
        description="Scaled Arndt compositions: counting, enumeration, and "
        "the bijection to congruence-restricted compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count admissible compositions of n")
    _add_constraint_args(p, affine=True)
    p.add_argument("-n", type=int, required=True, help="number being composed")
    p.add_argument(
        "--method",
        choices=["recurrence", "series", "brute"],
        default=None,
        help="counting method (default: recurrence, or brute when k != 0)",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list admissible compositions of n")
    _add_constraint_args(p, affine=True)
    p.add_argument("-n", type=int, required=True, help="number being composed")
    p.add_argument(
        "--congruence",
        action="store_true",
        help="list the congruence-restricted side instead",
    )
    p.add_argument("--format", choices=["lines", "json"], default="lines")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("map", help="apply the bijection to an Arndt composition")
    _add_constraint_args(p, affine=False)
    p.add_argument("-c", dest="composition", required=True, help="parts, e.g. 4,1,1")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("unmap", help="apply the inverse bijection")
    _add_constraint_args(p, affine=False)
    p.add_argument("-c", dest="composition", required=True, help="parts, e.g. 3,3")
    p.set_defaults(func=cmd_unmap)

    p = sub.add_parser("residues", help="print the admissible residue classes")
    _add_constraint_args(p, affine=False)
    p.set_defaults(func=cmd_residues)

    p = sub.add_parser("table", help="regenerate a reference table")
    p.add_argument("which", choices=["residues", "sequences", "bijection6"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bfile", help="export an OEIS-style b-file")
    _add_constraint_args(p, affine=False)
    p.add_argument("--range", required=True, metavar="LO..HI", help="index range")
    p.add_argument(
        "--offset", type=int, default=None, help="first output index (default LO)"
    )
    p.set_defaults(func=cmd_bfile)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Counts are exact at any length; print them past CPython's 4300-digit cap.
    if hasattr(sys, "set_int_max_str_digits"):  # cap and setter came in 3.10.7
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
