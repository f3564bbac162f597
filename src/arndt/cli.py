"""Command-line front end.

Subcommands: count, enumerate, map, unmap, residues, table, bfile.
Data goes to stdout (always ending in exactly one newline), diagnostics
to stderr.  Exit codes: 0 success, 1 domain error (e.g. a composition
outside the bijection's domain, brute-force ceiling exceeded), 2 usage
error (malformed arguments, k != 0 where only k = 0 is supported).
A stdout closed by its reader (as by ``| head -1``) exits 1 silently.
Usage errors come from the parser, before anything is normalized or
computed (``main`` raises ``SystemExit(2)``, as argparse does), so a
non-coprime pair with k != 0 exits 2 where the options take only k = 0,
as in ``count -s 4 -t 6 -k 1 -n 6 --method recurrence``, and 1 elsewhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from math import gcd

from .bijection import backward, forward
from .core import Composition, ScaledConstraint, normalize, residue_system
from .enumeration import _require_walkable, arndt_compositions, congruence_compositions
# export_bfile is unused here, but bench/worker.py's traced run patches
# arndt.cli.export_bfile, so the name stays importable from this module.
from .sequence import export_bfile, sequence_range, write_bfile  # noqa: F401

__all__ = ["main", "entry_point"]

# Grid shown by `table residues` and the rows of `table sequences`.
_TABLE_GRID = range(1, 6)
_TABLE_SEQUENCE_PAIRS = [(2, 3), (3, 2), (2, 5), (4, 3), (5, 2), (3, 5), (5, 3)]


def _positive(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}") from None
    raise argparse.ArgumentTypeError(f"must be positive, got {text}")


def _parts(text: str) -> Composition:
    try:
        return Composition.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not (sep and lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"range {text!r} is not LO..HI with LO <= HI")
    return int(lo), int(hi)


def cmd_count(args, cons: ScaledConstraint) -> None:
    method = args.method or ("brute" if cons.k != 0 else "recurrence")
    sys.stdout.write(f"{sequence_range(cons, args.n, args.n, method)[0]}\n")


def cmd_enumerate(args, cons: ScaledConstraint) -> None:
    if args.congruence:
        _require_walkable(args.n)  # before the residue system, which is O(s)
        stream = congruence_compositions(args.n, residue_system(cons))
    else:
        stream = arndt_compositions(args.n, cons)
    if args.format == "json":
        # The bytes of json.dumps(list), written as the stream runs: each chunk's
        # str (its JSON: it holds only lists of ints) without brackets, joined by ", ".
        sys.stdout.write("[")
        sep = ""
        while chunk := [list(c.parts) for c in islice(stream, 256)]:
            sys.stdout.write(sep + str(chunk)[1:-1])
            sep = ", "
        sys.stdout.write("]\n")
    else:
        sys.stdout.writelines(f"{c}\n" for c in stream)


def cmd_map(args, cons: ScaledConstraint) -> None:
    sys.stdout.write(f"{forward(args.composition, cons)}\n")


def cmd_unmap(args, cons: ScaledConstraint) -> None:
    sys.stdout.write(f"{backward(args.composition, cons)}\n")


def cmd_residues(args, cons: ScaledConstraint) -> None:
    rs = residue_system(cons)
    sys.stdout.write(f"{','.join(map(str, rs.residues))} (mod {rs.modulus})\n")


def _render_table(rows: list[list[str]], aligns: str) -> str:
    # aligns: one format-spec alignment, "<" or ">", per column.
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = []
    for row in rows:
        cells = (f"{cell:{a}{w}}" for cell, a, w in zip(row, aligns, widths))
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
    return _render_table(rows, "<" * 6)


def _table_sequences() -> str:
    rows = [["a(s,t)"] + [str(n) for n in range(1, 11)]]
    for s, t in _TABLE_SEQUENCE_PAIRS:
        values = sequence_range(ScaledConstraint(s, t), 1, 10)
        rows.append([f"a({s},{t})"] + [str(v) for v in values])
    return _render_table(rows, "<" + ">" * 10)


def _table_bijection6() -> str:
    cons = ScaledConstraint(2, 3)
    originals = list(arndt_compositions(6, cons))
    rows = [
        ["arndt"] + [str(c) for c in originals],
        ["congruence"] + [str(forward(c, cons)) for c in originals],
    ]
    return _render_table(rows, "<" * (len(originals) + 1))


_TABLES = {
    "residues": _table_residues,
    "sequences": _table_sequences,
    "bijection6": _table_bijection6,
}


def cmd_table(args, cons: None) -> None:
    sys.stdout.write(_TABLES[args.which]())


def cmd_bfile(args, cons: ScaledConstraint) -> None:
    write_bfile(sys.stdout, cons, *args.range, args.offset)


def _add_command(sub, name, func, help, affine=None) -> argparse.ArgumentParser:
    """Add subcommand ``name``, run by ``func``, with -s, -t and -k; k != 0 is
    allowed only where ``affine(args)`` holds for the other options given."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, affine=affine or (lambda args: False))
    p.add_argument("-s", type=_positive, required=True, help="left scale factor")
    p.add_argument("-t", type=_positive, required=True, help="right scale factor")
    k_help = "affine offset (default 0)" if affine else "must be 0 here"
    p.add_argument("-k", type=int, default=0, help=k_help)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arndt",
        description="Scaled Arndt compositions: counting, enumeration, and "
        "the bijection to congruence-restricted compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(
        sub, "count", cmd_count, "count admissible compositions of n",
        affine=lambda args: args.method in (None, "brute"),
    )
    p.add_argument("-n", type=int, required=True, help="number being composed")
    p.add_argument(
        "--method",
        choices=["recurrence", "series", "brute"],
        help="counting method (default: recurrence, or brute when k != 0)",
    )

    p = _add_command(
        sub, "enumerate", cmd_enumerate, "list admissible compositions of n",
        affine=lambda args: not args.congruence,
    )
    p.add_argument("-n", type=int, required=True, help="number being composed")
    p.add_argument(
        "--congruence",
        action="store_true",
        help="list the congruence-restricted side instead",
    )
    p.add_argument("--format", choices=["lines", "json"], default="lines")

    p = _add_command(sub, "map", cmd_map, "apply the bijection to an Arndt composition")
    p.add_argument(
        "-c", dest="composition", type=_parts, required=True, help="parts, e.g. 4,1,1"
    )

    p = _add_command(sub, "unmap", cmd_unmap, "apply the inverse bijection")
    p.add_argument(
        "-c", dest="composition", type=_parts, required=True, help="parts, e.g. 3,3"
    )

    _add_command(sub, "residues", cmd_residues, "print the admissible residue classes")

    p = sub.add_parser("table", help="regenerate a reference table")
    p.add_argument("which", choices=_TABLES)
    p.set_defaults(func=cmd_table)

    p = _add_command(sub, "bfile", cmd_bfile, "export an OEIS-style b-file")
    p.add_argument(
        "--range", type=_range, required=True, metavar="LO..HI", help="index range"
    )
    p.add_argument("--offset", type=int, help="first output index (default LO)")

    return parser


def main(argv: list[str] | None = None) -> int:
    # Print exact counts past CPython's 4300-digit cap, then restore the cap.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "k", 0) and not args.affine(args):
            parser.error(f"argument -k: these {args.command} options take only k = 0")
        cons = normalize(args.s, args.t, args.k) if "s" in args else None
        if cons is not None and (cons.s, cons.t) != (args.s, args.t):
            print(
                f"notice: ({args.s},{args.t}) normalized to ({cons.s},{cons.t})",
                file=sys.stderr,
            )
        args.func(args, cons)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def entry_point() -> None:
    # Only here: in-process callers of main own their stdout.
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe raises inside the try
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot raise too (the pattern of the signal docs' SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
