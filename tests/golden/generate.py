"""Regenerate ``cli.json``, the golden corpus of ``arndt`` command lines.

Run by hand from the repository root::

    PYTHONPATH=src python tests/golden/generate.py

Each case is an argv, keyed by its words joined with single spaces.  Its entry is
[exit code, sha256 of stdout, sha256 of stderr], each digest null for an empty stream,
from ``arndt.cli.main`` run in process under ``test_golden.replay``'s fixed
conditions; ``tests/test_golden.py`` replays every case.  The corpus records what
the code printed when it was generated, so it is no oracle: a change that alters an
output on purpose regenerates the file and names each changed key.
"""

import json
import sys
from math import gcd
from pathlib import Path

OUT = Path(__file__).with_name("cli.json")

# Every coprime pair with s + t <= 8.
PAIRS = [(s, t) for s in range(1, 8) for t in range(1, 9 - s) if gcd(s, t) == 1]
# count reaches both ends of the index range: a negative total, the brute-force
# ceiling's first refusal, and the first index past sys.maxsize.
COUNT_N = [-1, *range(15), 27, sys.maxsize + 1]
ENUMERATE_N = [-1, 0, 1, 7, 14, 27]
COUNT_VARIANTS = [["--method", "recurrence"], ["--method", "series"], ["--method", "brute"],
                  ["-k", "1"]]


def compositions(n):
    """Every composition of n, from its cut set: the inputs of map and unmap."""
    for mask in range(1 << (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
        yield ",".join(str(b - a) for a, b in zip([0, *cuts], [*cuts, n]))


def cases():
    argvs = []
    for s, t in PAIRS:
        st = ["-s", str(s), "-t", str(t)]
        argvs += [["count", *st, "-n", str(n), *v] for v in COUNT_VARIANTS for n in COUNT_N]
        argvs += [["count", *st, "-n", "10"]]
        for n in ENUMERATE_N:
            for side in ([], ["--congruence"], ["-k", "1"]):
                argvs += [["enumerate", *st, "-n", str(n), *side]]
            argvs += [["enumerate", *st, "-n", str(n), "--format", "json"],
                      ["enumerate", *st, "-n", str(n), "--congruence", "--format", "json"]]
        for parts in compositions(4):
            argvs += [["map", *st, "-c", parts], ["unmap", *st, "-c", parts]]
        argvs += [["residues", *st], ["residues", "-s", str(2 * s), "-t", str(2 * t)],
                  ["bfile", *st, "--range", "0..2000"],
                  ["bfile", *st, "--range", "5..40", "--offset", "1"]]
    argvs += [["table", which] for which in ("residues", "sequences", "bijection6")]
    argvs += [
        # backward's scans: the comparison mask (anchors of 256 and more) and a part
        # outside the system; map's pair check on a long part.
        ["unmap", "-s", "1", "-t", "300", "-c", "1,1,302,1"],
        ["unmap", "-s", "1", "-t", "254", "-c", "256,256"],
        ["unmap", "-s", "2", "-t", "3", "-c", "1,1,302,1"],
        ["map", "-s", "300", "-t", "1", "-c", "301,300,7"],
        ["residues", "-s", "1000001", "-t", "1"],
        ["residues", "-s", "3", "-t", "1000000000000000000000"],
        ["bfile", "-s", "2", "-t", "3", "--range", "3..3", "--offset", "-5"],
        # Past CPython's default int-string limit of 4300 digits, in output (the modulus of
        # residues, map's anchor, unmap's a = 10**4300), in a message (a part outside a
        # residue system of s + t = 10**4300) and in b-file indices.
        ["residues", "-s", "1", "-t", "9" * 4300],
        ["map", "-s", "2", "-t", "1", "-c", f"{5 * 10**4299},{10**4300 - 1}"],
        ["unmap", "-s", "1", "-t", str(10**4300 - 3), "-c", f"1,1,{10**4300 - 1}"],
        ["unmap", "-s", "1", "-t", "9" * 4300, "-c", "2"],
        ["bfile", "-s", "1", "-t", "1", "--range", "0..100", "--offset", str(10**4300 - 70)],
        # Usage errors.
        ["count", "-s", "2", "-t", "3"],
        ["count", "-s", "0", "-t", "3", "-n", "5"],
        ["count", "-s", "x", "-t", "3", "-n", "5"],
        ["count", "-s", "2", "-t", "3", "-n", "1.5"],
        ["count", "-s", "2", "-t", "3", "-k", "1", "-n", "5", "--method", "recurrence"],
        ["count", "-s", "4", "-t", "6", "-k", "1", "-n", "5", "--method", "series"],
        ["count", "-s", "1", "-t", "1", "-n", "9" * 4301],
        ["enumerate", "-s", "2", "-t", "3", "-k", "1", "-n", "5", "--congruence"],
        ["map", "-s", "2", "-t", "3", "-c", "4,,1"],
        ["map", "-s", "2", "-t", "3", "-k", "1", "-c", "4,1"],
        ["unmap", "-s", "2", "-t", "3", "-c", "0,3"],
        ["residues", "-s", "2", "-t", "3", "-k", "1"],
        ["bfile", "-s", "2", "-t", "3", "--range", "5..2"],
        ["bfile", "-s", "2", "-t", "3", "--range", "1-3"],
    ]
    return argvs


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from test_golden import digest, replay

    corpus = {}
    with replay() as run:
        for argv in cases():
            code, out, err = run(argv)
            corpus[" ".join(argv)] = [code, digest(out), digest(err)]
    OUT.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in corpus.items()
    ) + "\n}\n")
    print(f"{len(corpus)} cases written to {OUT}")
