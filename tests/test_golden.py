"""Replay the golden CLI corpus, ``golden/cli.json``, in process.

Each case's exit code and the sha256 of its stdout and stderr must be those the
corpus recorded (``golden/generate.py`` says how it is made).  The corpus checks the
code against its own past, not against an independent result.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from arndt.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli.json"


def digest(text: str) -> str | None:
    return hashlib.sha256(text.encode()).hexdigest() if text else None


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on its own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextmanager
def replay():
    """``run``, which gives an argv's (exit code, stdout, stderr) from ``main``, under
    fixed conditions: CPython's default int-string limit, and 80 columns for
    argparse's usage lines."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with patch.dict(os.environ, COLUMNS="80"):
            yield run
    finally:
        sys.set_int_max_str_digits(limit)


def test_every_case_replays_as_recorded():
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) > 2000
    changed = []
    with replay():
        for key, entry in corpus.items():
            code, out, err = run(key.split(" "))
            if [code, digest(out), digest(err)] != entry:
                changed.append(key[:200])
    assert not changed, f"{len(changed)} of {len(corpus)} cases changed, first: {changed[:5]}"
