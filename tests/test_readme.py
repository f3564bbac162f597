"""The README's CLI and library examples, run as written: every `arndt` line
exits 0, and every comment that shows an output or a repr is that output."""

import ast
import re
from pathlib import Path

from arndt.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str) -> list[str]:
    """The lines of the first fenced code block under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].splitlines()[1:]


def test_cli_examples(capsys):
    checked = []
    for line in fenced_block("CLI"):
        code, _, comment = (part.strip() for part in line.partition("#"))
        program, *args = code.split()
        assert program == "arndt", line
        # One run per alternative of an "a|b|c" argument.
        choices = [arg.split("|") for arg in args]
        runs = [[]]
        for options in choices:
            runs = [argv + [option] for argv in runs for option in options]
        for argv in runs:
            assert main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert out.endswith("\n"), argv
            # A comment made of parts, or residues "(mod m)", is the exact output.
            if re.fullmatch(r"[\d,]+( \(mod \d+\))?", comment):
                assert out == comment + "\n", argv
                checked.append(comment)
    assert checked == ["7", "1,1,3,1", "2,1,2,1", "1,2,4 (mod 5)"]


def test_library_examples(capsys):
    lines = fenced_block("Library")
    namespace, checked = {}, []
    for node in ast.parse("\n".join(lines)).body:
        comment = lines[node.lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        # A comment that parses as a Python expression is the repr of the line's value.
        try:
            ast.parse(comment, mode="eval")
        except SyntaxError:
            continue
        assert repr(value) == comment, lines[node.lineno - 1]
        checked.append(comment)
    assert capsys.readouterr().out == "1 1\n2 1\n3 2\n"  # write_bfile's line
    assert len(checked) == 4
