"""The independent oracles stay independent of the library they check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ORACLES = [ROOT / "tests" / "_reference.py", ROOT / "bench" / "oracle.py"]


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracle_imports_nothing_from_arndt(path):
    modules = imported_modules(path)
    assert modules  # the parse saw the file's imports
    assert not [m for m in modules if m == "arndt" or m.startswith("arndt.")]
