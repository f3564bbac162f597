"""The independent oracles stay independent of the library they check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ORACLES = [ROOT / "tests" / "_reference.py", ROOT / "bench" / "oracle.py"]


def imported_modules(path: Path) -> set[str]:
    """The absolute names that a file imports: each module, and each name taken from
    one, with relative imports resolved against the flat package ``arndt``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"arndt.{base}".rstrip(".")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracle_imports_nothing_from_arndt(path):
    modules = imported_modules(path)
    assert modules  # the parse saw the file's imports
    assert not [m for m in modules if m == "arndt" or m.startswith("arndt.")]


@pytest.mark.parametrize(
    "module,other", [("sequence", "enumeration"), ("enumeration", "sequence")]
)
def test_the_engine_and_the_walks_import_nothing_of_each_other(module, other):
    # Brute force checks the recurrence, so neither module may lean on the other.
    names = imported_modules(ROOT / "src" / "arndt" / f"{module}.py")
    assert "arndt.core" in names  # the parse saw the relative imports
    assert not [n for n in names if n == f"arndt.{other}" or n.startswith(f"arndt.{other}.")]
