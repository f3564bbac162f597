"""Value semantics shared by the library's seven types: repr, equality and
hash by fields, immutability, keyword construction, match patterns,
validation, pickle and copy; and what importing the package loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from arndt.bijection import ArndtPair, OnesBlock
from arndt.core import Composition, ResidueSystem, ScaledConstraint
from arndt.sequence import RationalGF, SeriesExpansion

SC = ScaledConstraint(2, 3)

# One instance of each type, with its exact repr.
VALUES = [
    (Composition((4, 1, 1)), "Composition(parts=(4, 1, 1))"),
    (SC, "ScaledConstraint(s=2, t=3, k=0)"),
    (ScaledConstraint(1, 1, -2), "ScaledConstraint(s=1, t=1, k=-2)"),
    (ResidueSystem(5, (1, 3)), "ResidueSystem(modulus=5, residues=(1, 3))"),
    (ArndtPair(4, 1), "ArndtPair(a=4, b=1)"),
    (OnesBlock(3), "OnesBlock(ones=3, anchor=None)"),
    (OnesBlock(0, 6), "OnesBlock(ones=0, anchor=6)"),
    (
        RationalGF(SC, (1, 0, 0, 0, 0, -1), (1, -1, 0, -1, 0, -1)),
        "RationalGF(constraint=ScaledConstraint(s=2, t=3, k=0), "
        "numerator=(1, 0, 0, 0, 0, -1), denominator=(1, -1, 0, -1, 0, -1))",
    ),
    (
        SeriesExpansion(SC, (1, 1, 1, 2)),
        "SeriesExpansion(constraint=ScaledConstraint(s=2, t=3, k=0), "
        "coefficients=(1, 1, 1, 2))",
    ),
]
IDS = [text.partition("(")[0] for _, text in VALUES]

# Each type's field names, in order.
FIELDS = {
    Composition: ("parts",),
    ScaledConstraint: ("s", "t", "k"),
    ResidueSystem: ("modulus", "residues"),
    ArndtPair: ("a", "b"),
    OnesBlock: ("ones", "anchor"),
    RationalGF: ("constraint", "numerator", "denominator"),
    SeriesExpansion: ("constraint", "coefficients"),
}


def fields_of(x):
    return {name: getattr(x, name) for name in FIELDS[type(x)]}


@pytest.mark.parametrize("x,text", VALUES, ids=IDS)
class TestValueSemantics:
    def test_repr(self, x, text):
        assert repr(x) == text

    def test_equality_and_hash_by_fields(self, x, text):
        twin = type(x)(**fields_of(x))
        assert twin is not x
        assert twin == x and not twin != x
        assert hash(twin) == hash(x)
        assert len({x, twin}) == 1

    def test_not_equal_to_its_fields_as_a_tuple(self, x, text):
        assert x != tuple(fields_of(x).values())

    def test_no_ordering(self, x, text):
        with pytest.raises(TypeError):
            x < x  # noqa: B015

    def test_fields_cannot_be_assigned_or_deleted(self, x, text):
        name = FIELDS[type(x)][0]
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = 1
        assert getattr(x, name) == before

    def test_positional_match_pattern(self, x, text):
        assert type(x).__match_args__ == FIELDS[type(x)]
        match x:
            case Composition(parts):
                assert parts == x.parts
            case ScaledConstraint(s, t, k):
                assert (s, t, k) == (x.s, x.t, x.k)
            case ResidueSystem(modulus, residues):
                assert (modulus, residues) == (x.modulus, x.residues)
            case ArndtPair(a, b):
                assert (a, b) == (x.a, x.b)
            case OnesBlock(ones, anchor):
                assert (ones, anchor) == (x.ones, x.anchor)
            case RationalGF(cons, num, den):
                assert (cons, num, den) == (x.constraint, x.numerator, x.denominator)
            case SeriesExpansion(cons, coefficients):
                assert (cons, coefficients) == (x.constraint, x.coefficients)
            case _:
                pytest.fail(f"no pattern matched {x!r}")

    def test_pickle_round_trip(self, x, text):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            y = pickle.loads(pickle.dumps(x, protocol))
            assert y == x and type(y) is type(x)

    def test_copy_round_trips(self, x, text):
        assert copy.copy(x) == x
        assert copy.deepcopy(x) == x


def test_equality_needs_the_same_type():
    assert ScaledConstraint(2, 3) != (2, 3, 0)
    assert ArndtPair(1, 2) != OnesBlock(1, 2)
    assert Composition((1, 2)) != (1, 2)


def test_keyword_construction_and_defaults():
    assert ScaledConstraint(s=2, t=3).k == 0
    assert ScaledConstraint(s=2, t=3) == ScaledConstraint(2, 3, 0)
    assert OnesBlock(3).anchor is None
    assert OnesBlock(ones=0, anchor=6) == OnesBlock(0, 6)
    assert Composition(parts=[2, 1]).parts == (2, 1)
    assert ResidueSystem(modulus=5, residues=[1, 3]).residues == (1, 3)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Composition((3, 0)), r"parts must be positive integers: \(3, 0\)"),
        (lambda: ScaledConstraint(0, 3), r"s and t must be positive, got \(0, 3\)"),
        (lambda: ScaledConstraint(4, 6), r"\(4, 6\) is not coprime; reduce it with normal"),
        (lambda: ResidueSystem(5, (1, 2)), r"residues\[r\] must be 1 \+ r\*5//s, 0 <= r < s"),
        (lambda: ArndtPair(0, 1), "first part of a pair must be positive, got 0"),
        (lambda: ArndtPair(3, -1), "second part of a pair must be >= 0, got -1"),
        (lambda: OnesBlock(-1, 6), "run length must be >= 0, got -1"),
        (lambda: OnesBlock(0), "a trailing block without anchor must be nonempty"),
        (lambda: OnesBlock(2, 1), "anchors are parts >= 2, got 1"),
        (lambda: RationalGF(SC, (1,), (2,)), "denominator constant term must be 1"),
        (lambda: RationalGF(SC, (0,), (1,)), "numerator constant term must be 1"),
        (lambda: SeriesExpansion(SC, ()), r"series must start with .* a\(0\) = 1"),
        # Fields of exact type int only: a float or bool equal to a valid int is refused.
        (lambda: ArndtPair(2.5, 1), r"a and b must be ints, got \(2\.5, 1\)"),
        (lambda: ArndtPair(1, True), r"a and b must be ints, got \(1, True\)"),
        (lambda: OnesBlock(1.5), r"ones and anchor must be ints: \(1\.5,\)"),
        (lambda: OnesBlock(True, 3), r"ones and anchor must be ints: \(True, 3\)"),
        (lambda: OnesBlock(0, 3.0), r"ones and anchor must be ints: \(0, 3\.0\)"),
        (lambda: ResidueSystem(5.0, (1, 3)), r"modulus and residues must be ints, got \(5\.0,"),
        (lambda: ResidueSystem(5, (True, 3)), r"modulus and residues must be ints, got \(5, True"),
        (lambda: RationalGF(SC, (1, 0.5), (1, -1)), r"coefficients must be ints, got \(1, 0\.5,"),
        (lambda: RationalGF(SC, (True,), (1,)), r"coefficients must be ints, got \(True, 1\)"),
    ],
)
def test_constructors_validate(make, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        make()


def test_constructors_refuse_numpy_ints():
    np = pytest.importorskip("numpy")
    one = np.int64(1)
    for make in (
        lambda: ArndtPair(one, 1),
        lambda: OnesBlock(one),
        lambda: OnesBlock(1, np.int64(3)),
        lambda: ResidueSystem(np.int64(5), (1, 3)),
        lambda: ResidueSystem(5, (one, 3)),
        lambda: RationalGF(SC, (one,), (1,)),
    ):
        with pytest.raises(ValueError, match="must be ints"):
            make()


def test_loading_a_pickle_validates_its_fields():
    # An instance forged past the constructor's checks pickles as its
    # fields, and loading them runs the checks.
    forged = object.__new__(ScaledConstraint)
    for name, value in zip(("s", "t", "k"), (4, 6, 0)):
        object.__setattr__(forged, name, value)
    payload = pickle.dumps(forged)
    with pytest.raises(ValueError, match=r"\(4, 6\) is not coprime"):
        pickle.loads(payload)


def new_modules(statement: str) -> set[str]:
    """The modules that ``statement`` adds to ``sys.modules`` in a fresh
    interpreter (no ``site``, so only the library's own imports count)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"import sys; old = set(sys.modules); {statement}; print(*set(sys.modules) - old)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "statement,unwanted",
    [
        ("import arndt", {"dataclasses", "inspect", "ast", "dis", "json", "typing", "re"}),
        # argparse imports re itself, so only typing is the library's to avoid.
        ("import arndt.cli", {"dataclasses", "inspect", "json", "typing"}),
        # enumerate --format json writes JSON text without the json module.
        pytest.param(
            "import io; from arndt.cli import main; sys.stdout = io.StringIO(); "
            "code = main(['enumerate', '-s', '2', '-t', '3', '-n', '6', '--format', 'json']); "
            "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__; "
            "assert (code, out) == (0, '[[2, 1, 2, 1], [2, 1, 3], [3, 1, 2], [4, 1, 1], "
            "[4, 2], [5, 1], [6]]\\n'), out",
            {"dataclasses", "inspect", "json", "typing"},
            id="enumerate-format-json",
        ),
    ],
)
def test_import_loads_no_heavy_modules(statement, unwanted):
    added = new_modules(statement)
    assert "arndt" in added
    assert added & unwanted == set()
