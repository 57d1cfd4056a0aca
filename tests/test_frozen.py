"""The immutable record base: value semantics, and an import that
generates no code."""

import os
import pathlib
import subprocess
import sys

import pytest

import idemlift as il
from idemlift.errors import ParameterError
from idemlift.frozen import Frozen

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# runs in a fresh interpreter: what importing the package loads and compiles
_IMPORT_PROBE = """
import sys
import numpy
before = "dataclasses" in sys.modules
compiled = []
sys.addaudithook(lambda event, args: compiled.append(str(args[1])) if event == "compile" else None)
import idemlift, idemlift.cli
print(before, "dataclasses" in sys.modules)
print("\\n".join(compiled))
"""


def _import_probe() -> tuple[bool, bool, list[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    flags, *compiled = proc.stdout.splitlines()
    before, after = (word == "True" for word in flags.split())
    return before, after, compiled


def test_import_leaves_dataclasses_out_and_compiles_only_the_sources() -> None:
    """Importing the package defines every record class without
    ``dataclasses``, so no generated method is compiled: the only code
    compiled is the package's own source files (none where their bytecode
    is cached)."""
    numpy_imports_it, imported, compiled = _import_probe()
    if numpy_imports_it:
        pytest.skip("numpy itself imports dataclasses")
    assert not imported
    package = SRC / "idemlift"
    assert all(pathlib.Path(name).parent == package for name in compiled), compiled


class _Pair(Frozen):
    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class _Sub(_Pair):
    __slots__ = ("c",)

    def __init__(self, a, b=0, c=0):
        super().__init__(a, b)
        object.__setattr__(self, "c", c)


def test_fields_follow_declaration_order_base_first() -> None:
    assert _Pair._fields == ("a", "b")
    assert _Sub._fields == ("a", "b", "c")
    assert il.ContourData._fields == ("polygon", "eps", "branch", "cut", "sheet", "label")
    assert repr(_Sub(1, "x", [2])) == "_Sub(a=1, b='x', c=[2])"


def test_equality_and_hash_are_over_the_field_tuple() -> None:
    assert _Pair(1, 2) == _Pair(1, 2) and hash(_Pair(1, 2)) == hash((1, 2))
    assert _Pair(1, 2) != _Pair(2, 1)
    assert _Pair(1, 2) != (1, 2)
    # a subclass is another kind, even where the shared fields agree
    assert _Pair(1, 2) != _Sub(1, 2, 0) and _Sub(1, 2, 0) != _Pair(1, 2)
    nan = float("nan")
    pt = _Pair(nan)
    assert pt == pt and _Pair(nan) == _Pair(nan)  # the one NaN object, as in a tuple
    assert _Pair(float("nan")) != _Pair(float("nan"))
    with pytest.raises(TypeError, match="unhashable"):
        hash(_Pair([1]))


def test_replace_builds_through_init() -> None:
    p = _Sub(1, 2, 3)
    q = p.replace(b=5)
    assert type(q) is _Sub and q == _Sub(1, 5, 3) and p == _Sub(1, 2, 3)
    with pytest.raises(TypeError, match="no field 'd'"):
        p.replace(d=1)


def test_contour_replace_validates_again() -> None:
    cd = il.ContourData(il.circle_polygon(0j, 1.0), eps=0.1, branch="cut", cut=il.PolygonalArc(-1))
    flipped = cd.replace(sheet=-1)
    assert flipped.sheet == -1 and flipped.replace(sheet=1) == cd
    with pytest.raises(ParameterError, match="sheet"):
        cd.replace(sheet=2)
    with pytest.raises(ParameterError, match="cut branch needs the cut ray"):
        cd.replace(cut=None)
    with pytest.raises(AttributeError, match="cannot assign to field 'sheet'"):
        cd.sheet = -1
    assert cd.sheet == 1
