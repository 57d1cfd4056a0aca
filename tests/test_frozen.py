"""The immutable record base: one constructor, value semantics, and an
import that generates no code."""

import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import idemlift as il
from idemlift.algebra import _WienerPayload
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
for name in compiled:  # one line each, and no line where nothing was compiled
    print(name)
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
    _defaults = {"b": 0}


class _Sub(_Pair):
    __slots__ = ("c",)
    _defaults = {"c": 0}


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


# Every record class of the package, with the constructor parameters its
# callers rely on (``name=default`` where there is a default).
_SIGNATURES = {
    "BanachAlgebra": "",
    "_ArrayAlgebra": "",
    "SpectrumReport": "points, exact",
    "MatrixAlgebra": "n",
    "DualAlgebra": "base",
    "BlockTriangularAlgebra": "k, m",
    "ConvolutionAlgebra": "n_grid",
    "WienerAlgebra": "base, degree",
    "UnitizationAlgebra": "base",
    "ProductAlgebra": "factors",
    "PolygonalArc": "ray_direction",
    "JordanPolygon": "vertices",
    "ElementFamily": "algebra, evaluator, radius=inf",
    "HomFamily": "source, target, evaluator, embed=None, radius=inf, star_on_real=False, label=''",
    "Section": "pi, target, evaluator, radius=inf, label=''",
    "ContourData": "polygon, eps, branch='none', cut=None, sheet=1, label=''",
    "QuadratureAudit": "nodes, delta, refinements",
    "LiftPoint": "lam, valid, defects=None, elements=None, allowances=None",
    "LiftTrace": "points, audits, contours=(), eps0=None, label=''",
    "Scenario": (
        "id, pi, grid, theorem_paths, expected='lift-succeeds', local_section=None, "
        "trivial_targets=(), family_sections=(), probes=(), oracle_family=None"
    ),
}


def _record_classes() -> dict[str, type]:
    for module in pkgutil.iter_modules(il.__path__):
        if module.name != "__main__":
            importlib.import_module(f"idemlift.{module.name}")
    found, todo = {}, [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("idemlift."):
                found[cls.__name__] = cls
    return found


def _field_values(name: str) -> tuple:
    """A value for every field of the record class ``name``."""
    m2 = il.MatrixAlgebra(2)
    ident = lambda lam, x: x  # noqa: E731
    target = il.ElementFamily(m2, lambda lam: m2.one())
    point = il.LiftPoint(0.1, True, {"idem": 1e-16}, {}, {"idem": 0.0})
    probe = il.build_scenario("remark3-probe")  # no theorem path, so valid with no section
    return {
        "BanachAlgebra": (),
        "_ArrayAlgebra": (),
        "SpectrumReport": ((0j, 1 + 0j), True),
        "MatrixAlgebra": (3,),
        "DualAlgebra": (m2,),
        "BlockTriangularAlgebra": (1, 2),
        "ConvolutionAlgebra": (4,),
        "WienerAlgebra": (m2, 3),
        "UnitizationAlgebra": (il.ConvolutionAlgebra(4),),
        "ProductAlgebra": ((m2, il.MatrixAlgebra(3)),),
        "PolygonalArc": (-1 + 0j,),
        "JordanPolygon": ((0j, 1 + 0j, 1j),),
        "ElementFamily": (m2, target.evaluator, 2.0),
        "HomFamily": (m2, m2, ident, ident, 2.0, True, "pi"),
        "Section": (il.HomFamily(m2, m2, ident), target, target.evaluator, 2.0, "s"),
        "ContourData": (il.circle_polygon(0j, 1.0), 0.1, "cut", il.PolygonalArc(-1), -1, "c"),
        "QuadratureAudit": (16, 1e-15, 1),
        "LiftPoint": (0.1, True, {"idem": 1e-16}, {}, {"idem": 0.0}),
        "LiftTrace": ((point,), (il.QuadratureAudit(16, 1e-15, 1),), (), 0.25, "t"),
        "Scenario": tuple(getattr(probe, field) for field in probe._fields),
    }[name]


def test_every_record_class_is_in_the_contract_table() -> None:
    """A new record class joins ``_SIGNATURES``; the series payload, whose
    array field has no value equality, is not a record."""
    assert sorted(_record_classes()) == sorted(_SIGNATURES)


@pytest.mark.parametrize("name", sorted(_SIGNATURES))
def test_record_signature_is_the_fields_in_order_with_their_defaults(name: str) -> None:
    cls = _record_classes()[name]
    params = list(inspect.signature(cls).parameters.values())
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    shown = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params)
    assert shown == _SIGNATURES[name]
    assert tuple(p.name for p in params) == cls._fields


def test_a_callable_record_keeps_the_signature_of_its_call() -> None:
    m2 = il.MatrixAlgebra(2)
    family = il.ElementFamily(m2, lambda lam: m2.one())
    assert list(inspect.signature(family).parameters) == ["lam"]
    assert list(inspect.signature(il.ElementFamily).parameters) == ["algebra", "evaluator", "radius"]


@pytest.mark.parametrize("name", sorted(_SIGNATURES))
def test_record_contract(name: str) -> None:
    """One constructor for every record: built alike from positional and
    keyword fields, each default declared once, and Python's own TypeError
    for a call that does not bind."""
    cls = _record_classes()[name]
    assert "__init__" not in vars(cls)
    params = list(inspect.signature(cls).parameters.values())
    values = _field_values(name)
    record = cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    required = sum(p.default is p.empty for p in params)
    assert cls(*values[:required]) == cls(*values[:required], *(p.default for p in params[required:]))

    calls = [((*values, 0), {}), (values, {"no_such_field": 0})]  # too many; unknown keyword
    if required:  # a missing field; the first field both positionally and by keyword
        calls += [(values[: required - 1], {}), (values[:1], {cls._fields[0]: values[0]})]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    for default in ([], {}, set()):
        with pytest.raises(TypeError, match="mutable"):
            type("Bad", (cls,), {"__slots__": ("extra",), "_defaults": {"extra": default}})


def test_a_field_given_twice_is_refused_not_ignored() -> None:
    """A fast path that counted only the positional arguments would take
    ``MatrixAlgebra(3, n=3)``, whose one positional fills the one field."""
    with pytest.raises(TypeError, match="multiple values for argument 'n'"):
        il.MatrixAlgebra(3, n=3)
    with pytest.raises(TypeError, match="missing a required argument: 'm'"):
        il.BlockTriangularAlgebra(1)
    with pytest.raises(TypeError, match="has no field 'extra' to give a default"):
        type("Bad", (_Pair,), {"__slots__": (), "_defaults": {"extra": 0}})


def test_post_init_normalises_the_fields() -> None:
    assert il.LiftPoint(0.0, False).defects == {} and il.LiftPoint(0.0, False).allowances == {}
    assert il.LiftPoint(0.0, False).defects is not il.LiftPoint(0.0, False).defects
    m2 = il.MatrixAlgebra(2)
    product = il.ProductAlgebra(iter([m2, m2]))
    assert product.factors == (m2, m2) and product == il.ProductAlgebra([m2, m2])


def test_series_payload_is_immutable_but_not_a_record() -> None:
    payload = _WienerPayload(np.zeros((2, 3)), 0.0)
    assert not isinstance(payload, Frozen)
    with pytest.raises(AttributeError, match="immutable"):
        payload.tail = 1.0
    with pytest.raises(AttributeError, match="immutable"):
        del payload.coeffs
    assert payload.tail == 0.0 and payload.coeffs.shape == (2, 3)
