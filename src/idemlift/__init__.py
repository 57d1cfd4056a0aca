"""idemlift: lifting idempotent families through Banach-algebra homomorphisms.

A public name is imported from its layer when it is first asked for, so
``from idemlift import riesz_projection`` loads the algebra, contours
and funcalc layers but not families, lifting, report or scenarios.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# each layer and the public names it gives the package
_EXPORTS = {
    "algebra": (
        "BanachAlgebra",
        "BlockTriangularAlgebra",
        "ConvolutionAlgebra",
        "DualAlgebra",
        "Element",
        "MatrixAlgebra",
        "ProductAlgebra",
        "SpectrumReport",
        "UnitizationAlgebra",
        "WienerAlgebra",
        "alg_exp",
    ),
    "contours": (
        "JordanPolygon",
        "PolygonalArc",
        "build_escape_arc",
        "build_gamma_pair",
        "circle_polygon",
        "square_polygon",
    ),
    "families": (
        "ElementFamily",
        "HomFamily",
        "Section",
        "constant_family",
        "exp_conjugation_family",
        "hom_apply",
        "kernel_residual",
        "make_section",
        "symmetrize",
    ),
    "funcalc": (
        "ContourData",
        "QuadratureAudit",
        "contour_apply",
        "riesz_projection",
        "spectral_component_apply",
        "sqrt_cut",
        "sqrt_near_one",
    ),
    "lifting": (
        "LiftPoint",
        "LiftTrace",
        "choose_sign",
        "lift_family",
        "lift_local",
        "lift_local_sa",
        "lift_ortho_step",
        "lift_trivial",
    ),
    "report": ("build_report", "report_passed", "write_csv", "write_json"),
    "scenarios": (
        "Scenario",
        "build_block_testbed",
        "build_dual_testbed",
        "build_example1",
        "build_example2",
        "build_example3",
        "build_scenario",
        "list_scenarios",
        "remark3_probe",
        "run_verification",
    ),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_LAYER, "errors", "__version__"]


def __getattr__(name: str):
    """The public ``name`` as its layer binds it now (not cached here, so
    a name rebound in its layer reads the same through the package)."""
    if name not in _LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAYER[name]}", __name__), name)
