"""Exact engine for noncommutative deformation hulls, O^A(M), and aSpec."""

from .fields import GF, QQ, field_from_name
from .algebra import Algebra, from_structure_constants
from .quiver import QuiverPresentation, from_quiver
from .polyquot import from_poly_quotient
from .modules import (
    ModuleRep,
    SpectralPoint,
    action_of,
    contraction,
    hom_A,
    is_simple,
    simple_modules,
)
from .ext import ExtSpace, Resolution, cup_product, ext
from .hull import (
    ExtData,
    HullTower,
    MatricOHat,
    OAlgebra,
    RPointedAlgebra,
    closure_check,
    hull,
    invert_unit,
    massey_step,
    maximal_ideals,
    o_algebra,
)
from .polyring import PointModule, PolynomialRing, hull_poly_ring
from .topology import (
    ASpecSpace,
    aspec_morphism,
    compare_with_spec,
    global_sections_roundtrip,
    space_of_simples,
    spec_compare,
)

__all__ = [
    "GF", "QQ", "field_from_name",
    "Algebra", "from_structure_constants",
    "QuiverPresentation", "from_quiver", "from_poly_quotient",
    "ModuleRep", "SpectralPoint", "action_of", "contraction", "hom_A",
    "is_simple", "simple_modules",
    "ExtSpace", "Resolution", "cup_product", "ext",
    "ExtData", "HullTower", "MatricOHat", "OAlgebra", "RPointedAlgebra",
    "closure_check", "hull", "invert_unit", "massey_step",
    "maximal_ideals", "o_algebra",
    "PointModule", "PolynomialRing", "hull_poly_ring",
    "ASpecSpace", "aspec_morphism", "compare_with_spec",
    "global_sections_roundtrip", "space_of_simples", "spec_compare",
]
