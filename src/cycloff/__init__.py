"""Exact construction and verification of torsion function fields with a
quadratic modulus, together with their Kummer models, place counts, zeta
data, and automorphism groups."""

from .autgroup import (
    Aut,
    GroupTable,
    act_on_place,
    closure,
    galois_aut,
    group_report,
    make_epsilon,
    make_mu,
    make_omega,
    make_rho,
    orbits,
    quotient_is_pgl23,
    stabilizer,
)
from .carlitz import (
    CarlitzPoly,
    CycModel,
    Modulus,
    UnitClass,
    carlitz_of,
    galois_map,
    iter_irreducible_moduli,
)
from .errors import CycloffError
from .gf import FieldCtx, FieldElem, create_field, embed, field_from_order
from .kummer import (
    KummerAlgebra,
    KummerCurve,
    kummer_normalize,
    recognize_cyclotomic,
    roundtrip_certificate,
    verify_prop31,
)
from .places import (
    Divisor,
    Generic,
    RamFinite,
    RamInfinity,
    RamQuadratic,
    count_degree_one,
    divisor,
    genus_formula,
    lspace_check,
    ramified_places,
    valuation,
    zeta,
)
from .polyalg import INFINITY, Poly, RatFunc, format_poly, parse_poly

__version__ = "0.1.0"
