"""Exact computations in generalized Weyl algebras R(phi, t)."""

from .catalog import (
    FamilySpec,
    TheoremModuleSpec,
    build_family,
    build_theorem_module,
    family_fixed_subring,
    verify_family_facts,
)
from .core import (
    GwaElement,
    GwaPresentation,
    center_generators,
    format_element,
    gwa_mul,
    is_central,
    ykxl_collapse,
)
from .field import (
    FieldElement,
    FieldSpec,
    cyclotomic_field,
    element_order,
    format_scalar,
    multiplicative_order,
    prime_field,
    rational_functions,
    rationals,
    root_of_unity,
)
from .ideals import (
    PhiStableIdeal,
    classify_univariate,
    is_centrally_generated,
    is_phi_stable,
    membership,
    phi_stable_closure,
    phi_stable_ideal,
)
from .parser import parse_element, parse_ring_element, parse_scalar
from .ring import (
    Automorphism,
    BaseRing,
    RingElement,
    auto_order,
    auto_power,
    fixed_subring_generators,
)
from .whittaker import (
    WhittakerModule,
    ann_V_check,
    ann_w_generators,
    ann_w_member,
    build_module,
    endo_ring,
    is_simple,
    recover_annihilator,
    universal_act,
    universal_module,
    whittaker_vectors,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
