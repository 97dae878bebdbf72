"""Roots of unit tangent bundles of closed hyperbolic 2-orbifolds.

Decides for which orders r a connected fibrewise r-fold covering (an r-spin
structure) exists, solves the covering's Seifert data exactly, enumerates
the roots as tuples in Z_r^{2g}, canonicalises them under the Dehn-twist
action of the diffeomorphism group with replayable witness words, counts
orbits both by brute force and in closed form, and assembles the resulting
component/sheet census of the moduli space of taut contact circles.

``partition_orbits`` and ``orbit_of`` act by the unit twists and take no
``generators`` argument.
"""

from .errors import (
    CountOverflow,
    InadmissibleOrder,
    MixedOrbit,
    NotHyperbolic,
    NotSL2Quotient,
    OddOrder,
    OrbispinError,
)
from .moduli import BASE_NOTE, ModuliReport, moduli_report
from .orbifold import (
    OrbifoldSignature,
    admissible_root_orders,
    assert_hyperbolic,
    chi_orb,
    divisors,
    is_hyperbolic,
    multiplicity_product_chi,
    root_order_admissible,
)
from .orbits import (
    OrbitPartition,
    OrbitRecord,
    genus_one_orbit_size,
    orbit_count_closed_form,
    orbit_of,
    partition_orbits,
    standard_generators,
)
from .presentation import (
    MODE_ORBIFOLD,
    MODE_ROOT,
    MODE_UNIT_TANGENT,
    Presentation,
    root_group_presentation,
)
from .roots import DEFAULT_STATE_CAP, RootTuple, determined_values, enumerate_roots
from .seifert import (
    RootContext,
    SeifertInvariants,
    recognize_fibre_index,
    solve_raymond_vasquez,
    unit_tangent_bundle,
)
from .twists import (
    StandardForm,
    TwistGenerator,
    TwistWord,
    a_invariant,
    apply_generator,
    apply_word,
    canonical_form,
    reduce_with_witness,
    w_value,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_NOTE",
    "CountOverflow",
    "DEFAULT_STATE_CAP",
    "InadmissibleOrder",
    "MODE_ORBIFOLD",
    "MODE_ROOT",
    "MODE_UNIT_TANGENT",
    "MixedOrbit",
    "ModuliReport",
    "NotHyperbolic",
    "NotSL2Quotient",
    "OddOrder",
    "OrbifoldSignature",
    "OrbitPartition",
    "OrbitRecord",
    "OrbispinError",
    "Presentation",
    "RootContext",
    "RootTuple",
    "SeifertInvariants",
    "StandardForm",
    "TwistGenerator",
    "TwistWord",
    "a_invariant",
    "admissible_root_orders",
    "apply_generator",
    "apply_word",
    "assert_hyperbolic",
    "canonical_form",
    "chi_orb",
    "determined_values",
    "divisors",
    "enumerate_roots",
    "genus_one_orbit_size",
    "is_hyperbolic",
    "moduli_report",
    "multiplicity_product_chi",
    "orbit_count_closed_form",
    "orbit_of",
    "partition_orbits",
    "recognize_fibre_index",
    "reduce_with_witness",
    "root_group_presentation",
    "root_order_admissible",
    "solve_raymond_vasquez",
    "standard_generators",
    "unit_tangent_bundle",
    "w_value",
]
