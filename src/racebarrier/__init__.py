"""Prime-race barriers from hypothetical zero configurations.

Constructs zero configurations off the critical line that force one of the
six orderings of three prime-counting functions pi(x; q, a_i) to fail for
large x, certifies the combinatorial side conditions, and simulates the
explicit-formula main terms to verify the excluded ordering numerically.
"""

from .barrier_search import (
    Barrier,
    BarrierParams,
    ConstructionError,
    GshBarrier,
    EqualSumSet,
    RaceTriple,
    SpacingCharacter,
    ZeroSpec,
    barrier_from_dict,
    barrier_to_dict,
    construction_gsh,
    construction_one,
    construction_three,
    construction_two,
    find_barrier,
    find_equal_sum_set,
    find_order7_character,
    find_spacing_character,
    solve_lambda_system,
    verify_crossing_inequality,
)
from .characters import (
    DirichletCharacter,
    RationalAngle,
    character_group,
    character_pair_constraint,
    nonprincipal_characters,
    principal_character,
)
from .goodness import GoodnessCertificate, is_good, spacing_ok, witness_for
from .race_simulator import (
    MainTermConfig,
    RaceProfile,
    envelope_min,
    gsh_simulate,
    simulate,
    v_lambda,
    write_profile,
)
from .residue_group import (
    UnitGroupStructure,
    dlog_vector,
    mod_div,
    multiplicative_order,
    unit_group_structure,
)

__version__ = "0.1.0"

__all__ = [
    "Barrier",
    "BarrierParams",
    "ConstructionError",
    "DirichletCharacter",
    "GoodnessCertificate",
    "GshBarrier",
    "EqualSumSet",
    "MainTermConfig",
    "RaceProfile",
    "RaceTriple",
    "RationalAngle",
    "SpacingCharacter",
    "UnitGroupStructure",
    "ZeroSpec",
    "barrier_from_dict",
    "barrier_to_dict",
    "character_group",
    "character_pair_constraint",
    "construction_gsh",
    "construction_one",
    "construction_three",
    "construction_two",
    "dlog_vector",
    "envelope_min",
    "find_barrier",
    "find_equal_sum_set",
    "find_order7_character",
    "find_spacing_character",
    "gsh_simulate",
    "is_good",
    "mod_div",
    "multiplicative_order",
    "nonprincipal_characters",
    "principal_character",
    "simulate",
    "solve_lambda_system",
    "spacing_ok",
    "unit_group_structure",
    "v_lambda",
    "verify_crossing_inequality",
    "witness_for",
    "write_profile",
]
