"""Reverse-free word and permutation codes.

Construction of large reverse-free codes from projective-plane matchings,
padding and residue-class lifts; verification of the reverse-free and
full-of-flips properties by independent algorithms; exact optima at small
scale; S-pattern (2x2 all-ones) counting with its analytic lower bound;
permanents; and a traced, invariant-checked shrinking procedure for
reverse-free codes.
"""

from .bitmatrix import (
    BinaryMatrix,
    SCountReport,
    contains,
    count_s,
    permanent,
    regular_permanent_lower_bound,
    s_bound_premise_ok,
    s_lower_bound,
)
from .construct import (
    BoundsReport,
    SampleResult,
    bound_table,
    largest_plane_order,
    lift_code,
    lift_size,
    pad_code,
    plane_permutation_code,
    sample_plane_permutations,
)
from .errors import CapacityError, InvariantError, PreconditionError
from .exact import (
    ConflictGraph,
    build_conflict_graph,
    max_full_of_flips,
    max_reverse_free,
    naive_subset_oracle,
)
from .galois import GF, factor_prime_power, field_make, is_prime
from .plane import (
    AxiomCheck,
    PlaneReport,
    ProjectivePlane,
    incidence_matrix,
    plane_build,
    plane_from_json_dict,
    plane_to_json_dict,
    plane_verify,
)
from .shrink import (
    ShrinkState,
    ShrinkStep,
    ShrinkTrace,
    avoided_pairs,
    light_entries,
    run_shrink,
)
from .words import (
    Code,
    code_from_json_dict,
    code_to_json_dict,
    find_reverse,
    overall_matrix,
    verify_full_of_flips,
    verify_reverse_free,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomCheck",
    "BinaryMatrix",
    "BoundsReport",
    "CapacityError",
    "Code",
    "ConflictGraph",
    "GF",
    "InvariantError",
    "PlaneReport",
    "PreconditionError",
    "ProjectivePlane",
    "SCountReport",
    "SampleResult",
    "ShrinkState",
    "ShrinkStep",
    "ShrinkTrace",
    "avoided_pairs",
    "bound_table",
    "build_conflict_graph",
    "code_from_json_dict",
    "code_to_json_dict",
    "contains",
    "count_s",
    "factor_prime_power",
    "field_make",
    "find_reverse",
    "incidence_matrix",
    "is_prime",
    "largest_plane_order",
    "lift_code",
    "lift_size",
    "light_entries",
    "max_full_of_flips",
    "max_reverse_free",
    "naive_subset_oracle",
    "overall_matrix",
    "pad_code",
    "permanent",
    "plane_build",
    "plane_from_json_dict",
    "plane_permutation_code",
    "plane_to_json_dict",
    "plane_verify",
    "regular_permanent_lower_bound",
    "run_shrink",
    "s_bound_premise_ok",
    "s_lower_bound",
    "sample_plane_permutations",
    "verify_full_of_flips",
    "verify_reverse_free",
]
