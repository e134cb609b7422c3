"""Exact workbench for pattern avoidance in d-dimensional 0-1 matrices.

Sparse tensors with two containment orders (ordinary submatrix and interval
minor), checked extremal constructions, branch-and-bound extremal values with
a verified record cache, and probability-threshold tooling.
"""

from .containment import (
    GridWitness,
    contains_interval_minor,
    contains_pattern,
    extend_to_partition,
    find_embedding,
    has_interval_minor,
    verify_witness,
)
from .construct import (
    CornerReduction,
    blowup_avoider,
    corner_reduce,
    identity_permutation,
    random_permutation,
    scale_avoider,
)
from .errors import (
    BudgetExceededError,
    PatternforgeError,
    PreconditionError,
    RangeError,
    StructureError,
    TensorParseError,
    VerificationError,
)
from .extremal import (
    ExtremalRecord,
    RatioPoint,
    SearchConfig,
    append_record,
    load_records,
    max_ones_avoiding,
    max_ones_avoiding_minor,
    ratio_sequence,
    records_path,
)
from .probability import (
    ChainReport,
    EllReport,
    EstimateReport,
    avoid_probability,
    ell_from_k,
    probability_chain,
    ratio_lower_bound,
    side_threshold,
)
from .tensor import (
    PermutationTensor,
    TensorMatrix,
    all_ones,
    antidiagonal,
    contract,
    corner_ones,
    cross_section,
    kronecker,
    parse_tensor,
    serialize_tensor,
    tensor_from_json,
    tensor_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ChainReport",
    "CornerReduction",
    "EllReport",
    "EstimateReport",
    "ExtremalRecord",
    "GridWitness",
    "PatternforgeError",
    "PermutationTensor",
    "PreconditionError",
    "RangeError",
    "RatioPoint",
    "SearchConfig",
    "StructureError",
    "TensorMatrix",
    "TensorParseError",
    "VerificationError",
    "all_ones",
    "antidiagonal",
    "append_record",
    "avoid_probability",
    "blowup_avoider",
    "contains_interval_minor",
    "contains_pattern",
    "contract",
    "corner_ones",
    "corner_reduce",
    "cross_section",
    "ell_from_k",
    "extend_to_partition",
    "find_embedding",
    "has_interval_minor",
    "identity_permutation",
    "kronecker",
    "load_records",
    "max_ones_avoiding",
    "max_ones_avoiding_minor",
    "parse_tensor",
    "probability_chain",
    "random_permutation",
    "ratio_lower_bound",
    "ratio_sequence",
    "records_path",
    "scale_avoider",
    "serialize_tensor",
    "side_threshold",
    "tensor_from_json",
    "tensor_to_json",
    "verify_witness",
]
