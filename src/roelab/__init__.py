"""Desk-scale toolkit for band operators on finite coarse metric spaces:
threshold truncations, ghost detection, ideal membership, localization
witnesses, empirical limit operators, and expander counterexample pipelines.
"""

from .space import (
    CoarseSpace,
    GraphSpace,
    GridSpace,
    PartialTranslation,
    SpaceError,
    build_graph_space,
    build_grid_space,
    decompose_entourage,
    entourage,
    neighbourhood,
    space_from_descriptor,
)
from .operator import (
    BandOperator,
    NormConvergenceError,
    OperatorError,
    dense_norm,
    norm_bracket,
    operator_norm,
    operator_norm_bracket,
    power_iteration_norm,
    schur_norm_bound,
)
from .ideals import (
    DEFAULT_EPS_GRID,
    IdealError,
    IdealFamily,
    MembershipCertificate,
    block_lower_bound,
    default_k_cap,
    finite_sets_family,
    geometric_distance,
    ghostly_membership,
    ideal_membership,
    spatial_ideal,
)
from .witness import (
    Kernel,
    LocalizationReport,
    WitnessError,
    WitnessFunction,
    averaging_witness_grid,
    check_partition_witness,
    check_positive_type,
    kernel_from_witness,
    localization_constant,
    resistance_check,
)
from .limitop import (
    DirectionError,
    DirectionSequence,
    NoEmpiricalLimit,
    build_disjoint_translates,
    cross_validate_ghostly,
    empirical_limit_operator,
    sparsity_certificate,
    translate_intersection,
    vanishing_in_direction,
)
from .expander import (
    ColumnSpace,
    ExpanderError,
    ExpanderFamily,
    RegularGraph,
    build_column_space,
    chebyshev_band_approx,
    constant_projection,
    expander_column_space,
    random_regular_expander,
    resistance_blocks,
    second_eigenvalue,
)

__version__ = "0.1.0"
