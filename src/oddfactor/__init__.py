"""Spectral thresholds, extremal constructions, and exact deciders for
odd [1,b]-factors in regular graphs."""

from .graphs import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    MalformedEdgeError,
    MalformedHeaderError,
    SelfLoopError,
    VertexRangeError,
    complement,
    complete_graph,
    components,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    edge_boundary,
    empty_graph,
    induced_subgraph,
    join,
    matching_complement,
    odd_component_count,
    parse_edge_list,
    serialize_edge_list,
    to_dot,
)
from .spectral import (
    Spectrum,
    adjacency_matrix,
    eigenvalues_sym,
    is_equitable,
    lambda_k,
    quotient_eigs_2x2,
    quotient_matrix,
    sym_matrix,
    validate_partition,
)
from .thresholds import (
    DegenerateConstructionError,
    ThresholdParams,
    build_extremal,
    extremal_partition,
    lwy_threshold,
    prior_1factor_thresholds,
    threshold_params,
)
from .factor import (
    AmahashiViolation,
    CertificateCheck,
    FactorCertificate,
    check_amahashi,
    find_odd_factor,
    small_boundary_components,
    verify_certificate,
)
from .verify import (
    Case2Report,
    CampaignSummary,
    SharpnessReport,
    SweepRow,
    TheoremViolation,
    TrialReport,
    bound_sweep,
    case2_polynomial_check,
    random_regular,
    randomized_theorem_campaign,
    sharpness_check,
    sweep_to_csv,
    theorem_check,
)

__version__ = "0.1.0"
