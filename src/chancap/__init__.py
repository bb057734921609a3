"""Numerical workbench for a glued identity/dephasing-complement channel
family, its capacities and bounds, and a classical wiretap analogue."""

__version__ = "0.1.0"

from .channels import (
    ChoiState,
    DensityMatrix,
    Isometry,
    KrausChannel,
    PureState,
    apply,
    apply_with_reference,
    channel_N,
    choi,
    comparison_channel_T,
    complement_N,
    complementary_dephasing,
    dephasing_channel,
    erasure_channel,
    isometry_N,
)
from .capacity import (
    FIG3,
    FIG4,
    CapacityCurvePoint,
    Curve,
    SequenceItem,
    SweepTable,
    coherent_info_lower_bound,
    coherent_information,
    coherent_information_state,
    complement_two_way_capacity,
    continuity_upper_bound,
    custom_curve,
    degrading_map,
    diamond_distance_to_T,
    er_bound_complement,
    erasure_capacities,
    maximize_coherent_information,
    one_way_capacity,
    alternating_bounds_sequence,
    simulate_two_way_protocol,
    sweep,
    two_way_capacity,
    verify_degradable,
)
from .errors import (
    ChancapError,
    DimensionTooLarge,
    DomainError,
    NonHermitian,
    NotADistribution,
    NotAState,
    PreconditionViolated,
    ShapeMismatch,
)
from .qmath import (
    binary_entropies,
    binary_entropy,
    hermitian_eig,
    partial_trace,
    shannon_entropy,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from .wiretap import (
    FIG6,
    WiretapChannel,
    build_wiretap,
    mutual_information,
    one_way_secrecy_capacity,
    secrecy_capacity_bruteforce,
    simulate_feedback_protocol,
    two_way_secrecy_capacity,
    verify_degraded,
)
