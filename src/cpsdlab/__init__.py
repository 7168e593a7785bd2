"""Constructions, factorizations and certified bounds for matrices of the
form X_ij = Tr(P_i P_j) with Hermitian psd factors."""

from .matcore import (
    HermMatrix,
    SpectralReport,
    direct_sum,
    gram,
    gram_vectors,
    kron,
    real_embed,
    spectral,
    trace_inner,
    trace_pairings,
)
from .clifford import gamma, gammas
from .lorentz import (
    GramLorentzFactorization,
    gl2_factorize,
    gl_matrix,
    gl_reduce,
    gl_to_cpsd,
    in_cone,
    lorentz_embed,
    lorentz_embeds,
)
from .cpsdrank import (
    BoundReport,
    CpsdFactorization,
    VerifyReport,
    add,
    analytic_lower_bound,
    bound_report,
    compress,
    conjugate,
    dsum,
    hadamard_sqrt_psd,
    permute,
    rank_lower_bound,
    rank_one_factors,
    scale,
    scaled_analytic_bound,
    verify_factorization,
)
from .bell import (
    Behavior,
    CorrelationMatrix,
    FullCorrelation,
    behavior_from_correlation,
    behavior_matrix,
    behavior_matrix_factorization,
    behavior_to_full,
    dq_lower_bound,
    elliptope_extreme_construct,
    elliptope_extreme_test,
    elliptope_member,
    exponential_family,
    exponential_family_vectors,
    full_to_behavior,
    gl_behavior_factorization,
    no_signaling_check,
    r_max,
    validate_affine_section,
)
from .quantum import (
    QuantumRepresentation,
    entangled_trace_identity,
    full_correlation_of,
    max_entangled,
    povm_pair,
    representation_from_vectors,
    simulate_behavior,
)
from .separations import (
    Graph,
    NotCpCertificate,
    NotVnaCertificate,
    check_not_cp,
    check_not_vna,
    cycle_pairing,
    cycle_vectors,
    is_cpsd_graph,
    odd_cycle_dnn,
    odd_cycle_index_sets,
    support_bound_witness,
    support_graph,
)
from .errors import CapExceeded, VerificationError

__all__ = [name for name in dir() if not name.startswith("_")]
