"""coherlab: coherence measures, classified Kraus channels and two-party
protocols for distributed scenarios, on a dense numpy kernel."""

from .channels import (
    ChannelClass,
    InstrumentOutcome,
    KrausChannel,
    LocalProtocol,
    ProductKrausChannel,
    ProtocolRound,
    classify,
    complete_incoherent_kraus,
    dephasing_channel,
    identity_channel,
    is_incoherent_operator,
    random_incoherent_channel,
    random_licc_protocol,
    random_sqi_channel,
)
from .exceptions import CoherlabError
from .linalg import (
    DensityMatrix,
    PureState,
    apply_local,
    eig_hermitian,
    partial_trace,
    permute_subsystems,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from .measures import (
    Bipartition,
    MeasureReport,
    basis_dependent_discord,
    binary_entropy,
    c_r,
    coherence_of_assistance,
    continuity_bound,
    dephase,
    mutual_information,
    qi_relative_entropy,
    qi_relative_entropy_oracle,
)
from .protocols import (
    MergingWitnessResult,
    ProtocolResult,
    SteeringWitness,
    ancilla_reduce,
    assisted_distill_mc,
    assisted_distill_pure,
    discriminate_domino,
    domino_discrimination_channel,
    extend_with_ancillas,
    find_steering_measurement,
    incoherent_teleport,
    merging_witness,
    sqi_to_si_reduce,
)
from .states import (
    DominoFamily,
    bell_states,
    domino_states,
    fourier_mc_basis,
    ket,
    maximally_coherent,
    maximally_correlated,
    merging_state,
    random_density,
    random_pure,
    random_qi_state,
    random_unitary,
)

__version__ = "0.1.0"
