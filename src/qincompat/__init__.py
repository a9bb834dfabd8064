"""Robustness of incompatibility for channels, measurements, and
measurement-channel pairs, with dual witnesses and the discrimination games
they induce."""

from .linalg import (
    ContractError,
    DimensionError,
    embed_operator,
    hermitian_basis,
    kron,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    partial_trace,
    partial_transpose,
)
from .sdp import SdpProblem, SdpSolution, SolveOptions, SolverFailure, solve
from .qobjects import (
    ChoiMatrix,
    Instrument,
    JointChannel,
    Povm,
    PovmCollection,
    apply_channel,
    apply_channel_extended,
    basis_povm,
    choi_from_kraus,
    cloning_channel,
    constant_channel,
    depolarizing_channel,
    identity_channel,
    instrument_povm,
    instrument_total,
    lueders_instrument,
    marginal,
    max_entangled_state,
    object_from_json,
    pad_choi,
    projective_from_hermitian,
    qc_channel,
    random_channel,
    random_joint_channel,
    random_povm,
    random_state,
    random_unitary,
    unitary_channel,
)
from .compat import (
    CompatibilityVerdict,
    check_channels,
    check_measurements,
    check_pair,
)
from .robustness import (
    RobustnessReport,
    WitnessSet,
    identity_pair_closed_form,
    robustness_channels_dual,
    robustness_channels_primal,
    robustness_measurements,
    robustness_measurements_dual,
    robustness_pair_dual,
    robustness_pair_primal,
    verify_prop1,
    verify_prop2,
)
from .games import (
    DegenerateWitnessError,
    DiscriminationGame,
    Strategy,
    advantage_ratio,
    best_compatible_success,
    game_from_channel_witness,
    game_from_pair_witness,
    random_game,
    success_prob,
    unassisted_bound_check,
)

__version__ = "0.1.0"
