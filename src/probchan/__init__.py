"""Probability-vector representation of qubit states and channels."""

from .matcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hermitian_eigensystem,
    hermitian_eigvals,
    identity,
    kron,
    rk4_step,
    unitary_exp,
    unvec,
    vec,
)
from .stateprob import (
    DistributionSet,
    distribution_set,
    qubit_bloch_check,
    qubit_density_from_probs,
    qubit_probs_from_density,
    tomogram,
    ququart_density_from_probs,
    ququart_probs_from_density,
)
from .channelcore import (
    CptpReport,
    apply_channel_via_choi,
    apply_kraus,
    choi_from_kraus,
    choi_from_superop,
    kraus_from_choi,
    kraus_tp_defect,
    superop_from_choi,
    verify_cptp,
)
from .probchannel import (
    AffineConstants,
    build_constants,
    channel_constraint_residuals,
    check_channel_prob_constraints,
    choi_from_probs,
    identity_channel_probs,
    probs_from_choi,
)
from .kinetics import (
    Trajectory,
    build_generator,
    build_q,
    compare_to_oracle,
    evolve_probs,
    oracle_probs,
    validate_hamiltonian,
)

__version__ = "0.1.0"
