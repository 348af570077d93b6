"""Affine bridge between qubit-channel Choi matrices and probability vectors.

Half the Choi matrix of a trace-preserving qubit channel is a ququart
density matrix, so the fifteen state probabilities of stateprob describe
the channel completely. Both directions are affine in exact arithmetic:

    P      = prob_matrix . vec(D) + prob_offset        (15 x 16 map)
    vec(D) = choi_matrix . P      + choi_offset        (16 x 15 map)

Every nonzero constant is a quarter-integer or +-2, +-2i, -4, so the
compatibility identities

    prob_matrix . choi_matrix = I_15
    prob_matrix . choi_offset + prob_offset = 0

hold exactly in floating point, as the tests check. Trace preservation of
the channel is equivalent to three scalar constraints on the probabilities:

    p1 + p3 = 3/2,    p4 + p14 = 1,    p5 + p15 = 1   (1-based).
"""

import numpy as np

from .matcore import _non_finite, as_length, as_square, identity, vec
from .stateprob import N_PROBS, AffineConstants, affine_choi, affine_probs, build_constants

__all__ = [
    "probs_from_choi",
    "choi_from_probs",
    "channel_constraint_residuals",
    "check_channel_prob_constraints",
    "identity_channel_probs",
]


def probs_from_choi(choi) -> np.ndarray:
    """Probability vector of a 4 x 4 dynamical matrix, or one per matrix of a (..., 4, 4) stack.

    The affine image is complex in general; its imaginary part must vanish
    within imag_tol = 1e-9 (it does exactly for Hermitian input), otherwise
    ValueError, and a non-finite entry makes it NaN. The real part is
    returned unclipped.
    """
    imag_tol = 1e-9
    raw = affine_probs(as_square(choi, "Choi matrix", 4))
    residue = np.maximum.reduce(np.abs(raw.imag), axis=None, initial=0.0)
    if not residue <= imag_tol:
        text = f"imaginary residue {residue:.3e} exceeds {imag_tol:.3e}; input is far from Hermitian"
        raise ValueError(text) if residue > imag_tol else _non_finite("Choi matrix")
    return raw.real.copy()


def choi_from_probs(probs) -> np.ndarray:
    """Dynamical matrix from any real 15-vector, or one per row of a (..., 15) stack.

    Defined for every real input (Hermitian output by construction);
    components need not lie in [0, 1], which lets callers reconstruct from
    slightly out-of-range numerical data.
    """
    return affine_choi(as_length(probs, N_PROBS))


def channel_constraint_residuals(probs) -> np.ndarray:
    """Absolute residuals of the three trace-preservation constraints, per row of a stack."""
    p = as_length(probs, N_PROBS)
    return np.abs(p[..., [0, 3, 4]] + p[..., [2, 13, 14]] - [1.5, 1.0, 1.0])


def check_channel_prob_constraints(probs, tol: float = 1e-9) -> tuple[bool | np.ndarray, np.ndarray]:
    """Whether a probability vector, or each row of a (..., 15) stack, describes a trace-preserving channel.

    Returns (ok, residuals); ok means every residual of the vector is at most tol, a Python bool for one
    vector and a bool array over the leading axes of a stack.
    """
    residuals = channel_constraint_residuals(probs)
    ok = np.logical_and.reduce(residuals <= tol, axis=-1)
    return (ok if residuals.ndim > 1 else bool(ok)), residuals


def identity_channel_probs() -> np.ndarray:
    """Probability vector of the identity channel, D = vec(I) vec(I)^dagger: p1 = p2 = p8 = 1, rest 1/2."""
    v = vec(identity(2))
    return probs_from_choi(np.outer(v, v.conj()))
