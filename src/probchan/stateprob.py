"""Probability parametrizations of qubit and ququart density matrices.

A qubit state is pinned by three spin-projection probabilities (z, x, y
measurement outcomes +1/2):

    rho = [[ p1,                (p2 - 1/2) - i(p3 - 1/2) ],
           [ (p2 - 1/2) + i(p3 - 1/2),            1 - p1 ]]

A ququart (two-qubit) state takes fifteen probabilities: p1..p3 fix the
diagonal through rho_11 = p1 + p2 + p3 - 2, rho_kk = 1 - p_{k-1}, and the
six independent off-diagonal entries come in (real, imaginary) pairs

    rho_rc = (p_re - 1/2) - i(p_im - 1/2),   r < c,

with the pairing given by OFFDIAG_PROB_PAIRS. The same fifteen numbers
regroup into one four-outcome distribution plus twelve dichotomic ones,
which is the physical reading of the parametrization.

build_constants writes this layout once, as the two exact affine maps
between P and vec(D) for D = 2 rho; the ququart conversions here and the
channel dictionary of probchannel both apply those maps.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_length,
    hermitian_eigvals,
    identity,
    require_hermitian,
    require_range,
    unvec,
    vec,
)

__all__ = [
    "N_PROBS",
    "OFFDIAG_PROB_PAIRS",
    "AffineConstants",
    "build_constants",
    "DistributionSet",
    "qubit_density_from_probs",
    "qubit_probs_from_density",
    "qubit_bloch_check",
    "tomogram",
    "ququart_density_from_probs",
    "ququart_probs_from_density",
    "distribution_set",
]

N_PROBS = 15
_DIM = 4

# (row, col, real-prob index, imaginary-prob index), everything 0-based.
# Row/col address the upper triangle of the 4 x 4 matrix; the probability
# indices address the 15-vector.
OFFDIAG_PROB_PAIRS = (
    (0, 1, 3, 4),
    (0, 2, 5, 6),
    (0, 3, 7, 8),
    (1, 2, 9, 10),
    (1, 3, 11, 12),
    (2, 3, 13, 14),
)


@dataclass(frozen=True)
class AffineConstants:
    """The two affine maps, packaged with their offsets. Arrays are read-only."""

    prob_matrix: np.ndarray
    prob_offset: np.ndarray
    choi_matrix: np.ndarray
    choi_offset: np.ndarray


@lru_cache(maxsize=1)
def build_constants() -> AffineConstants:
    """Construct the affine constants of the layout above and validate the exact identities.

    With D twice a ququart density matrix (the Choi matrix of a qubit
    channel), P = prob_matrix . vec(D) + prob_offset and
    vec(D) = choi_matrix . P + choi_offset. The probability side takes -1/2
    at the diagonal vec positions 5, 10, 15 (offset 1), and 1/4 at the
    paired off-diagonal positions (real part) or +-i/4 (imaginary part,
    offset 1/2). The inverse writes each vec(D) component back from at most
    three probabilities with entries in {2, -2, +-2i} and offsets
    {-4, 2, -1+-i}.

    Raises RuntimeError if the compatibility identities fail to hold
    exactly, which would mean the tables above were corrupted.
    """
    a = np.zeros((N_PROBS, _DIM * _DIM), dtype=complex)
    b = np.zeros(N_PROBS)
    bm = np.zeros((_DIM * _DIM, N_PROBS), dtype=complex)
    c_off = np.zeros(_DIM * _DIM, dtype=complex)
    bm[0, :3] = 2.0
    c_off[0] = -4.0
    for i, k in enumerate((1, 2, 3)):
        diag = k * _DIM + k
        a[i, diag] = -0.5
        b[i] = 1.0
        bm[diag, i] = -2.0
        c_off[diag] = 2.0
    for r, c, re_i, im_i in OFFDIAG_PROB_PAIRS:
        pair = [r * _DIM + c, c * _DIM + r]  # vec positions of the upper and lower entry
        a[re_i, pair] = 0.25
        a[im_i, pair] = 0.25j, -0.25j
        b[[re_i, im_i]] = 0.5
        bm[pair, re_i] = 2.0
        bm[pair, im_i] = -2.0j, 2.0j
        c_off[pair] = -1.0 + 1.0j, -1.0 - 1.0j

    if not np.array_equal(a @ bm, np.eye(N_PROBS, dtype=complex)):
        raise RuntimeError("affine constants corrupt: prob_matrix . choi_matrix != I exactly")
    if not np.array_equal(a @ c_off + b, np.zeros(N_PROBS, dtype=complex)):
        raise RuntimeError("affine constants corrupt: prob_matrix . choi_offset + prob_offset != 0 exactly")

    for arr in (a, b, bm, c_off):
        arr.setflags(write=False)
    return AffineConstants(prob_matrix=a, prob_offset=b, choi_matrix=bm, choi_offset=c_off)


def _affine(matrix: np.ndarray, offset: np.ndarray, x: np.ndarray) -> np.ndarray:
    # One fixed-shape product per element, so a stack equals its elements bit
    # for bit; a single product over the stack lets BLAS reorder the sums.
    return (x[..., None, :] @ matrix.T)[..., 0, :] + offset


def affine_probs(d: np.ndarray) -> np.ndarray:
    """prob_matrix . vec(D) + prob_offset for a (..., 4, 4) stack; complex, unchecked."""
    k = build_constants()
    return _affine(k.prob_matrix, k.prob_offset, vec(d))


def affine_choi(p: np.ndarray) -> np.ndarray:
    """unvec(choi_matrix . P + choi_offset) for a real (..., 15) stack; unchecked."""
    k = build_constants()
    return unvec(_affine(k.choi_matrix, k.choi_offset, p), _DIM)


def _as_probs(p, n: int) -> np.ndarray:
    return require_range(as_length(p, n))


def _require_density(rho, dim: int, tol: float) -> np.ndarray:
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got shape {arr.shape}")
    require_hermitian(arr, tol, "density matrix")
    trace_err = abs(arr.trace() - 1.0)
    if trace_err > tol:
        raise ValueError(f"density matrix trace deviates from 1 by {trace_err:.3e}")
    return arr


def qubit_density_from_probs(probs) -> np.ndarray:
    """Build the 2 x 2 density matrix from (p1, p2, p3).

    Components must lie in [0, 1]; no positivity check is made here, use
    qubit_bloch_check for that.
    """
    p1, p2, p3 = _as_probs(probs, 3).reshape(3)
    off = (p2 - 0.5) - 1j * (p3 - 0.5)
    return np.array([[p1, off], [np.conj(off), 1.0 - p1]], dtype=complex)


def qubit_probs_from_density(rho, tol: float = 1e-10) -> np.ndarray:
    """Read (p1, p2, p3) back off a Hermitian trace-1 matrix.

    Exact left inverse of qubit_density_from_probs.
    """
    arr = _require_density(rho, 2, tol)
    return np.array([arr[0, 0].real, 0.5 + arr[1, 0].real, 0.5 + arr[1, 0].imag])


def qubit_bloch_check(probs) -> tuple[bool, float]:
    """Test the Bloch-ball restriction on one qubit probability triple.

    Returns (valid, margin) where margin = sum((p_i - 1/2)^2); the triple
    describes a positive semidefinite state iff margin <= 1/4, checked with
    a 1e-12 slack.
    """
    margin = float(np.sum((as_length(probs, 3).reshape(3) - 0.5) ** 2))
    return margin <= 0.25 + 1e-12, margin


def tomogram(rho, direction, tol: float = 1e-10) -> float:
    """Probability of the +1/2 spin outcome along a unit direction.

    Args:
        rho: valid qubit density matrix (Hermitian, trace 1, positive
            semidefinite, all within tol).
        direction: real 3-vector of unit Euclidean norm (within 1e-12).
    """
    arr = _require_density(rho, 2, tol)
    min_eig = hermitian_eigvals(arr, tol)[0]
    if min_eig < -tol:
        raise ValueError(f"density matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"expected a 3-component direction, got shape {n.shape}")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, norm is {norm!r}")
    projector = 0.5 * (identity(2) + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)
    return float(np.trace(arr @ projector).real)


def ququart_density_from_probs(probs) -> np.ndarray:
    """Build the 4 x 4 density matrix from the 15-component probability vector, or one per row of a stack."""
    return affine_choi(_as_probs(probs, N_PROBS)) / 2.0


def ququart_probs_from_density(rho, tol: float = 1e-10) -> np.ndarray:
    """Read the 15 probabilities back off a Hermitian trace-1 matrix.

    Exact left inverse of ququart_density_from_probs.
    """
    return affine_probs(2.0 * _require_density(rho, _DIM, tol)).real.copy()


@dataclass(frozen=True)
class DistributionSet:
    """One four-outcome distribution plus twelve dichotomic (p, 1-p) rows."""

    main: np.ndarray
    dichotomics: np.ndarray


def distribution_set(probs) -> DistributionSet:
    """Regroup a ququart probability vector into its measurement distributions.

    main = (p1+p2+p3-2, 1-p1, 1-p2, 1-p3) is the four-outcome distribution
    of the diagonal; each remaining component p spawns the dichotomic pair
    (p, 1-p). Raises when p1+p2+p3 < 2, since the first outcome would go
    negative.
    """
    p = _as_probs(probs, N_PROBS).reshape(N_PROBS)
    head = p[0] + p[1] + p[2] - 2.0
    if head < -1e-12:
        raise ValueError(f"p1 + p2 + p3 = {p[0] + p[1] + p[2]!r} is below 2, first outcome would be negative")
    main = np.array([max(head, 0.0), 1.0 - p[0], 1.0 - p[1], 1.0 - p[2]])
    dichotomics = np.column_stack([p[3:], 1.0 - p[3:]])
    return DistributionSet(main=main, dichotomics=dichotomics)
