"""Probability parametrizations of qudit density matrices: one layout rule for every dimension.

An n x n density matrix rho is fixed by n*n - 1 coin (dichotomic)
probabilities. The diagonal takes p_{k-1} = 1 - rho_kk for k >= 1 and
rho_00 = p_0 + ... + p_{n-2} - (n - 2); the off-diagonal entries come in
(real, imaginary) pairs, in row-major order over the upper triangle,

    rho_rc = (p_re - 1/2) - i(p_im - 1/2),   r < c.

The qubit is the n = 2 case, three spin-up probabilities along z, x, y:

    rho = [[ p1,                (p2 - 1/2) - i(p3 - 1/2) ],
           [ (p2 - 1/2) + i(p3 - 1/2),            1 - p1 ]]

The ququart is the n = 4 case, whose fifteen numbers regroup into one
four-outcome distribution plus twelve dichotomic ones; OFFDIAG_PROB_PAIRS
is its pairing. build_constants(n) writes the rule as the two exact affine
maps between P and vec(D) for D = 2 rho, which the conversions here and
the channel dictionary of probchannel apply. Conventions follow Wood,
Biamonte and Cory, arXiv:1111.6950.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .matcore import _eigh, _non_finite, as_length, as_square, require_hermitian, require_range

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
_DENSITY_TOL = 1e-10  # Hermiticity, trace and (tomogram) positivity gate of every density matrix read here


def _offdiag_pairs(n: int) -> tuple:
    """(row, col, real-prob index, imaginary-prob index), 0-based, for r < c after the n - 1 diagonal probabilities."""
    upper = [(r, c) for r in range(n) for c in range(r + 1, n)]
    return tuple((r, c, n - 1 + 2 * k, n + 2 * k) for k, (r, c) in enumerate(upper))


OFFDIAG_PROB_PAIRS = _offdiag_pairs(_DIM)


@dataclass(frozen=True)
class AffineConstants:
    """The two affine maps, packaged with their offsets. Arrays are read-only."""

    prob_matrix: np.ndarray
    prob_offset: np.ndarray
    choi_matrix: np.ndarray
    choi_offset: np.ndarray


@lru_cache(maxsize=None)
def build_constants(n: int = _DIM) -> AffineConstants:
    """The affine constants of the layout rule for n x n matrices, cached per n.

    With D = 2 rho (for n = 4, the Choi matrix of a qubit channel),
    P = prob_matrix . vec(D) + prob_offset and vec(D) = choi_matrix . P + choi_offset.
    The probability side has entries -1/2, 1/4 and +-i/4 with offsets 1 and
    1/2; the inverse has 2, -2 and +-2i with offsets -2(n - 2), 2 and -1+-i.
    All are exact in binary, so the compatibility identities hold exactly.

    Raises ValueError for n < 2.
    """
    if n < 2:
        raise ValueError(f"layout dimension must be at least 2, got {n!r}")
    size = n * n
    a = np.zeros((size - 1, size), dtype=complex)
    b = np.zeros(size - 1)
    bm = np.zeros((size, size - 1), dtype=complex)
    c_off = np.zeros(size, dtype=complex)
    bm[0, : n - 1] = 2.0
    c_off[0] = 2.0 * (2 - n)
    for k in range(1, n):
        diag = k * n + k
        a[k - 1, diag] = -0.5
        b[k - 1] = 1.0
        bm[diag, k - 1] = -2.0
        c_off[diag] = 2.0
    for r, c, re_i, im_i in _offdiag_pairs(n):
        pair = [r * n + c, c * n + r]  # vec positions of the upper and lower entry
        a[re_i, pair] = 0.25
        a[im_i, pair] = 0.25j, -0.25j
        b[[re_i, im_i]] = 0.5
        bm[pair, re_i] = 2.0
        bm[pair, im_i] = -2.0j, 2.0j
        c_off[pair] = -1.0 + 1.0j, -1.0 - 1.0j

    for arr in (a, b, bm, c_off):
        arr.setflags(write=False)
    return AffineConstants(prob_matrix=a, prob_offset=b, choi_matrix=bm, choi_offset=c_off)


def _affine(matrix: np.ndarray, offset: np.ndarray, x: np.ndarray) -> np.ndarray:
    # One fixed-shape product per element, so a stack equals its elements bit
    # for bit; a single product over the stack lets BLAS reorder the sums.
    return (x[..., None, :] @ matrix.T)[..., 0, :] + offset


def affine_probs(d: np.ndarray) -> np.ndarray:
    """prob_matrix . vec(D) + prob_offset for a (..., n, n) stack, n from the last axis; complex, unchecked."""
    k = build_constants(d.shape[-1])
    return _affine(k.prob_matrix, k.prob_offset, d.reshape(d.shape[:-2] + (-1,)))


def affine_choi(p: np.ndarray) -> np.ndarray:
    """choi_matrix . P + choi_offset as row-major n x n matrices, for a real (..., n*n - 1) stack; unchecked."""
    n = isqrt(p.shape[-1] + 1)
    k = build_constants(n)
    return _affine(k.choi_matrix, k.choi_offset, p).reshape(p.shape[:-1] + (n, n))


def _require_density(rho, dim: int):
    """(rho, its Hermitian part function) once rho is dim x dim and Hermitian with trace 1 within _DENSITY_TOL."""
    arr = as_square(rho, "density matrix", dim, one=True)
    part = require_hermitian(arr, _DENSITY_TOL, "density matrix")
    trace_err = abs(arr.trace() - 1.0)
    if not trace_err <= _DENSITY_TOL:  # entries that overflow the trace give inf, worded as require_hermitian does
        text = f"density matrix trace deviates from 1 by {trace_err:.3e}"
        raise ValueError(text) if trace_err < np.inf else _non_finite("density matrix")
    return arr, part


def qubit_density_from_probs(probs) -> np.ndarray:
    """Build the 2 x 2 density matrix from (p1, p2, p3), or one per row of a (..., 3) stack.

    Components must lie in [0, 1]; no positivity check is made here, use
    qubit_bloch_check for that.
    """
    return affine_choi(require_range(as_length(probs, 3))) / 2.0


def qubit_probs_from_density(rho) -> np.ndarray:
    """Read (p1, p2, p3) back off a 2 x 2 matrix, Hermitian with trace 1 within 1e-10; p1 = 1 - rho_11.

    Left inverse of qubit_density_from_probs; p1 = 1 - (1 - p1) can round in
    its last bit when p1 < 1/2. Positivity is not checked.
    """
    return affine_probs(2.0 * _require_density(rho, 2)[0]).real.copy()


def qubit_bloch_check(probs) -> tuple[bool, float]:
    """Test the Bloch-ball restriction on one qubit probability triple.

    Returns (valid, margin) where margin = sum((p_i - 1/2)^2); the triple
    describes a positive semidefinite state iff margin <= 1/4, checked with
    a 1e-12 slack.
    """
    p = as_length(probs, 3, one=True)
    margin = float(np.add.reduce((p - 0.5) ** 2))
    return margin <= 0.25 + 1e-12, margin


def tomogram(rho, direction) -> float:
    """Probability of the +1/2 spin outcome along a unit direction n, 1/2 + n . (q - 1/2), read off the coins.

    q is the qubit's spin-up probabilities along x, y and z, the layout's p2, p3 and p1.

    Args:
        rho: valid qubit density matrix (Hermitian, trace 1, positive
            semidefinite, all within 1e-10).
        direction: real 3-vector of unit Euclidean norm (within 1e-12).
    """
    arr, part = _require_density(rho, 2)
    min_eig = _eigh(part, "density matrix")[0]
    if min_eig < -_DENSITY_TOL:
        raise ValueError(f"density matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")
    n = as_length(direction, 3, "direction components", one=True)
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"direction must be a unit vector, norm is {norm!r}")
    return float(0.5 + n @ (affine_probs(2.0 * arr).real[[1, 2, 0]] - 0.5))


def ququart_density_from_probs(probs) -> np.ndarray:
    """Build the 4 x 4 density matrix from the 15-component probability vector, or one per row of a stack."""
    return affine_choi(require_range(as_length(probs, N_PROBS))) / 2.0


def ququart_probs_from_density(rho) -> np.ndarray:
    """Read the 15 probabilities back off a 4 x 4 matrix, Hermitian with trace 1 within 1e-10.

    Left inverse of ququart_density_from_probs; p1..p3 = 1 - rho_kk can
    round in their last bit below 1/2. Positivity is not checked.
    """
    return affine_probs(2.0 * _require_density(rho, _DIM)[0]).real.copy()


@dataclass(frozen=True)
class DistributionSet:
    """One four-outcome distribution plus twelve dichotomic (p, 1-p) rows."""

    main: np.ndarray
    dichotomics: np.ndarray


def distribution_set(probs) -> DistributionSet:
    """Regroup a ququart probability vector into its measurement distributions.

    main = (p1+p2+p3-2, 1-p1, 1-p2, 1-p3) is the four-outcome distribution
    of the diagonal; each remaining component p spawns the dichotomic pair
    (p, 1-p). Raises on a stack, and when p1+p2+p3 < 2, since the first
    outcome would go negative.
    """
    p = require_range(as_length(probs, N_PROBS, one=True))
    head = p[0] + p[1] + p[2] - 2.0
    if head < -1e-12:
        raise ValueError(f"p1 + p2 + p3 = {float(p[0] + p[1] + p[2])!r} is below 2, first outcome would be negative")
    main = np.array([max(head, 0.0), 1.0 - p[0], 1.0 - p[1], 1.0 - p[2]])
    dichotomics = np.column_stack([p[3:], 1.0 - p[3:]])
    return DistributionSet(main=main, dichotomics=dichotomics)
