"""Qubit channel representations: Kraus sets, Choi matrices, superoperators.

Conventions, fixed once and used everywhere:

* vec is row-major (matcore.vec), so the Choi matrix of a Kraus set is
  D = sum_k vec(A_k) vec(A_k)^dagger, carrying row index (k, i) and column
  index (l, j) for the map element D_{ki,lj}.
* The superoperator L is the action matrix, vec(F[rho]) = L vec(rho).
  Choi <-> superoperator is the index reshuffle (k,i,l,j) -> (k,l,i,j),
  which is its own inverse.
* Trace preservation reads sum_i D_{ii0,ij0} = delta_{i0 j0} on the Choi
  matrix, i.e. tracing out the first tensor slot gives the identity.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .matcore import _adjoint, _hermitian_pass, _non_finite, as_square, require_hermitian

__all__ = [
    "CptpReport",
    "apply_kraus",
    "kraus_tp_defect",
    "choi_from_kraus",
    "superop_from_choi",
    "choi_from_superop",
    "apply_channel_via_choi",
    "kraus_from_choi",
    "verify_cptp",
]


def _split_dim(n: int, name: str) -> int:
    d = isqrt(n)
    if d * d != n or not d:
        raise ValueError(f"{name} size {n} is not a positive perfect square")
    return d


def _as_kraus_set(kraus_ops) -> np.ndarray:
    """The Kraus operators as one (k, d, d) complex array, k >= 1."""
    try:
        ops = np.array(list(kraus_ops), dtype=complex)
    except (TypeError, ValueError):  # TypeError: a 0-d array or a scalar, which list() cannot iterate
        raise ValueError("Kraus set is not one stack of numeric matrices of equal shape") from None
    if not len(ops):
        raise ValueError("Kraus set is empty")
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or not ops.shape[1]:
        raise ValueError(f"Kraus set must be square matrices stacking to shape (k, d, d), d >= 1, got {ops.shape}")
    return ops


def apply_kraus(kraus_ops, rho) -> np.ndarray:
    """Channel action sum_k A_k rho A_k^dagger."""
    ops = _as_kraus_set(kraus_ops)
    state = as_square(rho, "state")
    if state.shape != ops.shape[1:]:
        raise ValueError(f"state shape {state.shape} does not match Kraus shape {ops.shape[1:]}")
    return np.sum(ops @ state @ _adjoint(ops), axis=0, initial=0)


def kraus_tp_defect(kraus_ops) -> float:
    """Max absolute entry of sum_k A_k^dagger A_k - I."""
    ops = _as_kraus_set(kraus_ops)
    return float(np.max(np.abs(np.sum(_adjoint(ops) @ ops, axis=0, initial=0) - np.eye(ops.shape[-1]))))


def choi_from_kraus(kraus_ops) -> np.ndarray:
    """Choi matrix sum_k vec(A_k) vec(A_k)^dagger (Hermitian and PSD by construction)."""
    ops = _as_kraus_set(kraus_ops)
    v = ops.reshape(len(ops), -1)
    # one outer product per operator, summed in operator order: one matmul over the stack rounds differently
    return np.add.reduce(v[:, :, None] * v[:, None, :].conj(), axis=0, initial=0)


def superop_from_choi(choi) -> np.ndarray:
    """Action matrix L with vec(F[rho]) = L vec(rho), from the Choi matrix or each matrix of a stack."""
    arr = as_square(choi, "matrix")
    d = _split_dim(arr.shape[-1], "matrix")
    lead = arr.shape[:-2]
    return arr.reshape(lead + (d, d, d, d)).swapaxes(-3, -2).reshape(lead + (d * d, d * d))


def choi_from_superop(superop) -> np.ndarray:
    """Inverse of superop_from_choi; the reshuffle is an involution."""
    return superop_from_choi(superop)


def apply_channel_via_choi(choi, rho) -> np.ndarray:
    """Channel action F[rho]_ki = sum_{l,j} D_{ki,lj} rho_{ij} straight off the Choi matrix.

    Takes one Choi matrix and one state; a stack of either raises ValueError.
    """
    state = as_square(rho, "state")
    arr = as_square(choi, "Choi matrix")
    d = state.shape[-1]
    if state.ndim != 2 or arr.shape != (d * d, d * d):
        raise ValueError(f"Choi shape {arr.shape} does not match state shape {state.shape}")
    return np.einsum("kilj,ij->kl", arr.reshape(d, d, d, d), state)


def _eigen(solver, part):
    """solver(part()) on a Choi matrix's Hermitian part, with _non_finite's refusal for any eigensolver LinAlgError."""
    try:
        return solver(part())
    except np.linalg.LinAlgError:
        raise _non_finite("Choi matrix") from None


def kraus_from_choi(choi) -> list[np.ndarray]:
    """Extract a minimal Kraus set from a Hermitian PSD Choi matrix.

    Eigenvalues at or below tol = 1e-9 are dropped, so the returned rank
    equals the numerical rank of the input. Operators come in descending
    eigenvalue order, each eigenvector's largest-magnitude component rotated
    to the positive real axis so the output is deterministic.

    Raises ValueError when the input is a stack or 0 x 0, is not Hermitian
    within tol, has NaN, infinite or too large entries or has an eigenvalue
    below -tol.
    """
    tol = 1e-9
    arr = as_square(choi, "Choi matrix", one=True)
    d = _split_dim(arr.shape[-1], "Choi matrix")
    vals, vecs = _eigen(np.linalg.eigh, require_hermitian(arr, tol, "Choi matrix"))
    if vals[0] < -tol:
        raise ValueError(f"Choi matrix is not positive semidefinite: min eigenvalue {vals[0]:.3e}")
    k = np.count_nonzero(vals > tol)  # eigh's values ascend, so the kept ones are the last k, taken descending
    vals, cols = vals[: -k - 1 : -1], vecs[:, : -k - 1 : -1]
    pivots = cols[np.abs(cols).argmax(axis=0), np.arange(k)]
    # np.hypot, not np.abs: on a complex array np.abs can round the modulus differently in the last bit
    phase = pivots.conj() / np.hypot(pivots.real, pivots.imag)
    return list((np.sqrt(vals) * (cols * phase)).T.reshape(k, d, d))


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics from verify_cptp, all defects are max absolute entries.

    Fields are Python scalars for one matrix and arrays over a stack.
    """

    hermiticity_defect: float
    trace_value: float
    tp_defect: float
    min_eigenvalue: float
    verdict: str


# indexed by 2 * cp_ok + tp_ok
_VERDICTS = np.array(["neither", "TP-not-CP", "CP-not-TP", "CPTP"])


def verify_cptp(choi, tol: float = 1e-9) -> CptpReport:
    """Classify a candidate Choi matrix as CPTP / CP-not-TP / TP-not-CP / neither.

    CP requires hermiticity defect <= tol and min eigenvalue >= -tol; TP
    requires the first-slot partial trace to match the identity within tol.
    A (..., d*d, d*d) stack gets one verdict per matrix.
    """
    arr = as_square(choi, "Choi matrix")
    d = _split_dim(arr.shape[-1], "Choi matrix")
    herm, part = _hermitian_pass(arr, (-2, -1))
    if np.logical_or.reduce(herm != herm, axis=None):  # a NaN entry, which the eigensolver may not fail on
        raise _non_finite("Choi matrix")
    lead = arr.shape[:-2]
    # each partial trace as a row of d*d entries of the trace's own new array (C-ordered input): the identity comes off
    tp = arr.reshape(lead + (d, d, d, d)).trace(axis1=-4, axis2=-2).reshape(lead + (d * d,))
    tp[..., :: d + 1] -= 1.0
    tp_defect = np.maximum.reduce(np.abs(tp), axis=-1, initial=0.0)
    min_eig = _eigen(np.linalg.eigvalsh, part)[..., 0]
    fields = [herm, arr.trace(axis1=-2, axis2=-1).real, tp_defect, min_eig]
    if not lead:
        fields = [float(f) for f in fields]  # exact, and cheaper than .item() on a numpy scalar
    herm, _, tp_defect, min_eig = fields
    verdict = _VERDICTS[2 * ((herm <= tol) & (min_eig >= -tol)) + (tp_defect <= tol)]
    return CptpReport(*fields, verdict if lead else str(verdict))
