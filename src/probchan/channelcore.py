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

from .matcore import _adjoint, _hermitian_pass, as_square, require_hermitian

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
    if d * d != n:
        raise ValueError(f"{name} size {n} is not a perfect square")
    return d


def _as_kraus_set(kraus_ops) -> np.ndarray:
    """The Kraus operators as one (k, d, d) complex array, k >= 1."""
    try:
        ops = np.array(list(kraus_ops), dtype=complex)
    except ValueError:
        raise ValueError("Kraus set is not one stack of numeric matrices of equal shape") from None
    if not len(ops):
        raise ValueError("Kraus set is empty")
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise ValueError(f"Kraus set must be square matrices stacking to shape (k, d, d), got {ops.shape}")
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


def _eigen(solver, arr: np.ndarray, part):
    """solver(part()) on the Hermitian part of arr; ValueError in place of its LinAlgError when arr is finite."""
    try:
        return solver(part())
    except np.linalg.LinAlgError:
        if not np.isfinite(arr).all():
            raise
    raise ValueError("Choi matrix entries are too large: its Hermitian part (D + D^dagger) / 2 overflows")


def kraus_from_choi(choi) -> list[np.ndarray]:
    """Extract a minimal Kraus set from a Hermitian PSD Choi matrix.

    Eigenvalues at or below tol = 1e-9 are dropped, so the returned rank
    equals the numerical rank of the input. Operators come in descending
    eigenvalue order, each eigenvector's largest-magnitude component rotated
    to the positive real axis so the output is deterministic.

    Raises ValueError when the input is a stack, is not Hermitian within
    tol or has an eigenvalue below -tol.
    """
    tol = 1e-9
    arr = as_square(choi, "Choi matrix")
    if arr.ndim != 2:
        raise ValueError(f"kraus_from_choi takes one Choi matrix, got shape {arr.shape}")
    d = _split_dim(arr.shape[-1], "Choi matrix")
    vals, vecs = _eigen(np.linalg.eigh, arr, require_hermitian(arr, tol, "Choi matrix"))
    if vals[0] < -tol:
        raise ValueError(f"Choi matrix is not positive semidefinite: min eigenvalue {vals[0]:.3e}")
    keep = vals > tol
    vals, cols = vals[keep][::-1], vecs.T[keep][::-1]
    pivots = cols[np.arange(len(cols)), np.abs(cols).argmax(axis=1)][:, None]
    # np.hypot, not np.abs: on a complex array np.abs can round the modulus differently in the last bit
    cols = cols * (pivots.conj() / np.hypot(pivots.real, pivots.imag))
    return list(np.sqrt(vals)[:, None, None] * cols.reshape(len(cols), d, d))


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
    tp_matrix = arr.reshape(arr.shape[:-2] + (d, d, d, d)).trace(axis1=-4, axis2=-2)
    tp_defect = np.abs(tp_matrix - np.eye(d)).max(axis=(-2, -1))
    min_eig = _eigen(np.linalg.eigvalsh, arr, part)[..., 0]
    verdict = _VERDICTS[2 * ((herm <= tol) & (min_eig >= -tol)) + (tp_defect <= tol)]
    fields = (herm, arr.trace(axis1=-2, axis2=-1).real, tp_defect, min_eig, verdict)
    if arr.ndim == 2:
        fields = (f.item() for f in fields)
    return CptpReport(*fields)
