"""Dense complex linear algebra primitives shared by every other module.

Vectorization is row-major throughout: vec stacks matrix rows, so
vec(A X B) = (A kron B^T) vec(X).

The input checks every module shares live here too, one of each kind:
as_square (a square matrix or a stack of them), as_length (a trailing axis
of fixed length), require_range ([0, 1]) and require_hermitian, each run
once at a public entry. _hermitian_pass is the one Hermiticity pass: one
adjoint gives both the defect and the Hermitian part (m + m^dagger) / 2.
"""

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "identity",
    "vec",
    "rk4_step",
]


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


PAULI_X = _frozen([[0, 1], [1, 0]])
PAULI_Y = _frozen([[0, -1j], [1j, 0]])
PAULI_Z = _frozen([[1, 0], [0, -1]])


def identity(n: int) -> np.ndarray:
    """Complex identity matrix of size n."""
    return np.eye(n, dtype=complex)


def _adjoint(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def as_square(m, what: str = "matrix") -> np.ndarray:
    """Complex array of shape (..., n, n): one square matrix or a stack of them."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{what} must be a square matrix or a stack of them, got shape {arr.shape}")
    return arr


def as_length(v, n: int, what: str = "probabilities") -> np.ndarray:
    """Float array of shape (..., n): one length-n vector or a stack of them."""
    arr = np.asarray(v, dtype=float)
    if arr.shape[-1:] != (n,):
        raise ValueError(f"expected {n} {what}, got shape {arr.shape}")
    return arr


def require_range(p: np.ndarray) -> np.ndarray:
    """p itself when every entry lies in [0, 1], else ValueError naming the first that does not."""
    inside = (p >= 0.0) & (p <= 1.0)  # NaN is outside too
    if np.count_nonzero(inside) < inside.size:
        raise ValueError(f"probability {float(p[~inside][0])!r} lies outside [0, 1]")
    return p


def _hermitian_pass(arr: np.ndarray, axis=None):
    """max |arr - arr^dagger| over axis, and a function giving (arr + arr^dagger) / 2, from one adjoint.

    The part waits for its call, after any gate on the defect: a rejected input warns only as the check does.
    """
    adj = _adjoint(arr)
    return np.abs(arr - adj).max(axis=axis, initial=0.0), lambda: (arr + adj) / 2.0


def require_hermitian(arr: np.ndarray, tol: float, what: str = "matrix"):
    """The Hermitian part function of _hermitian_pass, once every matrix of arr is Hermitian within tol entrywise."""
    defect, part = _hermitian_pass(arr)
    if not defect <= tol:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e} exceeds {tol:.3e}")
    return part


def vec(m) -> np.ndarray:
    """Row-major vectorization of a square matrix, or of each matrix in a stack.

    Entry (i, j) of an n x n matrix lands at flat position i*n + j.
    """
    arr = as_square(m)
    return arr.reshape(arr.shape[:-2] + (-1,))


def rk4_step(f, y, t: float, dt: float):
    """One classical fourth-order Runge-Kutta step for dy/dt = f(t, y).

    Works for scalars and arrays alike; dt must be positive.
    """
    half = dt / 2.0
    k1 = f(t, y)
    k2 = f(t + half, y + half * k1)
    k3 = f(t + half, y + half * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
