"""Dense complex linear algebra primitives shared by every other module.

Vectorization is row-major throughout: vec stacks matrix rows, so
vec(A X B) = (A kron B^T) vec(X).

The input checks every module shares live here too, one of each kind:
as_square (a square matrix or a stack of them), as_length (a trailing axis
of fixed length), require_range ([0, 1]) and require_hermitian.
"""

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "identity",
    "kron",
    "vec",
    "unvec",
    "hermiticity_defect",
    "hermitian_eigvals",
    "hermitian_eigensystem",
    "unitary_exp",
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


def _as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of rank {arr.ndim}")
    return arr


def _adjoint(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def as_square(m, what: str = "matrix") -> np.ndarray:
    """Complex array of shape (..., n, n): one square matrix or a stack of them."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{what} must be a square matrix or a stack of them, got shape {arr.shape}")
    return arr


def as_length(v, n: int, what: str = "probabilities", dtype=float) -> np.ndarray:
    """Array of shape (..., n): one length-n vector or a stack of them."""
    arr = np.asarray(v, dtype=dtype)
    if arr.shape[-1:] != (n,):
        raise ValueError(f"expected {n} {what}, got shape {arr.shape}")
    return arr


def require_range(p: np.ndarray) -> np.ndarray:
    """p itself when every entry lies in [0, 1], else ValueError naming the first that does not."""
    outside = p[~((p >= 0.0) & (p <= 1.0))]  # NaN is outside too
    if outside.size:
        raise ValueError(f"probability {float(outside[0])!r} lies outside [0, 1]")
    return p


def require_hermitian(m, tol: float, what: str = "matrix") -> np.ndarray:
    """as_square(m), after checking that every matrix in it is Hermitian within tol entrywise."""
    arr = as_square(m, what)
    defect = hermiticity_defect(arr).max(initial=0.0)
    if not defect <= tol:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e} exceeds {tol:.3e}")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor on the coarse index."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def vec(m) -> np.ndarray:
    """Row-major vectorization of a square matrix, or of each matrix in a stack.

    Entry (i, j) of an n x n matrix lands at flat position i*n + j.
    """
    arr = as_square(m)
    return arr.reshape(arr.shape[:-2] + (-1,))


def unvec(v, n: int) -> np.ndarray:
    """Inverse of vec: rebuild n x n matrices from vectors of length n*n."""
    arr = as_length(v, n * n, "vector entries", complex)
    return arr.reshape(arr.shape[:-1] + (n, n))


def hermiticity_defect(m):
    """Max absolute entry of m - m^dagger, one value per matrix of a stack."""
    arr = as_square(m)
    return np.abs(arr - _adjoint(arr)).max(axis=(-2, -1), initial=0.0)


def hermitian_part(arr: np.ndarray) -> np.ndarray:
    """(arr + arr^dagger) / 2, ungated: the exactly Hermitian input the eigensolvers are given."""
    return (arr + _adjoint(arr)) / 2.0


def hermitian_eigensystem(m, tol: float = 1e-10):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix or stack.

    Args:
        m: square matrix or stack of them, Hermitian within tol entrywise.
        tol: hermiticity gate; violation raises ValueError.

    Returns:
        (eigvals, eigvecs) with eigvecs[..., :, k] the vector for eigvals[..., k].
    """
    return np.linalg.eigh(hermitian_part(require_hermitian(m, tol)))


def hermitian_eigvals(m, tol: float = 1e-10) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix or of each matrix in a stack."""
    return np.linalg.eigvalsh(hermitian_part(require_hermitian(m, tol)))


def hamiltonian_part(h) -> np.ndarray:
    """hermitian_part(h) once h is Hermitian within 1e-12 entrywise, else ValueError: the one Hamiltonian gate."""
    return hermitian_part(require_hermitian(h, 1e-12, "Hamiltonian"))


def unitary_exp(h, t) -> np.ndarray:
    """exp(-i*h*t) through the spectral decomposition of Hermitian h (or of each h in a stack).

    h must be Hermitian within 1e-12 entrywise, else ValueError naming the
    Hamiltonian. t is a time or an array of times; its shape broadcasts
    against the stack shape of h, so one h at n times gives shape (n, d, d).
    """
    vals, vecs = np.linalg.eigh(hamiltonian_part(h))
    phases = np.exp(-1j * vals * np.asarray(t, dtype=float)[..., None])
    return (vecs * phases[..., None, :]) @ _adjoint(vecs)


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
