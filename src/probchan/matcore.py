"""Dense complex linear algebra primitives shared by every other module.

Vectorization is row-major throughout: vec stacks matrix rows, so
vec(A X B) = (A kron B^T) vec(X).

The input checks every module shares live here too, one of each kind:
as_square (a square matrix or a stack of them), as_length (a trailing axis
of fixed length), require_range ([0, 1]) and require_hermitian, each run
once at a public entry; the two shape checks alone decide an input's size
and whether it may be a stack, and return C-ordered arrays, so a stack of any
strides gives its elements' bits. _hermitian_pass is the one Hermiticity pass:
one adjoint gives both the defect and the Hermitian part (m + m^dagger) / 2.
"""

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "identity",
    "vec",
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


def as_square(m, what: str = "matrix", n: int | None = None, one: bool = False) -> np.ndarray:
    """C-ordered complex array of shape (..., n, n): one square matrix or, unless one, a stack; n None: any size."""
    arr = np.asarray(m, dtype=complex, order="C")
    shape = arr.shape
    if len(shape) < 2 or shape[-1] != shape[-2] or n is not None and shape[-1] != n or one and len(shape) > 2:
        size = "square" if n is None else f"{n} x {n}"
        raise ValueError(f"expected a {size} {what}{'' if one else ' or a stack of them'}, got shape {shape}")
    return arr


def as_length(v, n: int, what: str = "probabilities", one: bool = False) -> np.ndarray:
    """C-ordered float array of shape (..., n): one length-n vector or, unless one, a stack of them."""
    arr = np.asarray(v, dtype=float, order="C")
    if arr.shape[-1:] != (n,) or one and arr.ndim > 1:
        raise ValueError(f"expected {'one vector of ' if one else ''}{n} {what}, got shape {arr.shape}")
    return arr


def _non_finite(what: str) -> ValueError:
    """The one refusal of an input whose entries are NaN, infinite or overflow the arithmetic checking them."""
    return ValueError(f"{what} has NaN, infinite or too large entries")


def require_range(p: np.ndarray) -> np.ndarray:
    """p itself when every entry lies in [0, 1], else ValueError naming the first that does not."""
    low, high = np.minimum.reduce(p, axis=None, initial=0.0), np.maximum.reduce(p, axis=None, initial=1.0)
    if not (low >= 0.0 and high <= 1.0):  # NaN fails both; the mask is built only to name the first entry outside
        raise ValueError(f"probability {float(p[~((p >= 0.0) & (p <= 1.0))][0])!r} lies outside [0, 1]")
    return p


def _hermitian_pass(arr: np.ndarray, axis=None):
    """max |arr - arr^dagger| over axis, and a function giving (arr + arr^dagger) / 2, from one adjoint.

    The part waits for its call, after any gate on the defect: a rejected input warns only as the check does.
    """
    adj = _adjoint(arr)
    return np.maximum.reduce(np.abs(arr - adj), axis=axis, initial=0.0), lambda: (arr + adj) / 2.0


def require_hermitian(arr: np.ndarray, tol: float, what: str = "matrix"):
    """The Hermitian part function of _hermitian_pass, once arr is Hermitian within tol entrywise (defect finite)."""
    defect, part = _hermitian_pass(arr)
    if not defect <= tol:
        text = f"{what} is not Hermitian: defect {defect:.3e} exceeds {tol:.3e}"
        raise ValueError(text) if defect < np.inf else _non_finite(what)
    return part


def vec(m) -> np.ndarray:
    """Row-major vectorization of a square matrix, or of each matrix in a stack.

    Entry (i, j) of an n x n matrix lands at flat position i*n + j.
    """
    arr = as_square(m)
    return arr.reshape(arr.shape[:-2] + (-1,))

