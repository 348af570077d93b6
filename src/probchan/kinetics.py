"""Kinetic equation for channel probabilities under unitary dynamics.

For a Hamiltonian h (units with hbar = 1) the dynamical matrix of the
evolution channel obeys i d vec(D)/dt = Q vec(D) with the commutator
generator

    Q = (h kron I2) kron I4  -  I4 kron (h kron I2)^T,

row-major vec throughout. Through the affine maps of probchannel this is
the paper's i dP/dt = G P + g, G = A Q B, g = A Q c. The completely
depolarising channel D = I4 / 2 commutes with every h kron I2, so its
probabilities P_STAR are a fixed point, g = -G P_STAR, and the equation
is real about it:

    dP/dt = K (P - P_STAR),    K = Im(G) = x_1 K_1 + ... + x_4 K_4,

where x = (h00, h11, Re h01, -Im h01) are the coordinates of h on E00,
E11, sigma_x, sigma_y and K_a = Im(A Q(X_a) B) are exact constants. It is
integrated here with fixed-step classical RK4; the exact solution
D(t) = vec(U) vec(U)^dagger with U = exp(-i h t) serves as an oracle.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .matcore import PAULI_X, PAULI_Y, as_length, identity, require_hermitian, rk4_step
from .probchannel import N_PROBS, build_constants, check_channel_prob_constraints, probs_from_choi

__all__ = [
    "MAX_STEPS",
    "P_STAR",
    "Trajectory",
    "validate_hamiltonian",
    "build_q",
    "build_generator",
    "evolve_blocks",
    "evolve_probs",
    "oracle_probs",
    "compare_to_oracle",
]

MAX_STEPS = 1_000_000  # largest t_max / dt; checked before anything is allocated
_BLOCK = 256  # samples per evolve_blocks block; cli formats one block per _csv_text call, ~10 kB of temporaries a row

P_STAR = probs_from_choi(identity(4) / 2.0)  # the completely depolarising channel: 3/4 three times, then 1/2
P_STAR.setflags(write=False)


def validate_hamiltonian(h) -> np.ndarray:
    """The Hermitian part of h, a 2 x 2 complex array Hermitian within 1e-12: the one gate, once per public entry."""
    arr = np.asarray(h, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2 x 2 Hamiltonian, got shape {arr.shape}")
    return require_hermitian(arr, 1e-12, "Hamiltonian")()


def check_time_grid(h: np.ndarray, t_max: float, dt: float) -> float:
    """t_max / dt, once t_max is positive and finite, 0 < dt <= t_max, the ratio is at most MAX_STEPS and RK4 is stable.

    h has passed validate_hamiltonian. K has eigenvalues 0 and +-i(l_max - l_min), and RK4's
    amplification |R(iy)| exceeds 1 exactly when y > 2 sqrt(2): a larger dt (l_max - l_min) diverges.
    """
    if not 0.0 < t_max < np.inf:
        raise ValueError("t_max must be a positive finite number")
    if not 0.0 < dt <= t_max:
        raise ValueError("dt must satisfy 0 < dt <= t_max")
    ratio = t_max / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {ratio!r} exceeds {MAX_STEPS} steps")
    spread = float(np.hypot(h[0, 0].real - h[1, 1].real, 2.0 * abs(h[0, 1])))
    if not dt * spread <= 2.0 * 2.0**0.5:
        raise ValueError(f"dt * (l_max - l_min) = {dt * spread!r} exceeds 2 sqrt(2): the RK4 steps would diverge")
    return ratio


def build_q(h) -> np.ndarray:
    """16 x 16 matrix Q with Q vec(M) = vec([h kron I2, M]) for any 4 x 4 M."""
    lifted = np.kron(validate_hamiltonian(h), identity(2))
    eye4 = identity(4)
    return np.kron(lifted, eye4) - np.kron(eye4, lifted.T)


@functools.cache
def _structure_constants() -> np.ndarray:
    """K_a = Im(A Q(X_a) B) for X_a = E00, E11, sigma_x, sigma_y, shape (4, 15, 15), read-only.

    Raises RuntimeError if any A Q(X_a) B has a real part, which would
    take the kinetic equation off real probabilities.
    """
    k = build_constants()
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], PAULI_X, PAULI_Y])
    full = np.stack([k.prob_matrix @ build_q(x) @ k.choi_matrix for x in basis])
    if full.real.any():
        raise RuntimeError("kinetic structure constants corrupt: A Q(X_a) B has a real part")
    constants = full.imag.copy()
    constants.setflags(write=False)
    return constants


def build_generator(h) -> np.ndarray:
    """The real 15 x 15 generator K = Im(A Q B) of dP/dt = K (P - P_STAR), as sum_a x_a K_a."""
    h = validate_hamiltonian(h)
    return np.tensordot([h[0, 0].real, h[1, 1].real, h[0, 1].real, -h[0, 1].imag], _structure_constants(), 1)


@dataclass
class Trajectory:
    """Sampled solution of the kinetic equation.

    times has shape (n,), strictly increasing from 0; probs has shape
    (n, 15) with row i the probability vector at times[i].
    """

    times: np.ndarray
    probs: np.ndarray


def evolve_blocks(h, p0, t_max: float, dt: float = 1e-3):
    """Run every check now, then return an iterator of (times, probs) blocks.

    The checks (Hamiltonian, channel constraints on p0, time grid) raise
    ValueError in this call, before any block exists. Block k holds samples
    k * _BLOCK up to (k + 1) * _BLOCK - 1, shapes (b,) and (b, 15), so memory
    stays bounded whatever t_max / dt is.

    RK4 runs on z = P - P_STAR under dz/dt = K z, so one step is the matrix
    M = rk4_step applied to the identity. Whole steps come from precomputed
    powers, z[k + j] = M^j z[k], and z is carried from block to block; each
    block is written out as z + P_STAR. A shorter final step lands exactly on
    t_max when dt does not divide it. Sample 0 is p0 itself.

    Args:
        h: 2 x 2 Hermitian matrix.
        p0: 15-vector satisfying the channel constraints within 1e-9.
        t_max: horizon, positive.
        dt: step, 0 < dt <= t_max, with t_max / dt at most MAX_STEPS and
            dt times h's eigenvalue spread at most 2 sqrt(2).
    """
    h = validate_hamiltonian(h)
    p = as_length(p0, N_PROBS, "initial probabilities")
    ok, residuals = check_channel_prob_constraints(p)
    if not ok:
        raise ValueError(f"initial probabilities violate channel constraints, residuals {residuals}")
    ratio = check_time_grid(h, t_max, dt)
    k_mat = np.tensordot([h[0, 0].real, h[1, 1].real, h[0, 1].real, -h[0, 1].imag], _structure_constants(), 1)

    def deriv(_t, z):
        return k_mat @ z

    n_whole = int(np.floor(ratio * (1.0 + 4.0 * np.finfo(float).eps)))
    remainder = t_max - n_whole * dt
    n = n_whole + 1 + (remainder > 1e-9 * dt)
    flat = _powers(rk4_step(deriv, np.eye(N_PROBS), 0.0, dt), min(_BLOCK, n_whole)).reshape(-1, N_PROBS)

    def blocks():
        z = p - P_STAR
        for start in range(0, n, _BLOCK):
            times = np.arange(start, min(start + _BLOCK, n)) * dt
            block = np.empty((len(times), N_PROBS))
            stepped = block[1:] if start == 0 else block
            whole = min(len(stepped), n_whole + 1 - max(start, 1))  # samples of whole steps
            stepped[:whole] = (flat[: whole * N_PROBS] @ z).reshape(whole, N_PROBS)
            if whole < len(stepped):  # the shorter final step
                stepped[-1] = rk4_step(deriv, stepped[whole - 1] if whole else z, 0.0, remainder)
            z = stepped[-1].copy()
            stepped += P_STAR
            if start == 0:
                block[0] = p
            if start + len(times) == n:
                times[-1] = t_max
            yield times, block

    return blocks()


def _powers(step: np.ndarray, n: int) -> np.ndarray:
    """M^1..M^n of the 15 x 15 step matrix M, by doubling: each round multiplies up to k known powers by the last."""
    powers = step[None]
    while len(powers) < n:
        k = min(len(powers), n - len(powers))
        flat = powers[:k].reshape(-1, N_PROBS)
        powers = np.concatenate([powers, (flat @ powers[-1]).reshape(k, N_PROBS, N_PROBS)])
    return powers


def evolve_probs(h, p0, t_max: float, dt: float = 1e-3) -> Trajectory:
    """The blocks of evolve_blocks, same arguments, concatenated into one Trajectory.

    A sample at every RK4 step, and at t_max after a shorter final step when
    dt does not divide it. Memory grows with t_max / dt.
    """
    times, probs = zip(*evolve_blocks(h, p0, t_max, dt))
    return Trajectory(times=np.concatenate(times), probs=np.concatenate(probs))


def _spectral_parts(h):
    """(m, c, s, w) of the oracle m + cos(w t) c + sin(w t) s, from one eigh of h, a validate_hamiltonian result.

    The eigh gives h = l_0 P_0 + l_1 P_1, l_0 <= l_1, w = l_1 - l_0. With Y = vec(P_1) vec(P_0)^dagger,
    D(t) = sum_j vec(P_j) vec(P_j)^dagger + e^{-i w t} Y + e^{i w t} Y^dagger: m is the probability vector
    of the sum and c + i s = 2 prob_matrix vec(Y). m, c and s are contiguous 15-vectors.
    """
    vals, vecs = np.linalg.eigh(h)
    v = (vecs.T[:, :, None] * vecs.T[:, None, :].conj()).reshape(2, 4)  # vec(P_0), vec(P_1)
    m = probs_from_choi(v.T @ v.conj())
    cs = 2.0 * (build_constants().prob_matrix @ np.outer(v[1], v[0].conj()).reshape(16))
    return m, np.ascontiguousarray(cs.real), np.ascontiguousarray(cs.imag), vals[1] - vals[0]


def _oracle_at(parts, t) -> np.ndarray:
    """The oracle rows of _spectral_parts' (m, c, s, w) at a time, shape (15,), or at a 1-D array of n times, (n, 15)."""
    m, c, s, w = parts
    phase = w * np.asarray(t, dtype=float)
    return m + np.cos(phase)[..., None] * c + np.sin(phase)[..., None] * s


def oracle_probs(h, t) -> np.ndarray:
    """Exact probabilities of D(t) = vec(U) vec(U)^dagger, U = exp(-i h t), as m + cos(w t) c + sin(w t) s.

    The three 15-vectors and w come from one gate and one eigh of h per call (_spectral_parts); a caller
    evaluating many time grids under one gated h builds them once and evaluates them per grid, as the CLI does.
    A row depends on its own time only, so any split of the times gives the same bits. h is 2 x 2 and
    Hermitian within 1e-12. t is a time, giving shape (15,), or a 1-D array of n times, giving (n, 15).
    """
    return _oracle_at(_spectral_parts(validate_hamiltonian(h)), t)


def compare_to_oracle(h, traj: Trajectory) -> float:
    """Max-norm deviation of a trajectory from the closed-form solution.

    Evaluates the oracle at every sample time of traj (which must have been
    produced with the same Hamiltonian) and returns the largest absolute
    componentwise difference.
    """
    return float(np.max(np.abs(traj.probs - oracle_probs(h, traj.times))))
