"""Kinetic equation for channel probabilities under unitary dynamics.

For a Hamiltonian h (units with hbar = 1) the dynamical matrix of the
evolution channel obeys i d vec(D)/dt = Q vec(D) with the commutator
generator

    Q = (h kron I2) kron I4  -  I4 kron (h kron I2)^T,

row-major vec throughout. Pushing through the affine maps of probchannel
turns this into a closed linear equation on the probability vector,

    i dP/dt = G P + g,    G = A Q B,   g = A Q c,

which is integrated here with fixed-step classical RK4. The exact solution
D(t) = vec(U) vec(U)^dagger with U = exp(-i h t) serves as an oracle for
error measurement.
"""

from dataclasses import dataclass

import numpy as np

from .matcore import as_length, identity, kron, require_hermitian, rk4_step, unitary_exp
from .probchannel import N_PROBS, build_constants, check_channel_prob_constraints, probs_from_choi

__all__ = [
    "MAX_STEPS",
    "KineticGenerator",
    "Trajectory",
    "validate_hamiltonian",
    "build_q",
    "build_generator",
    "evolve_blocks",
    "evolve_probs",
    "oracle_probs",
    "compare_to_oracle",
]

_HERMITICITY_TOL = 1e-12
MAX_STEPS = 1_000_000  # largest t_max / dt; checked before anything is allocated
_BLOCK = 1024  # samples per evolve_blocks block


def _as_hamiltonian(h) -> np.ndarray:
    arr = np.asarray(h, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2 x 2 Hamiltonian, got shape {arr.shape}")
    return arr


def validate_hamiltonian(h) -> np.ndarray:
    """Coerce to a 2 x 2 complex array, Hermitian within 1e-12."""
    return require_hermitian(_as_hamiltonian(h), _HERMITICITY_TOL, "Hamiltonian")


def check_time_grid(t_max: float, dt: float) -> float:
    """t_max / dt, once t_max is positive and finite, 0 < dt <= t_max and the ratio is at most MAX_STEPS."""
    if not 0.0 < t_max < np.inf:
        raise ValueError("t_max must be a positive finite number")
    if not 0.0 < dt <= t_max:
        raise ValueError("dt must satisfy 0 < dt <= t_max")
    ratio = t_max / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {ratio!r} exceeds {MAX_STEPS} steps")
    return ratio


def build_q(h) -> np.ndarray:
    """16 x 16 matrix Q with Q vec(M) = vec([h kron I2, M]) for any 4 x 4 M."""
    lifted = kron(validate_hamiltonian(h), identity(2))
    eye4 = identity(4)
    return kron(lifted, eye4) - kron(eye4, lifted.T)


@dataclass(frozen=True)
class KineticGenerator:
    """Generator data: full vec-space Q plus the reduced affine pair (G, g).

    The probability vector obeys i dP/dt = G P + g while vec(D) obeys
    i d vec(D)/dt = Q vec(D).
    """

    Q: np.ndarray
    G: np.ndarray
    g: np.ndarray


def build_generator(h) -> KineticGenerator:
    """Assemble Q, G = A Q B and g = A Q c for a Hamiltonian."""
    q = build_q(h)
    k = build_constants()
    reduced = k.prob_matrix @ q @ k.choi_matrix
    source = k.prob_matrix @ (q @ k.choi_offset)
    return KineticGenerator(Q=q, G=reduced, g=source)


@dataclass
class Trajectory:
    """Sampled solution of the kinetic equation.

    times has shape (n,), strictly increasing from 0; probs has shape
    (n, 15) with row i the probability vector at times[i].
    """

    times: np.ndarray
    probs: np.ndarray
    dt: float


def evolve_blocks(h, p0, t_max: float, dt: float = 1e-3):
    """Run every check now, then return an iterator of (times, probs) blocks.

    The checks (Hamiltonian, channel constraints on p0, time grid, exactly
    zero real part of G and g) raise ValueError in this call, before any
    block exists. Block k holds samples k * _BLOCK up to (k + 1) * _BLOCK - 1,
    shapes (b,) and (b, 15), so memory stays bounded whatever t_max / dt is.

    G and g are purely imaginary, so one RK4 step of the real system
    dP/dt = Im(G) P + Im(g) is an affine map P -> M P + m, built by applying
    rk4_step to the identity and to 0. Whole steps come from precomputed
    powers, P[k + j] = M^j P[k] + s_j; a shorter final step lands exactly on
    t_max when dt does not divide it.

    Args:
        h: 2 x 2 Hermitian matrix.
        p0: 15-vector satisfying the channel constraints within 1e-9.
        t_max: horizon, positive.
        dt: step, 0 < dt <= t_max, with t_max / dt at most MAX_STEPS.
    """
    arr_h = validate_hamiltonian(h)
    p = as_length(p0, N_PROBS, "initial probabilities")
    ok, residuals = check_channel_prob_constraints(p)
    if not ok:
        raise ValueError(f"initial probabilities violate channel constraints, residuals {residuals}")
    ratio = check_time_grid(t_max, dt)

    gen = build_generator(arr_h)
    if gen.G.real.any() or gen.g.real.any():
        raise ValueError("generator has a real part; the kinetic equation would not keep probabilities real")
    k_mat, k_vec = gen.G.imag, gen.g.imag

    def deriv(_t, y):
        return k_mat @ y + k_vec

    step = rk4_step(lambda _t, y: k_mat @ y, np.eye(N_PROBS), 0.0, dt)
    shift = rk4_step(deriv, np.zeros(N_PROBS), 0.0, dt)

    n_whole = int(np.floor(ratio * (1.0 + 4.0 * np.finfo(float).eps)))
    remainder = t_max - n_whole * dt
    n = n_whole + 1 + (remainder > 1e-9 * dt)
    powers, shifts = _affine_powers(step, shift, min(_BLOCK, n_whole))
    flat = powers.reshape(-1, N_PROBS)

    def blocks():
        last = p
        for start in range(0, n, _BLOCK):
            times = np.arange(start, min(start + _BLOCK, n)) * dt
            block = stepped = np.empty((len(times), N_PROBS))
            if start == 0:
                block[0] = p
                stepped = block[1:]
            whole = min(len(stepped), n_whole + 1 - max(start, 1))  # samples of whole steps
            stepped[:whole] = (flat[: whole * N_PROBS] @ last).reshape(whole, N_PROBS) + shifts[:whole]
            if whole < len(stepped):  # the shorter final step
                stepped[-1] = rk4_step(deriv, stepped[whole - 1] if whole else last, n_whole * dt, remainder)
            if start + len(times) == n:
                times[-1] = t_max
            last = block[-1]
            yield times, block

    return blocks()


def _affine_powers(step: np.ndarray, shift: np.ndarray, n: int):
    """M^1..M^n and s_1..s_n of the affine map P -> M P + m, by doubling.

    (M^j, s_j) after (M^k, s_k) is (M^j M^k, M^j s_k + s_j), so each round
    extends the k entries known so far by up to k more in one matmul.
    """
    powers, shifts = step[None], shift[None]
    while len(powers) < n:
        k = min(len(powers), n - len(powers))
        flat = powers[:k].reshape(-1, N_PROBS)
        powers = np.concatenate([powers, (flat @ powers[-1]).reshape(k, N_PROBS, N_PROBS)])
        shifts = np.concatenate([shifts, (flat @ shifts[-1]).reshape(k, N_PROBS) + shifts[:k]])
    return powers, shifts


def evolve_probs(h, p0, t_max: float, dt: float = 1e-3) -> Trajectory:
    """The blocks of evolve_blocks, same arguments, concatenated into one Trajectory.

    A sample at every RK4 step, and at t_max after a shorter final step when
    dt does not divide it. Memory grows with t_max / dt.
    """
    times, probs = zip(*evolve_blocks(h, p0, t_max, dt))
    return Trajectory(times=np.concatenate(times), probs=np.concatenate(probs), dt=dt)


def oracle_probs(h, t) -> np.ndarray:
    """Exact probabilities of D(t) = vec(U) vec(U)^dagger, U = exp(-i h t), from one eigh of h.

    h is 2 x 2 and Hermitian within 1e-12, which unitary_exp checks once per
    call. t is a time, giving shape (15,), or a 1-D array of n times, giving
    (n, 15).
    """
    times = np.asarray(t, dtype=float)
    v = unitary_exp(_as_hamiltonian(h), times.reshape(-1)).reshape(-1, 4)
    return probs_from_choi(v[:, :, None] * v[:, None, :].conj()).reshape(times.shape + (N_PROBS,))


def compare_to_oracle(h, traj: Trajectory) -> float:
    """Max-norm deviation of a trajectory from the closed-form solution.

    Evaluates the oracle at every sample time of traj (which must have been
    produced with the same Hamiltonian) and returns the largest absolute
    componentwise difference.
    """
    return float(np.max(np.abs(traj.probs - oracle_probs(h, traj.times))))
