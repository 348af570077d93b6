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

from .matcore import hermitian_eigensystem, hermiticity_defect, identity, kron, rk4_step
from .probchannel import N_PROBS, build_constants, check_channel_prob_constraints

__all__ = [
    "MAX_STEPS",
    "KineticGenerator",
    "Trajectory",
    "validate_hamiltonian",
    "build_q",
    "build_generator",
    "evolve_probs",
    "oracle_probs",
    "compare_to_oracle",
]

_HERMITICITY_TOL = 1e-12
MAX_STEPS = 1_000_000  # largest t_max / dt; checked before anything is allocated


def validate_hamiltonian(h) -> np.ndarray:
    """Coerce to a 2 x 2 complex array, Hermitian within 1e-12."""
    arr = np.asarray(h, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2 x 2 Hamiltonian, got shape {arr.shape}")
    defect = hermiticity_defect(arr)
    if defect > _HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian not Hermitian: defect {defect:.3e}")
    return arr


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
    hamiltonian_label: str = ""


def evolve_probs(h, p0, t_max: float, dt: float = 1e-3, *, label: str = "") -> Trajectory:
    """Integrate the kinetic equation from p0 over [0, t_max].

    Samples at every RK4 step; a shorter final step lands exactly on t_max
    when dt does not divide it. G and g are purely imaginary, so one RK4
    step of the real system dP/dt = Im(G) P + Im(g) is an affine map
    P -> M P + m, built once by applying rk4_step to the identity and to 0.

    Args:
        h: 2 x 2 Hermitian matrix.
        p0: 15-vector satisfying the channel constraints within 1e-9.
        t_max: horizon, positive.
        dt: step, 0 < dt <= t_max, with t_max / dt at most MAX_STEPS.
        label: stored on the trajectory for reporting.
    """
    arr_h = validate_hamiltonian(h)
    p = np.asarray(p0, dtype=float)
    if p.shape != (N_PROBS,):
        raise ValueError(f"expected {N_PROBS} initial probabilities, got shape {p.shape}")
    ok, residuals = check_channel_prob_constraints(p)
    if not ok:
        raise ValueError(f"initial probabilities violate channel constraints, residuals {residuals}")
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    if not (0.0 < dt <= t_max):
        raise ValueError("dt must satisfy 0 < dt <= t_max")
    ratio = t_max / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {ratio!r} exceeds {MAX_STEPS} steps")

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
    short_step = remainder > 1e-9 * dt

    probs = np.empty((n_whole + 1 + short_step, N_PROBS))
    probs[0] = p
    for k in range(n_whole):
        probs[k + 1] = step @ probs[k] + shift
    if short_step:
        probs[-1] = rk4_step(deriv, probs[-2], n_whole * dt, remainder)
    times = np.arange(len(probs)) * dt
    times[-1] = t_max

    return Trajectory(times=times, probs=probs, dt=dt, hamiltonian_label=label)


def oracle_probs(h, t) -> np.ndarray:
    """Exact probabilities of D(t) = vec(U) vec(U)^dagger, U = exp(-i h t), from one eigh of h.

    t is a time, giving shape (15,), or a 1-D array of n times, giving (n, 15).
    The affine map and its 1e-9 imaginary-residue check are probs_from_choi's.
    """
    vals, vecs = hermitian_eigensystem(validate_hamiltonian(h), 1e-12)
    times = np.asarray(t, dtype=float)
    phases = np.exp(-1j * vals * times.reshape(-1, 1, 1))
    v = ((vecs * phases) @ vecs.conj().T).reshape(-1, 4)
    choi = (v[:, :, None] * v[:, None, :].conj()).reshape(-1, 16)
    k = build_constants()
    raw = choi @ k.prob_matrix.T + k.prob_offset
    residue = float(np.max(np.abs(raw.imag)))
    if residue > 1e-9:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds 1.000e-09; oracle is inconsistent")
    return raw.real.reshape(times.shape + (N_PROBS,)).copy()


def compare_to_oracle(h, traj: Trajectory) -> float:
    """Max-norm deviation of a trajectory from the closed-form solution.

    Evaluates the oracle at every sample time of traj (which must have been
    produced with the same Hamiltonian) and returns the largest absolute
    componentwise difference.
    """
    return float(np.max(np.abs(traj.probs - oracle_probs(h, traj.times))))
