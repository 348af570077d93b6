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

    dP/dt = K (P - P_STAR),    K = Im(G) = Im(A Q B),

G having no real part for Hermitian h. K's eigenvalues are 0 and +-iw,
so fixed-step classical RK4 has the exact flow's three-vector form
sample by sample, and _rows writes it for both evolve_blocks and the
oracle, the exact D(t) = vec(U) vec(U)^dagger with U = exp(-i h t).
"""

from dataclasses import dataclass

import numpy as np

from .matcore import _non_finite, as_length, as_square, identity, require_hermitian
from .probchannel import N_PROBS, affine_probs, build_constants, check_channel_prob_constraints

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

P_STAR = affine_probs(identity(4) / 2.0).real.copy()  # the completely depolarising channel: 3/4 three times, then 1/2
P_STAR.setflags(write=False)


def validate_hamiltonian(h) -> np.ndarray:
    """The Hermitian part of h, a 2 x 2 complex array Hermitian within 1e-12: the one gate, once per public entry."""
    arr = as_square(h, "Hamiltonian", 2, one=True)
    try:
        with np.errstate(over="raise", invalid="raise"):  # inf, or entries the part overflows: refused, not warned of
            return require_hermitian(arr, 1e-12, "Hamiltonian")()
    except FloatingPointError:
        raise _non_finite("Hamiltonian") from None


def check_time_grid(h: np.ndarray, t_max: float, dt: float) -> tuple[float, float]:
    """(t_max / dt, w = l_max - l_min), once the time grid is valid and RK4 is stable on it.

    t_max is positive and finite, 0 < dt <= t_max and the ratio is at most MAX_STEPS. h has passed
    validate_hamiltonian, and w must be finite too; K has eigenvalues 0 and +-iw, and RK4's amplification
    |R(iy)| exceeds 1 exactly when y > 2 sqrt(2): a larger dt w diverges.
    """
    if not 0.0 < t_max < np.inf:
        raise ValueError("t_max must be a positive finite number")
    if not 0.0 < dt <= t_max:
        raise ValueError("dt must satisfy 0 < dt <= t_max")
    ratio = t_max / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {ratio!r} exceeds {MAX_STEPS} steps")
    with np.errstate(over="ignore"):  # a spread past the largest double is refused, not warned of
        spread = float(np.hypot(h[0, 0].real - h[1, 1].real, 2.0 * abs(h[0, 1])))
    if not spread < np.inf:
        raise _non_finite("Hamiltonian")
    if not dt * spread <= 2.0 * 2.0**0.5:
        raise ValueError(f"dt * (l_max - l_min) = {dt * spread!r} exceeds 2 sqrt(2): the RK4 steps would diverge")
    return ratio, spread


def _q(h: np.ndarray) -> np.ndarray:
    """Q for a validate_hamiltonian result h."""
    lifted = np.kron(h, identity(2))
    eye4 = identity(4)
    return np.kron(lifted, eye4) - np.kron(eye4, lifted.T)


def build_q(h) -> np.ndarray:
    """16 x 16 matrix Q with Q vec(M) = vec([h kron I2, M]) for any 4 x 4 M."""
    return _q(validate_hamiltonian(h))


def _generator(h: np.ndarray) -> np.ndarray:
    """Im(A Q B) for a validate_hamiltonian result h, C-ordered: K @ z rounds differently on the strided .imag view."""
    k = build_constants()
    return (k.prob_matrix @ _q(h) @ k.choi_matrix).imag.copy()


def build_generator(h) -> np.ndarray:
    """The real 15 x 15 generator K = Im(G), G = A Q B, of dP/dt = K (P - P_STAR); A Q B has no real part."""
    return _generator(validate_hamiltonian(h))


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

    The checks (Hamiltonian, p0 one 15-vector meeting the channel constraints,
    time grid) raise ValueError in this call, before any block exists. Block k
    holds samples k * _BLOCK up to (k + 1) * _BLOCK - 1, shapes (b,) and (b, 15),
    so memory stays bounded whatever t_max / dt is.

    Sample n is RK4's n-th step from its index alone: one step acts on K's +-iw
    eigenspaces as R = R(i w dt), RK4's stability function, so with
    z0 = p0 - P_STAR, s = K z0 / w and c = -K s / w (both 0 when w = 0),
    P_n = p0 + (Re R^n - 1) c + Im R^n s, and any split into blocks gives the
    same bits. A shorter final step lands exactly on t_max when dt does not
    divide it, multiplying in R(i w remainder) once.

    Args:
        h: 2 x 2 Hermitian matrix.
        p0: 15-vector satisfying the channel constraints within 1e-9.
        t_max: horizon, positive.
        dt: step, 0 < dt <= t_max, with t_max / dt at most MAX_STEPS and
            dt times h's eigenvalue spread at most 2 sqrt(2).
    """
    h = validate_hamiltonian(h)
    p = as_length(np.array(p0, dtype=float), N_PROBS, "initial probabilities", one=True)
    ok, residuals = check_channel_prob_constraints(p)
    if not ok:
        raise ValueError(f"initial probabilities violate channel constraints, residuals {residuals}")
    ratio, w = check_time_grid(h, t_max, dt)
    c = s = np.zeros(N_PROBS)
    if w:
        k_mat = _generator(h)
        s = k_mat @ (p - P_STAR) / w
        c = -(k_mat @ s) / w

    n_whole = int(np.floor(ratio * (1.0 + 4.0 * np.finfo(float).eps)))
    remainder = t_max - n_whole * dt
    n = n_whole + 1 + (remainder > 1e-9 * dt)
    y = w * dt
    log_r = complex(0.5 * np.log1p(y**8 / 576.0 - y**6 / 72.0), np.angle(_stability(y)))  # |R|^2 = 1 - y^6/72 + y^8/576
    last = _stability(w * remainder)

    def blocks():
        for start in range(0, n, _BLOCK):
            steps = np.arange(start, min(start + _BLOCK, n))
            times = steps * dt
            r = np.exp(np.minimum(steps, n_whole) * log_r)  # R^n, and R^n_whole before a shorter final step
            if steps[-1] == n - 1:
                times[-1] = t_max
                if n > n_whole + 1:
                    r[-1] *= last
            yield times, _rows(p, r.real - 1.0, r.imag, c, s)

    return blocks()


def _rows(base, x, y, c, s) -> np.ndarray:
    """K's three-vector form base + x c + y s at scalars x and y, shape (15,), or at 1-D arrays of n, (n, 15)."""
    return base + x[..., None] * c + y[..., None] * s


def _stability(y: float) -> complex:
    """RK4's stability function on the imaginary axis, R(iy) = 1 + iy - y^2/2 - iy^3/6 + y^4/24."""
    return complex(1.0 - y**2 / 2.0 + y**4 / 24.0, y - y**3 / 6.0)


def evolve_probs(h, p0, t_max: float, dt: float = 1e-3) -> Trajectory:
    """The blocks of evolve_blocks, same arguments, concatenated into one Trajectory.

    A sample at every RK4 step, and at t_max after a shorter final step when
    dt does not divide it. Memory grows with t_max / dt.
    """
    times, probs = zip(*evolve_blocks(h, p0, t_max, dt))
    return Trajectory(times=np.concatenate(times), probs=np.concatenate(probs))


def _oracle(h):
    """The identity start's rows m + cos(w t) c + sin(w t) s as a function of t, taking t as oracle_probs does.

    One eigh of h, a validate_hamiltonian result, gives h = l_0 P_0 + l_1 P_1, l_0 <= l_1, w = l_1 - l_0. With
    Y = vec(P_1) vec(P_0)^dagger, D(t) = sum_j vec(P_j) vec(P_j)^dagger + e^{-i w t} Y + e^{i w t} Y^dagger: m is
    the probability vector of the sum and c + i s = 2 prob_matrix vec(Y).
    """
    vals, vecs = np.linalg.eigh(h)
    v = (vecs.T[:, :, None] * vecs.T[:, None, :].conj()).reshape(2, 4)  # vec(P_0), vec(P_1)
    m = affine_probs(v.T @ v.conj()).real
    cs = 2.0 * (build_constants().prob_matrix @ np.outer(v[1], v[0].conj()).reshape(16))

    def rows(t) -> np.ndarray:
        phase = (vals[1] - vals[0]) * np.asarray(t, dtype=float)
        return _rows(m, np.cos(phase), np.sin(phase), cs.real, cs.imag)

    return rows


def oracle_probs(h, t) -> np.ndarray:
    """Exact probabilities of D(t) = vec(U) vec(U)^dagger, U = exp(-i h t), as m + cos(w t) c + sin(w t) s.

    The three 15-vectors and w come from one gate and one eigh of h per call (_oracle); a caller evaluating
    many time grids under one gated h builds _oracle(h) once and calls it per grid, as the CLI does.
    A row depends on its own time only, so any split of the times gives the same bits. h is 2 x 2 and
    Hermitian within 1e-12. t is a time, giving shape (15,), or a 1-D array of n times, giving (n, 15).
    """
    return _oracle(validate_hamiltonian(h))(t)


def compare_to_oracle(h, traj: Trajectory) -> float:
    """Max-norm deviation of a trajectory from the identity start's closed-form solution.

    Evaluates oracle_probs at every sample time of traj (which must have been
    produced with the same Hamiltonian) and returns the largest absolute
    componentwise difference. oracle_probs is the evolution channel itself,
    the trajectory from identity_channel_probs(), so the number is an error
    bound only for a trajectory that starts there: from any other start it
    also measures how far that start's exact flow lies from the identity's.
    """
    return float(np.max(np.abs(traj.probs - oracle_probs(h, traj.times))))
