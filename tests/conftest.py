"""Shared deterministic generators for random test inputs, the CLI runner, two references and an eigensolve counter.

unitary_exp is the reference for the oracle, rk4_step the literal integrator evolve_blocks' closed form is held to.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from probchan import matcore
from probchan.matcore import _adjoint, as_square, require_hermitian

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(args, stdin_text=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, closing=""):
    """Run `python -W error ARGS` in a child process that imports the package from this checkout's src.

    -W error turns a warning in the child into a failure, as filterwarnings = ["error"] does in this process.
    stdout and stderr are captured unless a file or descriptor is given for them. closing is a shell redirection such
    as "<&-" that sh applies before it execs python, so that the child starts with that standard stream closed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error", *args]
    if closing:
        argv = ["sh", "-c", f'exec "$0" "$@" {closing}', *argv]
    return subprocess.run(argv, input=stdin_text, stdout=stdout, stderr=stderr, text=True, env=env)


def run_cli(args, stdin_text=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, closing=""):
    """Run `python -W error -m probchan ARGS` in a child process, as run_python does."""
    return run_python(["-m", "probchan", *args], stdin_text, stdout, stderr, closing)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_density(rng, dim):
    """Random full-rank density matrix (Hermitian, trace 1, PSD)."""
    g = complex_normal(rng, (dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_hermitian(rng, dim, norm=None):
    """Random Hermitian matrix, optionally rescaled to a given spectral norm."""
    g = complex_normal(rng, (dim, dim))
    h = (g + g.conj().T) / 2.0
    if norm is not None:
        h = h * (norm / np.max(np.abs(np.linalg.eigvalsh(h))))
    return h


def random_tp_kraus(rng, n_ops=2, dim=2):
    """Random trace-preserving Kraus set: raw maps normalized by S^(-1/2)."""
    gs = [complex_normal(rng, (dim, dim)) for _ in range(n_ops)]
    s = sum(g.conj().T @ g for g in gs)
    vals, vecs = np.linalg.eigh(s)
    s_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [g @ s_inv_sqrt for g in gs]


def random_bloch_probs(rng):
    """Qubit probability triple uniform inside the Bloch ball."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    radius = 0.5 * rng.uniform() ** (1.0 / 3.0)
    return 0.5 + radius * direction


def random_channel_probs(rng):
    """15-vector in [0,1] satisfying the trace-preservation constraints exactly."""
    p = rng.uniform(0.0, 1.0, 15)
    p[0] = rng.uniform(0.5, 1.0)
    p[2] = 1.5 - p[0]
    p[13] = 1.0 - p[3]
    p[14] = 1.0 - p[4]
    return p


def unitary_exp(h, t) -> np.ndarray:
    """exp(-i*h*t) through the spectral decomposition of Hermitian h (or of each h in a stack).

    h must be Hermitian within 1e-12 entrywise, else ValueError naming the
    Hamiltonian. t is a time or an array of times; its shape broadcasts
    against the stack shape of h, so one h at n times gives shape (n, d, d).
    """
    vals, vecs = np.linalg.eigh(require_hermitian(as_square(h), 1e-12, "Hamiltonian")())
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


@pytest.fixture
def eigensolves(monkeypatch):
    """The eigensolves made, in order: "eigh" or "eigvalsh" per call of matcore._eigh, wherever a probchan module
    imported it, and "numpy.linalg.NAME" per call of one of numpy's four public eigensolvers, of which there should
    be none, since _eigh calls their gufuncs itself.
    """
    calls = []
    helper = matcore._eigh

    def counted(part, what, vectors=False):
        calls.append("eigh" if vectors else "eigvalsh")
        return helper(part, what, vectors)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "probchan" and getattr(mod, "_eigh", None) is helper:
            monkeypatch.setattr(mod, "_eigh", counted)
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        solver = getattr(np.linalg, name)
        public = f"numpy.linalg.{name}"
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=public, _s=solver, **k: calls.append(_n) or _s(*a, **k))
    return calls
