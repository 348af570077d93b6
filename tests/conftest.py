"""Shared deterministic generators for random test inputs, and the CLI runner."""

import os
import subprocess
import sys

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, stdin_text=None):
    """Run `python -W error -m probchan` in a child process that imports the package from this checkout's src.

    -W error turns a warning in the child into a failure, as filterwarnings = ["error"] does in this process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "probchan", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
    )


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
