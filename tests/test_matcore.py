import importlib

import numpy as np
import pytest

import probchan
from probchan.matcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    identity,
    require_hermitian,
    require_range,
    rk4_step,
    vec,
)
from probchan.kinetics import evolve_blocks
from probchan.probchannel import identity_channel_probs, probs_from_choi
from probchan.stateprob import qubit_density_from_probs, qubit_probs_from_density, tomogram
from conftest import complex_normal, random_hermitian, unitary_exp


LIBRARY_LAYERS = ["matcore", "stateprob", "channelcore", "probchannel", "kinetics"]


@pytest.mark.parametrize("layer", [*LIBRARY_LAYERS, "cli"])
def test_every_name_in_a_layer_all_resolves(layer):
    """A name left in __all__ after its function is gone breaks star imports and perfbench's tracer, which wraps each.

    Each name has one owner: it is listed by one layer only, and a listed function or class is defined there, so
    the tracer labels its calls with that layer. The package namespace is the library layers' lists in order.
    """
    mod = importlib.import_module(f"probchan.{layer}")
    others = {
        name for other in [*LIBRARY_LAYERS, "cli"] if other != layer
        for name in importlib.import_module(f"probchan.{other}").__all__
    }
    for name in mod.__all__:
        value = getattr(mod, name)
        assert name not in others, name
        if callable(value):
            assert value.__module__ == mod.__name__, name
        if layer != "cli":
            assert getattr(probchan, name) is value, name
    assert probchan.__all__ == [
        name for other in LIBRARY_LAYERS for name in importlib.import_module(f"probchan.{other}").__all__
    ]


def test_vec_is_row_major():
    assert np.array_equal(vec([[1, 2], [3, 4]]), np.array([1, 2, 3, 4], dtype=complex))


def test_vec_matmul_identity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = complex_normal(rng, (3, 3))
        x = complex_normal(rng, (3, 3))
        b = complex_normal(rng, (3, 3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(a, b.T) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_vec_rejects_non_square():
    with pytest.raises(ValueError):
        vec(np.ones((2, 3)))


@pytest.mark.parametrize("pauli", [PAULI_X, PAULI_Y, PAULI_Z])
def test_pauli_eigvals(pauli):
    vals = np.linalg.eigvalsh(pauli)
    assert np.max(np.abs(vals - np.array([-1.0, 1.0]))) < 1e-15


def test_unitary_exp_sigma_z_closed_form():
    u = unitary_exp(PAULI_Z, 0.7)
    expected = np.diag([np.exp(-0.7j), np.exp(0.7j)])
    assert np.max(np.abs(u - expected)) < 1e-15


def test_unitary_exp_sigma_x_quarter_period():
    u = unitary_exp(PAULI_X, np.pi / 2)
    assert np.max(np.abs(u - (-1j) * PAULI_X)) < 1e-14


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h = random_hermitian(rng, 2)
        u = unitary_exp(h, rng.uniform(-5, 5))
        assert np.max(np.abs(u @ u.conj().T - identity(2))) < 1e-13


def test_unitary_exp_over_an_array_of_times():
    rng = np.random.default_rng(14)
    for _ in range(20):
        h = random_hermitian(rng, 2, norm=rng.uniform(0.2, 5.0))
        times = rng.uniform(-10.0, 10.0, 7)
        u = unitary_exp(h, times)
        assert u.shape == (7, 2, 2)
        for t, u_t in zip(times, u):
            assert np.array_equal(u_t, unitary_exp(h, t))
    stack = np.stack([PAULI_X, PAULI_Z])
    assert np.array_equal(unitary_exp(stack, [0.3, 0.7]), np.stack([unitary_exp(PAULI_X, 0.3), unitary_exp(PAULI_Z, 0.7)]))


def test_unitary_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        unitary_exp(np.array([[0, 1], [0, 0]]), 1.0)


def test_rk4_scalar_exponential_step():
    y = rk4_step(lambda t, y: y, 1.0, 0.0, 0.1)
    assert abs(y - 1.1051708333333332) < 1e-15


def test_rk4_convergence_order_complex_rotation():
    # dy/dt = -2i y over [0, 2]; halving the step must shrink the endpoint
    # error by about 2^4
    lam = 2.0
    exact = np.exp(-1j * lam * 2.0)
    errors = []
    for dt in (0.05, 0.025):
        y = 1.0 + 0.0j
        steps = round(2.0 / dt)
        for k in range(steps):
            y = rk4_step(lambda t, y: -1j * lam * y, y, k * dt, dt)
        errors.append(abs(y - exact))
    order = np.log2(errors[0] / errors[1])
    assert order >= 3.8


def test_rk4_handles_vectors():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = np.array([1.0, 0.0])
    t = 0.0
    for k in range(1000):
        y = rk4_step(lambda t, y: a @ y, y, t, 1e-3)
        t += 1e-3
    assert np.max(np.abs(y - np.array([np.cos(1.0), -np.sin(1.0)]))) < 1e-9


def test_nan_fails_every_input_gate():
    nan = float("nan")
    with pytest.raises(ValueError, match=r"probability .*nan.* lies outside \[0, 1\]"):
        require_range(np.array([nan, 0.5]))
    with pytest.raises(ValueError, match=r"probability .*nan.* lies outside \[0, 1\]"):
        qubit_density_from_probs([0.5, nan, 0.5])
    with pytest.raises(ValueError, match="matrix is not Hermitian: defect nan"):
        require_hermitian(np.array([[1.0, nan], [nan, 0.0]]), 1e-10)
    with pytest.raises(ValueError, match="density matrix is not Hermitian: defect nan"):
        qubit_probs_from_density([[nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="direction must be a unit vector, norm is nan"):
        tomogram(np.eye(2) / 2.0, [nan, 0.0, 1.0])
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian: defect nan"):
        evolve_blocks([[nan, 0.0], [0.0, 1.0]], identity_channel_probs(), 1.0, 0.1)
    choi = np.eye(4, dtype=complex) / 2.0
    choi[1, 2] = complex(0.0, nan)
    with pytest.raises(ValueError, match="imaginary residue nan exceeds"):
        probs_from_choi(choi)
