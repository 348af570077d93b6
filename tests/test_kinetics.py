import numpy as np
import pytest

from probchan import matcore
from probchan.kinetics import (
    _BLOCK,
    MAX_STEPS,
    build_generator,
    build_q,
    compare_to_oracle,
    evolve_blocks,
    evolve_probs,
    oracle_probs,
    validate_hamiltonian,
)
from probchan.matcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hermiticity_defect,
    identity,
    kron,
    rk4_step,
    unitary_exp,
    vec,
)
from probchan.probchannel import (
    channel_constraint_residuals,
    choi_from_probs,
    identity_channel_probs,
    probs_from_choi,
)
from conftest import complex_normal, random_channel_probs, random_hermitian


def maximally_entangled_projector():
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0] = d[0, 3] = d[3, 0] = d[3, 3] = 1.0
    return d


def test_validate_hamiltonian():
    h = validate_hamiltonian([[1.0, 0.0], [0.0, -1.0]])
    assert h.shape == (2, 2) and h.dtype == complex
    with pytest.raises(ValueError):
        validate_hamiltonian(np.eye(3))
    with pytest.raises(ValueError):
        validate_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_build_q_zero_hamiltonian():
    assert np.array_equal(build_q(np.zeros((2, 2))), np.zeros((16, 16)))


def test_build_q_sigma_z_on_identity_choi():
    out = build_q(PAULI_Z) @ vec(maximally_entangled_projector())
    expected = np.zeros(16, dtype=complex)
    expected[3] = 2.0
    expected[12] = -2.0
    assert np.array_equal(out, expected)


def test_build_q_defining_identity():
    rng = np.random.default_rng(60)
    for _ in range(100):
        h = random_hermitian(rng, 2)
        m = complex_normal(rng, (4, 4))
        lifted = kron(h, identity(2))
        direct = vec(lifted @ m - m @ lifted)
        assert np.max(np.abs(build_q(h) @ vec(m) - direct)) < 1e-13


def test_build_q_hermitian():
    rng = np.random.default_rng(61)
    for h in (PAULI_X, PAULI_Y, PAULI_Z, random_hermitian(rng, 2)):
        assert hermiticity_defect(build_q(h)) == 0.0


def test_build_generator_zero():
    gen = build_generator(np.zeros((2, 2)))
    assert np.array_equal(gen.Q, np.zeros((16, 16)))
    assert np.array_equal(gen.G, np.zeros((15, 15)))
    assert np.array_equal(gen.g, np.zeros(15))


def test_build_generator_sigma_z_initial_derivative():
    gen = build_generator(PAULI_Z)
    deriv = -1j * (gen.G @ identity_channel_probs() + gen.g)
    assert np.max(np.abs(deriv.imag)) < 1e-15
    expected = np.zeros(15)
    expected[8] = 1.0  # dp9/dt = 1 at t = 0; dp8/dt = 0; everything else frozen
    assert np.max(np.abs(deriv.real - expected)) < 1e-15


def test_build_generator_keeps_probabilities_real():
    rng = np.random.default_rng(62)
    gen = build_generator(random_hermitian(rng, 2, norm=5.0))
    worst = 0.0
    for _ in range(1000):
        p = random_channel_probs(rng)
        worst = max(worst, float(np.max(np.abs((-1j * (gen.G @ p + gen.g)).imag))))
    assert worst <= 1e-12


def test_evolve_zero_hamiltonian_is_constant():
    rng = np.random.default_rng(63)
    p0 = random_channel_probs(rng)
    traj = evolve_probs(np.zeros((2, 2)), p0, 1.0, dt=0.25)
    assert traj.times.shape == (5,)
    assert np.array_equal(traj.times, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    for row in traj.probs:
        assert np.array_equal(row, p0)
    # the oracle covers the identity-channel initial condition
    from_identity = evolve_probs(np.zeros((2, 2)), identity_channel_probs(), 1.0, dt=0.25)
    assert compare_to_oracle(np.zeros((2, 2)), from_identity) == 0.0


def test_evolve_sampling_structure():
    traj = evolve_probs(PAULI_Z, identity_channel_probs(), 1.0, dt=0.3)
    assert traj.times.shape == (5,) and traj.probs.shape == (5, 15)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0)
    assert traj.dt == 0.3
    assert np.array_equal(traj.probs[0], identity_channel_probs())


def test_evolve_sigma_z_quarter_pi():
    traj = evolve_probs(PAULI_Z, identity_channel_probs(), np.pi / 4)
    expected = np.full(15, 0.5)
    expected[0] = expected[1] = 1.0
    expected[8] = 1.0  # p9 peaks while p8 passes through 1/2
    assert np.max(np.abs(traj.probs[-1] - expected)) < 1e-8


def test_evolve_sigma_x_half_pi():
    traj = evolve_probs(PAULI_X, identity_channel_probs(), np.pi / 2)
    expected = np.full(15, 0.5)
    expected[2] = 1.0
    expected[9] = 1.0
    assert np.max(np.abs(traj.probs[-1] - expected)) < 1e-8


def test_evolve_rejects_bad_inputs():
    p0 = identity_channel_probs()
    # evolve_blocks raises in the call itself, before any block is asked for
    for evolve in (evolve_probs, evolve_blocks):
        with pytest.raises(ValueError):
            evolve(PAULI_Z, p0, -1.0)
        with pytest.raises(ValueError):
            evolve(PAULI_Z, p0, 0.0)
        with pytest.raises(ValueError):
            evolve(PAULI_Z, p0, 1.0, dt=2.0)
        with pytest.raises(ValueError):
            evolve(PAULI_Z, p0, 1.0, dt=0.0)
        with pytest.raises(ValueError):
            evolve(PAULI_Z, np.full(15, 0.5), 1.0)  # violates p1 + p3 = 3/2
        with pytest.raises(ValueError):
            evolve(PAULI_Z, p0[:14], 1.0)
        with pytest.raises(ValueError):
            evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), p0, 1.0)


def test_evolve_rejects_step_counts_over_the_cap():
    p0 = identity_channel_probs()
    for evolve in (evolve_probs, evolve_blocks):
        for t_max, dt in ((10.0, 5e-324), (1.0, 0.5 / MAX_STEPS), (1e300, 1e-3)):
            with pytest.raises(ValueError, match="exceeds"):
                evolve(PAULI_Z, p0, t_max, dt)


def test_generator_real_part_is_exactly_zero():
    rng = np.random.default_rng(66)
    hamiltonians = [PAULI_X, PAULI_Y, PAULI_Z]
    hamiltonians += [random_hermitian(rng, 2, norm=float(rng.uniform(0.1, 10.0))) for _ in range(200)]
    for h in hamiltonians:
        gen = build_generator(h)
        assert not gen.G.real.any() and not gen.g.real.any()


def test_precomputed_step_matches_complex_rk4():
    rng = np.random.default_rng(67)
    for h in (PAULI_Y, random_hermitian(rng, 2, norm=5.0)):
        p0 = random_channel_probs(rng)
        gen = build_generator(h)

        def deriv(_t, y):
            return -1j * (gen.G @ y + gen.g)

        y = p0
        reference = [p0]
        for k in range(3500):
            y = rk4_step(deriv, y, k * 1e-3, 1e-3).real
            reference.append(y)
        traj = evolve_probs(h, p0, 3.5, 1e-3)
        assert traj.probs.shape == (3501, 15)
        assert np.max(np.abs(traj.probs - np.array(reference))) <= 1e-12


def sequential_trajectory(h, p0, n_whole, dt, remainder):
    """The per-step loop P[k + 1] = M P[k] + m, then one RK4 step of length remainder when it is positive."""
    gen = build_generator(h)
    k_mat, k_vec = gen.G.imag, gen.g.imag

    def deriv(_t, y):
        return k_mat @ y + k_vec

    step = rk4_step(lambda _t, y: k_mat @ y, np.eye(15), 0.0, dt)
    shift = rk4_step(deriv, np.zeros(15), 0.0, dt)
    probs = [p0]
    for _ in range(n_whole):
        probs.append(step @ probs[-1] + shift)
    if remainder:
        probs.append(rk4_step(deriv, probs[-1], n_whole * dt, remainder))
    return np.array(probs)


def test_blocks_match_sequential_steps_across_block_boundaries():
    rng = np.random.default_rng(69)
    dt = 1e-3
    grids = [(n, 0.0) for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17)]
    # a shorter final step; in the first two grids it is the first sample of a block (n_whole + 1 = 0 mod _BLOCK)
    grids += [(_BLOCK - 1, 0.4 * dt), (2 * _BLOCK - 1, 0.7 * dt), (_BLOCK + 5, 0.5 * dt)]
    for n_whole, remainder in grids:
        h = random_hermitian(rng, 2, norm=float(rng.uniform(1.0, 5.0)))
        p0 = random_channel_probs(rng)
        t_max = n_whole * dt + remainder
        blocks = list(evolve_blocks(h, p0, t_max, dt))
        n = n_whole + 1 + (remainder > 0)
        assert [len(t) for t, _ in blocks] == [min(_BLOCK, n - start) for start in range(0, n, _BLOCK)]
        traj = evolve_probs(h, p0, t_max, dt)
        assert np.array_equal(traj.times, np.concatenate([t for t, _ in blocks]))
        assert np.array_equal(traj.probs, np.concatenate([p for _, p in blocks]))
        assert traj.times[-1] == t_max and np.array_equal(traj.times[:-1], np.arange(n - 1) * dt)
        assert np.array_equal(traj.probs[0], p0)
        reference = sequential_trajectory(h, p0, n_whole, dt, t_max - n_whole * dt if remainder else 0.0)
        assert traj.probs.shape == reference.shape
        assert np.max(np.abs(traj.probs - reference)) <= 1e-12


def test_batched_oracle_matches_per_time_closed_form():
    rng = np.random.default_rng(68)
    times = np.concatenate([np.linspace(0.0, 9.1, 37), [10.0]])
    for h in (PAULI_X, PAULI_Y, PAULI_Z, random_hermitian(rng, 2, norm=5.0)):
        batched = oracle_probs(h, times)
        assert batched.shape == (len(times), 15)
        for t, row in zip(times, batched):
            v = vec(unitary_exp(h, t))
            assert np.max(np.abs(row - probs_from_choi(np.outer(v, v.conj())))) <= 1e-14
            assert np.max(np.abs(row - oracle_probs(h, t))) <= 1e-14
    assert oracle_probs(PAULI_Z, 0.5).shape == (15,)


def test_oracle_gates_the_hamiltonian_once(monkeypatch):
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        oracle_probs([[0.0, 1.0], [0.0, 0.0]], np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="expected a 2 x 2 Hamiltonian"):
        oracle_probs(np.eye(3), 1.0)
    calls = []
    defect = matcore.hermiticity_defect
    monkeypatch.setattr(matcore, "hermiticity_defect", lambda m: calls.append(m) or defect(m))
    oracle_probs(PAULI_X, np.linspace(0.0, 1.0, 5))
    assert len(calls) == 1


def test_oracle_at_zero_matches_identity_channel():
    rng = np.random.default_rng(64)
    for h in (PAULI_X, PAULI_Y, PAULI_Z, random_hermitian(rng, 2, norm=5.0)):
        assert np.max(np.abs(oracle_probs(h, 0.0) - identity_channel_probs())) < 1e-14


def test_oracle_closed_forms():
    for t in np.linspace(0.0, 3.0, 13):
        p = oracle_probs(PAULI_Z, t)
        assert abs(p[7] - (1.0 + np.cos(2 * t)) / 2.0) < 1e-12
        assert abs(p[8] - (1.0 + np.sin(2 * t)) / 2.0) < 1e-12
        assert abs(p[0] - 1.0) < 1e-14 and abs(p[1] - 1.0) < 1e-14 and abs(p[2] - 0.5) < 1e-14

    p = oracle_probs(PAULI_Z, np.pi / 4)
    assert abs(p[7] - 0.5) < 1e-12 and abs(p[8] - 1.0) < 1e-12
    p = oracle_probs(PAULI_X, np.pi / 2)
    assert abs(p[2] - 1.0) < 1e-12 and abs(p[9] - 1.0) < 1e-12
    assert abs(p[0] - 0.5) < 1e-12 and abs(p[1] - 0.5) < 1e-12


def test_oracle_choi_stays_pure():
    rng = np.random.default_rng(65)
    h = random_hermitian(rng, 2, norm=5.0)
    for t in (0.0, 0.7, 2.3, 9.1):
        choi = choi_from_probs(oracle_probs(h, t))
        vals = np.linalg.eigvalsh(choi)
        assert np.max(np.abs(vals - np.array([0.0, 0.0, 0.0, 2.0]))) < 1e-10
        assert abs(choi.trace().real - 2.0) < 1e-10


def test_compare_to_oracle_sigma_z_long_run():
    traj = evolve_probs(PAULI_Z, identity_channel_probs(), 10.0)
    assert compare_to_oracle(PAULI_Z, traj) <= 1e-6


def test_sigma_z_trajectory_is_pi_periodic():
    p0 = identity_channel_probs()
    traj = evolve_probs(PAULI_Z, p0, np.pi)
    assert np.max(np.abs(traj.probs[-1] - p0)) < 1e-6


def test_constraints_preserved_along_trajectory():
    traj = evolve_probs(PAULI_X, identity_channel_probs(), 2.0)
    worst = max(float(np.max(channel_constraint_residuals(row))) for row in traj.probs)
    assert worst < 1e-12
