import warnings

import numpy as np
import pytest

from probchan import kinetics, matcore
from probchan.kinetics import (
    _BLOCK,
    MAX_STEPS,
    P_STAR,
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
    identity,
    vec,
)
from probchan.channelcore import choi_from_kraus
from probchan.probchannel import (
    build_constants,
    channel_constraint_residuals,
    check_channel_prob_constraints,
    choi_from_probs,
    identity_channel_probs,
    probs_from_choi,
)
from conftest import complex_normal, random_channel_probs, random_hermitian, rk4_step, unitary_exp


def complex_pair(h):
    """G = A Q B and g = A Q c from build_q and build_constants: the paper's i dP/dt = G P + g, as reference."""
    k = build_constants()
    q = build_q(h)
    return k.prob_matrix @ q @ k.choi_matrix, k.prob_matrix @ (q @ k.choi_offset)


BASIS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), PAULI_X, PAULI_Y)  # E00, E11, sigma_x, sigma_y


def edge_hamiltonians(rng):
    """Zero, multiples of the identity, diagonal, real, tiny, huge and near-overflow Hamiltonians."""
    h = random_hermitian(rng, 2)
    return [
        np.zeros((2, 2)),
        2.5 * identity(2),
        -1e-300 * identity(2),
        np.diag([1.3, -0.2]),
        h.real,
        1e-300 * h,
        1e150 * h,
        np.array([[8e307, 8e307j], [-8e307j, -8e307]]),
    ]


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
        lifted = np.kron(h, identity(2))
        direct = vec(lifted @ m - m @ lifted)
        assert np.max(np.abs(build_q(h) @ vec(m) - direct)) < 1e-13


def test_build_q_hermitian():
    rng = np.random.default_rng(61)
    for h in (PAULI_X, PAULI_Y, PAULI_Z, random_hermitian(rng, 2)):
        q = build_q(h)
        assert np.array_equal(q, q.conj().T)


def test_build_generator_zero():
    big_g, small_g = complex_pair(np.zeros((2, 2)))
    assert np.array_equal(big_g, np.zeros((15, 15)))
    assert np.array_equal(small_g, np.zeros(15))
    assert np.array_equal(build_generator(np.zeros((2, 2))), np.zeros((15, 15)))


def test_build_generator_sigma_z_initial_derivative():
    big_g, small_g = complex_pair(PAULI_Z)
    deriv = -1j * (big_g @ identity_channel_probs() + small_g)
    assert np.max(np.abs(deriv.imag)) < 1e-15
    expected = np.zeros(15)
    expected[8] = 1.0  # dp9/dt = 1 at t = 0; dp8/dt = 0; everything else frozen
    assert np.max(np.abs(deriv.real - expected)) < 1e-15
    assert np.max(np.abs(build_generator(PAULI_Z) @ (identity_channel_probs() - P_STAR) - expected)) < 1e-15


def test_build_generator_keeps_probabilities_real():
    rng = np.random.default_rng(62)
    h = random_hermitian(rng, 2, norm=5.0)
    big_g, small_g = complex_pair(h)
    k_mat = build_generator(h)
    worst = worst_real = 0.0
    for _ in range(1000):
        p = random_channel_probs(rng)
        deriv = -1j * (big_g @ p + small_g)
        worst = max(worst, float(np.max(np.abs(deriv.imag))))
        worst_real = max(worst_real, float(np.max(np.abs(k_mat @ (p - P_STAR) - deriv.real))))
    assert worst <= 1e-12
    assert worst_real <= 1e-12


def test_generator_is_its_basis_generators_combined_bit_for_bit():
    """K = Im(A Q B) has the bytes of x1 K1 + ... + x4 K4, x = (h00, h11, Re h01, -Im h01), K_a the generator of X_a."""
    stack = np.stack([build_generator(x) for x in BASIS])
    assert set(np.unique(stack)) <= {-2.0, -1.0, 0.0, 1.0, 2.0}
    rng = np.random.default_rng(74)
    hamiltonians = [*BASIS, PAULI_Z, *edge_hamiltonians(rng)]
    hamiltonians += [random_hermitian(rng, 2, norm=float(rng.uniform(0.1, 10.0))) for _ in range(200)]
    for h in hamiltonians:
        gated = validate_hamiltonian(h)
        x = [gated[0, 0].real, gated[1, 1].real, gated[0, 1].real, -gated[0, 1].imag]
        k_mat = build_generator(h)
        assert k_mat.flags.c_contiguous
        assert k_mat.tobytes() == np.tensordot(x, stack, 1).tobytes(), h


def test_fixed_point_is_exact():
    assert np.array_equal(P_STAR, probs_from_choi(identity(4) / 2.0))
    assert np.array_equal(P_STAR, np.array([0.75] * 3 + [0.5] * 12))
    assert not P_STAR.flags.writeable
    ok, residuals = check_channel_prob_constraints(P_STAR, tol=0.0)
    assert ok and not residuals.any()
    rng = np.random.default_rng(70)
    for _ in range(20):
        traj = evolve_probs(random_hermitian(rng, 2, norm=float(rng.uniform(0.1, 10.0))), P_STAR, 5.0)
        assert np.array_equal(traj.probs, np.broadcast_to(P_STAR, traj.probs.shape))


def test_near_hermitian_hamiltonian_evolves_its_hermitian_part():
    h = np.array([[1.0 + 1e-13j, 0.3 - 0.2j], [0.3 + 0.2j + 1e-13, -1.0]])
    assert 0.0 < np.abs(h - h.conj().T).max() <= 1e-12
    part = (h + h.conj().T) / 2.0
    assert np.array_equal(validate_hamiltonian(h), part)
    assert np.array_equal(build_generator(h), build_generator(part))
    rng = np.random.default_rng(71)
    p0 = random_channel_probs(rng)
    near, exact = evolve_probs(h, p0, 2.5), evolve_probs(part, p0, 2.5)
    assert np.array_equal(near.times, exact.times) and np.array_equal(near.probs, exact.probs)
    assert np.array_equal(oracle_probs(h, near.times), oracle_probs(part, near.times))


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
        for stack in (p0[None], np.stack([p0, p0])):
            with pytest.raises(ValueError, match=r"one vector of 15 initial probabilities, got shape \([12], 15\)$"):
                evolve(PAULI_Z, stack, 1.0)
        with pytest.raises(ValueError):
            evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), p0, 1.0)


def test_evolve_rejects_step_counts_over_the_cap():
    p0 = identity_channel_probs()
    for evolve in (evolve_probs, evolve_blocks):
        for t_max, dt in ((10.0, 5e-324), (1.0, 0.5 / MAX_STEPS), (1e300, 1e-3)):
            with pytest.raises(ValueError, match="exceeds"):
                evolve(PAULI_Z, p0, t_max, dt)


def test_evolve_refuses_steps_where_rk4_diverges():
    # K has eigenvalues 0 and +-i (l_max - l_min); |R(iy)| of RK4 exceeds 1 exactly when y > 2 sqrt(2)
    limit = 2.0 * np.sqrt(2.0)
    for y, grows in ((limit * (1 - 1e-9), False), (limit * (1 + 1e-9), True)):
        z = 1j * y
        assert (abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) > 1.0) == grows
    p0 = identity_channel_probs()
    rng = np.random.default_rng(67)
    for h in (100.0 * PAULI_X, *(random_hermitian(rng, 2) for _ in range(5))):
        eigs = np.linalg.eigvalsh(h)
        edge = limit / (eigs[1] - eigs[0])
        for evolve in (evolve_probs, evolve_blocks):
            with pytest.raises(ValueError, match="2 sqrt"):
                evolve(h, p0, 10 * edge, edge * (1 + 1e-9))
        traj = evolve_probs(h, p0, 1000 * edge, edge * (1 - 1e-9))
        assert np.max(np.abs(traj.probs - P_STAR)) <= 0.5 + 1e-9


def test_generator_real_part_is_exactly_zero():
    rng = np.random.default_rng(66)
    hamiltonians = [PAULI_X, PAULI_Y, PAULI_Z, *edge_hamiltonians(rng)]
    hamiltonians += [random_hermitian(rng, 2, norm=float(rng.uniform(0.1, 10.0))) for _ in range(200)]
    k = build_constants()
    for h in hamiltonians:
        big_g = k.prob_matrix @ build_q(h) @ k.choi_matrix  # G alone: g = A Q c overflows at the 8e307 scale
        assert not big_g.real.any()
        assert build_generator(h).tobytes() == big_g.imag.tobytes()  # by bytes: array_equal takes -0.0 for 0.0


def test_precomputed_step_matches_complex_rk4():
    rng = np.random.default_rng(67)
    for h in (PAULI_Y, random_hermitian(rng, 2, norm=5.0)):
        p0 = random_channel_probs(rng)
        big_g, small_g = complex_pair(h)

        def deriv(_t, y):
            return -1j * (big_g @ y + small_g)

        y = p0
        reference = [p0]
        for k in range(3500):
            y = rk4_step(deriv, y, k * 1e-3, 1e-3).real
            reference.append(y)
        traj = evolve_probs(h, p0, 3.5, 1e-3)
        assert traj.probs.shape == (3501, 15)
        assert np.max(np.abs(traj.probs - np.array(reference))) <= 1e-12


def sequential_trajectory(h, p0, n_whole, dt, remainder):
    """The per-step loop P[k + 1] = M P[k] + m of dP/dt = Im(G) P + Im(g), then one RK4 step of length remainder."""
    big_g, small_g = complex_pair(h)
    k_mat, k_vec = big_g.imag, small_g.imag

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


@pytest.mark.parametrize("block", [1, 7, 256])
def test_any_block_size_gives_the_same_trajectory_bit_for_bit(monkeypatch, block):
    """Each sample comes from its own index, so _BLOCK changes how the rows are cut and nothing else."""
    rng = np.random.default_rng(70)
    runs = [(random_hermitian(rng, 2, norm=3.0), random_channel_probs(rng), t_max, 1e-3) for t_max in (0.6, 1.0235)]
    runs.append((100.0 * PAULI_X, identity_channel_probs(), 1.0, 0.0141))
    whole = [evolve_probs(*run) for run in runs]  # 1,025 samples at most: one block
    monkeypatch.setattr(kinetics, "_BLOCK", block)
    for run, reference in zip(runs, whole):
        blocks = list(evolve_blocks(*run))
        n = len(reference.times)
        assert [len(t) for t, _ in blocks] == [min(block, n - start) for start in range(0, n, block)]
        assert np.concatenate([t for t, _ in blocks]).tobytes() == reference.times.tobytes()
        assert np.concatenate([p for _, p in blocks]).tobytes() == reference.probs.tobytes()


def literal_rk4(h, p0, n_whole, dt, remainder):
    """The classical RK4 loop on dP/dt = Im(G) P + Im(g), one rk4_step per sample, then one of length remainder."""
    big_g, small_g = complex_pair(h)
    k_mat, k_vec = big_g.imag, small_g.imag

    def deriv(_t, y):
        return k_mat @ y + k_vec

    probs = [p0]
    for k in range(n_whole):
        probs.append(rk4_step(deriv, probs[-1], k * dt, dt))
    if remainder:
        probs.append(rk4_step(deriv, probs[-1], n_whole * dt, remainder))
    return np.array(probs)


@pytest.mark.parametrize(
    "h, dt",
    [
        (1e-300 * PAULI_X, 1e-2),
        (5e-324 * PAULI_X, 1e-2),
        (1e6 * identity(2) + 1e-3 * PAULI_Z, 1e-2),
        (100.0 * PAULI_X, 0.0141),
        (1e140 * PAULI_X, 1.3e-141),
    ],
    ids=["1e-300 sigma_x", "5e-324 sigma_x", "1e6 I + 1e-3 sigma_z", "100 sigma_x", "1e140 sigma_x"],
)
def test_closed_form_matches_the_literal_rk4_loop_at_extreme_scales(h, dt):
    """w from h's entries and s, c from K agree with the literal loop whether w underflows, cancels or is huge."""
    gamma = 0.3
    damping = [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]), np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])]
    starts = [identity_channel_probs(), probs_from_choi(choi_from_kraus(damping))]
    for p0 in starts:
        for n_whole, remainder in ((120, 0.0), (120, 0.45 * dt)):
            t_max = n_whole * dt + remainder
            traj = evolve_probs(h, p0, t_max, dt)
            reference = literal_rk4(h, p0, n_whole, dt, t_max - n_whole * dt if remainder else 0.0)
            assert traj.probs.shape == reference.shape
            assert np.array_equal(traj.probs[0], p0)
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


def test_closed_form_oracle_matches_stacked_unitary_exp():
    """m + cos(w t) c + sin(w t) s against probs_from_choi(vec(U) vec(U)^dagger), U from unitary_exp."""
    rng = np.random.default_rng(72)
    times = np.concatenate([[0.0, 10.0], rng.uniform(0.0, 10.0, 48)])
    hamiltonians = [PAULI_X, PAULI_Y, PAULI_Z, 2.5 * identity(2), -0.7 * identity(2), np.zeros((2, 2))]
    hamiltonians += [random_hermitian(rng, 2, norm=float(rng.uniform(0.2, 5.0))) for _ in range(200)]
    for h in hamiltonians:
        v = vec(unitary_exp(h, times))
        reference = probs_from_choi(v[:, :, None] * v[:, None, :].conj())
        assert np.max(np.abs(oracle_probs(h, times) - reference)) <= 1e-14


def test_oracle_is_elementwise_in_time():
    """One call on a grid equals, bit for bit, the rows of calls on any split of it, as the CLI's blocks rely on."""
    rng = np.random.default_rng(73)
    times = np.arange(3035) * 0.003
    for h in (PAULI_X, PAULI_Z, random_hermitian(rng, 2, norm=4.0)):
        whole = oracle_probs(h, times)
        for cuts in ([256, 512, 768], [1, 2, 3, 1000], sorted(rng.choice(np.arange(1, 3035), 40, replace=False))):
            parts = [oracle_probs(h, part) for part in np.split(times, cuts)]
            assert np.array_equal(np.concatenate(parts), whole)
        assert np.array_equal(np.stack([oracle_probs(h, t) for t in times[:50]]), whole[:50])


def test_non_finite_or_overflowing_hamiltonian_is_refused_without_a_warning():
    # 1e308 is finite, but the Hermitian part (h + h^dagger) / 2 overflows; warnings are errors here, so an entry that
    # warned before its refusal would fail the test, and with numpy's warnings ignored it must still be refused
    nan, inf = float("nan"), float("inf")
    bad = [
        np.full((2, 2), 1e308),
        [[0.0, 1e308], [1e308, 0.0]],
        [[-1e308, 0.0], [0.0, -1e308]],
        [[inf, 0.0], [0.0, 1.0]],
        [[0.0, complex(0.0, inf)], [0.0, 0.0]],
        [[nan, 0.0], [0.0, 1.0]],
    ]
    p0 = identity_channel_probs()
    entries = (validate_hamiltonian, build_q, build_generator, lambda h: oracle_probs(h, 1.0))
    entries += (lambda h: evolve_blocks(h, p0, 1.0),)
    for errstate in ("warn", "ignore"):
        with warnings.catch_warnings(), np.errstate(all=errstate):
            warnings.simplefilter("error")
            for h in bad:
                for entry in entries:
                    with pytest.raises(ValueError, match="^Hamiltonian has NaN, infinite or too large entries$"):
                        entry(h)
            # entries whose Hermitian part stays finite pass unchanged, but an eigenvalue spread past the largest
            # double (about 2.3e308 here) is refused as non-finite before the stability test
            big = np.array([[8e307, 8e307j], [-8e307j, -8e307]])
            assert np.array_equal(validate_hamiltonian(big), big)
            with pytest.raises(ValueError, match="^Hamiltonian has NaN, infinite or too large entries$"):
                evolve_probs(big, p0, 1e-305, 1e-310)
            traj = evolve_probs(big / 4, p0, 1e-305, 1e-310)
            assert np.all(np.isfinite(traj.probs)) and traj.times[-1] == 1e-305


def test_oracle_gates_the_hamiltonian_once(monkeypatch):
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        oracle_probs([[0.0, 1.0], [0.0, 0.0]], np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="expected a 2 x 2 Hamiltonian"):
        oracle_probs(np.eye(3), 1.0)
    calls = []
    hermitian_pass = matcore._hermitian_pass
    monkeypatch.setattr(matcore, "_hermitian_pass", lambda m: calls.append(m) or hermitian_pass(m))
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
