import numpy as np
import pytest

from probchan.stateprob import (
    OFFDIAG_PROB_PAIRS,
    _offdiag_pairs,
    affine_choi,
    affine_probs,
    build_constants,
    distribution_set,
    qubit_bloch_check,
    qubit_density_from_probs,
    qubit_probs_from_density,
    tomogram,
    ququart_density_from_probs,
    ququart_probs_from_density,
)
from probchan.matcore import PAULI_X, PAULI_Y, PAULI_Z, identity
from conftest import random_bloch_probs, random_density


def test_qubit_corner_example():
    rho = qubit_density_from_probs([1.0, 1.0, 1.0])
    expected = np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 0.0]])
    assert np.array_equal(rho, expected)


@pytest.mark.parametrize(
    "probs,expected",
    [
        ((1.0, 0.5, 0.5), [[1, 0], [0, 0]]),
        ((0.0, 0.5, 0.5), [[0, 0], [0, 1]]),
        ((0.5, 1.0, 0.5), [[0.5, 0.5], [0.5, 0.5]]),
        ((0.5, 0.5, 0.5), [[0.5, 0], [0, 0.5]]),
        ((0.75, 0.75, 0.5), [[0.75, 0.25], [0.25, 0.25]]),
    ],
)
def test_qubit_named_states(probs, expected):
    assert np.array_equal(qubit_density_from_probs(probs), np.array(expected, dtype=complex))


def test_qubit_probs_circular_state():
    rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    assert np.array_equal(qubit_probs_from_density(rho), np.array([0.5, 0.5, 0.0]))


def test_qubit_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = random_bloch_probs(rng)
        back = qubit_probs_from_density(qubit_density_from_probs(p))
        assert np.max(np.abs(back - p)) < 1e-15
    for _ in range(200):
        rho = random_density(rng, 2)
        back = qubit_density_from_probs(qubit_probs_from_density(rho))
        assert np.max(np.abs(back - rho)) < 1e-14


def test_qubit_probs_rejects_bad_density():
    with pytest.raises(ValueError):
        qubit_probs_from_density(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        qubit_probs_from_density(np.array([[0.9, 0.0], [0.0, 0.0]]))


def test_qubit_density_rejects_out_of_range():
    with pytest.raises(ValueError):
        qubit_density_from_probs([1.2, 0.5, 0.5])
    with pytest.raises(ValueError):
        qubit_density_from_probs([-0.1, 0.5, 0.5])


def test_bloch_check_examples():
    valid, margin = qubit_bloch_check([1.0, 1.0, 1.0])
    assert not valid
    assert abs(margin - 0.75) < 1e-15
    valid, margin = qubit_bloch_check([1.0, 0.5, 0.5])
    assert valid
    assert abs(margin - 0.25) < 1e-15


def test_bloch_check_slack_is_1e_12():
    assert qubit_bloch_check([1.0, 0.5, 0.5]) == (True, 0.25)
    assert qubit_bloch_check([0.5 + np.sqrt(0.25 + 1.2e-12), 0.5, 0.5]) == (False, 0.25000000000119993)


def test_bloch_check_agrees_with_eigenvalues():
    rng = np.random.default_rng(22)
    for _ in range(300):
        p = rng.uniform(0.0, 1.0, 3)
        valid, _ = qubit_bloch_check(p)
        rho = qubit_density_from_probs(p)
        min_eig = np.linalg.eigvalsh(rho)[0]
        assert valid == (min_eig >= -1e-12)


def test_tomogram_recovers_axis_probs():
    rng = np.random.default_rng(23)
    axes = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    for _ in range(50):
        p = random_bloch_probs(rng)
        rho = qubit_density_from_probs(p)
        for k, axis in enumerate(axes):
            assert abs(tomogram(rho, axis) - p[k]) < 1e-12


def test_tomogram_opposite_directions_sum_to_one():
    rng = np.random.default_rng(24)
    for _ in range(50):
        rho = random_density(rng, 2)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        assert abs(tomogram(rho, n) + tomogram(rho, -n) - 1.0) < 1e-12


def test_tomogram_spot_values():
    mixed = np.eye(2, dtype=complex) / 2.0
    n = np.array([1.0, 2.0, -2.0]) / 3.0
    assert abs(tomogram(mixed, n) - 0.5) < 1e-15
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert abs(tomogram(ground, [0.0, 0.0, 1.0]) - 1.0) < 1e-15
    assert abs(tomogram(ground, [1.0, 0.0, 0.0]) - 0.5) < 1e-15


def test_tomogram_matches_the_projector_formula():
    # the reference is Tr(rho (I + n . sigma) / 2); tomogram reads the same number off the coin probabilities
    rng = np.random.default_rng(25)
    for _ in range(2000):
        rho = random_density(rng, 2)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        projector = 0.5 * (identity(2) + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)
        assert abs(tomogram(rho, n) - np.trace(rho @ projector).real) <= 1e-15
        assert abs(tomogram(rho, n) + tomogram(rho, -n) - 1.0) <= 1e-15


def test_tomogram_rejects_bad_inputs():
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError):
        tomogram(rho, [1.0, 1.0, 0.0])
    for direction in (1.0, [1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [[0.0, 0.0, 1.0]]):
        with pytest.raises(ValueError, match="^expected one vector of 3 direction components, got shape"):
            tomogram(rho, direction)
    not_psd = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(ValueError):
        tomogram(not_psd, [0.0, 0.0, 1.0])


def test_tomogram_unit_norm_tolerance_is_1e_12():
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError, match=r"^direction must be a unit vector, norm is 1\.0000000000012$"):
        tomogram(rho, [1.0 + 1.2e-12, 0.0, 0.0])
    assert tomogram(rho, [1.0 + 9e-13, 0.0, 0.0]) == 0.5


def test_ququart_bell_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    p = ququart_probs_from_density(rho)
    expected = np.full(15, 0.5)
    expected[0] = expected[1] = expected[7] = 1.0
    assert np.array_equal(p, expected)
    assert np.array_equal(ququart_density_from_probs(p), rho)


def test_ququart_diagonal_examples():
    p = np.full(15, 0.5)
    p[0] = p[1] = p[2] = 0.75
    assert np.array_equal(ququart_density_from_probs(p), np.eye(4, dtype=complex) / 4.0)
    assert np.array_equal(ququart_probs_from_density(np.eye(4) / 4.0), p)

    p56 = np.full(15, 0.5)
    p56[0] = p56[1] = p56[2] = 5.0 / 6.0
    rho = ququart_density_from_probs(p56)
    assert np.max(np.abs(rho - np.diag([0.5, 1 / 6, 1 / 6, 1 / 6]))) < 1e-15

    pure = np.full(15, 0.5)
    pure[0] = pure[1] = pure[2] = 1.0
    assert np.array_equal(ququart_probs_from_density(np.diag([1.0, 0, 0, 0])), pure)


def test_ququart_round_trip():
    rng = np.random.default_rng(25)
    for _ in range(200):
        rho = random_density(rng, 4)
        back = ququart_density_from_probs(ququart_probs_from_density(rho))
        assert np.max(np.abs(back - rho)) < 1e-14


def test_ququart_pairing_table_covers_upper_triangle():
    seen = {(r, c) for r, c, _, _ in OFFDIAG_PROB_PAIRS}
    assert seen == {(r, c) for r in range(4) for c in range(r + 1, 4)}
    indices = sorted(i for _, _, re_i, im_i in OFFDIAG_PROB_PAIRS for i in (re_i, im_i))
    assert indices == list(range(3, 15))


@pytest.mark.parametrize("n", [2, 3, 4, 16])
def test_generated_layout_identities_exact(n):
    k = build_constants(n)
    m = n * n - 1
    assert k.prob_matrix.shape == (m, n * n) and k.choi_matrix.shape == (n * n, m)
    assert np.array_equal(k.prob_matrix @ k.choi_matrix, np.eye(m))
    assert np.array_equal(k.prob_matrix @ k.choi_offset + k.prob_offset, np.zeros(m))
    assert build_constants(n) is k
    for arr in (k.prob_matrix, k.prob_offset, k.choi_matrix, k.choi_offset):
        with pytest.raises(ValueError):
            arr[0] = 0
    pairs = _offdiag_pairs(n)
    assert [(r, c) for r, c, _, _ in pairs] == [(r, c) for r in range(n) for c in range(r + 1, n)]
    assert sorted(i for _, _, re_i, im_i in pairs for i in (re_i, im_i)) == list(range(n - 1, m))


@pytest.mark.parametrize("n", [1, 0, -3])
def test_generated_layout_refuses_small_dimensions(n):
    with pytest.raises(ValueError, match="at least 2"):
        build_constants(n)


def test_generated_layout_follows_the_rule_at_n_3():
    rng = np.random.default_rng(27)
    for _ in range(50):
        rho = random_density(rng, 3)
        p = affine_probs(2.0 * rho).real
        assert np.max(np.abs(p[:2] - (1.0 - np.diag(rho)[1:].real))) < 1e-15
        for r, c, re_i, im_i in _offdiag_pairs(3):
            assert abs(rho[r, c] - ((p[re_i] - 0.5) - 1j * (p[im_i] - 0.5))) < 1e-15
        assert abs(p[0] + p[1] - 1.0 - rho[0, 0]) < 1e-15
        assert np.max(np.abs(affine_choi(p) / 2.0 - rho)) < 1e-15


def _hand_written_qubit_density(p):
    p1, p2, p3 = p
    off = (p2 - 0.5) - 1j * (p3 - 0.5)
    return np.array([[p1, off], [np.conj(off), 1.0 - p1]], dtype=complex)


def _hand_written_qubit_probs(rho):
    return np.array([rho[0, 0].real, 0.5 + rho[1, 0].real, 0.5 + rho[1, 0].imag])


def test_qubit_conversions_match_the_hand_written_formulas():
    rng = np.random.default_rng(28)
    probs = rng.uniform(0.0, 1.0, (2000, 3))
    stacked = qubit_density_from_probs(probs)
    for p, rho in zip(probs, stacked):
        expected = _hand_written_qubit_density(p)
        assert qubit_density_from_probs(p).tobytes() == expected.tobytes()
        assert rho.tobytes() == expected.tobytes()
    for _ in range(2000):
        rho = random_density(rng, 2)
        rho = (rho + rho.conj().T) / 2.0  # exactly Hermitian
        rho[1, 1] = 1.0 - rho[0, 0]  # exactly trace 1
        got, expected = qubit_probs_from_density(rho), _hand_written_qubit_probs(rho)
        assert got[1:].tobytes() == expected[1:].tobytes()
        # the rule reads p1 = 1 - rho_11, the hand-written formula rho_00
        assert abs(got[0] - expected[0]) <= np.spacing(0.5)


def test_ququart_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        ququart_density_from_probs(np.full(14, 0.5))
    bad = np.full(15, 0.5)
    bad[3] = 1.5
    with pytest.raises(ValueError):
        ququart_density_from_probs(bad)
    with pytest.raises(ValueError):
        ququart_probs_from_density(np.eye(4))


def test_distribution_set_identity_channel_probs():
    p = np.full(15, 0.5)
    p[0] = p[1] = p[7] = 1.0
    ds = distribution_set(p)
    assert np.array_equal(ds.main, np.array([0.5, 0.0, 0.0, 0.5]))
    assert ds.dichotomics.shape == (12, 2)
    assert np.array_equal(ds.dichotomics[4], np.array([1.0, 0.0]))
    assert np.array_equal(ds.dichotomics[0], np.array([0.5, 0.5]))


def test_distribution_set_rows_are_distributions():
    rng = np.random.default_rng(26)
    for _ in range(100):
        p = ququart_probs_from_density(random_density(rng, 4))
        ds = distribution_set(p)
        assert abs(ds.main.sum() - 1.0) < 1e-12
        assert np.all(ds.main >= 0.0)
        assert np.all(ds.dichotomics >= 0.0)
        # dichotomic pairs sum to 1 with no rounding at all
        assert np.all(ds.dichotomics.sum(axis=1) == 1.0)


@pytest.mark.parametrize(
    "head,expected_main",
    [
        ((0.75, 0.75, 0.75), (0.25, 0.25, 0.25, 0.25)),
        ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 0.0)),
        ((1.0, 1.0, 0.5), (0.5, 0.0, 0.0, 0.5)),
    ],
)
def test_distribution_set_main_examples(head, expected_main):
    p = np.full(15, 0.5)
    p[0], p[1], p[2] = head
    assert np.array_equal(distribution_set(p).main, np.array(expected_main))


def test_distribution_set_rejects_small_head():
    p = np.full(15, 0.5)
    p[0], p[1], p[2] = 0.6, 0.6, 0.7
    with pytest.raises(ValueError, match=r"^p1 \+ p2 \+ p3 = 1\.9 is below 2"):
        distribution_set(p)


def test_single_vector_functions_refuse_stacks():
    with pytest.raises(ValueError, match=r"^expected one vector of 15 probabilities, got shape \(2, 15\)$"):
        distribution_set(np.full((2, 15), 0.75))
    with pytest.raises(ValueError, match=r"^expected one vector of 3 probabilities, got shape \(1, 3\)$"):
        qubit_bloch_check([[0.5, 0.5, 0.5]])
