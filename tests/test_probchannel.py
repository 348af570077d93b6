import numpy as np
import pytest

from probchan.channelcore import choi_from_kraus, kraus_from_choi, verify_cptp
from probchan.matcore import PAULI_X, PAULI_Y, PAULI_Z, identity
from probchan.probchannel import (
    N_PROBS,
    build_constants,
    channel_constraint_residuals,
    check_channel_prob_constraints,
    choi_from_probs,
    identity_channel_probs,
    probs_from_choi,
)
from probchan.kinetics import P_STAR, oracle_probs
from probchan.stateprob import ququart_probs_from_density
from conftest import random_channel_probs, random_tp_kraus


def maximally_entangled_projector():
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0] = d[0, 3] = d[3, 0] = d[3, 3] = 1.0
    return d


def test_compatibility_identities_exact():
    k = build_constants()
    assert np.array_equal(k.prob_matrix @ k.choi_matrix, np.eye(N_PROBS))
    assert np.array_equal(k.prob_matrix @ k.choi_offset + k.prob_offset, np.zeros(N_PROBS))


def test_constants_are_cached_and_read_only():
    k = build_constants()
    assert build_constants() is k
    for arr in (k.prob_matrix, k.prob_offset, k.choi_matrix, k.choi_offset):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_constants_frozen_entries():
    k = build_constants()
    a, b = k.prob_matrix, k.prob_offset
    bm, c = k.choi_matrix, k.choi_offset

    # p1 = 1 - D[1,1]/2 with bias 1; p9 reads the imaginary part of the (0,3) pair
    assert a[0, 5] == -0.5
    assert b[0] == 1.0
    assert a[8, 3] == 0.25j
    assert a[8, 12] == -0.25j
    assert b[8] == 0.5

    # D[0,0] = 2(p1 + p2 + p3) - 4; D[1,1] = 2 - 2 p1
    assert bm[0, 0] == 2.0 and bm[0, 1] == 2.0 and bm[0, 2] == 2.0
    assert c[0] == -4.0
    assert bm[5, 0] == -2.0
    assert c[5] == 2.0

    # first column of the inverse map touches exactly two rows
    col = bm[:, 0]
    nonzero = np.nonzero(col)[0]
    assert list(nonzero) == [0, 5]

    # pair (2,3): upper entry at vec index 11, lower at 14
    assert bm[11, 13] == 2.0 and bm[11, 14] == -2j
    assert c[11] == -1.0 + 1.0j
    assert bm[14, 13] == 2.0 and bm[14, 14] == 2j
    assert c[14] == -1.0 - 1.0j

    assert np.count_nonzero(a) == 27
    assert np.count_nonzero(bm) == 30
    assert np.count_nonzero(c) == 16


def test_identity_channel_probs_frozen():
    p = identity_channel_probs()
    expected = np.full(15, 0.5)
    expected[0] = expected[1] = expected[7] = 1.0
    assert np.array_equal(p, expected)
    assert np.array_equal(probs_from_choi(maximally_entangled_projector()), expected)


def test_probs_from_choi_frozen_examples():
    p = probs_from_choi(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    expected = np.full(15, 0.5)
    expected[1] = expected[2] = 1.0
    assert np.array_equal(p, expected)

    p = probs_from_choi(identity(4) / 2.0)
    expected = np.full(15, 0.5)
    expected[0] = expected[1] = expected[2] = 0.75
    assert np.array_equal(p, expected)


def test_choi_from_probs_frozen_example():
    choi = choi_from_probs(np.full(15, 0.5))
    assert np.array_equal(choi, np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex))
    assert verify_cptp(choi).verdict == "neither"


def test_choi_from_probs_always_hermitian():
    rng = np.random.default_rng(50)
    for _ in range(100):
        p = rng.uniform(-2.0, 2.0, size=15)
        d = choi_from_probs(p)
        assert np.array_equal(d, d.conj().T)


def test_round_trip_choi_probs_choi():
    rng = np.random.default_rng(51)
    for _ in range(200):
        choi = choi_from_kraus(random_tp_kraus(rng, int(rng.integers(1, 5))))
        back = choi_from_probs(probs_from_choi(choi))
        assert np.max(np.abs(back - choi)) < 1e-13


def test_round_trip_probs_choi_probs():
    rng = np.random.default_rng(52)
    for _ in range(200):
        p = rng.uniform(0.0, 1.0, size=15)
        assert np.max(np.abs(probs_from_choi(choi_from_probs(p)) - p)) < 1e-13
    for _ in range(50):
        p = rng.uniform(-1.0, 2.0, size=15)
        assert np.max(np.abs(probs_from_choi(choi_from_probs(p)) - p)) < 1e-13


def test_probs_from_choi_reads_no_d00():
    """The fifteen probabilities fix a Hermitian D only with trace 2: the round trip keeps D's other 15 entries and
    sets D00 to 2 - (D11 + D22 + D33), on random PSD matrices of traces from 1e-3 to 1e3. No trace is refused."""
    for d00 in (3.0, 1e308):
        assert probs_from_choi(np.diag([d00, 0.5, 0.5, 0.5])).tobytes() == P_STAR.tobytes()
    rng = np.random.default_rng(53)
    others = np.ones((4, 4), dtype=bool)
    others[0, 0] = False
    for _ in range(500):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        d = a @ a.conj().T
        d *= 10.0 ** rng.uniform(-3, 3) / np.trace(d).real
        back = choi_from_probs(probs_from_choi(d))
        scale = max(1.0, np.max(np.abs(d)))
        assert np.max(np.abs(back - d)[others]) <= 1e-15 * scale
        assert abs(back[0, 0] - (2.0 - np.trace(d[1:, 1:]).real)) <= 1e-13 * scale


def test_probs_from_choi_rejects_imaginary_residue():
    bad = maximally_entangled_projector()
    bad[0, 3] = 1.0 + 0.1j  # breaks hermiticity, probabilities pick up imag parts
    with pytest.raises(ValueError):
        probs_from_choi(bad)
    with pytest.raises(ValueError):
        probs_from_choi(np.eye(3))


def test_one_hermiticity_gate_at_every_entry():
    """probs_from_choi and kraus_from_choi refuse in the same words exactly the defects above 1e-9, at any entry.

    A full-rank CPTP matrix, made exactly Hermitian, is shifted at one of its 16 entries to a defect of 0.9e-9 or
    1.1e-9: by a real number off the diagonal, by i times half the defect on it. An imaginary D00 leaves every
    probability's imaginary part at 0, so only the gate on D itself sees it.
    """
    c = choi_from_kraus(random_tp_kraus(np.random.default_rng(3601), 4))
    choi = (c + c.conj().T) / 2.0
    assert verify_cptp(choi).hermiticity_defect == 0.0 and np.linalg.eigvalsh(choi)[0] > 1e-3
    message = r"^Choi matrix is not Hermitian: defect 1\.100e-09 exceeds 1\.000e-09$"
    for at in np.ndindex(4, 4):
        for defect, refused in ((0.9e-9, False), (1.1e-9, True)):
            shifted = choi.copy()
            shifted[at] += 0.5j * defect if at[0] == at[1] else defect
            assert (verify_cptp(shifted).hermiticity_defect > 1e-9) == refused, at
            for fn in (probs_from_choi, kraus_from_choi):
                if refused:
                    with pytest.raises(ValueError, match=message):
                        fn(shifted)
                else:
                    fn(shifted)


def test_stacked_calls_match_per_element_calls():
    rng = np.random.default_rng(58)
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1.0
    chois = [choi_from_kraus(random_tp_kraus(rng, int(rng.integers(1, 5)))) for _ in range(6)]
    chois += [0.5 * choi_from_kraus(random_tp_kraus(rng, 2)) for _ in range(3)]  # CP, not TP
    chois += [swap, np.diag([-1.0, 1.0, 1.0, 1.0]), np.diag([2.0, 0.0, 0.0, 0.0])]
    stack = np.array(chois, dtype=complex)

    probs = probs_from_choi(stack)
    assert probs.tobytes() == np.array([probs_from_choi(m) for m in stack]).tobytes()
    back = choi_from_probs(probs)
    assert back.tobytes() == np.array([choi_from_probs(p) for p in probs]).tobytes()

    stacked = verify_cptp(stack.reshape(3, 4, 4, 4), 1e-9)
    singles = [verify_cptp(m, 1e-9) for m in stack]
    assert {r.verdict for r in singles} == {"CPTP", "CP-not-TP", "TP-not-CP", "neither"}
    assert stacked.verdict.reshape(-1).tolist() == [r.verdict for r in singles]
    for field in ("hermiticity_defect", "trace_value", "tp_defect", "min_eigenvalue"):
        values = [getattr(r, field) for r in singles]
        assert all(type(v) is float for v in values)
        assert np.max(np.abs(getattr(stacked, field).reshape(-1) - values)) <= 1e-12
    assert all(type(r.verdict) is str for r in singles)


def test_probabilities_in_range_for_cptp():
    rng = np.random.default_rng(53)
    for _ in range(200):
        choi = choi_from_kraus(random_tp_kraus(rng, int(rng.integers(1, 5))))
        p = probs_from_choi(choi)
        assert np.all(p >= -1e-10) and np.all(p <= 1.0 + 1e-10)


def test_agrees_with_ququart_map_on_half_choi():
    rng = np.random.default_rng(54)
    for _ in range(100):
        choi = choi_from_kraus(random_tp_kraus(rng, int(rng.integers(1, 5))))
        direct = probs_from_choi(choi)
        via_state = ququart_probs_from_density(choi / 2.0)
        assert np.max(np.abs(direct - via_state)) < 1e-13


def test_constraint_residuals_examples():
    ok, r = check_channel_prob_constraints(identity_channel_probs())
    assert ok
    assert np.array_equal(r, np.zeros(3))

    ok, r = check_channel_prob_constraints(np.full(15, 0.5))
    assert not ok
    assert np.array_equal(r, np.array([0.5, 0.0, 0.0]))

    depolarizing = probs_from_choi(identity(4) / 2.0)
    ok, _ = check_channel_prob_constraints(depolarizing)
    assert ok


def test_constraint_check_answers_per_element_of_a_stack():
    good, bad = identity_channel_probs(), np.full(15, 0.5)
    ok, r = check_channel_prob_constraints(np.stack([good, bad]))
    assert ok.dtype == bool and ok.tolist() == [True, False]
    assert np.array_equal(r, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    ok, r = check_channel_prob_constraints(np.stack([[good, bad, bad], [bad, good, good]]))
    assert ok.tolist() == [[True, False, False], [False, True, True]] and r.shape == (2, 3, 3)
    assert check_channel_prob_constraints(np.full((2, 15), np.nan))[0].tolist() == [False, False]
    assert [type(check_channel_prob_constraints(p)[0]) for p in (good, bad)] == [bool, bool]


def test_residuals_detect_trace_map_defects():
    rng = np.random.default_rng(55)
    for _ in range(100):
        choi = choi_from_kraus(random_tp_kraus(rng, int(rng.integers(1, 5))))
        assert np.max(channel_constraint_residuals(probs_from_choi(choi))) < 1e-12

    broken = maximally_entangled_projector()
    broken[1, 1] += 0.3  # partial trace moves away from the identity
    r = channel_constraint_residuals(probs_from_choi(broken))
    assert r[0] > 0.1


def test_residuals_shape_check():
    with pytest.raises(ValueError):
        channel_constraint_residuals(np.zeros(14))


def test_exact_on_random_constraint_satisfying_vectors():
    rng = np.random.default_rng(56)
    for _ in range(100):
        p = random_channel_probs(rng)
        ok, r = check_channel_prob_constraints(p)
        assert ok
        assert np.max(r) == 0.0
        choi = choi_from_probs(p)
        tp = np.einsum("aiaj->ij", choi.reshape(2, 2, 2, 2))
        assert np.max(np.abs(tp - np.eye(2))) < 1e-14


def test_constraint_residuals_are_the_partial_trace_of_the_layout():
    # Tr_1 of D = choi_from_probs(p) is I for a trace-preserving channel; the
    # hand-indexed residuals are half the defects of its independent entries.
    rng = np.random.default_rng(47)
    p = rng.uniform(0.0, 1.0, (5000, N_PROBS))
    t = np.einsum("kiaib->kab", choi_from_probs(p).reshape(-1, 2, 2, 2, 2))
    expected = 0.5 * np.abs(np.stack([t[:, 0, 0] - 1.0, t[:, 0, 1].real, t[:, 0, 1].imag], axis=-1))
    assert np.max(np.abs(channel_constraint_residuals(p) - expected)) <= 1e-15


def test_the_papers_qubit_maps_are_exact_coin_families():
    """Four qubit maps as Kraus families over a grid of their parameter, and the unitary flow exp(-i sigma_z t / 2)
    from the identity start. Each moves a few of the identity channel's coins (p1 = p2 = p8 = 1, all others 1/2) by a
    closed form, one-based as in README's table, and every channel of each family is CPTP. The bit-flip and dephasing
    forms hold in exactly these parametrizations."""
    s = np.linspace(0.0, 1.0, 101)
    i2, x, y, z = identity(2), PAULI_X, PAULI_Y, PAULI_Z
    families = {
        "depolarising (1 - l) rho + l I / 2": (
            [[np.sqrt(1 - 3 * l / 4) * i2, np.sqrt(l / 4) * x, np.sqrt(l / 4) * y, np.sqrt(l / 4) * z] for l in s],
            {1: 1 - s / 4, 2: 1 - s / 4, 3: 0.5 + s / 4, 8: 1 - s / 2},
        ),
        "dephasing (1 - l/2) rho + (l/2) Z rho Z": (
            [[np.sqrt(1 - l / 2) * i2, np.sqrt(l / 2) * z] for l in s],
            {8: 1 - s / 2},
        ),
        "bit flip (1 - l) rho + l X rho X": (
            [[np.sqrt(1 - l) * i2, np.sqrt(l) * x] for l in s],
            {1: 1 - s / 2, 2: 1 - s / 2, 8: 1 - s / 2, 3: 0.5 + s / 2, 10: 0.5 + s / 2},
        ),
        "amplitude damping g": (
            [[np.array([[1, 0], [0, np.sqrt(1 - g)]]), np.array([[0, np.sqrt(g)], [0, 0]])] for g in s],
            {1: 1 - s / 2, 3: 0.5 + s / 2, 8: (1 + np.sqrt(1 - s)) / 2},
        ),
    }
    for name, (kraus_sets, moved) in families.items():
        chois = np.array([choi_from_kraus(kraus) for kraus in kraus_sets])
        want = np.tile(identity_channel_probs(), (len(s), 1))
        for k, coin in moved.items():
            want[:, k - 1] = coin
        assert np.max(np.abs(probs_from_choi(chois) - want)) <= 1e-15, name
        assert np.all(verify_cptp(chois).verdict == "CPTP"), name

    theta = np.linspace(0.0, 2 * np.pi, 30)
    rotated = oracle_probs(PAULI_Z / 2, theta)
    want = np.tile(identity_channel_probs(), (len(theta), 1))
    want[:, 7], want[:, 8] = (1 + np.cos(theta)) / 2, (1 + np.sin(theta)) / 2
    assert np.max(np.abs(rotated - want)) <= 1e-15
    assert np.all(verify_cptp(choi_from_probs(rotated)).verdict == "CPTP")
