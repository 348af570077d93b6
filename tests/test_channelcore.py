import numpy as np
import pytest

from probchan.channelcore import (
    apply_channel_via_choi,
    apply_kraus,
    choi_from_kraus,
    choi_from_superop,
    kraus_from_choi,
    kraus_tp_defect,
    superop_from_choi,
    verify_cptp,
)
from probchan.matcore import PAULI_X, PAULI_Y, PAULI_Z, identity, vec
from probchan.probchannel import probs_from_choi
from conftest import complex_normal, random_density, random_tp_kraus

KET0_BRA0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET0_BRA1 = np.array([[0, 1], [0, 0]], dtype=complex)


def maximally_entangled_projector():
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0] = d[0, 3] = d[3, 0] = d[3, 3] = 1.0
    return d


def swap_matrix():
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def test_apply_kraus_examples():
    rho = random_density(np.random.default_rng(31), 2)
    assert np.array_equal(apply_kraus([identity(2)], rho), rho)
    out = apply_kraus([KET0_BRA0, KET0_BRA1], np.eye(2) / 2.0)
    assert np.array_equal(out, KET0_BRA0)
    flipped = apply_kraus([PAULI_X], KET0_BRA0)
    assert np.array_equal(flipped, np.array([[0, 0], [0, 1]], dtype=complex))


def test_apply_kraus_rejects_mismatch():
    with pytest.raises(ValueError):
        apply_kraus([identity(2)], np.eye(3))
    with pytest.raises(ValueError):
        apply_kraus([], np.eye(2))
    with pytest.raises(ValueError):
        apply_kraus([identity(2), np.eye(3)], np.eye(2))
    with pytest.raises(ValueError):
        apply_kraus([np.stack([identity(2), PAULI_X])], np.eye(2))
    with pytest.raises(ValueError):
        apply_kraus([np.ones((2, 3))], np.eye(2))


def test_size_zero_matrices_and_operators_are_refused():
    empty = np.zeros((0, 0))
    for fn in (kraus_from_choi, verify_cptp, superop_from_choi):
        with pytest.raises(ValueError, match="size 0 is not a positive perfect square$"):
            fn(empty)
    for fn in (choi_from_kraus, kraus_tp_defect):
        with pytest.raises(ValueError, match=r"d >= 1, got \(1, 0, 0\)$"):
            fn([empty])
    with pytest.raises(ValueError, match=r"d >= 1, got \(1, 0, 0\)$"):
        apply_kraus([empty], empty)


def test_zero_dimensional_kraus_sets_are_refused():
    # list() cannot iterate a 0-d array or a scalar; the refusal is the one for a set that is not a stack of matrices
    for bad in (np.array(1.0), np.array(1.0 + 2.0j), 1.0):
        for call in (lambda: apply_kraus(bad, np.eye(2)), lambda: kraus_tp_defect(bad), lambda: choi_from_kraus(bad)):
            with pytest.raises(ValueError, match="^Kraus set is not one stack of numeric matrices of equal shape$"):
                call()


def test_choi_from_kraus_frozen_values():
    assert np.array_equal(choi_from_kraus([identity(2)]), maximally_entangled_projector())
    assert np.array_equal(
        choi_from_kraus([KET0_BRA0, KET0_BRA1]), np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    )
    phase_flip = choi_from_kraus([identity(2) / np.sqrt(2), PAULI_Z / np.sqrt(2)])
    assert np.max(np.abs(phase_flip - np.diag([1.0, 0.0, 0.0, 1.0]))) < 1e-15


def test_choi_of_unitary_is_vec_outer():
    rng = np.random.default_rng(32)
    for _ in range(10):
        h = complex_normal(rng, (2, 2))
        h = (h + h.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
        v = vec(u)
        assert np.array_equal(choi_from_kraus([u]), np.outer(v, v.conj()))


def test_choi_trace_tracks_tp_defect():
    rng = np.random.default_rng(33)
    for n_ops in (1, 2, 3, 4):
        k = random_tp_kraus(rng, n_ops)
        assert kraus_tp_defect(k) < 1e-12
        assert abs(choi_from_kraus(k).trace().real - 2.0) < 1e-12
    lossy = [np.array([[1.0, 0.0], [0.0, 0.8]])]
    assert abs(kraus_tp_defect(lossy) - 0.36) < 1e-15
    assert abs(choi_from_kraus(lossy).trace().real - 2.0) > 0.3


def test_superop_identity_and_depolarizing():
    s = superop_from_choi(maximally_entangled_projector())
    assert np.array_equal(s, identity(4))
    rng = np.random.default_rng(34)
    rho = random_density(rng, 2)
    assert np.max(np.abs(np.reshape(s @ vec(rho), (2, 2)) - rho)) < 1e-15

    s_dep = superop_from_choi(identity(4) / 2.0)
    out = np.reshape(s_dep @ vec(rho), (2, 2))
    assert np.max(np.abs(out - np.trace(rho) * np.eye(2) / 2.0)) < 1e-15


def test_reshuffle_is_involution():
    rng = np.random.default_rng(35)
    for _ in range(20):
        m = complex_normal(rng, (4, 4))
        assert np.array_equal(choi_from_superop(superop_from_choi(m)), m)
    stack = complex_normal(rng, (2, 3, 4, 4))
    assert np.array_equal(choi_from_superop(superop_from_choi(stack)), stack)
    for index in np.ndindex(stack.shape[:2]):
        assert np.array_equal(superop_from_choi(stack)[index], superop_from_choi(stack[index]))


def test_superop_hermiticity_preservation_condition():
    rng = np.random.default_rng(36)
    for _ in range(20):
        m = complex_normal(rng, (4, 4))
        d = (m + m.conj().T) / 2.0
        s4 = superop_from_choi(d).reshape(2, 2, 2, 2)
        assert np.array_equal(s4, s4.transpose(1, 0, 3, 2).conj())


def test_apply_channel_via_choi_matches_kraus():
    rng = np.random.default_rng(37)
    for _ in range(50):
        k = random_tp_kraus(rng, int(rng.integers(1, 4)))
        rho = random_density(rng, 2)
        direct = apply_kraus(k, rho)
        via_choi = apply_channel_via_choi(choi_from_kraus(k), rho)
        assert np.max(np.abs(direct - via_choi)) < 1e-12


def test_apply_channel_via_choi_frozen():
    rho = np.array([[0, 0], [0, 1]], dtype=complex)
    out = apply_channel_via_choi(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), rho)
    assert np.array_equal(out, KET0_BRA0)
    rng = np.random.default_rng(38)
    rho = random_density(rng, 2)
    out = apply_channel_via_choi(identity(4) / 2.0, rho)
    assert np.max(np.abs(out - np.eye(2) / 2.0)) < 1e-15


def test_apply_channel_via_choi_refuses_mismatched_shapes_and_stacks():
    choi, rho = identity(4) / 2.0, np.eye(2) / 2.0
    for c, r in (
        (choi, np.eye(3) / 3.0),  # a qutrit state for a qubit Choi matrix
        (identity(9) / 3.0, rho),  # a qutrit Choi matrix for a qubit state
        (choi, np.stack([rho, rho])),
        (np.stack([choi, choi]), rho),
    ):
        with pytest.raises(ValueError, match="does not match state shape"):
            apply_channel_via_choi(c, r)


def test_kraus_from_choi_round_trip():
    rng = np.random.default_rng(39)
    for _ in range(50):
        k = random_tp_kraus(rng, int(rng.integers(1, 5)))
        choi = choi_from_kraus(k)
        extracted = kraus_from_choi(choi)
        assert len(extracted) <= 4
        assert np.max(np.abs(choi_from_kraus(extracted) - choi)) < 1e-10


def test_kraus_from_choi_identity_channel():
    ops = kraus_from_choi(maximally_entangled_projector())
    assert len(ops) == 1
    assert np.max(np.abs(ops[0] - identity(2))) < 1e-12


def test_kraus_from_choi_damping_rank_two():
    ops = kraus_from_choi(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    assert len(ops) == 2
    back = choi_from_kraus(ops)
    assert np.max(np.abs(back - np.diag([1.0, 1.0, 0.0, 0.0]))) < 1e-12


def test_kraus_from_choi_drops_an_eigenvalue_at_tol():
    choi = np.diag([1.0, 1e-9, 0.0, 0.0])
    assert np.linalg.eigvalsh(choi)[2] == 1e-9  # eigh gives the double 1e-9 itself
    assert len(kraus_from_choi(choi)) == 1


def test_kraus_from_choi_rejects_non_cp():
    with pytest.raises(ValueError):
        kraus_from_choi(swap_matrix())
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="^Choi matrix is not Hermitian"):
        kraus_from_choi(skew)
    with pytest.raises(ValueError, match=r"\(2, 4, 4\)"):
        kraus_from_choi(np.stack([maximally_entangled_projector()] * 2))


def _loop_apply_kraus(ops, rho):
    out = np.zeros_like(rho)
    for a in ops:
        out += a @ rho @ a.conj().T
    return out


def _loop_kraus_tp_defect(ops):
    acc = np.zeros_like(ops[0])
    for a in ops:
        acc += a.conj().T @ a
    return float(np.max(np.abs(acc - np.eye(ops[0].shape[0]))))


def _loop_choi_from_kraus(ops):
    choi = np.zeros((ops[0].size, ops[0].size), dtype=complex)
    for a in ops:
        v = vec(a)
        choi += np.outer(v, v.conj())
    return choi


def _loop_kraus_from_choi(choi, tol=1e-9):
    vals, vecs = np.linalg.eigh((choi + choi.conj().T) / 2.0)
    ops = []
    for k in range(vals.size - 1, -1, -1):
        if vals[k] <= tol:
            break
        v = vecs[:, k]
        pivot = v[np.argmax(np.abs(v))]
        v = v * (np.conj(pivot) / abs(pivot))
        ops.append(np.sqrt(vals[k]) * v.reshape(2, 2))
    return ops


def test_stacked_kraus_matches_per_operator_loops():
    """The stacked expressions against the per-operator loops they replaced.

    Every third set and state is real with mixed signs, so the products
    leave signed zeros in the imaginary parts. Bytes are compared, so
    -0.0 != 0.0.
    """
    rng = np.random.default_rng(43)
    for trial in range(600):
        shape = (int(rng.integers(1, 5)), 2, 2)
        draw = rng.standard_normal if trial % 3 == 0 else lambda size: complex_normal(rng, size)
        raw, rho = draw(shape), draw((2, 2))
        ops = list(raw.astype(complex))
        assert apply_kraus(list(raw), rho).tobytes() == _loop_apply_kraus(ops, rho.astype(complex)).tobytes()
        assert kraus_tp_defect(list(raw)) == _loop_kraus_tp_defect(ops)
        choi = choi_from_kraus(list(raw))
        assert choi.dtype == complex and choi.tobytes() == _loop_choi_from_kraus(ops).tobytes()
        extracted, reference = kraus_from_choi(choi), _loop_kraus_from_choi(choi)
        assert isinstance(extracted, list) and len(extracted) == len(reference)
        for a, b in zip(extracted, reference):
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


def test_kraus_phase_convention_deterministic():
    choi = choi_from_kraus(random_tp_kraus(np.random.default_rng(40), 3))
    first = kraus_from_choi(choi)
    second = kraus_from_choi(choi.copy())
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
        pivot = a.reshape(-1)[np.argmax(np.abs(a.reshape(-1)))]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_verify_cptp_identity_channel():
    report = verify_cptp(maximally_entangled_projector())
    assert report.verdict == "CPTP"
    assert report.hermiticity_defect == 0.0
    assert report.tp_defect == 0.0
    assert abs(report.trace_value - 2.0) < 1e-15
    # rank-1 projector: single nonzero eigenvalue 2, so the smallest is 0
    assert abs(report.min_eigenvalue) < 1e-12
    vals = np.linalg.eigvalsh(maximally_entangled_projector())
    assert np.max(np.abs(vals - np.array([0.0, 0.0, 0.0, 2.0]))) < 1e-12


def test_verify_cptp_swap_and_friends():
    swap = verify_cptp(swap_matrix())
    assert swap.verdict == "TP-not-CP"
    assert abs(swap.min_eigenvalue + 1.0) < 1e-12
    assert swap.tp_defect < 1e-15

    neg = verify_cptp(np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex))
    assert neg.verdict == "neither"
    assert abs(neg.tp_defect - 1.0) < 1e-15
    assert abs(neg.min_eigenvalue + 1.0) < 1e-12

    damping = verify_cptp(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    assert damping.verdict == "CPTP"

    not_tp = verify_cptp(np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))
    assert not_tp.verdict == "CP-not-TP"

    depolarizing = verify_cptp(identity(4) / 2.0)
    assert depolarizing.verdict == "CPTP"


def test_verify_cptp_random_tp_sets():
    rng = np.random.default_rng(41)
    for _ in range(100):
        k = random_tp_kraus(rng, int(rng.integers(1, 5)))
        report = verify_cptp(choi_from_kraus(k))
        assert report.verdict == "CPTP"
        assert abs(report.trace_value - 2.0) < 1e-12


def test_finite_overflowing_choi_raises_value_error():
    # held under the suite's warnings-as-errors: the overflow of (D + D^dagger) / 2 is refused with no warning
    huge = np.full((4, 4), 1e308)
    for fn, arg in ((verify_cptp, huge), (kraus_from_choi, huge), (verify_cptp, np.stack([np.eye(4), huge]))):
        with pytest.raises(ValueError, match="too large") as refused:
            fn(arg)
        assert not isinstance(refused.value, np.linalg.LinAlgError)
    # NaN and infinite entries get the same one message, whichever check meets them first: the NaN check in
    # verify_cptp, the Hermiticity gate in kraus_from_choi and probs_from_choi. Warnings stay off here: inf - inf in
    # the Hermiticity pass still raises an invalid-value warning before the refusal
    with np.errstate(all="ignore"):
        for bad in (np.nan, np.inf):
            for fn in (verify_cptp, kraus_from_choi, probs_from_choi):
                with pytest.raises(ValueError, match="^Choi matrix has NaN, infinite or too large entries$") as refused:
                    fn(np.full((4, 4), bad))
                assert not isinstance(refused.value, np.linalg.LinAlgError)


def test_overflowing_choi_matrices_are_refused_without_a_warning():
    """pyproject's filterwarnings = ["error"] makes any warning fail this test: the Hermitian part, whose sum
    overflows, is evaluated under the eigensolver's errstate, and verify_cptp solves before its traces, which would
    overflow too."""
    huge = np.full((4, 4), 1e308)
    diagonal = np.diag([1e308, 1e308, 0.0, 0.0])
    cases = [(verify_cptp, huge), (kraus_from_choi, huge), (verify_cptp, diagonal), (kraus_from_choi, diagonal)]
    cases.append((verify_cptp, np.stack([identity(4) / 2.0, huge])))
    for fn, arg in cases:
        with pytest.raises(ValueError, match="^Choi matrix has NaN, infinite or too large entries$") as refused:
            fn(arg)
        assert not isinstance(refused.value, np.linalg.LinAlgError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nan", [complex(np.nan, 0.0), complex(0.0, np.nan)], ids=["real", "imaginary"])
def test_verify_cptp_refuses_a_nan_at_every_entry(nan):
    """A NaN at any of the 16 entries, of one Choi matrix or of one in a stack, is refused with no warning and no
    report; the eigensolver returns rather than fails on some of them, such as a NaN at (0, 0)."""
    for at in np.ndindex(4, 4):
        choi = identity(4) / 2.0
        choi[at] = nan
        for arg in (choi, np.stack([identity(4) / 2.0, choi])):
            with pytest.raises(ValueError, match="^Choi matrix has NaN, infinite or too large entries$"):
                verify_cptp(arg)


def haar_unitary(rng):
    """A 2 x 2 unitary drawn from the Haar measure (QR of a complex Gaussian matrix, phases of R divided out)."""
    q, r = np.linalg.qr(complex_normal(rng, (2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unital_choi(q, u, w):
    """Choi matrix of rho -> U L(W rho W^dagger) U^dagger, L the Pauli channel with weights q on I, X, Y and Z.

    L's Choi matrix is sum_j q_j vec(s_j) vec(s_j)^dagger, and vec(U K W) = (U (x) W^T) vec(K) row-major, so the
    whole map's is (U (x) W^T) D_L (U (x) W^T)^dagger. The vec(s_j) are orthogonal with norm sqrt(2): the spectrum is
    2q whatever U and W are, and the partial trace is sum_j q_j I, so the map is TP even where a weight is negative.
    """
    paulis = np.stack([identity(2), PAULI_X, PAULI_Y, PAULI_Z]).reshape(4, 4)  # row j is vec(s_j)
    m = np.kron(u, w.T)
    return m @ ((paulis.T * q) @ paulis.conj()) @ m.conj().T


def test_unital_qubit_channels_are_an_eigensolver_free_cp_oracle():
    """Every unital qubit channel is U o L o W with L a Pauli channel (King and Ruskai, IEEE Trans. Inf. Theory 47,
    192 (2001)). With Bloch scalings l in [-1.2, 1.2]^3, L's weights q = (1 + l1 + l2 + l3, 1 + l1 - l2 - l3,
    1 - l1 + l2 - l3, 1 - l1 - l2 + l3) / 4 sum to 1, and CP is min q >= 0: the tetrahedron of Fujiwara and Algoet
    (Phys. Rev. A 59, 3290 (1999)). verify_cptp's smallest eigenvalue is 2 min q, its TP defect is rounding, its
    verdict the one min q gives and kraus_from_choi keeps all four operators. Draws within 1e-12 of the verdict's
    or the rank's threshold are redrawn."""
    rng = np.random.default_rng(22)
    tol = 1e-9
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])

    def weights(scalings):
        return (1.0 + scalings @ signs.T) / 4.0

    def near(q):
        return (np.abs(2.0 * q.min(-1) + tol) < 1e-12) | (np.abs(q.min(-1) - 1e-6) < 1e-12)

    scalings = rng.uniform(-1.2, 1.2, (3000, 3))
    while np.any(near(weights(scalings))):
        scalings[near(weights(scalings))] = rng.uniform(-1.2, 1.2, 3)
    q = weights(scalings)
    chois = np.array([unital_choi(qk, haar_unitary(rng), haar_unitary(rng)) for qk in q])
    report = verify_cptp(chois, tol)
    assert np.max(np.abs(report.min_eigenvalue - 2.0 * q.min(-1))) <= 1e-14
    assert np.max(report.tp_defect) <= 1e-14
    want = np.where(2.0 * q.min(-1) >= -tol, "CPTP", "TP-not-CP")
    assert np.array_equal(report.verdict, want) and set(want) == {"CPTP", "TP-not-CP"}
    full_rank = q.min(-1) > 1e-6
    assert full_rank.sum() > 100
    assert all(len(kraus_from_choi(choi)) == 4 for choi in chois[full_rank])

    # the tetrahedron's vertices, the four Pauli unitaries, and its faces, where one weight is 0
    vertices = np.eye(4)
    faces = np.zeros((400, 4))
    faces[np.arange(400)[:, None], (np.arange(400)[:, None] + [1, 2, 3]) % 4] = rng.dirichlet(np.ones(3), 400)
    assert faces[faces > 0].min() > 1e-6
    for corner, rank in ((vertices, 1), (faces, 3)):
        chois = np.array([unital_choi(qk, haar_unitary(rng), haar_unitary(rng)) for qk in corner])
        report = verify_cptp(chois, tol)
        assert np.all(report.verdict == "CPTP"), rank
        assert np.max(np.abs(report.min_eigenvalue)) <= 1e-14 and np.max(report.tp_defect) <= 1e-14, rank
        assert all(len(kraus_from_choi(choi)) == rank for choi in chois), rank
