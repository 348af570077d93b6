"""Acceptance gate: ten criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
each test also asserts, so a plain pytest run enforces the gate.
"""

import json
import time

import numpy as np
import pytest

from probchan.channelcore import apply_channel_via_choi, apply_kraus, choi_from_kraus, verify_cptp
from probchan.kinetics import build_q, compare_to_oracle, evolve_probs
from probchan.matcore import PAULI_X, PAULI_Y, PAULI_Z, identity, vec
from probchan.probchannel import (
    build_constants,
    choi_from_probs,
    identity_channel_probs,
    probs_from_choi,
)
from probchan.stateprob import (
    qubit_density_from_probs,
    qubit_probs_from_density,
    ququart_density_from_probs,
    ququart_probs_from_density,
)
from conftest import complex_normal, random_bloch_probs, random_density, random_hermitian, random_tp_kraus, run_cli


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")


def maximally_entangled_projector():
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0] = d[0, 3] = d[3, 0] = d[3, 3] = 1.0
    return d


def test_criterion_01_affine_identities_exact():
    build_constants()  # warm the cache so the timing covers the checks alone
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        k = build_constants()
        product_ok = np.array_equal(k.prob_matrix @ k.choi_matrix, np.eye(15))
        offset_ok = np.array_equal(
            k.prob_matrix @ k.choi_offset + k.prob_offset, np.zeros(15)
        )
        best = min(best, time.perf_counter() - t0)
    ok = product_ok and offset_ok and best < 1e-3
    report(1, ok, f"affine identities exact, check took {best * 1e6:.0f} us")
    assert ok


def test_criterion_02_identity_channel_probs_exact():
    p = probs_from_choi(maximally_entangled_projector())
    expected = np.full(15, 0.5)
    expected[0] = expected[1] = expected[7] = 1.0
    ok = np.array_equal(p, expected) and np.array_equal(identity_channel_probs(), expected)
    report(2, ok, "identity channel reproduces p1 = p2 = p8 = 1, rest 1/2, exactly")
    assert ok


def test_criterion_03_round_trips():
    rng = np.random.default_rng(1003)
    qubit_probs = [random_bloch_probs(rng) for _ in range(1000)]
    qubit_states = [qubit_density_from_probs(p) for p in qubit_probs]
    ququart_states = [random_density(rng, 4) for _ in range(1000)]
    ququart_probs = [ququart_probs_from_density(r) for r in ququart_states]
    chois = [choi_from_kraus(random_tp_kraus(rng, int(rng.integers(1, 5)))) for _ in range(1000)]
    channel_probs = [probs_from_choi(d) for d in chois]

    t0 = time.perf_counter()
    worst = 0.0
    for p, rho in zip(qubit_probs, qubit_states):
        worst = max(worst, float(np.max(np.abs(qubit_probs_from_density(qubit_density_from_probs(p)) - p))))
        worst = max(worst, float(np.max(np.abs(qubit_density_from_probs(qubit_probs_from_density(rho)) - rho))))
    for p, rho in zip(ququart_probs, ququart_states):
        worst = max(worst, float(np.max(np.abs(ququart_probs_from_density(ququart_density_from_probs(p)) - p))))
        worst = max(worst, float(np.max(np.abs(ququart_density_from_probs(ququart_probs_from_density(rho)) - rho))))
    for p, d in zip(channel_probs, chois):
        worst = max(worst, float(np.max(np.abs(probs_from_choi(choi_from_probs(p)) - p))))
        worst = max(worst, float(np.max(np.abs(choi_from_probs(probs_from_choi(d)) - d))))
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-13 and elapsed < 1.0
    report(3, ok, f"round trips: worst deviation {worst:.2e}, {elapsed * 1e3:.0f} ms for 6000 trips")
    assert ok


def test_criterion_04_cptp_soundness():
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    all_cptp = True
    for _ in range(1000):
        k = random_tp_kraus(rng, int(rng.integers(1, 5)))
        all_cptp = all_cptp and verify_cptp(choi_from_kraus(k), 1e-9).verdict == "CPTP"
    elapsed = time.perf_counter() - t0

    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    swap_rejected = verify_cptp(swap, 1e-9).verdict == "TP-not-CP"
    neg = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
    neg_rejected = verify_cptp(neg, 1e-9).verdict == "neither"

    ok = all_cptp and swap_rejected and neg_rejected and elapsed < 5.0
    report(4, ok, f"1000 TP Kraus sets verified CPTP in {elapsed:.2f} s; SWAP and diag(-1,1,1,1) rejected")
    assert ok


def test_criterion_05_representation_equivalence():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(1000):
        k = random_tp_kraus(rng, int(rng.integers(1, 5)))
        rho = random_density(rng, 2)
        direct = apply_kraus(k, rho)
        via_choi = apply_channel_via_choi(choi_from_kraus(k), rho)
        worst = max(worst, float(np.max(np.abs(direct - via_choi))))
    ok = worst < 1e-12
    report(5, ok, f"apply_kraus vs apply_channel_via_choi: worst deviation {worst:.2e} over 1000 pairs")
    assert ok


def test_criterion_06_q_defining_identity():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        h = random_hermitian(rng, 2, norm=float(rng.uniform(0.5, 5.0)))
        m = complex_normal(rng, (4, 4))
        lifted = np.kron(h, identity(2))
        direct = vec(lifted @ m - m @ lifted)
        worst = max(worst, float(np.max(np.abs(build_q(h) @ vec(m) - direct))))
    ok = worst < 1e-13
    report(6, ok, f"Q.vec(M) = vec([H kron I, M]): worst deviation {worst:.2e} over 100 pairs")
    assert ok


@pytest.fixture(scope="module")
def kinetic_runs():
    """The thirteen criterion-7 integrations, shared with criterion 8."""
    rng = np.random.default_rng(1007)
    hamiltonians = [("sigma_x", PAULI_X), ("sigma_y", PAULI_Y), ("sigma_z", PAULI_Z)]
    hamiltonians.append(("random_0", random_hermitian(rng, 2, norm=5.0)))
    for i in range(1, 10):
        hamiltonians.append((f"random_{i}", random_hermitian(rng, 2, norm=float(rng.uniform(1.0, 5.0)))))

    p0 = identity_channel_probs()
    t0 = time.perf_counter()
    runs = []
    for name, h in hamiltonians:
        traj = evolve_probs(h, p0, 10.0, 1e-3)
        runs.append((name, h, traj, compare_to_oracle(h, traj)))

    orders = []
    for name, h in [hamiltonians[0], hamiltonians[2], hamiltonians[3]]:
        coarse = compare_to_oracle(h, evolve_probs(h, p0, 2.0, 4e-3))
        fine = compare_to_oracle(h, evolve_probs(h, p0, 2.0, 2e-3))
        orders.append((name, float(np.log2(coarse / fine))))
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "orders": orders, "elapsed": elapsed}


def test_criterion_07_kinetics_vs_oracle(kinetic_runs):
    worst_dev = max(dev for _, _, _, dev in kinetic_runs["runs"])
    worst_order = min(order for _, order in kinetic_runs["orders"])
    elapsed = kinetic_runs["elapsed"]
    ok = worst_dev <= 1e-5 and worst_order >= 3.8 and elapsed < 30.0
    report(
        7,
        ok,
        f"13 Hamiltonians to t = 10: max deviation {worst_dev:.2e}, "
        f"convergence order {worst_order:.2f}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_08_conserved_constraints(kinetic_runs):
    worst_residual = 0.0
    lowest, highest = 1.0, 0.0
    all_cptp = True
    for _, _, traj, _ in kinetic_runs["runs"]:
        p = traj.probs
        worst_residual = max(
            worst_residual,
            float(np.max(np.abs(p[:, 0] + p[:, 2] - 1.5))),
            float(np.max(np.abs(p[:, 3] + p[:, 13] - 1.0))),
            float(np.max(np.abs(p[:, 4] + p[:, 14] - 1.0))),
        )
        lowest = min(lowest, float(p.min()))
        highest = max(highest, float(p.max()))
        all_cptp = all_cptp and bool(np.all(verify_cptp(choi_from_probs(p), 1e-6).verdict == "CPTP"))
    in_range = lowest >= -1e-7 and highest <= 1.0 + 1e-7
    ok = worst_residual <= 1e-7 and in_range and all_cptp
    report(
        8,
        ok,
        f"constraints conserved: worst residual {worst_residual:.2e}, "
        f"probabilities within [{lowest:.9f}, {highest:.9f}], CPTP at every sample",
    )
    assert ok


def test_criterion_09_closed_form_spot_checks():
    p0 = identity_channel_probs()
    final_z = evolve_probs(PAULI_Z, p0, np.pi / 4, 1e-3).probs[-1]
    z_ok = abs(final_z[7] - 0.5) < 1e-6 and abs(final_z[8] - 1.0) < 1e-6
    final_x = evolve_probs(PAULI_X, p0, np.pi / 2, 1e-3).probs[-1]
    x_ok = abs(final_x[2] - 1.0) < 1e-6 and abs(final_x[9] - 1.0) < 1e-6
    ok = z_ok and x_ok
    report(
        9,
        ok,
        f"sigma_z at pi/4: p8 = {final_z[7]:.9f}, p9 = {final_z[8]:.9f}; "
        f"sigma_x at pi/2: p3 = {final_x[2]:.9f}, p10 = {final_x[9]:.9f}",
    )
    assert ok


def test_criterion_10_cli_contract(tmp_path):
    def matrix_doc(m):
        m = np.asarray(m, dtype=complex)
        return json.dumps(
            {"dim": m.shape[0], "entries": [[[z.real, z.imag] for z in row] for row in m]}
        )

    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    rho2 = put("rho2.json", matrix_doc([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]))
    probs2 = put("p2.json", json.dumps({"probs": [0.5, 0.5, 0.5]}))
    rho4 = put("rho4.json", matrix_doc(np.eye(4) / 4.0))
    probs15 = put(
        "p15.json", json.dumps({"probs": [0.75, 0.75, 0.75] + [0.5] * 12})
    )
    choi = put("choi.json", matrix_doc(maximally_entangled_projector()))
    damping = put("damping.json", matrix_doc(np.diag([1.0, 1.0, 0.0, 0.0])))
    kraus = put(
        "kraus.json",
        json.dumps(
            {
                "dim": 2,
                "kraus": [
                    [[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]],
                    [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]],
                ],
            }
        ),
    )
    ident15 = put("ident15.json", json.dumps({"probs": [1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0] + [0.5] * 7}))
    hz = put("hz.json", matrix_doc(np.diag([1.0, -1.0])))

    good = [
        ["state", "to-probs", "--dim", "2", rho2],
        ["state", "from-probs", "--dim", "2", probs2],
        ["state", "to-probs", "--dim", "4", rho4],
        ["state", "from-probs", "--dim", "4", probs15],
        ["channel", "check", choi],
        ["channel", "choi-from-kraus", kraus],
        ["channel", "to-probs", damping],
        ["channel", "from-probs", ident15],
        ["evolve", "--hamiltonian", hz, "--t-max", "0.25", "--dt", "1e-3", "--oracle"],
    ]
    deterministic = True
    all_zero = True
    for args in good:
        first = run_cli(args)
        second = run_cli(args)
        all_zero = all_zero and first.returncode == 0 and second.returncode == 0
        deterministic = deterministic and first.stdout == second.stdout and first.stderr == second.stderr

    malformed = [
        ["state", "to-probs", "--dim", "2", put("garbage.json", "{not json")],
        ["state", "from-probs", "--dim", "2", put("short.json", json.dumps({"probs": [0.5, 0.5]}))],
        ["channel", "check", put("small.json", matrix_doc(np.eye(2)))],
        ["channel", "choi-from-kraus", put("nodim.json", json.dumps({"kraus": []}))],
        ["evolve", "--hamiltonian", put("badh.json", matrix_doc([[0.0, 1.0], [0.0, 0.0]])), "--t-max", "1"],
        ["evolve", "--hamiltonian", hz, "--t-max", "1", "--dt", "0"],
    ]
    exit1 = all(run_cli(args).returncode == 1 for args in malformed)

    invalid = [
        ["state", "from-probs", "--dim", "2", put("corner.json", json.dumps({"probs": [1.0, 1.0, 1.0]}))],
        ["state", "to-probs", "--dim", "2", put("nonherm.json", matrix_doc([[0.5, 0.5], [0.0, 0.5]]))],
        ["channel", "to-probs", put("nonhermchoi.json", matrix_doc(np.triu(np.ones((4, 4)), 1)))],
        ["evolve", "--hamiltonian", hz, "--t-max", "1", "--initial", put("flat.json", json.dumps({"probs": [0.5] * 15}))],
    ]
    exit2 = all(run_cli(args).returncode == 2 for args in invalid)

    ok = all_zero and deterministic and exit1 and exit2
    report(
        10,
        ok,
        f"CLI corpus: {len(good)} commands byte-identical across runs, "
        f"{len(malformed)} malformed inputs exit 1, {len(invalid)} invalid inputs exit 2",
    )
    assert ok
