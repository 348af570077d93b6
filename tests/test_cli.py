import argparse
import contextlib
import copy
import decimal
import functools
import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probchan import cli
from probchan.channelcore import choi_from_kraus
from probchan.kinetics import _BLOCK, MAX_STEPS, evolve_probs, oracle_probs
from probchan.probchannel import identity_channel_probs
from conftest import (
    random_bloch_probs,
    random_channel_probs,
    random_density,
    random_hermitian,
    random_tp_kraus,
    run_cli,
    run_python,
)


def matrix_doc(m):
    m = np.asarray(m, dtype=complex)
    return json.dumps(
        {"dim": m.shape[0], "entries": [[[z.real, z.imag] for z in row] for row in m]}
    )


def probs_doc(values):
    return json.dumps({"probs": list(values)})


def kraus_doc(ops):
    return json.dumps(
        {
            "dim": 2,
            "kraus": [[[[z.real, z.imag] for z in row] for row in np.asarray(op, dtype=complex)] for op in ops],
        }
    )


def parse_matrix(text):
    doc = json.loads(text)
    return np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])


def parse_probs(text):
    return np.array(json.loads(text)["probs"])


def write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


def identity_choi():
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0] = d[0, 3] = d[3, 0] = d[3, 3] = 1.0
    return d


def test_state_from_probs_maximally_mixed(tmp_path):
    path = write(tmp_path, "p.json", probs_doc([0.5, 0.5, 0.5]))
    result = run_cli(["state", "from-probs", "--dim", "2", path])
    assert result.returncode == 0
    assert np.array_equal(parse_matrix(result.stdout), np.eye(2) / 2.0)


def test_state_to_probs_depolarized_ququart(tmp_path):
    path = write(tmp_path, "m.json", matrix_doc(np.eye(4) / 4.0))
    result = run_cli(["state", "to-probs", "--dim", "4", path])
    assert result.returncode == 0
    expected = np.full(15, 0.5)
    expected[:3] = 0.75
    assert np.array_equal(parse_probs(result.stdout), expected)


def test_state_round_trip_dim2(tmp_path):
    rho = np.array([[0.62, 0.11 - 0.27j], [0.11 + 0.27j, 0.38]])
    path = write(tmp_path, "rho.json", matrix_doc(rho))
    to = run_cli(["state", "to-probs", "--dim", "2", path])
    assert to.returncode == 0
    back = run_cli(["state", "from-probs", "--dim", "2", "-"], stdin_text=to.stdout)
    assert back.returncode == 0
    assert np.max(np.abs(parse_matrix(back.stdout) - rho)) < 1e-12


def test_state_round_trip_dim4(tmp_path):
    rho = identity_choi() / 2.0  # Bell state, a valid ququart density matrix
    path = write(tmp_path, "rho4.json", matrix_doc(rho))
    to = run_cli(["state", "to-probs", "--dim", "4", path])
    assert to.returncode == 0
    back = run_cli(["state", "from-probs", "--dim", "4", "-"], stdin_text=to.stdout)
    assert back.returncode == 0
    assert np.max(np.abs(parse_matrix(back.stdout) - rho)) < 1e-12


def test_state_from_probs_accepts_pure_states(tmp_path):
    # eigenvalue 0, on the boundary of the positivity rule: |0><0| for a qubit and a ququart, and a tilted qubit
    tilted = 0.5 + 0.5 * np.array([0.6, 0.8, 0.0])
    for dim, p, rho in (
        (2, [1.0, 0.5, 0.5], np.diag([1.0, 0.0])),
        (4, [1.0] * 3 + [0.5] * 12, np.diag([1.0, 0.0, 0.0, 0.0])),
        (2, tilted, np.array([[tilted[0], 0.4], [0.4, 1.0 - tilted[0]]])),
    ):
        result = run_cli(["state", "from-probs", "--dim", str(dim), write(tmp_path, "p.json", probs_doc(p))])
        assert (result.returncode, result.stderr) == (0, "")
        assert np.max(np.abs(parse_matrix(result.stdout) - rho)) <= 1e-15


def test_state_bloch_violation_exits_2(tmp_path):
    path = write(tmp_path, "corner.json", probs_doc([1.0, 1.0, 1.0]))
    result = run_cli(["state", "from-probs", "--dim", "2", path])
    assert result.returncode == 2
    assert "Bloch" in result.stderr


def test_channel_check_identity(tmp_path):
    path = write(tmp_path, "choi.json", matrix_doc(identity_choi()))
    result = run_cli(["channel", "check", path])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["verdict"] == "CPTP"
    assert abs(report["trace_value"] - 2.0) < 1e-12
    assert report["tp_defect"] == 0.0


def test_channel_check_swap(tmp_path):
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    path = write(tmp_path, "swap.json", matrix_doc(swap))
    result = run_cli(["channel", "check", path])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["verdict"] == "TP-not-CP"
    assert abs(report["min_eigenvalue"] + 1.0) < 1e-12


def test_channel_choi_from_kraus(tmp_path):
    gamma = 0.36
    ops = [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ]
    path = write(tmp_path, "kraus.json", kraus_doc(ops))
    result = run_cli(["channel", "choi-from-kraus", path])
    assert result.returncode == 0
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.8],
            [0.0, 0.36, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.8, 0.0, 0.0, 0.64],
        ]
    )
    assert np.max(np.abs(parse_matrix(result.stdout) - expected)) < 1e-15


def test_channel_to_probs_damping_choi(tmp_path):
    path = write(tmp_path, "d.json", matrix_doc(np.diag([1.0, 1.0, 0.0, 0.0])))
    result = run_cli(["channel", "to-probs", path])
    assert result.returncode == 0
    expected = np.full(15, 0.5)
    expected[1] = expected[2] = 1.0
    assert np.array_equal(parse_probs(result.stdout), expected)


def test_channel_from_probs_reports_residuals(tmp_path):
    identity_probs = np.full(15, 0.5)
    identity_probs[[0, 1, 7]] = 1.0
    path = write(tmp_path, "pid.json", probs_doc(identity_probs))
    result = run_cli(["channel", "from-probs", path])
    assert result.returncode == 0
    assert "constraint residuals" in result.stderr and "(ok" in result.stderr
    assert np.array_equal(parse_matrix(result.stdout), identity_choi())

    flat = write(tmp_path, "flat.json", probs_doc([0.5] * 15))
    result = run_cli(["channel", "from-probs", flat])
    assert result.returncode == 0
    assert "violated" in result.stderr
    assert np.array_equal(parse_matrix(result.stdout), np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_channel_from_probs_reports_the_smallest_eigenvalue_by_the_rule_of_channel_check(tmp_path):
    """The three residuals show trace preservation only. These probabilities meet them exactly, yet their Choi matrix
    has the eigenvalue -2.80 and channel check calls it TP-not-CP; CP means an eigenvalue of at least -tolerance.
    The exit code stays 0 either way."""
    tp_not_cp = write(tmp_path, "tp.json", probs_doc([0.75, 0.75, 0.75] + [1.0] * 8 + [0.0] * 4))
    code, out, err = run_in_process(["channel", "from-probs", tp_not_cp])
    line = "constraint residuals: 0 0 0 (ok at tolerance 1.0000000000000001e-09); min eigenvalue -2.801360247771568"
    assert (code, err) == (0, line + " (not CP)\n")
    report = json.loads(run_in_process(["channel", "check", write(tmp_path, "choi.json", out)])[1])
    assert (report["min_eigenvalue"], report["verdict"]) == (-2.801360247771568, "TP-not-CP")
    edge = 2.801360247771568
    for tol, verdict in ((edge, "(CP)"), (np.nextafter(edge, 0.0), "(not CP)"), (np.nextafter(edge, 3.0), "(CP)")):
        code, _, err = run_in_process(["channel", "from-probs", tp_not_cp, "--tolerance", repr(float(tol))])
        assert code == 0 and err.endswith(f"; min eigenvalue -2.801360247771568 {verdict}\n"), tol
    identity_probs = np.full(15, 0.5)
    identity_probs[[0, 1, 7]] = 1.0
    code, _, err = run_in_process(["channel", "from-probs", write(tmp_path, "pid.json", probs_doc(identity_probs))])
    assert code == 0 and err.startswith("constraint residuals: 0 0 0 (ok") and err.endswith(" (CP)\n")
    code, _, err = run_in_process(["channel", "from-probs", write(tmp_path, "flat.json", probs_doc([0.5] * 15))])
    assert code == 0 and "(violated" in err and err.endswith("; min eigenvalue -1 (not CP)\n")


def test_channel_round_trip(tmp_path):
    choi = np.array(
        [
            [0.9, 0.0, 0.05j, 0.3],
            [0.0, 0.1, 0.0, -0.05j],
            [-0.05j, 0.0, 0.1, 0.0],
            [0.3, 0.05j, 0.0, 0.9],
        ]
    )
    path = write(tmp_path, "c.json", matrix_doc(choi))
    to = run_cli(["channel", "to-probs", path])
    assert to.returncode == 0
    back = run_cli(["channel", "from-probs", "-"], stdin_text=to.stdout)
    assert back.returncode == 0
    assert np.max(np.abs(parse_matrix(back.stdout) - choi)) < 1e-12


def test_evolve_zero_hamiltonian_constant(tmp_path):
    h = write(tmp_path, "h0.json", matrix_doc(np.zeros((2, 2))))
    result = run_cli(["evolve", "--hamiltonian", h, "--t-max", "1", "--dt", "0.25"])
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "t," + ",".join(f"p{i}" for i in range(1, 16))
    assert len(lines) == 6
    first_probs = lines[1].split(",")[1:]
    for line in lines[2:]:
        assert line.split(",")[1:] == first_probs


def test_evolve_sigma_z_quarter_period(tmp_path):
    h = write(tmp_path, "hz.json", matrix_doc(np.diag([1.0, -1.0])))
    result = run_cli(
        ["evolve", "--hamiltonian", h, "--t-max", repr(np.pi / 4), "--dt", "1e-3"]
    )
    assert result.returncode == 0
    final = result.stdout.strip().split("\n")[-1].split(",")
    assert abs(float(final[8]) - 0.5) < 1e-6
    assert abs(float(final[9]) - 1.0) < 1e-6


def test_evolve_sigma_x_oracle_long_run(tmp_path):
    h = write(tmp_path, "hx.json", matrix_doc(np.array([[0.0, 1.0], [1.0, 0.0]])))
    out = str(tmp_path / "traj.csv")
    result = run_cli(
        ["evolve", "--hamiltonian", h, "--t-max", "10", "--oracle", "--output", out]
    )
    assert result.returncode == 0
    lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["t", "p1"] and header[16] == "o1" and len(header) == 31
    assert lines[-1].startswith("# max_dev=")
    assert float(lines[-1].split("=")[1]) <= 1e-5
    assert len(lines) == 10003  # header + 10001 samples + summary


def test_evolve_initial_file_and_stdin_hamiltonian(tmp_path):
    p0 = np.full(15, 0.5)
    p0[[0, 1, 7]] = 1.0
    init = write(tmp_path, "init.json", probs_doc(p0))
    result = run_cli(
        ["evolve", "--hamiltonian", "-", "--t-max", "0.5", "--dt", "0.1", "--initial", init],
        stdin_text=matrix_doc(np.diag([1.0, -1.0])),
    )
    assert result.returncode == 0
    assert len(result.stdout.strip().split("\n")) == 7


def test_outputs_are_deterministic(tmp_path):
    choi_path = write(tmp_path, "c.json", matrix_doc(identity_choi()))
    h_path = write(tmp_path, "h.json", matrix_doc(np.array([[0.0, -1.0j], [1.0j, 0.0]])))
    runs = [
        ["state", "to-probs", "--dim", "4", write(tmp_path, "s.json", matrix_doc(np.eye(4) / 4.0))],
        ["channel", "check", choi_path],
        ["channel", "to-probs", choi_path],
        ["evolve", "--hamiltonian", h_path, "--t-max", "0.1", "--dt", "1e-2", "--oracle"],
    ]
    for args in runs:
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


BAD_MATRIX_CASES = [
    "not json at all",
    "[1, 2, 3]",
    json.dumps({"dim": 2}),
    json.dumps({"dim": "2", "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
    json.dumps({"dim": 2, "entries": [[[1, 0]], [[0, 0]]]}),
    json.dumps({"dim": 2, "entries": [[[1], [0, 0]], [[0, 0], [0, 0]]]}),
    json.dumps({"dim": 2, "entries": [[["1", 0], [0, 0]], [[0, 0], [0, 0]]]}),
    '{"dim": 2, "entries": [[[NaN, 0], [0, 0]], [[0, 0], [0, 0]]]}',
    pytest.param('{"dim": 2, "entries": [[[1%s, 0], [0, 0]], [[0, 0], [0, 0]]]}' % ("0" * 399), id="400-digit-integer"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
    pytest.param(b'{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0\xff\xfe]]]}', id="not-utf-8"),
    pytest.param('{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 1e308]]]}', id="number-over-1e150"),
]


@pytest.mark.parametrize("text", BAD_MATRIX_CASES)
def test_malformed_matrix_exits_1(tmp_path, text):
    path = write(tmp_path, "bad.json", text)
    for args in (["state", "to-probs", "--dim", "2", path], ["channel", "check", path]):
        result = run_cli(args)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_exit_codes_on_invalid_values(tmp_path):
    # parseable files whose contents fail validation exit 2
    out_of_range = write(tmp_path, "r.json", probs_doc([1.5, 0.5, 0.5]))
    refused = run_cli(["state", "from-probs", "--dim", "2", out_of_range])
    assert refused.returncode == 2
    assert refused.stderr == "error: probability 1.5 lies outside [0, 1]\n"

    non_hermitian = write(
        tmp_path, "nh.json", matrix_doc(np.array([[0.5, 0.5], [0.0, 0.5]]))
    )
    assert run_cli(["state", "to-probs", "--dim", "2", non_hermitian]).returncode == 2

    bad_trace = write(tmp_path, "tr.json", matrix_doc(np.eye(2)))
    assert run_cli(["state", "to-probs", "--dim", "2", bad_trace]).returncode == 2

    # Hermitian with trace 1 but a negative eigenvalue: not a density matrix, so no probabilities are written
    out = tmp_path / "probs.json"
    for diagonal in ([1.5, -0.5], [1.5, -0.5, 0.0, 0.0]):
        negative = write(tmp_path, "neg.json", matrix_doc(np.diag(diagonal)))
        result = run_cli(["state", "to-probs", "--dim", str(len(diagonal)), negative, "-o", str(out)])
        assert result.returncode == 2 and not out.exists()
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "min eigenvalue -5.000e-01" in result.stderr

    skew = np.zeros((4, 4))
    skew_doc = matrix_doc(skew + np.triu(np.ones((4, 4)), 1))
    non_hermitian_choi = write(tmp_path, "nhc.json", skew_doc)
    assert run_cli(["channel", "to-probs", non_hermitian_choi]).returncode == 2

    # fifteen probabilities fix only trace-2 Choi matrices; to-probs refuses the rest
    trace_one = write(tmp_path, "t1.json", matrix_doc(np.diag([1.0, 0.0, 0.0, 0.0])))
    lossy = run_cli(["channel", "to-probs", trace_one])
    assert lossy.returncode == 2
    assert lossy.stderr.startswith("error: Choi matrix trace is 1,") and lossy.stderr.count("\n") == 1

    # structural problems exit 1
    wrong_len = write(tmp_path, "wl.json", probs_doc([0.5] * 4))
    assert run_cli(["state", "from-probs", "--dim", "2", wrong_len]).returncode == 1
    small = write(tmp_path, "small.json", matrix_doc(np.eye(2)))
    assert run_cli(["channel", "check", small]).returncode == 1
    no_dim = write(tmp_path, "nd.json", json.dumps({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}))
    assert run_cli(["channel", "choi-from-kraus", no_dim]).returncode == 1
    assert run_cli(["state", "to-probs", "--dim", "2", str(tmp_path / "missing.json")]).returncode == 1
    choi = write(tmp_path, "choi.json", matrix_doc(identity_choi()))
    ident = write(tmp_path, "ident.json", probs_doc(identity_channel_probs()))
    for tolerance, args in (("nan", ["check", choi]), ("inf", ["to-probs", choi]), ("-1", ["from-probs", ident])):
        assert run_cli(["channel", *args, "--tolerance", tolerance]).returncode == 1


def test_channel_to_probs_refuses_an_imaginary_d00(tmp_path):
    """Im D00 moves no probability, yet D is not Hermitian: exit 2 and no output, as channel check's defect says."""
    choi = np.eye(4, dtype=complex) / 2.0
    choi[0, 0] += 1j
    out = tmp_path / "probs.json"
    result = run_cli(["channel", "to-probs", write(tmp_path, "d00.json", matrix_doc(choi)), "-o", str(out)])
    assert (result.returncode, result.stdout) == (2, "") and not out.exists()
    assert result.stderr == "error: Choi matrix is not Hermitian: defect 2.000e+00 exceeds 1.000e-09\n"


def test_evolve_exit_codes(tmp_path):
    good_h = write(tmp_path, "h.json", matrix_doc(np.diag([1.0, -1.0])))
    bad_h = write(tmp_path, "bh.json", matrix_doc(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert run_cli(["evolve", "--hamiltonian", bad_h, "--t-max", "1"]).returncode == 1
    assert run_cli(["evolve", "--hamiltonian", good_h, "--t-max", "-1"]).returncode == 1
    assert run_cli(["evolve", "--hamiltonian", good_h, "--t-max", "1", "--dt", "0"]).returncode == 1
    assert run_cli(["evolve", "--hamiltonian", good_h, "--t-max", "1", "--dt", "2"]).returncode == 1
    # step counts over the cap are refused before anything is allocated
    for t_max, dt in (("10", "5e-324"), ("1", "1e-7"), ("1e300", "1e-3")):
        over = run_cli(["evolve", "--hamiltonian", good_h, "--t-max", t_max, "--dt", dt])
        assert over.returncode == 1
        assert over.stderr.startswith("error: ") and over.stderr.count("\n") == 1

    # in-range initial probabilities that break the channel constraints exit 2
    flat = write(tmp_path, "flat.json", probs_doc([0.5] * 15))
    assert run_cli(
        ["evolve", "--hamiltonian", good_h, "--t-max", "1", "--initial", flat]
    ).returncode == 2
    out_of_range = write(tmp_path, "oor.json", probs_doc([2.0] + [0.5] * 14))
    assert run_cli(
        ["evolve", "--hamiltonian", good_h, "--t-max", "1", "--initial", out_of_range]
    ).returncode == 2


def test_evolve_oracle_rows_match_per_cell_formatting(tmp_path):
    h = np.array([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
    h_path = write(tmp_path, "h.json", matrix_doc(h))
    result = run_cli(["evolve", "--hamiltonian", h_path, "--t-max", "0.05", "--dt", "0.003", "--oracle"])
    assert result.returncode == 0
    traj = evolve_probs(h, identity_channel_probs(), 0.05, 0.003)
    oracle = oracle_probs(h, traj.times)
    lines = result.stdout.split("\n")
    assert lines[1:-2] == [
        ",".join("%.17g" % x for x in [t, *row, *ref]) for t, row, ref in zip(traj.times, traj.probs, oracle)
    ]
    assert lines[-2] == "# max_dev=%.17g" % np.max(np.abs(traj.probs - oracle))
    assert lines[-1] == ""


def test_evolve_oracle_rows_match_per_cell_formatting_over_blocks(tmp_path):
    h = np.array([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
    h_path = write(tmp_path, "h.json", matrix_doc(h))
    out = tmp_path / "traj.csv"
    # the oracle columns are those of the identity start, so from this p0 the largest |p - o| is in block 0
    p0 = random_channel_probs(np.random.default_rng(2))
    for initial, start in (("identity", identity_channel_probs()), (write(tmp_path, "p0.json", probs_doc(p0)), p0)):
        # 3,033 whole steps and a shorter last one: 3,035 samples, three blocks
        argv = ["evolve", "--hamiltonian", h_path, "--t-max", "9.1", "--dt", "0.003", "--oracle", "--initial", initial]
        assert cli.main([*argv, "--output", str(out)]) == 0
        traj = evolve_probs(h, start, 9.1, 0.003)
        assert len(traj.times) > 2 * _BLOCK and traj.times[-1] - traj.times[-2] < 0.003
        oracle = oracle_probs(h, traj.times)
        lines = out.read_text().split("\n")
        assert lines[1:-2] == [
            ",".join("%.17g" % x for x in [t, *row, *ref]) for t, row, ref in zip(traj.times, traj.probs, oracle)
        ]
        deviation = np.max(np.abs(traj.probs - oracle), axis=1)
        assert lines[-2] == "# max_dev=%.17g" % np.max(deviation)
        assert lines[-1] == ""
    assert np.argmax(deviation) < _BLOCK


def percent_csv(table):
    """CSV text of a 2-D array by %, the reference for cli._csv_text."""
    rows, cols = table.shape
    return ((",".join(["%.17g"] * cols) + "\n") * rows) % tuple(table.ravel().tolist())


def csv_corpus():
    """Named arrays of doubles on which a %.17g shortcut would slip."""
    rng = np.random.default_rng(909)
    n = 6000
    powers = 10.0 ** np.arange(-6, 19)
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    # M / 2**(17 - E) with M odd has 18 significant digits ending in 5: an exact tie at digit 17. E = 15 is the last
    # exponent with ties: from 2**53 on every double is an even integer, which 17 digits hold exactly
    ties = []
    for e in range(-4, 16):
        lo, hi = 10.0**e * 2.0 ** (17 - e), min(10.0 ** (e + 1) * 2.0 ** (17 - e), 2.0**53)
        ties.append((rng.integers(int(np.ceil(lo)), int(hi), 200) | 1) * 2.0 ** (e - 17))
    edges = [1e-4, 1e17, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e308, 99999999999999984.0]
    # 1e-2, where fixed layout starts: the double and its neighbours on both sides, either sign
    up = np.nextafter(1e-2, 1.0)
    hundredth = np.array([np.nextafter(1e-2, 0.0), 1e-2, up, np.nextafter(up, 1.0)])
    decades = np.array([float(f"1e{k}") for k in range(-2, 18)])
    near_decades = (decades.view(np.int64)[:, None] + np.arange(-64, 65)).ravel().view(float)
    fast = rng.uniform(-10, 10, n)
    slow = np.concatenate([rng.uniform(1e-9, 1e-5, n // 2), [0.0, -0.0, np.nan, np.inf, -np.inf, 1e20, -3e17]])
    mixed = fast.copy()
    for share in (0.05, 0.5):
        at = rng.random(n) < share
        mixed[at] = rng.choice(slow, at.sum())
    return {
        "uniform [0, 1]": rng.random(n),
        "uniform [-10, 10]": fast,
        "log-uniform 1e-8 to 1e19": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 19, n),
        "bit patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(float),
        "ties": np.concatenate(ties + [-t for t in ties]),
        "near ties": (2.0**50 + np.array([[0.25], [0.75]])) * 10.0 ** -np.arange(0, 23),
        "powers of ten and neighbours": np.concatenate([powers, below, above, -below, -above]),
        "integers and short decimals": np.concatenate([np.arange(1000.0), np.arange(1000) / 8.0, np.arange(1000) / 1e3]),
        "edges": np.array(edges + [np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0)]),
        "1e-2 and neighbours": np.concatenate([hundredth, -hundredth]),
        # the cells whose 17 digits come closest to rounding up to the next power of ten, or down from this one
        "64 ulps about 1e-2 to 1e17": np.concatenate([near_decades, -near_decades]),
        "[1e-4, 1e-2)": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4, -2, n),
        # E = -2 with trailing zeros in D: short decimals and dyadic fractions in [1e-2, 1e-1)
        "E = -2 short": np.concatenate(
            [np.arange(1000, 10000) / 1e5, np.arange(11, 103) / 1024.0, -np.arange(1, 7) / 64.0]
        ),
        "mixed fast and slow": mixed,
        "slow only": slow,
        "E = -2 to 16, 1 to 17 digits": digit_counts(np.random.default_rng(912)),
    }


def percent_digits(x):
    """E and the significant digits, trailing zeros dropped, of the %.17g text of |x|."""
    d = decimal.Decimal("%.17g" % abs(x))
    return d.adjusted(), "".join(map(str, d.as_tuple().digits)).rstrip("0")


def digit_counts(rng):
    """Up to 4 doubles, either sign, for each E in [-2, 16] whose %.17g text has n = 1 to 17 significant digits.

    So F's last non-zero group, and the point where it shares that group, land in each of the six groups.
    """
    picked = []
    for e in range(-2, 17):
        for n in range(1, 18):
            m = rng.integers(10 ** (n - 1), 10**n, 64) // 10 * 10 + rng.integers(1, 10, 64)  # n digits, the last not 0
            x = np.array([float(f"{int(v)}e{e + 1 - n}") for v in m])
            printed = [percent_digits(v) for v in x]
            picked.append(x[[(got_e, len(digits)) == (e, n) for got_e, digits in printed]][:4])
    picked = np.concatenate(picked)
    return np.concatenate([picked, -picked])


def assert_csv_matches(cells, cols, what):
    assert_table_matches(np.resize(cells, (-(-len(cells) // cols), cols)), what)


def assert_table_matches(table, what):
    got, want = cli._csv_text(table), percent_csv(table)
    if got != want:  # name the differing cells; a diff of the whole text is slow
        pairs = zip(got.replace("\n", ",\n").split(","), want.replace("\n", ",\n").split(","))
        pytest.fail(f"{what}: " + "; ".join(f"{g!r} != {w!r}" for g, w in pairs if g != w)[:500])


@pytest.mark.parametrize("cols", [31, 16, 1])
def test_csv_text_is_percent_formatting(cols):
    for name, cells in csv_corpus().items():
        assert_csv_matches(cells, cols, name)


@pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["low", "high"])
def test_csv_text_exponent_survives_log10_one_ulp_off(monkeypatch, toward):
    """numpy's log10 rounds differently under different CPU dispatch targets, so _csv_text looks E up among the
    doubles 1e-2, 1e-1, ..., 1e16 and calls no log10: with log10 one ulp low or high, it is not called and the text
    is unchanged. Cells are each power of ten from 1e-2 to 1e16 and its neighbours, where an E one off would show.
    """
    log10, calls = np.log10, []
    monkeypatch.setattr(np, "log10", lambda a: calls.append(a) or np.nextafter(log10(a), toward))
    powers = 10.0 ** np.arange(-2, 17)
    for x in np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]):
        assert cli._csv_text(np.array([[x]])) == "%.17g\n" % x
    assert calls == []


def test_csv_corpus_hits_every_layout_code():
    """Every row of the code table formats some corpus cell in [1e-2, 1e17), first, after a comma and after a newline.

    A row is (E, F's last non-zero group, sign, lead), read here off the % text. F is D and one 0, or at E = -2 one 0
    and D, so D's last non-zero digit k is F's digit k, or k + 1 at E = -2; F's group j holds digits 3 j to 3 j + 2.
    """
    words, codes = cli._csv_tables()
    assert words.shape == (8 * 1000 + 12,) and codes.shape == (19 * 6 * 2 * 3, 7)
    assert not words.flags.writeable and not codes.flags.writeable
    cells = np.concatenate([np.ravel(c) for c in csv_corpus().values()])
    rows = {}
    for x in cells[(np.abs(cells) >= 1e-2) & (np.abs(cells) < 1e17)]:
        e, digits = percent_digits(x)
        rows.setdefault((e, (len(digits) - 1 + (e == -2)) // 3, bool(x < 0)), x)
    assert sorted(rows) == [(e, last, neg) for e in range(-2, 17) for last in range(6) for neg in (False, True)]
    for row, x in rows.items():
        assert_table_matches(np.full((2, 2), x), f"row {row}")  # x leads with nothing, a comma and a newline


def test_import_builds_no_formatter_table_and_calls_no_eigensolver():
    """Importing the CLI stays cheap: the word table is built on the first evolve, no eigh runs, no argparse loads.

    Plain command lines are read without argparse too; another spelling of the same run loads it and reads the same.
    No eigensolve means none through numpy's four public eigensolvers and none through matcore._eigh, counted at the
    two LAPACK gufuncs it looks up on numpy's module at each call, since probchan's modules bind _eigh as they import.
    """
    script = """
import numpy as np
from numpy.linalg import _umath_linalg
calls = []
for module, names in ((np.linalg, ("eigh", "eigvalsh", "eig", "eigvals")), (_umath_linalg, ("eigh_lo", "eigvalsh_lo"))):
    for name in names:
        solver = getattr(module, name)
        setattr(module, name, lambda *a, _name=name, _solver=solver, **k: calls.append(_name) or _solver(*a, **k))
import sys
from probchan import cli
print(cli._csv_tables.cache_info().currsize, calls, "argparse" in sys.modules)
cli._parse(["state", "to-probs", "rho.json", "--dim", "2", "-o", "out.json"])
evolve = vars(cli._parse(["evolve", "--hamiltonian", "h.json", "--t-max", "10", "--oracle"]))
print("argparse" in sys.modules, end=" ")
spelled = [["--hamiltonian", "h.json", "--t-max=10"], ["--t", "10", "--ham", "h.json"]]
print([vars(cli._parse(["evolve", *argv, "--oracle"])) == evolve for argv in spelled], "argparse" in sys.modules)
cli._csv_text(np.eye(2))
print(cli._csv_tables.cache_info().currsize)
"""
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 [] False\nFalse [True, True] True\n1\n"


def test_csv_text_slow_cells_at_row_edges():
    """Cells formatted by % where a separator leads, or none does: first cell, first and last columns, thin tables."""
    rng = np.random.default_rng(910)
    slow = [0.0, -0.0, np.nan, -np.inf, 1e-3, -5e-5, 1e20, np.nextafter(1e-2, 0.0)]
    for value in slow:
        for rows, cols in ((4, 31), (1, 31), (5, 1), (1, 1), (3, 2)):
            base = rng.uniform(-10.0, 10.0, (rows, cols))
            for where in ((0, 0), (slice(None), 0), (slice(None), -1), (slice(None), slice(None))):
                table = base.copy()
                table[where] = value
                assert_table_matches(table, f"{value!r} at {where} of {rows} x {cols}")
        # every other cell slow, and a fast first cell in a slow table
        table = np.full((3, 5), value)
        table[0, 0] = 0.5
        table[1, ::2] = -0.0625
        assert_table_matches(table, f"mixed {value!r}")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=62), st.integers(1, 31))
def test_csv_text_on_generated_floats(cells, cols):
    assert_csv_matches(np.array(cells), cols, "generated")


def per_cell_matrix_text(m):
    """A matrix document formatted one %.17g cell at a time, the reference for cli._matrix_text."""
    rows = [", ".join("[%.17g, %.17g]" % (float(z.real), float(z.imag)) for z in row) for row in m]
    return '{\n  "dim": %d,\n  "entries": [\n%s\n  ]\n}\n' % (m.shape[0], ",\n".join(f"    [{r}]" for r in rows))


def per_cell_probs_text(p):
    """A probability document formatted one %.17g value at a time, the reference for cli._probs_text."""
    return '{\n  "probs": [%s]\n}\n' % ", ".join("%.17g" % float(x) for x in p)


def test_small_writers_match_per_cell_formatting():
    rng = np.random.default_rng(1010)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-4, 1e17])

    def cells(shape):
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-20, 20, shape)
        at = rng.random(shape) < 0.1
        x[at] = rng.choice(specials, at.sum())
        return x

    for _ in range(1000):
        for dim in (2, 4):
            m = cells((dim, dim, 2)).view(complex)[..., 0]
            assert cli._matrix_text(m) == per_cell_matrix_text(m)
            assert cli._matrix_text(m.real) == per_cell_matrix_text(m.real)
        for n in (3, 15):
            p = cells(n)
            assert cli._probs_text(p) == per_cell_probs_text(p)


def test_refused_evolve_writes_no_file(tmp_path, capsys):
    good_h = write(tmp_path, "h.json", matrix_doc(np.diag([1.0, -1.0])))
    bad_h = write(tmp_path, "bh.json", matrix_doc(np.array([[0.0, 1.0], [0.0, 0.0]])))
    flat = write(tmp_path, "flat.json", probs_doc([0.5] * 15))
    out = tmp_path / "out.csv"
    fast_h = write(tmp_path, "fh.json", matrix_doc(100.0 * np.array([[0.0, 1.0], [1.0, 0.0]])))
    huge_h = write(tmp_path, "hh.json", matrix_doc(np.full((2, 2), 1e308)))
    scalar_h = write(tmp_path, "sh.json", matrix_doc(2.0 * np.eye(2)))
    zero_h = write(tmp_path, "zh.json", matrix_doc(np.zeros((2, 2))))
    refused = [
        (["--hamiltonian", good_h, "--t-max", "1", "--initial", flat], 2),
        (["--hamiltonian", bad_h, "--t-max", "1"], 1),
        (["--hamiltonian", good_h, "--t-max", "10", "--dt", "5e-324"], 1),
        (["--hamiltonian", fast_h, "--t-max", "1", "--dt", "0.1"], 1),  # RK4 diverges: dt * spread = 20
        (["--hamiltonian", fast_h, "--t-max", "1", "--dt", "0.0142"], 1),  # dt * spread = 2.84 > 2 sqrt(2)
        (["--hamiltonian", huge_h, "--t-max", "1"], 1),  # numbers above 1e150
        (["--hamiltonian", scalar_h, "--t-max", "1e308", "--dt", "1e304"], 1),
        (["--hamiltonian", zero_h, "--t-max", "1e200", "--dt", "1e195"], 1),  # passes the time grid, not 1e150
    ]
    for args, code in refused:
        assert cli.main(["evolve", *args, "--oracle", "--output", str(out)]) == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, (args, err)

    # a Hamiltonian within the 1e-12 Hermiticity gate runs, and both RK4 and the oracle evolve its Hermitian part
    near = np.array([[1.0 + 1e-13j, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
    outputs = []
    for name, h in (("near.json", near), ("part.json", (near + near.conj().T) / 2.0)):
        path = write(tmp_path, name, matrix_doc(h))
        assert cli.main(["evolve", "--hamiltonian", path, "--t-max", "1", "--oracle", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert capsys.readouterr().err == ""


def test_evolve_memory_stays_flat(tmp_path):
    h_path = write(tmp_path, "h.json", matrix_doc(np.array([[0.0, 1.0], [1.0, 0.0]])))
    out = str(tmp_path / "traj.csv")
    peaks = []
    for steps in (3 * _BLOCK, 30 * _BLOCK):
        argv = ["evolve", "--hamiltonian", h_path, "--t-max", repr(steps * 1e-3), "--dt", "1e-3", "--oracle"]
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--output", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_unwritable_output_exits_1(tmp_path):
    missing = str(tmp_path / "missing" / "out.txt")
    rho = write(tmp_path, "rho.json", matrix_doc(np.eye(2) / 2.0))
    h = write(tmp_path, "h.json", matrix_doc(np.diag([1.0, -1.0])))
    for args in (
        ["state", "to-probs", "--dim", "2", rho, "-o", missing],
        ["channel", "check", write(tmp_path, "c.json", matrix_doc(identity_choi())), "-o", missing],
        ["evolve", "--hamiltonian", h, "--t-max", "0.01", "--output", missing],
    ):
        result = run_cli(args)
        assert result.returncode == 1
        assert result.stderr.startswith("error: cannot write") and result.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_that_cannot_be_written_exits_1(monkeypatch):
    """Buffered, as a program's stdout is unless PYTHONUNBUFFERED is set, a failed write is still one line and exit 1."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    for args, stdin_text in (
        (["state", "from-probs", "--dim", "2", "-"], probs_doc([0.5, 0.5, 0.5])),
        (["channel", "check", "-", "-o", "-"], matrix_doc(identity_choi())),
        (["--help"], None),
    ):
        with open("/dev/full", "w") as full:
            result = run_cli(args, stdin_text, stdout=full)
        assert result.returncode == 1, (args, result.stderr)
        assert re.fullmatch(r"error: cannot write -: [^\n]*\n", result.stderr), (args, result.stderr)


def test_input_numbers_are_bounded_by_1e150(tmp_path):
    # beyond 1e150 a number is refused before any output is opened; at 1e150 squares and sums stay finite
    out = tmp_path / "out.json"
    for value, want in ((1e308, 1), (-1e151, 1), (1e150, 0), (-1e150, 0)):
        kraus = write(tmp_path, "k.json", kraus_doc([np.full((2, 2), value), np.eye(2)]))
        choi = write(tmp_path, "c.json", matrix_doc((1 + 1j) * np.full((4, 4), value)))
        for args in (["choi-from-kraus", kraus], ["check", choi]):
            code, _, err = run_in_process(["channel", *args, "-o", str(out)])
            assert code == want, (value, args, err)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()
            else:
                assert err == ""
                json.loads(out.read_text())  # %.17g prints inf and nan, which are not JSON
                out.unlink()


def run_in_process(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_matches_fresh_processes(tmp_path):
    choi = write(tmp_path, "choi.json", matrix_doc(np.diag([1.0, 0.25, 0.0, 0.75])))
    h = write(tmp_path, "h.json", matrix_doc(np.array([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])))
    rho = write(tmp_path, "rho.json", matrix_doc(random_density(np.random.default_rng(3), 2)))
    evolve = ["evolve", "--hamiltonian", h, "--t-max", "0.05", "--dt", "0.01"]
    sequence = [
        ["channel", "check", choi, "--tolerance", "1e-3"],
        ["channel", "check", choi],
        [*evolve, "--oracle"],
        evolve,
        ["state", "to-probs", "--dim", "2", rho],
        ["evolve", "--hamiltonian", h, "--t-max", "abc"],
        ["state", "to-probs", "--dim", "2", rho],
    ]
    for argv in sequence:
        fresh = run_cli(argv)
        assert run_in_process(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_patched_handler_takes_effect_after_first_call(tmp_path, monkeypatch):
    rho = write(tmp_path, "rho.json", matrix_doc(np.eye(2) / 2.0))
    argv = ["state", "to-probs", "--dim", "2", rho]
    assert run_in_process(argv)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_state", lambda args: seen.append(args) or 7)
    assert run_in_process(argv) == (7, "", "")
    assert [(a.direction, a.input, a.dim) for a in seen] == [("to-probs", rho, 2)]


# ---------------------------------------------------------------------------
# property-based corpus: mutated documents and flag edge values, in process

VALID_DOCS = {
    "matrix2": lambda rng: matrix_doc(random_density(rng, 2)),
    "matrix4": lambda rng: matrix_doc(random_density(rng, 4)),
    "choi": lambda rng: matrix_doc(choi_from_kraus(random_tp_kraus(rng, int(rng.integers(1, 5))))),
    "kraus": lambda rng: kraus_doc(random_tp_kraus(rng, int(rng.integers(1, 5)))),
    "probs3": lambda rng: probs_doc(random_bloch_probs(rng)),
    "probs15": lambda rng: probs_doc(random_channel_probs(rng)),
    "hamiltonian": lambda rng: matrix_doc(random_hermitian(rng, 2)),
}
ACTIONS = [
    (["state", "to-probs", "--dim", "2"], "matrix2"),
    (["state", "to-probs", "--dim", "4"], "matrix4"),
    (["state", "from-probs", "--dim", "2"], "probs3"),
    (["state", "from-probs", "--dim", "4"], "probs15"),
    (["channel", "check"], "choi"),
    (["channel", "choi-from-kraus"], "kraus"),
    (["channel", "to-probs"], "choi"),
    (["channel", "from-probs"], "probs15"),
]
HOSTILE_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, 1, -0.0, 1.0 + 2.0**-52, 5e-324, True, None, "0.5", [], [0.5, 0], {}, 3, 16]),
).map(copy.deepcopy)  # a fresh [] or {} each time: documents mutates what it draws
TOLERANCES = ["0", "-0", "1e-9", "1", "5e-324", "1e308", "nan", "inf", "-inf", "-1"]
T_MAX = ["1", "0.25", "1e-3", "0", "-1", "nan", "inf", "1e308", "5e-324"]
DT = ["0.01", "0.3", "1e-3", "0", "-0.1", "nan", "inf", "5e-324", "2", "1e-7"]
# half the grids from the valid head of both lists, so evolve also runs to the end
GRIDS = st.one_of(
    st.tuples(st.sampled_from(T_MAX[:3]), st.sampled_from(DT[:3])),
    st.tuples(st.sampled_from(T_MAX), st.sampled_from(DT)),
)


def _few_steps(grid):
    """False for a valid grid of more than 1,000 steps; over-cap and invalid grids are refused early."""
    t_max, dt = map(float, grid)
    return not (0.0 < dt <= t_max < np.inf and 1000 < t_max / dt <= MAX_STEPS)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from _paths(value, path + (key,))


@st.composite
def documents(draw, kind):
    """A valid document of kind (one in five of any kind), often mutated as a JSON tree and then as text."""
    if draw(st.integers(0, 4)) == 0:
        kind = draw(st.sampled_from(sorted(VALID_DOCS)))
    doc = json.loads(VALID_DOCS[kind](np.random.default_rng(draw(st.integers(0, 2**32 - 1)))))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(HOSTILE_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(HOSTILE_VALUES)
    text = json.dumps(doc)
    mutation = draw(st.sampled_from(["none"] * 12 + ["truncate", "garbage", "not-utf-8", "deep"]))
    if mutation == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if mutation == "garbage":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.text(max_size=4)) + text[at:]
    if mutation == "not-utf-8":
        return text.encode() + b"\xff\xfe"
    if mutation == "deep":
        depth = draw(st.sampled_from([1, 100, 100_000]))
        return "[" * depth + text + "]" * depth
    return text


@st.composite
def cli_runs(draw, workdir):
    """argv for one state, channel or evolve run, plus the input files it names."""
    files = {}

    def put(name, text):
        files[workdir / name] = text
        return str(workdir / name)

    output = draw(st.sampled_from(["-"] * 5 + [str(workdir / "missing" / "out")]))
    if draw(st.integers(0, 9)) < 8:
        action, kind = draw(st.sampled_from(ACTIONS))
        argv = [*action, put("doc.json", draw(documents(kind))), "-o", output]
        if action[0] == "channel" and draw(st.booleans()):
            argv.append(f"--tolerance={draw(st.sampled_from(TOLERANCES))}")
        return argv, files
    t_max, dt = draw(GRIDS.filter(_few_steps))
    argv = ["evolve", "--hamiltonian", put("h.json", draw(documents("hamiltonian"))), f"--t-max={t_max}"]
    argv += [f"--dt={dt}", "--output", output]
    if draw(st.booleans()):
        argv += ["--initial", put("p0.json", draw(documents("probs15")))]
    if draw(st.booleans()):
        argv.append("--oracle")
    return argv, files


UNPARSEABLE_NUMBERS = ["abc", "", "1e"]
UNKNOWN_FLAGS = ["--bogus", "-x", "--dims=2", "--oracle-only"]


@st.composite
def refused_flag_runs(draw, workdir):
    """A cli_runs argv with one flag the command line refuses.

    That is an unknown flag, an unparseable number, --dim 3, or a required
    flag dropped (--dim, --hamiltonian or --t-max), each a usage error of
    the flag table.
    """
    argv, files = draw(cli_runs(workdir))
    breaks = {"state": ["dim 3", "--dim"], "channel": ["number"], "evolve": ["number", "--hamiltonian", "--t-max="]}
    how = draw(st.sampled_from(["unknown flag", *breaks[argv[0]]]))
    if how == "unknown flag":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(UNKNOWN_FLAGS)))
    elif how == "dim 3":
        argv[argv.index("--dim") + 1] = "3"
    elif how == "number":
        name = draw(st.sampled_from(["--t-max", "--dt"] if argv[0] == "evolve" else ["--tolerance"]))
        argv = [a for a in argv if not a.startswith(name + "=")]
        argv.append(f"{name}={draw(st.sampled_from(UNPARSEABLE_NUMBERS))}")
    else:
        at = next(i for i, a in enumerate(argv) if a.startswith(how))
        del argv[at : at + 1 + (argv[at] == how)]  # the flag, and its value when that is the next word
    return argv, files


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


def test_cli_contract_on_generated_inputs(corpus_dir):
    """Every run exits 0, 1 or 2, prints one error: line exactly when it fails, and raises nothing.

    A run with a flag the flag table refuses exits 1 and prints that one line alone.
    """

    def run(argv, files):
        for path, text in files.items():
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        return run_in_process(argv)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(cli_runs(corpus_dir))
    def check(generated):
        code, _, err = run(*generated)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code in (0, 1, 2)
        assert len(errors) == (code != 0), (generated[0], err)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(refused_flag_runs(corpus_dir))
    def check_refused(generated):
        code, out, err = run(*generated)
        assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith("error: "), (generated[0], err)

    check()
    check_refused()


# ---------------------------------------------------------------------------
# the flag table against the argparse parser it replaced, copied as it was


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are FormatErrors (exit 1), not SystemExit(2)."""

    def error(self, message):
        raise cli.FormatError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The process's one parser, built on first use and never changed; main looks up cmd_* at call time."""
    parser = _Parser(
        prog="probchan",
        description="Probability-vector representation of qubit states and channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="density matrix <-> probability vector")
    state.add_argument("direction", choices=("to-probs", "from-probs"))
    state.add_argument("input", help="input file path, or - for stdin")
    state.add_argument("--dim", type=int, choices=(2, 4), required=True, help="Hilbert space dimension")
    state.add_argument("-o", "--output", default="-", help="output file path, or - for stdout (default)")

    channel = sub.add_parser("channel", help="inspect and convert channel representations")
    channel.add_argument("action", choices=("check", "choi-from-kraus", "to-probs", "from-probs"))
    channel.add_argument("input", help="input file path, or - for stdin")
    channel.add_argument(
        "--tolerance", type=float, default=1e-9, help="verdict, residual and trace tolerance (default 1e-9)"
    )
    channel.add_argument("-o", "--output", default="-", help="output file path, or - for stdout (default)")

    evolve = sub.add_parser("evolve", help="integrate the kinetic equation, emit a CSV trajectory")
    evolve.add_argument("--hamiltonian", required=True, help="MatrixFile with the 2 x 2 Hamiltonian, or -")
    evolve.add_argument("--t-max", type=float, required=True, help="time horizon")
    evolve.add_argument("--dt", type=float, default=1e-3, help="RK4 step (default 1e-3)")
    evolve.add_argument(
        "--initial",
        default="identity",
        help="ProbsFile with 15 initial probabilities, or the literal 'identity' (default)",
    )
    evolve.add_argument("--oracle", action="store_true", help="append closed-form columns o1..o15 and a max_dev line")
    evolve.add_argument("--output", default="-", help="output file path, or - for stdout (default)")

    return parser


def parse_outcome(parse, argv):
    """("ok", repr of each value), ("help", None) or ("error", message) of one parse of argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", {name: repr(value) for name, value in vars(parse(list(argv))).items()}
    except SystemExit as exc:
        assert exc.code == 0
        return "help", None
    except cli.FormatError as exc:
        return "error", str(exc)


# the kinds of usage error that README or the tests quote, whose text must not change
QUOTED_ERRORS = (
    "invalid float value",
    "invalid int value",
    "invalid choice",
    "the following arguments are required",
    "unrecognized arguments",
    "expected one argument",
)
EDGE_WORDS = [
    "--t", "--tol", "-oPATH", "-o=PATH", "-o", "--", "-", "-5", "-1e-3", "--oracle=1", "-h", "--help", "--he",
    "", "bogus", "check", "to-probs", "--dim", "4", "--t-max", "--dt=0.5", "--o", "--h", "--output=", "-x", "-hh",
    "-ho", "-hx",
]
PARSER_EDGES = [
    [],
    ["-h"],
    ["bogus"],
    ["--", "state"],
    ["state", "bogus", "in.json", "--dim", "2"],
    ["state", "to-probs", "in.json", "--dim", "2", "-oPATH"],
    ["state", "to-probs", "in.json", "--dim=4", "-o=PATH", "-o", "-", "--d", "2"],
    ["state", "-h", "--dim", "3"],
    ["state", "to-probs", "--", "-5", "--dim", "2"],
    ["state", "to-probs", "x", "--dim", "2", "--"],
    ["state", "--dim", "2", "to-probs", "x", "--"],
    ["channel", "check", "in.json", "--t", "0.5", "--tol=1e-3", "--tolerance", "-5"],
    ["channel", "check", "in.json", "--tolerance", "-1e-3"],
    ["channel", "check", "-", "-o", "-", "-o"],
    ["evolve", "--hamiltonian", "h", "--t-max", "-5", "--t", "2", "--oracle", "--or"],
    ["evolve", "--hamiltonian", "h", "--t-max", "-1e-3"],
    ["evolve", "--hamiltonian", "h", "--t-max", "1", "--oracle=1"],
    ["evolve", "--hamiltonian", "h", "--t-max", "1", "--o", "x"],
    ["evolve", "--hamiltonian", "h", "--t-max", "abc", "--bogus", "-h"],
    ["evolve", "--t-max=1", "--hamiltonian=-", "extra", "--", "--dt", "2"],
    ["-hh"],
    ["state", "-ho", "x"],
    ["state", "-hoPATH", "--dim", "3"],
    ["channel", "-ho"],
    ["evolve", "-hx"],
]


@st.composite
def parser_argvs(draw, workdir):
    """A cli_runs or refused_flag_runs argv, or none, with up to three edge words inserted, swapped in or repeated."""
    argv = draw(st.one_of(st.just(([], {})), cli_runs(workdir), refused_flag_runs(workdir)))[0]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "repeat"]))
        flags = [i for i, word in enumerate(argv) if word.startswith("-") and word != "-"]
        if edit == "repeat" and flags:  # a flag again, with its value when that is the next word
            i = draw(st.sampled_from(flags))
            argv[at:at] = argv[i : i + 1 + ("=" not in argv[i])]
        elif edit == "replace" and at < len(argv):  # also an unknown subcommand or action
            argv[at] = draw(st.sampled_from(EDGE_WORDS))
        else:
            argv.insert(at, draw(st.sampled_from(EDGE_WORDS)))
    return argv


def test_flag_table_parses_as_argparse_did(corpus_dir):
    """_parse gives argparse's values, help or refusal on every argv, and the same text for the quoted errors."""

    def check(argv):
        want, got = parse_outcome(_build_parser().parse_args, argv), parse_outcome(cli._parse, argv)
        assert want[0] == got[0], (argv, want, got)
        if want[0] != "error" or any(kind in message for kind in QUOTED_ERRORS for message in (want[1], got[1])):
            assert want == got, argv

    @settings(max_examples=1000, derandomize=True, deadline=None, database=None)
    @given(parser_argvs(corpus_dir))
    def check_generated(argv):
        check(argv)

    for argv in PARSER_EDGES:
        check(argv)
    check_generated()


@st.composite
def plain_evolve_argvs(draw):
    """An evolve argv spelled --t-max X --dt Y, with optional --initial, --oracle and --output, in any order."""
    undashed = [v for v in T_MAX + DT if v[:1] != "-"]
    path = st.sampled_from(["h.json", "-", "p0.json", "identity", "out.csv", "nan", "1e-3"])
    groups = [
        ["--hamiltonian", draw(path)],
        ["--t-max", draw(st.sampled_from(undashed))],
        ["--dt", draw(st.sampled_from(undashed))],
    ]
    if draw(st.booleans()):
        groups.append(["--initial", draw(path)])
    if draw(st.booleans()):
        groups.append(["--oracle"])
    if draw(st.booleans()):
        groups.append(["--output", draw(path)])
    return ["evolve", *(word for group in draw(st.permutations(groups)) for word in group)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(plain_evolve_argvs())
def test_plain_evolve_argv_parses_as_argparse_did(argv):
    """Every plainly spelled evolve argv is read from the flag table, to argparse's values."""
    assert cli._plain(argv) is not None, argv
    assert parse_outcome(cli._parse, argv) == parse_outcome(_build_parser().parse_args, argv), argv


@pytest.mark.parametrize(
    "argv, names",
    [
        ([], ["-h, --help", "{state,channel,evolve}", "state", "channel", "evolve"]),
        (["state"], ["-h, --help", "{to-probs,from-probs}", "input", "--dim {2,4}", "-o"]),
        (
            ["channel"],
            [
                "-h, --help",
                "{check,choi-from-kraus,to-probs,from-probs}",
                "input",
                "--tolerance TOLERANCE",
                "-o",
            ],
        ),
        (
            ["evolve"],
            [
                "-h, --help",
                "--hamiltonian HAMILTONIAN",
                "--t-max T_MAX",
                "--dt DT",
                "--initial INITIAL",
                "--oracle",
                "--output OUTPUT",
            ],
        ),
    ],
)
def test_help_prints_usage_and_returns_0(argv, names, monkeypatch):
    """--help and -h print argparse's help of the flag table on stdout only: a row for each argument with its help
    and default, the same bytes in process, as a program and at any COLUMNS."""
    code, out, err = run_in_process([*argv, "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: probchan ")
    rows = [line.strip() for line in out.splitlines()]
    assert all(any(row.startswith(name) for row in rows) for name in names), out  # "-o": 3.13 writes "-o, --output X"
    tokens = {word.rstrip(",") for word in out.split()}
    words = " ".join(out.split())  # wherever argparse wrapped a line
    about, table = cli._COMMANDS[argv[0] if argv else None]
    abouts = [about] if argv else [text for text, _ in cli._COMMANDS.values()]  # the top level lists each command's
    assert all(text in words for text in abouts), out
    for flags, dest, convert, default, choices, text in table:
        spelled = [*flags, "{%s}" % ",".join(map(str, choices))] if choices else flags or [dest]
        described = text if default is None or convert is None else f"{text} (default {default})"
        assert all(word in tokens for word in spelled) and described in words, (flags or dest, out)
    assert run_in_process([*argv, "-h"]) == (0, out, "")
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert run_in_process([*argv, "-h"]) == (0, out, ""), columns
        fresh = run_cli([*argv, "--help"])
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, out, ""), columns


def test_unparseable_number_prints_the_readme_line():
    argv = ["evolve", "--hamiltonian", "H", "--t-max", "abc"]
    assert run_in_process(argv) == (1, "", "error: argument --t-max: invalid float value: 'abc'\n")


# each document reader, the 'dim' its command needs and the key of its cells
DIM_READERS = {
    "state-to-probs": (["state", "to-probs", "--dim", "2", "{doc}", "-o", "{out}"], 2, "entries"),
    "channel-check": (["channel", "check", "{doc}", "-o", "{out}"], 4, "entries"),
    "channel-to-probs": (["channel", "to-probs", "{doc}", "-o", "{out}"], 4, "entries"),
    "choi-from-kraus": (["channel", "choi-from-kraus", "{doc}", "-o", "{out}"], 2, "kraus"),
    "evolve": (["evolve", "--hamiltonian", "{doc}", "--t-max", "0.01", "--output", "{out}"], 2, "entries"),
}


@pytest.mark.parametrize("argv, need, key", DIM_READERS.values(), ids=DIM_READERS.keys())
def test_documents_are_shape_checked_where_read(tmp_path, argv, need, key):
    """A 'dim' other than the int the command needs is one short error line naming 'dim', before any cell is read."""
    other = 6 - need  # 4 where 2 is needed, 2 where 4 is
    grid = [[[float(i == j), 0.0] for j in range(other)] for i in range(other)]
    body = {key: [grid] if key == "kraus" else grid}
    docs = [{"dim": dim, **body} for dim in (other, 3, 0, float(need), True, str(need), list(range(10_000)))]
    docs += [body, {"dim": other, key: ["junk"] * 10_000}]
    out = tmp_path / "out"
    for doc in docs:
        path = write(tmp_path, "doc.json", json.dumps(doc))
        code, stdout, err = run_in_process([word.format(doc=path, out=out) for word in argv])
        assert (code, stdout) == (1, ""), doc.get("dim")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]
        assert "'dim'" in err and str(need) in err, err
        assert not out.exists()


def test_empty_probability_list_exits_1(tmp_path):
    path = write(tmp_path, "p.json", probs_doc([]))
    h = write(tmp_path, "h.json", matrix_doc(np.diag([1.0, -1.0])))
    out = tmp_path / "out"
    for argv in (
        ["state", "from-probs", "--dim", "2", path, "-o", str(out)],
        ["channel", "from-probs", path, "-o", str(out)],
        ["evolve", "--hamiltonian", h, "--t-max", "0.01", "--initial", path, "--output", str(out)],
    ):
        code, stdout, err = run_in_process(argv)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("kraus", [[], {}, "junk", None, 2], ids=["empty", "object", "string", "null", "number"])
def test_kraus_document_needs_a_non_empty_list(tmp_path, kraus):
    path = write(tmp_path, "k.json", json.dumps({"dim": 2, "kraus": kraus}))
    out = tmp_path / "out"
    code, stdout, err = run_in_process(["channel", "choi-from-kraus", path, "-o", str(out)])
    assert (code, stdout, err) == (1, "", "error: Kraus document needs a non-empty 'kraus' list\n")
    assert not out.exists()


# where a refused number can sit: each matrix, probability and Kraus reader, with the cell or value it replaces
NUMBER_READERS = {
    "state-to-probs": (["state", "to-probs", "--dim", "2", "{doc}", "-o", "{out}"], "matrix"),
    "channel-check": (["channel", "check", "{doc}", "-o", "{out}"], "choi"),
    "evolve-hamiltonian": (["evolve", "--hamiltonian", "{doc}", "--t-max", "0.01", "--output", "{out}"], "matrix"),
    "state-from-probs": (["state", "from-probs", "--dim", "2", "{doc}", "-o", "{out}"], "probs3"),
    "channel-from-probs": (["channel", "from-probs", "{doc}", "-o", "{out}"], "probs15"),
    "evolve-initial": (["evolve", "--hamiltonian", "{h}", "--t-max", "0.01", "--initial", "{doc}",
                        "--output", "{out}"], "probs15"),
    "choi-from-kraus": (["channel", "choi-from-kraus", "{doc}", "-o", "{out}"], "kraus"),
}
HOSTILE_NUMBERS = {
    "list": list(range(10_000)),
    "object": {f"k{i}": i for i in range(5_000)},
    "string": "x" * 100_000,
    "bigint": 10**299,
    "nan": float("nan"),
    "true": True,
    "null": None,
}


@pytest.mark.parametrize("argv, slot", NUMBER_READERS.values(), ids=NUMBER_READERS.keys())
def test_refused_numbers_print_one_short_line(tmp_path, argv, slot):
    """Any value that is not a number within 1e150, wherever it is read, is one short error line and exit 1."""
    h = write(tmp_path, "h.json", matrix_doc(np.diag([1.0, -1.0])))
    out = tmp_path / "out"
    for name, value in HOSTILE_NUMBERS.items():
        if slot.startswith("probs"):
            probs = [0.5] * int(slot[5:])
            probs[1] = value
            doc, where = {"probs": probs}, "probs[1] "
        else:
            size = 4 if slot == "choi" else 2
            grid = [[[float(i == j), 0.0] for j in range(size)] for i in range(size)]
            grid[0][1][0] = value
            doc = {"dim": 2, "kraus": [grid]} if slot == "kraus" else {"dim": size, "entries": grid}
            where = "cell (0,1) real part "
        path = write(tmp_path, "doc.json", json.dumps(doc))
        code, stdout, err = run_in_process([word.format(doc=path, h=h, out=out) for word in argv])
        assert (code, stdout) == (1, ""), (name, err[:300])
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, (name, err[:300])
        assert where in err, err
        assert not out.exists()
