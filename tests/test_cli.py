import json

import numpy as np
import pytest

from probchan.kinetics import evolve_probs, oracle_probs
from probchan.probchannel import identity_channel_probs
from conftest import run_cli


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
    assert run_cli(["state", "from-probs", "--dim", "2", out_of_range]).returncode == 2

    non_hermitian = write(
        tmp_path, "nh.json", matrix_doc(np.array([[0.5, 0.5], [0.0, 0.5]]))
    )
    assert run_cli(["state", "to-probs", "--dim", "2", non_hermitian]).returncode == 2

    bad_trace = write(tmp_path, "tr.json", matrix_doc(np.eye(2)))
    assert run_cli(["state", "to-probs", "--dim", "2", bad_trace]).returncode == 2

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
