"""`evolve --oracle` against the per-block oracle it had before the eigendecomposition was made once per run.

The middle section copies `kinetics.oracle_probs` and `cli._trajectory_csv` as they were, docstrings dropped
and bodies unchanged: one gate and one eigh of h for every block. Swapped into `cli` for a run, the copy must
give the same stdout, stderr and exit code as today's code, which diagonalises the gated h once per run.
The last tests count the eigensolves and the Hamiltonian gates that each entry makes.
"""

import json
import sys

import numpy as np
import pytest

from probchan import channelcore, cli, kinetics, matcore, probchannel
from probchan.kinetics import _BLOCK, oracle_probs
from conftest import random_hermitian, random_tp_kraus

# ---------------------------------------------------------------------------
# the per-block oracle as it was


def old_oracle_probs(h, t) -> np.ndarray:
    vals, vecs = np.linalg.eigh(kinetics.validate_hamiltonian(h))
    v = (vecs.T[:, :, None] * vecs.T[:, None, :].conj()).reshape(2, 4)  # vec(P_0), vec(P_1)
    m = probchannel.probs_from_choi(v.T @ v.conj())
    cs = 2.0 * (probchannel.build_constants().prob_matrix @ np.outer(v[1], v[0].conj()).reshape(16))
    phase = (vals[1] - vals[0]) * np.asarray(t, dtype=float)
    return m + np.cos(phase)[..., None] * cs.real + np.sin(phase)[..., None] * cs.imag


def old_trajectory_csv(blocks, h):
    names = ["t"] + [f"p{i}" for i in range(1, 16)] + ([] if h is None else [f"o{i}" for i in range(1, 16)])
    yield ",".join(names) + "\n"
    max_dev = 0.0
    for times, probs in blocks:
        table = np.empty((len(times), len(names)))
        table[:, 0] = times
        table[:, 1:16] = probs
        if h is not None:
            table[:, 16:] = old_oracle_probs(h, times)
            max_dev = np.maximum(max_dev, np.max(np.abs(probs - table[:, 16:])))
        yield cli._csv_text(table)
    if h is not None:
        yield "# max_dev=" + cli._fmt(max_dev) + "\n"


# ---------------------------------------------------------------------------


def _files(tmp_path):
    rng = np.random.default_rng(1818)
    docs = {}
    for name, h in (("sigma_x", [[0.0, 1.0], [1.0, 0.0]]), ("random", random_hermitian(rng, 2, norm=3.0))):
        h = np.asarray(h, dtype=complex)
        docs[name] = {"dim": 2, "entries": [[[z.real, z.imag] for z in row] for row in h]}
    cptp = probchannel.probs_from_choi(channelcore.choi_from_kraus(random_tp_kraus(rng, 2)))
    paths = {}
    for name, doc in (*docs.items(), ("cptp", {"probs": cptp.tolist()})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return str(paths["sigma_x"]), str(paths["random"]), str(paths["cptp"])


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# 255, 256 and 257 whole steps of 1e-3 put the last sample at the end of a block, alone in a block and one past it;
# t_max 1.0235 ends in a shorter final step
T_MAX = [repr((_BLOCK - 1) * 1e-3), repr(_BLOCK * 1e-3), repr((_BLOCK + 1) * 1e-3), "1.0235"]


@pytest.mark.parametrize("t_max", T_MAX)
def test_evolve_oracle_output_matches_the_per_block_oracle(tmp_path, capsys, monkeypatch, t_max):
    sigma_x, random_h, cptp = _files(tmp_path)
    for h_path in (sigma_x, random_h):
        for initial in ("identity", cptp):
            argv = ["evolve", "--hamiltonian", h_path, "--t-max", t_max, "--dt", "1e-3", "--oracle", "--initial", initial]
            new = _run(capsys, argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_trajectory_csv", old_trajectory_csv)
                old = _run(capsys, argv)
            assert new == old, (h_path, initial)
            assert new[0] == 0 and new[1].splitlines()[-1].startswith("# max_dev=")


def test_oracle_over_a_grid_is_its_block_chunks_bit_for_bit():
    rng = np.random.default_rng(1819)
    times = np.arange(4 * _BLOCK + 17) * 1e-3
    times[-1] = 1.0235
    for h in ([[0.0, 1.0], [1.0, 0.0]], random_hermitian(rng, 2, norm=3.0)):
        chunks = [oracle_probs(h, times[start : start + _BLOCK]) for start in range(0, len(times), _BLOCK)]
        assert np.array_equal(np.concatenate(chunks), oracle_probs(h, times))
        assert np.array_equal(oracle_probs(h, times), old_oracle_probs(h, times))


def test_one_eigensolve_per_evolve_oracle_run_and_none_without_it(tmp_path, eigensolves):
    sigma_x, random_h, cptp = _files(tmp_path)
    out = str(tmp_path / "traj.csv")
    for h_path in (sigma_x, random_h):
        for t_max in ("0.1", "10"):
            for initial in ("identity", cptp):
                argv = ["evolve", "--hamiltonian", h_path, "--t-max", t_max, "--initial", initial, "--output", out]
                for oracle, want in (([], []), (["--oracle"], ["eigh"])):
                    eigensolves.clear()
                    assert cli.main([*argv, *oracle]) == 0
                    assert eigensolves == want, (h_path, t_max, initial, oracle)


def test_one_eigensolve_per_oracle_probs_call(eigensolves):
    times = np.arange(3 * _BLOCK) * 1e-3
    for t in (0.5, times[:1], times):
        eigensolves.clear()
        oracle_probs([[0.3, 1.0 - 2.0j], [1.0 + 2.0j, -0.5]], t)
        assert eigensolves == ["eigh"]


@pytest.fixture
def gates(monkeypatch):
    """One entry per require_hermitian call, wherever a probchan module imported it."""
    calls = []
    gate = matcore.require_hermitian

    def counted(*args, **kwargs):
        calls.append(1)
        return gate(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "probchan" and getattr(mod, "require_hermitian", None) is gate:
            monkeypatch.setattr(mod, "require_hermitian", counted)
    return calls


def test_each_entry_gates_the_hamiltonian_once(tmp_path, gates):
    sigma_x, random_h, cptp = _files(tmp_path)
    h = random_hermitian(np.random.default_rng(1820), 2, norm=3.0)
    p0 = probchannel.identity_channel_probs()
    for entry in (lambda: kinetics.evolve_blocks(h, p0, 1.0), lambda: oracle_probs(h, np.arange(3 * _BLOCK) * 1e-3)):
        gates.clear()
        entry()
        assert len(gates) == 1
    out = str(tmp_path / "traj.csv")
    for h_path in (sigma_x, random_h):
        for initial in ("identity", cptp):
            gates.clear()
            argv = ["evolve", "--hamiltonian", h_path, "--t-max", "1.0235", "--initial", initial, "--oracle"]
            assert cli.main([*argv, "--output", out]) == 0
            assert len(gates) <= 2, (h_path, initial)  # the CLI's exit-1 pre-check, then evolve_blocks
