"""The three workloads: seeded inputs, the timed call of each operation and its judge.

Every workload is a closed loop with one client: the harness calls one
operation, waits for it, and judges its output before calling the next.
An operation is an object with

* `kind`: a short label used for the failure breakdown;
* `prepare()`: untimed set-up before each call (removing a stale output);
* `call()`: the timed call into probchan, returning its outcome;
* `judge(outcome)`: None when the outcome matches the independent
  reference, otherwise the reason it does not (an exception escaping
  `call()` is judged by the harness);
* `defect`: for the hostile inputs of ROADMAP item 4, the name of the known
  defect and the reason it fails with at the seed.
"""

import contextlib
import io
import json
import os

import numpy as np

import reference as ref


# Distinct operations per pass, timed passes per run, and operations between
# host-speed probes. The work is fixed, never a time budget; the sizes keep
# each run near 20-60 s on a 2-vCPU host and leave at least ten samples
# beyond every reported percentile.
SIZES = {
    "evolve-long": {"ops": 3, "passes": 7, "probe_every": 1},
    "channel-audit": {"ops": 400, "passes": 90, "probe_every": 200},
    "cli-small": {"ops": 200, "passes": 45, "probe_every": 50},
}


def _rng(seed, workload):
    return np.random.default_rng([seed, ("evolve-long", "channel-audit", "cli-small").index(workload)])


def _normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _tp_kraus(rng, rank):
    gs = [_normal(rng, (2, 2)) for _ in range(rank)]
    s = sum(g.conj().T @ g for g in gs)
    vals, vecs = np.linalg.eigh(s)
    s_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [g @ s_inv_sqrt for g in gs]


def _trace2_kraus(rng, rank):
    """CP but not trace preserving, with Choi trace 2 so the 15-probability map keeps it."""
    gs = [_normal(rng, (2, 2)) for _ in range(rank)]
    scale = np.sqrt(2.0 / sum(np.trace(g.conj().T @ g).real for g in gs))
    return [g * scale for g in gs]


def _unitary(rng):
    q, r = np.linalg.qr(_normal(rng, (2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _density(rng, dim):
    g = _normal(rng, (dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def _hermitian(rng, norm):
    g = _normal(rng, (2, 2))
    h = (g + g.conj().T) / 2.0
    return h * (norm / np.max(np.abs(np.linalg.eigvalsh(h))))


def _bloch_probs(rng):
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return 0.5 + 0.5 * rng.uniform() ** (1.0 / 3.0) * direction


CHANNEL_KINDS = ("CPTP", "CP-not-TP", "TP-not-CP", "neither")


def _channel(rng, kind):
    """(Choi matrix, Kraus set or None, the map itself) for one verdict class."""
    if kind == "CPTP":
        ops = _tp_kraus(rng, int(rng.integers(1, 5)))
    elif kind == "CP-not-TP":
        ops = _trace2_kraus(rng, int(rng.integers(1, 5)))
    else:
        a = _unitary(rng) if kind == "TP-not-CP" else _trace2_kraus(rng, 1)[0]
        f = ref.transpose_map(a)
        return ref.choi_of_map(f), None, f
    f = ref.kraus_map(ops)
    return ref.choi_of_map(f), ops, f


def _channel_kind(i):
    """Fixed shares: 7 in 10 channels CPTP, one each of the other verdicts."""
    return CHANNEL_KINDS[max(0, i % 10 - 6)]


def matrix_doc(m):
    m = np.asarray(m, dtype=complex)
    return json.dumps({"dim": m.shape[0], "entries": [[[z.real, z.imag] for z in row] for row in m]})


def probs_doc(p):
    return '{"probs": [%s]}' % ", ".join(repr(float(x)) for x in p)


def kraus_doc(ops):
    cells = [[[[z.real, z.imag] for z in row] for row in np.asarray(a, dtype=complex)] for a in ops]
    return json.dumps({"dim": 2, "kraus": cells})


# ---------------------------------------------------------------------------
# CLI calls, shared by evolve-long and cli-small


def run_cli(cli, argv):
    """Call cli.main in process; returns (exit code, stderr). Other exceptions propagate.

    main is looked up at call time so a traced pass sees the wrapped function.
    """
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class CliOp:
    """One `probchan` request with its expected exit code and output check."""

    def __init__(self, cli, kind, argv, want_code, output=None, check_output=None, defect=None):
        self.cli = cli
        self.kind = kind
        self.argv = argv
        self.want_code = want_code
        self.output = output
        self.check_output = check_output
        self.defect = defect

    def prepare(self):
        if self.output and os.path.exists(self.output):
            os.remove(self.output)

    def call(self):
        return run_cli(self.cli, self.argv)

    def judge(self, outcome):
        code, stderr = outcome
        problem = ref.cli_mismatch(code, stderr, self.want_code)
        if problem or self.check_output is None:
            return problem
        try:
            with open(self.output, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return "no output file"
        try:
            return self.check_output(text)
        except (ValueError, KeyError, TypeError, IndexError):
            return "output does not parse"


def _expect_matrix(want):
    def check(text):
        dev = ref.max_dev(ref.parse_matrix_doc(text), want)
        return None if dev <= ref.TIGHT else f"matrix deviates by {dev:.3e}"

    return check


def _expect_probs(want):
    def check(text):
        dev = ref.max_dev(ref.parse_probs_doc(text), want)
        return None if dev <= ref.TIGHT else f"probabilities deviate by {dev:.3e}"

    return check


def _expect_report(want):
    return lambda text: ref.report_mismatch(json.loads(text), want)


# ---------------------------------------------------------------------------
# evolve-long


def evolve_long(seed, workdir, probchan):
    """10,001-sample `evolve --oracle` runs over the criterion-7 Hamiltonian family.

    Op 0 evolves the identity channel under sigma_x, op 1 a random CPTP
    channel under a random Hermitian of spectral norm 1-5, op 2 the identity
    under another such Hermitian. The Pauli is fixed because sigma_z writes
    a CSV less than half the size of the others, which would make a run's
    work depend on its seed.
    """
    rng = _rng(seed, "evolve-long")
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    times = np.arange(10001) * 1e-3
    times[-1] = 10.0
    ops = []
    for i in range(SIZES["evolve-long"]["ops"]):
        h = sigma_x if i == 0 else _hermitian(rng, float(rng.uniform(1.0, 5.0)))
        if i % 2 == 0:
            initial, choi0 = "identity", ref.IDENTITY_CHOI
        else:
            choi0 = _channel(rng, "CPTP")[0]
            initial = _write(workdir, f"evolve-p0-{i}.json", probs_doc(ref.channel_probs(choi0)))
        h_path = _write(workdir, f"evolve-h-{i}.json", matrix_doc(h))
        out = os.path.join(workdir, f"evolve-out-{i}.csv")
        want_p = ref.evolve_closed_form(h, choi0, times)
        want_o = ref.evolve_closed_form(h, ref.IDENTITY_CHOI, times)
        argv = ["evolve", "--hamiltonian", h_path, "--t-max", "10", "--dt", "1e-3", "--oracle",
                "--initial", initial, "--output", out]

        def check(text, want_p=want_p, want_o=want_o):
            return ref.check_trajectory_csv(text, times, want_p, want_o)

        kind = "evolve-identity" if i % 2 == 0 else "evolve-channel"
        ops.append(CliOp(probchan.cli, kind, argv, 0, out, check))
    return ops


# ---------------------------------------------------------------------------
# channel-audit


class ChannelOp:
    """Library chain over one channel plus one stateprob round trip."""

    def __init__(self, probchan, rng, i):
        self.pc = probchan
        self.kind = _channel_kind(i)
        self.choi, self.kraus, f = _channel(rng, self.kind)
        self.qubit = i % 2 == 0
        self.state = _bloch_probs(rng) if self.qubit else _density(rng, 4)
        self.test_rho = _density(rng, 2)
        self.want_image = f(self.test_rho).reshape(-1)
        self.want_report = ref.cptp_report(self.choi)
        self.want_probs = ref.channel_probs(self.choi)
        self.defect = None

    def prepare(self):
        pass

    def call(self):
        cc, pc, sp = self.pc.channelcore, self.pc.probchannel, self.pc.stateprob
        choi = cc.choi_from_kraus(self.kraus) if self.kraus is not None else self.choi
        probs = pc.probs_from_choi(choi)
        back = pc.choi_from_probs(probs)
        report = cc.verify_cptp(back)
        try:
            kraus = cc.kraus_from_choi(back)
        except ValueError as exc:
            kraus = exc
        superop = cc.superop_from_choi(back)
        if self.qubit:
            rho = sp.qubit_density_from_probs(self.state)
            state = (rho, sp.qubit_probs_from_density(rho), sp.qubit_bloch_check(self.state)[0])
        else:
            p = sp.ququart_probs_from_density(self.state)
            state = (p, sp.ququart_density_from_probs(p))
        return choi, probs, back, report, kraus, superop, state

    def judge(self, outcome):
        choi, probs, back, report, kraus, superop, state = outcome
        if ref.max_dev(choi, self.choi) > ref.TIGHT:
            return "choi_from_kraus differs from the definition"
        if ref.max_dev(probs, self.want_probs) > ref.TIGHT:
            return "probs_from_choi differs from the reference"
        if ref.max_dev(back, self.choi) > ref.TIGHT:
            return "choi_from_probs does not invert probs_from_choi"
        problem = ref.report_mismatch(report, self.want_report)
        if problem:
            return problem
        if self.kraus is None:
            if not isinstance(kraus, ValueError):
                return "kraus_from_choi accepted a non-CP Choi matrix"
        elif isinstance(kraus, Exception) or len(kraus) != len(self.kraus):
            return "kraus_from_choi returned the wrong rank"
        elif ref.max_dev(ref.choi_of_map(ref.kraus_map(kraus)), self.choi) > 1e-9:
            return "kraus_from_choi does not reproduce the Choi matrix"
        if ref.max_dev(superop @ self.test_rho.reshape(-1), self.want_image) > ref.TIGHT:
            return "superop_from_choi does not act as the channel"
        if self.qubit:
            rho, p, inside = state
            if ref.max_dev(rho, ref.qubit_rho(self.state)) > ref.TIGHT or ref.max_dev(p, self.state) > ref.TIGHT:
                return "qubit round trip differs from the reference"
            if inside != ref.bloch_ok(self.state):
                return "Bloch check disagrees with the reference"
        else:
            p, rho = state
            if ref.max_dev(p, ref.ququart_probs(self.state)) > ref.TIGHT or ref.max_dev(rho, self.state) > ref.TIGHT:
                return "ququart round trip differs from the reference"
        return None


def channel_audit(seed, workdir, probchan):
    """Library calls on single small inputs; every verdict branch and the Kraus rejection path run."""
    rng = _rng(seed, "channel-audit")
    return [ChannelOp(probchan, rng, i) for i in range(SIZES["channel-audit"]["ops"])]


# ---------------------------------------------------------------------------
# cli-small

# Requests per pass of 200: 160 valid, 20 malformed, 15 out of domain and
# one of each of the five hostile inputs of ROADMAP item 4.
CLI_MIX = {
    "state-to-probs-2": 20, "state-to-probs-4": 20, "state-from-probs-2": 20, "state-from-probs-4": 20,
    "channel-check": 20, "choi-from-kraus": 20, "channel-to-probs": 20, "channel-from-probs": 20,
    "bad-json": 4, "probs-length": 4, "choi-shape": 4, "kraus-no-dim": 4, "non-finite": 4,
    "bloch": 3, "prob-range": 3, "nonherm-state": 3, "nonherm-choi": 3, "nonpositive-ququart": 3,
    "dt-overflow": 1, "bigint": 1, "deep-json": 1, "non-utf8": 1, "missing-output-dir": 1,
}

# Name of each hostile input's defect and how it fails at the seed: the
# exception that escapes cli.main, or the wrong exit code.
KNOWN_DEFECTS = {
    "dt-overflow": "escaped OverflowError",
    "bigint": "escaped OverflowError",
    "deep-json": "escaped RecursionError",
    "non-utf8": "exit 2",
    "missing-output-dir": "escaped FileNotFoundError",
}


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "wb") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


def _cli_request(kind, rng, workdir, i, cli):
    put = lambda text: _write(workdir, f"in-{i}.json", text)  # noqa: E731
    out = os.path.join(workdir, f"out-{i}.json")
    state = lambda path, direction, dim: ["state", direction, "--dim", str(dim), path, "-o", out]  # noqa: E731
    channel = lambda path, action: ["channel", action, path, "-o", out]  # noqa: E731

    def op(argv, want_code, check=None, defect=None):
        return CliOp(cli, kind, argv, want_code, out, check, defect)

    if kind.startswith("state-to-probs"):
        dim = int(kind[-1])
        rho = _density(rng, dim)
        want = ref.qubit_probs(rho) if dim == 2 else ref.ququart_probs(rho)
        return op(state(put(matrix_doc(rho)), "to-probs", dim), 0, _expect_probs(want))
    if kind == "state-from-probs-2":
        p = _bloch_probs(rng)
        return op(state(put(probs_doc(p)), "from-probs", 2), 0, _expect_matrix(ref.qubit_rho(p)))
    if kind == "state-from-probs-4":
        rho = _density(rng, 4)
        p = ref.ququart_probs(rho)
        return op(state(put(probs_doc(p)), "from-probs", 4), 0, _expect_matrix(ref.ququart_rho(p)))
    if kind == "channel-check":
        choi = _channel(rng, CHANNEL_KINDS[i % 4])[0]
        return op(channel(put(matrix_doc(choi)), "check"), 0, _expect_report(ref.cptp_report(choi)))
    if kind == "choi-from-kraus":
        choi, ops, _ = _channel(rng, "CPTP")
        return op(channel(put(kraus_doc(ops)), "choi-from-kraus"), 0, _expect_matrix(choi))
    if kind == "channel-to-probs":
        choi = _channel(rng, CHANNEL_KINDS[i % 4])[0]
        return op(channel(put(matrix_doc(choi)), "to-probs"), 0, _expect_probs(ref.channel_probs(choi)))
    if kind == "channel-from-probs":
        choi = _channel(rng, "CPTP")[0]
        return op(channel(put(probs_doc(ref.channel_probs(choi))), "from-probs"), 0, _expect_matrix(choi))

    if kind == "bad-json":
        return op(state(put(matrix_doc(_density(rng, 2))[:-7]), "to-probs", 2), 1)
    if kind == "probs-length":
        return op(state(put(probs_doc(rng.uniform(0.2, 0.8, 4))), "from-probs", 2), 1)
    if kind == "choi-shape":
        return op(channel(put(matrix_doc(_density(rng, 2))), "check"), 1)
    if kind == "kraus-no-dim":
        doc = json.loads(kraus_doc(_tp_kraus(rng, 2)))
        del doc["dim"]
        return op(channel(put(json.dumps(doc)), "choi-from-kraus"), 1)
    if kind == "non-finite":
        doc = json.loads(matrix_doc(_density(rng, 2)))
        doc["entries"][0][0][0] = float("nan")
        return op(state(put(json.dumps(doc)), "to-probs", 2), 1)

    if kind == "bloch":
        p = 0.5 + 0.45 * rng.choice([-1.0, 1.0], 3)
        return op(state(put(probs_doc(p)), "from-probs", 2), 2)
    if kind == "prob-range":
        p = _bloch_probs(rng)
        p[int(rng.integers(3))] = 1.0 + rng.uniform(0.01, 0.5)
        return op(state(put(probs_doc(p)), "from-probs", 2), 2)
    if kind == "nonherm-state":
        rho = _density(rng, 2)
        rho[0, 1] += rng.uniform(0.1, 0.3)
        return op(state(put(matrix_doc(rho)), "to-probs", 2), 2)
    if kind == "nonherm-choi":
        choi = _channel(rng, "CPTP")[0]
        choi[0, 1] += 1j * rng.uniform(0.1, 0.3)
        return op(channel(put(matrix_doc(choi)), "to-probs"), 2)
    if kind == "nonpositive-ququart":
        rho = np.eye(4, dtype=complex) / 4.0
        r, c = ref.UPPER_PAIRS[int(rng.integers(6))]
        rho[r, c] = rng.uniform(0.3, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho[c, r] = np.conj(rho[r, c])
        return op(state(put(probs_doc(ref.ququart_probs(rho))), "from-probs", 4), 2)

    defect = (kind, KNOWN_DEFECTS[kind])
    if kind == "dt-overflow":
        h = put(matrix_doc(_hermitian(rng, float(rng.uniform(1.0, 5.0)))))
        return op(["evolve", "--hamiltonian", h, "--t-max", "10", "--dt", "5e-324", "--output", out], 1, defect=defect)
    if kind == "bigint":
        digits = "".join(str(d) for d in rng.integers(0, 10, 399))
        return op(state(put('{"probs": [0.5, 9%s, 0.5]}' % digits), "from-probs", 2), 1, defect=defect)
    if kind == "deep-json":
        return op(state(put("[" * 100_000 + "]" * 100_000), "to-probs", 2), 1, defect=defect)
    if kind == "non-utf8":
        return op(state(put(b'{"probs": [0.5, 0.5, 0.5\xff\xfe]}'), "from-probs", 2), 1, defect=defect)
    if kind == "missing-output-dir":
        argv = state(put(matrix_doc(_density(rng, 2))), "to-probs", 2)
        argv[-1] = os.path.join(workdir, "missing-dir", "x.json")
        return op(argv, 1, defect=defect)
    raise KeyError(kind)


def cli_small(seed, workdir, probchan):
    """Small-file CLI requests over all six non-evolve actions, with malformed and hostile shares."""
    rng = _rng(seed, "cli-small")
    kinds = [kind for kind, count in CLI_MIX.items() for _ in range(count)]
    kinds = [kinds[k] for k in rng.permutation(len(kinds))]
    return [_cli_request(kind, rng, workdir, i, probchan.cli) for i, kind in enumerate(kinds)]


BUILD = {"evolve-long": evolve_long, "channel-audit": channel_audit, "cli-small": cli_small}
