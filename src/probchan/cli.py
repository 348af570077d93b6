"""Command line front end.

Three subcommands: `state` converts density matrices to and from
probability vectors, `channel` inspects and converts channel
representations, `evolve` integrates the kinetic equation and writes a CSV
trajectory. Inputs and outputs are file paths, with `-` standing for the
standard streams. All numbers are written with 17 significant digits so a
run is reproducible byte for byte.

Exit codes: 0 success; 1 malformed input (unreadable, bad JSON, wrong
structure, wrong sizes, non-Hermitian Hamiltonian); 2 structurally valid
input with out-of-domain values (bad density matrix, probabilities outside
[0, 1], Bloch or positivity violations, constraint-violating initial data).
"""

import argparse
import json
import math
import sys

import numpy as np

from . import channelcore, kinetics, probchannel, stateprob
from .matcore import hermitian_eigvals

__all__ = ["main", "FormatError", "cmd_state", "cmd_channel", "cmd_evolve"]


class FormatError(Exception):
    """Input document violates the expected format; maps to exit code 1."""


# ---------------------------------------------------------------------------
# reading


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise FormatError(f"input is not valid JSON: {exc}") from exc


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise FormatError(f"{what} must be finite, got {value!r}")
    return float(value)


def _parse_entries(doc, what: str) -> np.ndarray:
    if not isinstance(doc, dict):
        raise FormatError(f"{what} document must be a JSON object")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{what} needs a positive integer 'dim'")
    entries = doc.get("entries")
    return _grid_to_matrix(entries, dim, what)


def _grid_to_matrix(entries, dim: int, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim:
        raise FormatError(f"{what} 'entries' must be a list of {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise FormatError(f"{what} row {i} must be a list of {dim} cells")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise FormatError(f"{what} cell ({i},{j}) must be a [re, im] pair")
            re = _as_number(cell[0], f"{what} cell ({i},{j}) real part")
            im = _as_number(cell[1], f"{what} cell ({i},{j}) imaginary part")
            out[i, j] = complex(re, im)
    return out


def _parse_matrix_doc(text: str, what: str = "matrix") -> np.ndarray:
    return _parse_entries(_parse_json(text), what)


def _parse_probs_doc(text: str) -> np.ndarray:
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise FormatError("probability document must be a JSON object")
    probs = doc.get("probs")
    if not isinstance(probs, list) or not probs:
        raise FormatError("probability document needs a non-empty 'probs' list")
    return np.array([_as_number(x, f"probs[{i}]") for i, x in enumerate(probs)])


def _parse_kraus_doc(text: str) -> list[np.ndarray]:
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise FormatError("Kraus document must be a JSON object")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError("Kraus document needs a positive integer 'dim'")
    kraus = doc.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("Kraus document needs a non-empty 'kraus' list")
    return [_grid_to_matrix(grid, dim, f"Kraus operator {k}") for k, grid in enumerate(kraus)]


def _require_range(p: np.ndarray) -> np.ndarray:
    if np.any(p < 0.0) or np.any(p > 1.0):
        bad = p[(p < 0.0) | (p > 1.0)][0]
        raise ValueError(f"probability {bad!r} lies outside [0, 1]")
    return p


# ---------------------------------------------------------------------------
# writing


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _matrix_text(m: np.ndarray) -> str:
    rows = []
    for row in m:
        cells = ", ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in row)
        rows.append(f"    [{cells}]")
    body = ",\n".join(rows)
    return '{\n  "dim": %d,\n  "entries": [\n%s\n  ]\n}\n' % (m.shape[0], body)


def _probs_text(p: np.ndarray) -> str:
    return '{\n  "probs": [%s]\n}\n' % ", ".join(_fmt(x) for x in p)


def _report_text(report: channelcore.CptpReport) -> str:
    return (
        "{\n"
        f'  "hermiticity_defect": {_fmt(report.hermiticity_defect)},\n'
        f'  "trace_value": {_fmt(report.trace_value)},\n'
        f'  "tp_defect": {_fmt(report.tp_defect)},\n'
        f'  "min_eigenvalue": {_fmt(report.min_eigenvalue)},\n'
        f'  "verdict": "{report.verdict}"\n'
        "}\n"
    )


def _trajectory_csv(traj: kinetics.Trajectory, oracle) -> str:
    """CSV text of a trajectory; an (n, 15) oracle adds columns o1..o15 and a max_dev line."""
    names = ["t"] + [f"p{i}" for i in range(1, 16)] + ([] if oracle is None else [f"o{i}" for i in range(1, 16)])
    row_format = ",".join(["%.17g"] * len(names))
    oracle_rows = np.empty((len(traj.times), 0)) if oracle is None else oracle
    rows = zip(traj.times.tolist(), traj.probs, oracle_rows)
    lines = [",".join(names)] + [row_format % (t, *p.tolist(), *o.tolist()) for t, p, o in rows]
    if oracle is not None:
        lines.append("# max_dev=" + _fmt(np.max(np.abs(traj.probs - oracle))))
    return "\n".join(lines + [""])


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_state(args) -> int:
    text = _read_text(args.input)
    if args.direction == "to-probs":
        m = _parse_matrix_doc(text, "state")
        if m.shape[0] != args.dim:
            raise FormatError(f"state dim {m.shape[0]} does not match --dim {args.dim}")
        if args.dim == 2:
            p = stateprob.qubit_probs_from_density(m)
        else:
            p = stateprob.ququart_probs_from_density(m)
        _write_text(args.output, _probs_text(p))
    else:
        p = _parse_probs_doc(text)
        need = 3 if args.dim == 2 else 15
        if p.size != need:
            raise FormatError(f"expected {need} probabilities for --dim {args.dim}, got {p.size}")
        _require_range(p)
        if args.dim == 2:
            valid, margin = stateprob.qubit_bloch_check(p)
            if not valid:
                raise ValueError(f"Bloch restriction violated: squared deviation {margin!r} exceeds 1/4")
            rho = stateprob.qubit_density_from_probs(p)
        else:
            rho = stateprob.ququart_density_from_probs(p)
            min_eig = float(hermitian_eigvals(rho)[0])
            if min_eig < -1e-12:
                raise ValueError(f"probabilities describe a non-positive state: min eigenvalue {min_eig:.3e}")
        _write_text(args.output, _matrix_text(rho))
    return 0


def cmd_channel(args) -> int:
    text = _read_text(args.input)
    if args.action == "check":
        m = _parse_matrix_doc(text, "Choi matrix")
        if m.shape != (4, 4):
            raise FormatError(f"Choi matrix must be 4 x 4, got {m.shape[0]} x {m.shape[1]}")
        report = channelcore.verify_cptp(m, args.tolerance)
        _write_text(args.output, _report_text(report))
    elif args.action == "choi-from-kraus":
        ops = _parse_kraus_doc(text)
        if ops[0].shape != (2, 2):
            raise FormatError("Kraus operators must be 2 x 2")
        _write_text(args.output, _matrix_text(channelcore.choi_from_kraus(ops)))
    elif args.action == "to-probs":
        m = _parse_matrix_doc(text, "Choi matrix")
        if m.shape != (4, 4):
            raise FormatError(f"Choi matrix must be 4 x 4, got {m.shape[0]} x {m.shape[1]}")
        p = probchannel.probs_from_choi(m)
        _write_text(args.output, _probs_text(p))
    else:
        p = _parse_probs_doc(text)
        if p.size != probchannel.N_PROBS:
            raise FormatError(f"expected {probchannel.N_PROBS} probabilities, got {p.size}")
        _require_range(p)
        ok, residuals = probchannel.check_channel_prob_constraints(p, args.tolerance)
        status = "ok" if ok else "violated"
        print(
            "constraint residuals: "
            + " ".join(_fmt(r) for r in residuals)
            + f" ({status} at tolerance {_fmt(args.tolerance)})",
            file=sys.stderr,
        )
        _write_text(args.output, _matrix_text(probchannel.choi_from_probs(p)))
    return 0


def cmd_evolve(args) -> int:
    try:
        h = _parse_matrix_doc(_read_text(args.hamiltonian), "Hamiltonian")
        if h.shape != (2, 2):
            raise FormatError(f"Hamiltonian must be 2 x 2, got {h.shape[0]} x {h.shape[1]}")
        h = kinetics.validate_hamiltonian(h)
    except ValueError as exc:
        raise FormatError(f"bad Hamiltonian: {exc}") from exc
    if not (args.t_max > 0.0) or not math.isfinite(args.t_max):
        raise FormatError("--t-max must be a positive finite number")
    if not (0.0 < args.dt <= args.t_max):
        raise FormatError("--dt must satisfy 0 < dt <= t-max")
    if not args.t_max / args.dt <= kinetics.MAX_STEPS:
        raise FormatError(f"--t-max / --dt must not exceed {kinetics.MAX_STEPS} steps")

    if args.initial == "identity":
        p0 = probchannel.identity_channel_probs()
    else:
        p0 = _parse_probs_doc(_read_text(args.initial))
        if p0.size != probchannel.N_PROBS:
            raise FormatError(f"expected {probchannel.N_PROBS} initial probabilities, got {p0.size}")
        _require_range(p0)

    traj = kinetics.evolve_probs(h, p0, args.t_max, args.dt, label=args.hamiltonian)
    _write_text(args.output, _trajectory_csv(traj, kinetics.oracle_probs(h, traj.times) if args.oracle else None))
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probchan",
        description="Probability-vector representation of qubit states and channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="density matrix <-> probability vector")
    state.add_argument("direction", choices=("to-probs", "from-probs"))
    state.add_argument("input", help="input file path, or - for stdin")
    state.add_argument("--dim", type=int, choices=(2, 4), required=True, help="Hilbert space dimension")
    state.add_argument("-o", "--output", default="-", help="output file path, or - for stdout (default)")
    state.set_defaults(handler=cmd_state)

    channel = sub.add_parser("channel", help="inspect and convert channel representations")
    channel.add_argument("action", choices=("check", "choi-from-kraus", "to-probs", "from-probs"))
    channel.add_argument("input", help="input file path, or - for stdin")
    channel.add_argument("--tolerance", type=float, default=1e-9, help="verdict and residual tolerance (default 1e-9)")
    channel.add_argument("-o", "--output", default="-", help="output file path, or - for stdout (default)")
    channel.set_defaults(handler=cmd_channel)

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
    evolve.set_defaults(handler=cmd_evolve)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
