"""Command line front end.

Three subcommands: `state` converts density matrices to and from
probability vectors, `channel` inspects and converts channel
representations, `evolve` integrates the kinetic equation and writes a CSV
trajectory. Inputs and outputs are file paths, with `-` standing for the
standard streams. All numbers are written with 17 significant digits so a
run is reproducible byte for byte.

Exit codes: 0 success; 1 malformed input (unreadable, bad JSON, wrong
structure, wrong sizes, non-Hermitian Hamiltonian, bad flag values); 2
structurally valid input with out-of-domain values (bad density matrix,
probabilities outside [0, 1], Bloch or positivity violations,
constraint-violating initial data, a Choi matrix whose trace is not 2 given
to `channel to-probs`).
"""

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import channelcore, kinetics, probchannel, stateprob
from .matcore import hermitian_eigvals, require_range

__all__ = ["main", "FormatError", "cmd_state", "cmd_channel", "cmd_evolve"]


class FormatError(Exception):
    """Input document violates the expected format; maps to exit code 1."""


# ---------------------------------------------------------------------------
# reading


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _parse_object(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} document must be a JSON object")
    return doc


def _parse_dim(doc: dict, what: str) -> int:
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{what} document needs a positive integer 'dim'")
    return dim


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise FormatError(f"{what} is too large for a float") from None
    if not math.isfinite(number):
        raise FormatError(f"{what} must be finite, got {value!r}")
    return number


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


def _parse_matrix_doc(text: str, what: str) -> np.ndarray:
    doc = _parse_object(text, what)
    return _grid_to_matrix(doc.get("entries"), _parse_dim(doc, what), what)


def _parse_choi_doc(text: str) -> np.ndarray:
    m = _parse_matrix_doc(text, "Choi matrix")
    if m.shape != (4, 4):
        raise FormatError(f"Choi matrix must be 4 x 4, got {m.shape[0]} x {m.shape[1]}")
    return m


def _parse_probs_doc(text: str, n: int) -> np.ndarray:
    """The document's n probabilities; a wrong count is malformed, a value outside [0, 1] out of domain."""
    doc = _parse_object(text, "probability")
    probs = doc.get("probs")
    if not isinstance(probs, list) or not probs:
        raise FormatError("probability document needs a non-empty 'probs' list")
    if len(probs) != n:
        raise FormatError(f"expected {n} probabilities, got {len(probs)}")
    return require_range(np.array([_as_number(x, f"probs[{i}]") for i, x in enumerate(probs)]))


def _parse_kraus_doc(text: str) -> list[np.ndarray]:
    doc = _parse_object(text, "Kraus")
    dim = _parse_dim(doc, "Kraus")
    kraus = doc.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("Kraus document needs a non-empty 'kraus' list")
    return [_grid_to_matrix(grid, dim, f"Kraus operator {k}") for k, grid in enumerate(kraus)]


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


def _trajectory_csv(blocks, h):
    """CSV lines of a trajectory given as (times, probs) blocks, one string per block.

    With a Hamiltonian h (not None) each block gains the columns o1..o15 of
    oracle_probs at its times, and a last line gives max_dev, the largest
    |p - o| over all blocks.
    """
    names = ["t"] + [f"p{i}" for i in range(1, 16)] + ([] if h is None else [f"o{i}" for i in range(1, 16)])
    yield ",".join(names) + "\n"
    row_format = ",".join(["%.17g"] * len(names)) + "\n"
    max_dev = 0.0
    for times, probs in blocks:
        columns = [times[:, None], probs]
        if h is not None:
            oracle = kinetics.oracle_probs(h, times)
            max_dev = np.maximum(max_dev, np.max(np.abs(probs - oracle)))
            columns.append(oracle)
        yield (row_format * len(times)) % tuple(np.hstack(columns).ravel().tolist())
    if h is not None:
        yield "# max_dev=" + _fmt(max_dev) + "\n"


def _write_text(path: str, chunks) -> None:
    """Write an iterable of strings, one write() each, to path or to stdout for '-'."""
    try:
        with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
        _write_text(args.output, [_probs_text(p)])
    else:
        p = _parse_probs_doc(text, args.dim**2 - 1)
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
        _write_text(args.output, [_matrix_text(rho)])
    return 0


def cmd_channel(args) -> int:
    if not 0.0 <= args.tolerance < math.inf:
        raise FormatError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
    text = _read_text(args.input)
    if args.action == "check":
        report = channelcore.verify_cptp(_parse_choi_doc(text), args.tolerance)
        _write_text(args.output, [_report_text(report)])
    elif args.action == "choi-from-kraus":
        ops = _parse_kraus_doc(text)
        if ops[0].shape != (2, 2):
            raise FormatError("Kraus operators must be 2 x 2")
        _write_text(args.output, [_matrix_text(channelcore.choi_from_kraus(ops))])
    elif args.action == "to-probs":
        m = _parse_choi_doc(text)
        p = probchannel.probs_from_choi(m)
        trace = m.trace().real
        if not abs(trace - 2.0) <= args.tolerance:
            raise ValueError(
                f"Choi matrix trace is {_fmt(trace)}, not 2 within --tolerance; "
                "fifteen probabilities fix only trace-2 matrices"
            )
        _write_text(args.output, [_probs_text(p)])
    else:
        p = _parse_probs_doc(text, probchannel.N_PROBS)
        ok, residuals = probchannel.check_channel_prob_constraints(p, args.tolerance)
        status = "ok" if ok else "violated"
        print(
            "constraint residuals: "
            + " ".join(_fmt(r) for r in residuals)
            + f" ({status} at tolerance {_fmt(args.tolerance)})",
            file=sys.stderr,
        )
        _write_text(args.output, [_matrix_text(probchannel.choi_from_probs(p))])
    return 0


def cmd_evolve(args) -> int:
    h = _parse_matrix_doc(_read_text(args.hamiltonian), "Hamiltonian")
    try:
        h = kinetics.validate_hamiltonian(h)
        kinetics.check_time_grid(args.t_max, args.dt)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    if args.initial == "identity":
        p0 = probchannel.identity_channel_probs()
    else:
        p0 = _parse_probs_doc(_read_text(args.initial), probchannel.N_PROBS)

    blocks = kinetics.evolve_blocks(h, p0, args.t_max, args.dt)
    _write_text(args.output, _trajectory_csv(blocks, h if args.oracle else None))
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
    channel.add_argument(
        "--tolerance", type=float, default=1e-9, help="verdict, residual and trace tolerance (default 1e-9)"
    )
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
