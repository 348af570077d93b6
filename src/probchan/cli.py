"""Command line front end.

Three subcommands: `state` converts density matrices to and from
probability vectors, `channel` inspects and converts channel
representations, `evolve` integrates the kinetic equation and writes a CSV
trajectory. Inputs and outputs are file paths, with `-` standing for the
standard streams. All numbers are written with 17 significant digits so a
run is reproducible byte for byte.

Exit codes: 0 success; 1 malformed input (unreadable, bad JSON, wrong
structure, wrong sizes, a number or --t-max above 1e150 in magnitude,
non-Hermitian Hamiltonian, bad flag values, an evolve step where RK4
diverges, unparseable, missing or unknown flags); 2 structurally valid input
with out-of-domain values (a matrix or probabilities that are not a positive
density matrix, in either `state` direction, probabilities outside [0, 1],
constraint-violating initial data, a Choi matrix whose trace is not 2 given
to `channel to-probs`).
"""

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import channelcore, kinetics, probchannel, stateprob
from .matcore import require_range

__all__ = ["main", "FormatError", "cmd_state", "cmd_channel", "cmd_evolve"]


class FormatError(Exception):
    """Input document violates the expected format; maps to exit code 1."""


# Largest magnitude of an input number or --t-max: squares and sums of such numbers stay finite.
_MAX_MAGNITUDE = 1e150


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
    if abs(number) > _MAX_MAGNITUDE:
        raise FormatError(f"{what} {value!r} exceeds {_MAX_MAGNITUDE:g} in magnitude")
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
    n = m.shape[0]
    row = "    [" + ", ".join(["[%.17g, %.17g]"] * n) + "]"
    text = '{\n  "dim": %d,\n  "entries": [\n' + ",\n".join([row] * n) + "\n  ]\n}\n"
    return text % (n, *np.stack([m.real, m.imag], axis=-1).ravel().tolist())


def _probs_text(p: np.ndarray) -> str:
    return ('{\n  "probs": [' + ", ".join(["%.17g"] * len(p)) + "]\n}\n") % tuple(p.tolist())


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


# Every evolve CSV cell is exactly the %.17g text of its double. Cells with
# 1e-4 <= |x| < 1e17, which %g prints in fixed notation, are laid out from
# their 17 significant digits D = round-half-even(|x| * 10**(16 - E)), with
# E = floor(log10 |x|), all in numpy. D is exact: 10**k is an exact double for
# k <= 22, and Dekker's TwoProduct (Numer. Math. 18, 1971) gives hi + lo equal
# to |x| * 10**k with no rounding. Each cell becomes nine little-endian 4-byte
# words of NUL-padded text: sign with "0." or "0.0", further leading zeros, the
# six 3-digit groups of D (the first holds two digits) with the decimal point
# and trailing zeros settled, and the separator. Every other cell (0, -0, NaN,
# inf, |x| < 1e-4, |x| >= 1e17) is formatted by % in one batch and spliced in.

_POW10 = 10.0 ** np.arange(23)
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: splits a double into two 26-bit halves
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)


def _exact_scale(a: np.ndarray, k: np.ndarray):
    """(hi, lo) with hi = fl(a * 10**k) and hi + lo = a * 10**k exactly, for 0 <= k <= 22."""
    b, b_hi = _POW10[k], _POW10_HI[k]
    b_lo = b - b_hi
    hi = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _group_words() -> np.ndarray:
    """The 4-byte word of every 3-digit group value in each of its 16 variants, in index order.

    Variant (first, point, strip): point is None or the slot (0-2) the
    decimal point follows; strip drops the zeros that end the group after the
    point (the whole group's when there is none), and the point when no digit
    is left after it. The first group's slot 0 is not a digit of D and is NUL.
    """
    values = np.arange(1000)
    digits = np.stack([values // 100, values // 10 % 10, values % 10], axis=1)
    zero_from = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]  # slot k and all after it are 0
    words = []
    for first in (True, False):
        for point in (None, 0, 1, 2):
            for strip in (False, True):
                text = np.zeros((1000, 4), np.uint8)
                fraction_from = 0 if point is None else point + 1  # first slot after the point
                for k in range(3):
                    dropped = (strip and k >= fraction_from) & zero_from[:, k] | (first and k == 0)
                    at = k + (point is not None and k > point)
                    text[:, at] = np.where(dropped, 0, ord("0") + digits[:, k])
                if point is not None:
                    fraction = point < 2 and ~zero_from[:, point + 1]  # a non-zero digit follows in this group
                    text[:, point + 1] = np.where(fraction | (not strip), ord("."), 0)
                words.append(text.view("<u4")[:, 0])
    return np.concatenate(words)


@functools.cache
def _csv_tables():
    """The word table and, per layout code, the nine word indices before group values are added.

    A cell's layout code is (((E + 4) * 6 + last) * 2 + negative) * 2 + row_end,
    where last is the index of D's last non-zero group. Built on first use,
    so commands other than evolve do not pay for it; both arrays are read-only.
    """
    groups = _group_words()
    lead, zeros, sep = len(groups), len(groups) + 6, len(groups) + 9
    texts = [sign + prefix for sign in (b"", b"-") for prefix in (b"", b"0.", b"0.0")] + [b"", b"0", b"00", b",", b"\n"]
    words = np.concatenate([groups, [int.from_bytes(t.ljust(4, b"\0"), "little") for t in texts]]).astype(np.uint32)

    e = np.arange(-4, 17)[:, None, None]
    group = np.arange(6)
    slot = e - (3 * group - 1)  # the point follows digit e; group j starts at digit 3 j - 1
    point = np.where((e >= 0) & (slot >= 0) & (slot <= 2), slot + 1, 0)
    strip = (group >= np.arange(6)[:, None]) & (slot < 3)  # group at or after the last non-zero one
    codes = np.empty((21, 6, 2, 2, 9), np.intp)
    codes[..., 0] = (lead + np.clip(-e, 0, 2))[..., None] + [[0], [3]]
    codes[..., 1] = (zeros + np.clip(-e - 2, 0, 2))[..., None]
    codes[..., 2:8] = ((group > 0) * 8000 + (point * 2 + strip) * 1000)[:, :, None, None, :]
    codes[..., 8] = [sep, sep + 1]
    words.setflags(write=False)
    codes.setflags(write=False)
    return words, codes.reshape(-1, 9), zeros


def _csv_text(table: np.ndarray) -> str:
    """("%.17g,...,%.17g\n" * rows) % tuple(table.ravel()) for a 2-D float array, byte for byte."""
    rows, cols = table.shape
    cells = table.ravel()
    a = np.abs(cells)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
    a[slow] = 1.0
    words, codes, blank = _csv_tables()

    # E from log10, then moved by one where hi + lo leaves [1e16, 1e17)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _exact_scale(a, 16 - e)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp) - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    if shift.any():
        e += shift
        hi, lo = _exact_scale(a, 16 - e)
    # hi >= 1e16 > 2**53 is an even integer, so adding rint(lo) rounds hi + lo half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry

    upper = d // 10**9
    halves = np.stack([upper, d - upper * 10**9]).astype(float)  # below 1e9, so exact
    top = np.floor((halves + 0.5) * 1e-6)
    rest = halves - top * 1e6
    mid = np.floor((rest + 0.5) * 1e-3)
    low = rest - mid * 1e3
    tail = np.maximum(mid != 0, 2 * (low != 0))  # last non-zero group of each half; the upper top never is 0
    last = np.where(halves[1] != 0, 3 + tail[1], tail[0])

    code = (((e + 4) * 6 + last) * 2 + (cells < 0)) * 2
    code.reshape(rows, cols)[:, -1] += 1
    index = np.take(codes, code, axis=0)
    index.T[2:8:3] += top.astype(np.intp)
    index.T[3:8:3] += mid.astype(np.intp)
    index.T[4:8:3] += low.astype(np.intp)
    index[slow, :8] = blank
    text = np.take(words, index)
    if slow.size:
        spliced = ("%24.17g" * slow.size) % tuple(cells[slow].tolist())
        text.view(np.uint8)[slow, :24] = np.frombuffer(spliced.encode("ascii"), np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0 ").decode("ascii")


_CSV_ROWS = 256  # rows per _csv_text call, which holds about 10 kB of numpy temporaries per row


def _trajectory_csv(blocks, h):
    """CSV lines of a trajectory given as (times, probs) blocks, one string per _CSV_ROWS rows.

    With a Hamiltonian h (not None) each block gains the columns o1..o15 of
    oracle_probs at its times, and a last line gives max_dev, the largest
    |p - o| over all blocks.
    """
    names = ["t"] + [f"p{i}" for i in range(1, 16)] + ([] if h is None else [f"o{i}" for i in range(1, 16)])
    yield ",".join(names) + "\n"
    max_dev = 0.0
    for times, probs in blocks:
        columns = [times[:, None], probs]
        if h is not None:
            oracle = kinetics.oracle_probs(h, times)
            max_dev = np.maximum(max_dev, np.max(np.abs(probs - oracle)))
            columns.append(oracle)
        table = np.hstack(columns)
        for start in range(0, len(table), _CSV_ROWS):
            yield _csv_text(table[start : start + _CSV_ROWS])
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
    qubit = args.dim == 2
    if args.direction == "to-probs":
        rho = _parse_matrix_doc(text, "state")
        if rho.shape[0] != args.dim:
            raise FormatError(f"state dim {rho.shape[0]} does not match --dim {args.dim}")
        out = _probs_text((stateprob.qubit_probs_from_density if qubit else stateprob.ququart_probs_from_density)(rho))
    else:
        p = _parse_probs_doc(text, args.dim**2 - 1)
        rho = (stateprob.qubit_density_from_probs if qubit else stateprob.ququart_density_from_probs)(p)
        out = _matrix_text(rho)
    min_eig = float(np.linalg.eigvalsh(rho)[0])  # a qubit's is 1/2 - sqrt(Bloch margin)
    if min_eig < -1e-12:
        raise ValueError(f"state not positive: min eigenvalue {min_eig:.3e}; for a qubit, the Bloch restriction fails")
    _write_text(args.output, [out])
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
        kinetics.check_time_grid(h, args.t_max, args.dt)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if args.t_max > _MAX_MAGNITUDE:
        raise FormatError(f"--t-max {args.t_max!r} exceeds {_MAX_MAGNITUDE:g}")

    if args.initial == "identity":
        p0 = probchannel.identity_channel_probs()
    else:
        p0 = _parse_probs_doc(_read_text(args.initial), probchannel.N_PROBS)

    blocks = kinetics.evolve_blocks(h, p0, args.t_max, args.dt)
    _write_text(args.output, _trajectory_csv(blocks, h if args.oracle else None))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are FormatErrors (exit 1), not SystemExit(2)."""

    def error(self, message):
        raise FormatError(message)


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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return {"state": cmd_state, "channel": cmd_channel, "evolve": cmd_evolve}[args.command](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
