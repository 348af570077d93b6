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

The command line is read from one table of arguments per subcommand, by
argparse only when it is not spelled plainly. A usage error is one `error:`
line and exit 1; `-h` or `--help` prints the help of the argparse parser built
from the same table, at a fixed width, and exits 0.

Every output document, help included, is written by one route, which
flushes stdout: a write that fails, to a file or to stdout, is one
`error: cannot write` line and exit 1.
"""

import functools
import json
import math
import os
import sys
import types

import numpy as np

from . import channelcore, kinetics, probchannel, stateprob
from .matcore import _eigh, require_range

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
        with open(path, "rb") as fh:  # decoded once, to the text a text-mode read gives: universal newlines
            return fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _parse_object(text: str, what: str, dim: int | None = None) -> dict:
    """The document's object, once its 'dim' is the int dim if dim is given, before any cell is read."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} document must be a JSON object")
    if dim is not None and (type(doc.get("dim")) is not int or doc["dim"] != dim):
        raise FormatError(f"{what} document needs 'dim': {dim}")
    return doc


def _as_number(value, what: str, *at) -> float:
    """value as a float if an int or float within _MAX_MAGNITUDE, else a FormatError naming it what % at."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        number = math.nan
    if not abs(number) <= _MAX_MAGNITUDE:
        shown = repr(value) if type(value) is float else type(value).__name__
        raise FormatError(f"{what % at} must be a number of magnitude at most {_MAX_MAGNITUDE:g}, got {shown}")
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
            re = _as_number(cell[0], "%s cell (%d,%d) real part", what, i, j)
            im = _as_number(cell[1], "%s cell (%d,%d) imaginary part", what, i, j)
            out[i, j] = complex(re, im)
    return out


def _parse_matrix_doc(text: str, what: str, dim: int) -> np.ndarray:
    return _grid_to_matrix(_parse_object(text, what, dim).get("entries"), dim, what)


def _parse_probs_doc(text: str, n: int) -> np.ndarray:
    """The document's n probabilities; a wrong count is malformed, a value outside [0, 1] out of domain."""
    doc = _parse_object(text, "probability")
    probs = doc.get("probs")
    if not isinstance(probs, list):
        raise FormatError("probability document needs a 'probs' list")
    if len(probs) != n:
        raise FormatError(f"expected {n} probabilities, got {len(probs)}")
    return require_range(np.array([_as_number(x, "probs[%d]", i) for i, x in enumerate(probs)]))


def _parse_kraus_doc(text: str) -> list[np.ndarray]:
    """The document's 2 x 2 Kraus operators."""
    kraus = _parse_object(text, "Kraus", 2).get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("Kraus document needs a non-empty 'kraus' list")
    return [_grid_to_matrix(grid, 2, f"Kraus operator {k}") for k, grid in enumerate(kraus)]


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
        '{\n  "hermiticity_defect": %.17g,\n  "trace_value": %.17g,\n  "tp_defect": %.17g,\n'
        '  "min_eigenvalue": %.17g,\n  "verdict": "%s"\n}\n'
    ) % tuple(vars(report).values())


# Every evolve CSV cell is exactly the %.17g text of its double. Cells with
# 1e-2 <= |x| < 1e17, which %g prints in fixed notation, are laid out from their
# 17 significant digits D = round-half-even(|x| * 10**(16 - E)), all in numpy.
# E, with 10**E <= |x| < 10**(E + 1), is looked up exactly in _DECADES: the
# doubles 1e-2 and 1e-1 lie just above 1/100 and 1/10, the others are exact. D
# is exact too: 10**k is an exact double for k <= 22, and Dekker's TwoProduct
# (Numer. Math. 18, 1971) gives hi + lo equal to |x| * 10**k with no rounding. D
# lies in [1e16, 1e17): 17 digits tell every double apart (Matula, CACM 11(1),
# 1968), so no double below 10**(E + 1) rounds up to it where that is a double,
# and the double below 1/10 is 8e-18 under it. The digits written are F's 18: D
# and one 0 (F = 10 D), or at E = -2 the 0 of "0.0" and D (F = D). Each cell
# becomes seven little-endian 4-byte words of NUL-padded text: the separator
# that leads it ("," or a newline, none for the first cell) with the sign and,
# when E < 0, "0."; then F's six 3-digit groups, with the point after F's digit
# E when E >= 0 and trailing zeros settled. Every other cell (0, -0, NaN, inf,
# |x| < 1e-2, |x| >= 1e17) fills its last 24 bytes from one batch of %24.17g.

_POW10 = 10.0 ** np.arange(23)
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: splits a double into two 26-bit halves
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_DECADES = np.concatenate([1.0 / _POW10[2:0:-1], _POW10[:17]])  # 1e-2, 1e-1, 1e0, ..., 1e16


def _exact_scale(a: np.ndarray, k: np.ndarray):
    """(hi, lo) with hi = fl(a * 10**k) and hi + lo = a * 10**k exactly, for 0 <= k <= 22."""
    b, b_hi = _POW10[k], _POW10_HI[k]
    b_lo = b - b_hi
    hi = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


@functools.cache
def _csv_tables():
    """The word table and, per layout code, the seven word indices before group values are added.

    The table holds the 4-byte word of every 3-digit group value in each of
    8 variants (point, strip), in index order, then the 12 lead words. point
    is None or the slot (0-2) the decimal point follows; strip drops the zeros
    that end the group after the point (the whole group's when there is
    none), and the point when no digit is left after it. A cell's layout code
    is (((E + 2) * 6 + last) * 2 + negative) * 3 + lead, where last is the
    index of F's last non-zero group and lead is 0 for ",", 1 for a newline
    and 2 for none. Built on first use, so commands other than evolve do not
    pay for it; both arrays are read-only.
    """
    values = np.arange(1000)
    digits = np.stack([values // 100, values // 10 % 10, values % 10], axis=1)
    zero_from = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]  # slot k and all after it are 0
    groups = []
    for point in (None, 0, 1, 2):
        for strip in (False, True):
            text = np.zeros((1000, 4), np.uint8)
            fraction_from = 0 if point is None else point + 1  # first slot after the point
            for k in range(3):
                dropped = (strip and k >= fraction_from) & zero_from[:, k]
                at = k + (point is not None and k > point)
                text[:, at] = np.where(dropped, 0, ord("0") + digits[:, k])
            if point is not None:
                fraction = point < 2 and ~zero_from[:, point + 1]  # a non-zero digit follows in this group
                text[:, point + 1] = np.where(fraction | (not strip), ord("."), 0)
            groups.append(text.view("<u4")[:, 0])
    leads = [sep + sign + prefix for sep in (b",", b"\n", b"") for sign in (b"", b"-") for prefix in (b"", b"0.")]
    words = np.concatenate(groups + [[int.from_bytes(t.ljust(4, b"\0"), "little") for t in leads]]).astype(np.uint32)

    e = np.arange(-2, 17)[:, None, None]
    group = np.arange(6)
    slot = e - 3 * group  # group j holds F's digits 3 j to 3 j + 2; when e >= 0 the point follows digit e
    point = np.where((slot >= 0) & (slot <= 2), slot + 1, 0)
    strip = (group >= np.arange(6)[:, None]) & (slot < 3)  # group at or after the last non-zero one
    codes = np.empty((19, 6, 2, 3, 7), np.intp)
    codes[..., 0] = 8000 + (e[..., None] < 0) + [[0], [2]] + 4 * np.arange(3)
    codes[..., 1:] = ((point * 2 + strip) * 1000)[:, :, None, None, :]
    words.setflags(write=False)
    codes.setflags(write=False)
    return words, codes.reshape(-1, 7)


def _csv_text(table: np.ndarray) -> str:
    """("%.17g,...,%.17g\n" * rows) % tuple(table.ravel()) for a non-empty 2-D float array, byte for byte."""
    rows, cols = table.shape
    cells = table.ravel()
    a = np.abs(cells)
    slow = np.flatnonzero(~((a >= 1e-2) & (a < 1e17)))
    a[slow] = 1.0
    words, codes = _csv_tables()

    e = np.searchsorted(_DECADES, a, side="right") - 3
    hi, lo = _exact_scale(a, 16 - e)
    # hi >= 1e16 > 2**53 is an even integer, so adding rint(lo) rounds hi + lo half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    d[e >= -1] *= 10  # F: D and one 0, or D alone at E = -2

    upper = d // 10**9
    halves = np.stack([upper, d - upper * 10**9]).astype(np.int32)
    top = halves // 10**6
    rest = halves - top * 10**6
    mid = rest // 1000
    low = rest - mid * 1000
    tail = np.maximum(mid != 0, 2 * (low != 0))  # last non-zero group of each half; the upper top never is 0
    last = np.where(halves[1] != 0, 3 + tail[1], tail[0])

    negative = cells < 0
    negative[slow] = False  # the % text carries the sign
    code = (((e + 2) * 6 + last) * 2 + negative) * 3
    code.reshape(rows, cols)[:, 0] += 1  # a newline leads each row's first cell
    code[0] += 1  # and nothing the text's first
    index = np.take(codes, code, axis=0)
    index.T[1:7:3] += top
    index.T[2:7:3] += mid
    index.T[3:7:3] += low
    text = np.take(words, index)
    if slow.size:
        spliced = ("%24.17g" * slow.size) % tuple(cells[slow].tolist())
        text.view(np.uint8)[slow, 4:] = np.frombuffer(spliced.encode("ascii"), np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0 ").decode("ascii") + "\n"


def _trajectory_csv(blocks, h):
    """CSV lines of a trajectory given as (times, probs) blocks, one string per block.

    With a Hamiltonian h (not None) that has passed kinetics.validate_hamiltonian,
    each block gains the columns o1..o15 of the oracle at its times, and a last
    line gives max_dev, the largest |p - o| over all blocks. The oracle, with its
    one eigendecomposition, is built once per run and called at each block's times.
    """
    names = ["t"] + [f"p{i}" for i in range(1, 16)] + ([] if h is None else [f"o{i}" for i in range(1, 16)])
    yield ",".join(names) + "\n"
    oracle = None if h is None else kinetics._oracle(h)
    max_dev = 0.0
    for times, probs in blocks:
        table = np.empty((len(times), len(names)))
        table[:, 0] = times
        table[:, 1:16] = probs
        if oracle is not None:
            table[:, 16:] = oracle(times)
            max_dev = np.maximum(max_dev, np.max(np.abs(probs - table[:, 16:])))
        yield _csv_text(table)
    if oracle is not None:
        yield "# max_dev=" + _fmt(max_dev) + "\n"


def _write_text(path: str, chunks) -> None:
    """Write an iterable of strings, one write() each, to path as UTF-8 or to stdout for '-', then flush stdout.

    After a failed write to stdout, its file descriptor, when it has one, is pointed at the null device, as
    Python's note on SIGPIPE does: what is left in its buffer cannot fail again when the interpreter exits.
    """
    try:
        if path == "-":
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        else:
            with open(path, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk.encode())
    except OSError as exc:
        if path == "-":
            _null_stdout()
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _null_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # an in-process caller's StringIO has none
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


# ---------------------------------------------------------------------------
# subcommands


def cmd_state(args) -> int:
    text = _read_text(args.input)
    qubit = args.dim == 2
    if args.direction == "to-probs":
        rho = _parse_matrix_doc(text, "state", args.dim)
        out = _probs_text((stateprob.qubit_probs_from_density if qubit else stateprob.ququart_probs_from_density)(rho))
    else:
        p = _parse_probs_doc(text, args.dim**2 - 1)
        rho = (stateprob.qubit_density_from_probs if qubit else stateprob.ququart_density_from_probs)(p)
        out = _matrix_text(rho)
    min_eig = float(_eigh(lambda: rho, "state")[0])  # a qubit's is 1/2 - sqrt(Bloch margin)
    if min_eig < -1e-12:
        raise ValueError(f"state not positive: min eigenvalue {min_eig:.3e}; for a qubit, the Bloch restriction fails")
    _write_text(args.output, [out])
    return 0


def cmd_channel(args) -> int:
    if not 0.0 <= args.tolerance < math.inf:
        raise FormatError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
    text = _read_text(args.input)
    if args.action == "check":
        report = channelcore.verify_cptp(_parse_matrix_doc(text, "Choi matrix", 4), args.tolerance)
        _write_text(args.output, [_report_text(report)])
    elif args.action == "choi-from-kraus":
        _write_text(args.output, [_matrix_text(channelcore.choi_from_kraus(_parse_kraus_doc(text)))])
    elif args.action == "to-probs":
        m = _parse_matrix_doc(text, "Choi matrix", 4)
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
        choi = probchannel.choi_from_probs(p)
        min_eig = float(_eigh(lambda: choi, "Choi matrix")[0])  # CP by channel check's rule, at --tolerance
        print(
            "constraint residuals: "
            + " ".join(_fmt(r) for r in residuals)
            + f" ({'ok' if ok else 'violated'} at tolerance {_fmt(args.tolerance)}); min eigenvalue {_fmt(min_eig)}"
            + (" (CP)" if min_eig >= -args.tolerance else " (not CP)"),
            file=sys.stderr,
        )
        _write_text(args.output, [_matrix_text(choi)])
    return 0


def cmd_evolve(args) -> int:
    h = _parse_matrix_doc(_read_text(args.hamiltonian), "Hamiltonian", 2)
    try:
        h = kinetics.validate_hamiltonian(h)
        kinetics.check_time_grid(h, args.t_max, args.dt)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    _as_number(args.t_max, "--t-max")

    if args.initial == "identity":
        p0 = probchannel.identity_channel_probs()
    else:
        p0 = _parse_probs_doc(_read_text(args.initial), probchannel.N_PROBS)

    blocks = kinetics.evolve_blocks(h, p0, args.t_max, args.dt)
    _write_text(args.output, _trajectory_csv(blocks, h if args.oracle else None))
    return 0


# ---------------------------------------------------------------------------
# command line

# The help and arguments of the top level (None) and of each subcommand, as (names, dest, type, default, choices,
# help): a positional has no names, a flag of type None takes no value, a default of None marks a required argument
# and any other default is written as it would be typed. _plain reads a plainly spelled command line from this
# table; every other one, -h and --help too, goes to the argparse parser built from it and its help texts.
_INPUT = ((), "input", str, None, None, "input file path, or - for stdin")
_OUTPUT = (("-o", "--output"), "output", str, "-", None, "output file path, or - for stdout")
_COMMANDS = {
    None: ("Probability-vector representation of qubit states and channels.", (
        ((), "command", str, None, ("state", "channel", "evolve"), "the subcommand, listed below"),)),
    "state": ("density matrix <-> probability vector", (
        ((), "direction", str, None, ("to-probs", "from-probs"), "conversion direction"),
        _INPUT,
        (("--dim",), "dim", int, None, (2, 4), "Hilbert space dimension"),
        _OUTPUT)),
    "channel": ("inspect and convert channel representations", (
        ((), "action", str, None, ("check", "choi-from-kraus", "to-probs", "from-probs"), "what to do with the input"),
        _INPUT,
        (("--tolerance",), "tolerance", float, "1e-9", None, "verdict, residual and trace tolerance"),
        _OUTPUT)),
    "evolve": ("integrate the kinetic equation, emit a CSV trajectory", (
        (("--hamiltonian",), "hamiltonian", str, None, None, "MatrixFile with the 2 x 2 Hamiltonian, or -"),
        (("--t-max",), "t_max", float, None, None, "time horizon"),
        (("--dt",), "dt", float, "1e-3", None, "RK4 step"),
        (("--initial",), "initial", str, "identity", None, "ProbsFile with 15 initial probabilities, or 'identity'"),
        (("--oracle",), "oracle", None, False, None, "append closed-form columns o1..o15 and a max_dev line"),
        (("--output",), "output", str, "-", None, "output file path, or - for stdout"))),
}


def _plain(argv: list):
    """The arguments of argv if it is spelled plainly, else None.

    Plainly: a subcommand, then positionals and whole flag names, each typed flag followed by its value, and no
    value but "-" starting with "-"; every value converts and passes its choices, every required argument is
    given and none is given twice.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    table = _COMMANDS[argv[0]][1]
    flags = {name: arg for arg in table for name in arg[0]}
    positionals = [arg for arg in table if not arg[0]]
    values, words = {"command": argv[0]}, iter(argv[1:])
    for word in words:
        if word[:1] != "-" or word == "-":
            arg, value = positionals.pop(0) if positionals else None, word
        else:  # a flag, and the next word when it has a type; a missing value reads as "--"
            arg = flags.get(word)
            value = next(words, "--") if arg and arg[2] else ""
        if arg is None or arg[1] in values or value[:1] == "-" != value:  # unknown, repeated or a dash word
            return None
        try:
            values[arg[1]] = value = arg[2](value) if arg[2] else True
        except ValueError:
            return None
        if arg[4] and value not in arg[4]:
            return None
    if any(arg[3] is None and arg[1] not in values for arg in table):
        return None
    defaults = {arg[1]: arg[2](arg[3]) if arg[2] else arg[3] for arg in table if arg[3] is not None}
    return types.SimpleNamespace(**{**defaults, **values})


@functools.cache
def _argparse_tree():
    """The argparse parser of _COMMANDS, built on first use: FormatError on a usage error, SystemExit(0) after help."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise FormatError(message)

        def print_help(self, file=None):  # argparse would drop a failed write to stdout and exit 0
            _write_text("-", [self.format_help()])

    fixed = functools.partial(argparse.HelpFormatter, width=80)  # the same help whatever the terminal or COLUMNS
    about, ((_, dest, _, _, _, text),) = _COMMANDS[None]
    tree = Parser(prog="probchan", description=about, formatter_class=fixed)
    subparsers = tree.add_subparsers(dest=dest, required=True, help=text)
    for command, (about, table) in list(_COMMANDS.items())[1:]:
        parser = subparsers.add_parser(command, help=about, description=about, formatter_class=fixed)
        for names, dest, convert, default, choices, text in table:
            if not names:
                parser.add_argument(dest, type=convert, choices=choices, help=text)
            elif convert is None:
                parser.add_argument(*names, dest=dest, action="store_true", help=text)
            else:
                note = "" if default is None else f" (default {default})"
                parser.add_argument(*names, dest=dest, type=convert, choices=choices, default=default,
                                    required=default is None, help=text + note)
    return tree


def _parse(argv: list):
    """The command and its arguments; raises FormatError on a usage error, SystemExit(0) after printing help."""
    args = _plain(argv)
    return _argparse_tree().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return {"state": cmd_state, "channel": cmd_channel, "evolve": cmd_evolve}[args.command](args)
    except SystemExit as exc:  # -h or --help, after argparse printed the help
        return exc.code
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
