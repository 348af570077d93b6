"""The CLI's number reading against the cell loop and list comprehension it had before one pass checked a document.

The middle section copies _as_number, _grid_to_matrix and _parse_probs_doc as they were, docstrings dropped and
bodies unchanged: each number passed _as_number alone, and _grid_to_matrix stored one complex cell at a time.
Hypothesis draws grids, Kraus sets and probability lists whose values are ints, floats of every size, -0.0,
numbers at and just beyond 1e150 as floats and as ints, ints too large for a float, NaN, infinities, bools, None,
strings, objects and nested lists, with structure defects (a short, long or non-list row or cell, a short or
non-list grid, a wrong count) at random positions before and after them. Each reader must give what its copy
gives: array dtype, shape and bytes, or the same exception type and message. Warnings are errors in this suite,
so a floating-point warning either raises is compared as an exception too.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probchan import cli
from probchan.cli import FormatError, _parse_object
from probchan.matcore import require_range

# ---------------------------------------------------------------------------
# the functions as they were

_MAX_MAGNITUDE = 1e150


def _as_number(value, what: str, *at) -> float:
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


def _parse_probs_doc(text: str, n: int) -> np.ndarray:
    doc = _parse_object(text, "probability")
    probs = doc.get("probs")
    if not isinstance(probs, list):
        raise FormatError("probability document needs a 'probs' list")
    if len(probs) != n:
        raise FormatError(f"expected {n} probabilities, got {len(probs)}")
    return require_range(np.array([_as_number(x, "probs[%d]", i) for i, x in enumerate(probs)]))


def _parse_kraus_doc(text: str) -> list[np.ndarray]:
    kraus = _parse_object(text, "Kraus", 2).get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("Kraus document needs a non-empty 'kraus' list")
    return [_grid_to_matrix(grid, 2, f"Kraus operator {k}") for k, grid in enumerate(kraus)]


# ---------------------------------------------------------------------------
# inputs and comparison

GOOD_EDGES = [-0.0, 0.0, 1e150, -1e150, math.nextafter(1e150, 0.0), 3e149, -5e149, 5e-324, 10**150, -(10**150),
              int(1e150), int(1e150) + 1, 2**53 + 1, 2**64 + 1]
BAD_EDGES = [1e151, -1e151, math.nextafter(1e150, math.inf), 1e300, 1e308, 10**151, 10**400, -(10**400), math.nan,
             math.inf, -math.inf]
NOT_NUMBERS = [True, False, None, "0.5", "", {}, {"re": 1.0}, [], [0.5], [[0.5, 0.5]]]
EDGES = GOOD_EDGES + BAD_EDGES
GOOD = st.one_of(
    st.floats(-2.0, 2.0), st.integers(-3, 3), st.floats(-1e150, 1e150), st.integers(-(10**150), 10**150),
    st.sampled_from(GOOD_EDGES),
)
BAD = st.one_of(
    st.sampled_from(BAD_EDGES + NOT_NUMBERS), st.floats(min_value=1e150, exclude_min=True),
    st.floats(max_value=-1e150, exclude_max=True), st.integers(min_value=10**151), st.integers(max_value=-(10**151)),
)
VALUE = st.one_of(GOOD, GOOD, st.floats(), st.integers(), st.sampled_from(BAD_EDGES + NOT_NUMBERS))
PROB = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0, 5e-324, math.nextafter(1.0, 2.0)]))


@st.composite
def numbers(draw, size, clean):
    """size values: all clean, clean but for one or two refused numbers, or drawn from every kind at once."""
    mode = draw(st.sampled_from(["clean", "clean", "one bad", "two bad", "mixed"]))
    values = [draw(VALUE if mode == "mixed" else clean) for _ in range(size)]
    for _ in range({"one bad": 1, "two bad": 2}.get(mode, 0)):
        values[draw(st.integers(0, size - 1))] = draw(BAD)
    return values


# each defect by name, applied at (i, j) of a grid in row-major cell order
GRID_DEFECTS = {
    "row-short": lambda g, i, j: g.__setitem__(i, g[i][:-1]),
    "row-long": lambda g, i, j: g[i].append([0.0, 0.0]),
    "row-not-a-list": lambda g, i, j: g.__setitem__(i, {"row": g[i]}),
    "cell-short": lambda g, i, j: g[i].__setitem__(j, g[i][j][1:]),
    "cell-long": lambda g, i, j: g[i][j].append(0.0),
    "cell-empty": lambda g, i, j: g[i][j].clear(),
    "cell-not-a-list": lambda g, i, j: g[i].__setitem__(j, 0.5),
    "cell-object": lambda g, i, j: g[i].__setitem__(j, {"re": 0.0, "im": 0.0}),
    "grid-short": lambda g, i, j: g.pop(),
}


def json_round_trip(value):
    """value as the CLI reads it back: ints stay ints of any size, NaN and the infinities float."""
    return json.loads(json.dumps(value))


@st.composite
def grids(draw, dim=None):
    dim = dim or draw(st.sampled_from([2, 4]))
    flat = draw(numbers(2 * dim * dim, GOOD))
    grid = [[flat[2 * (i * dim + j):2 * (i * dim + j) + 2] for j in range(dim)] for i in range(dim)]
    for name in draw(st.lists(st.sampled_from(sorted(GRID_DEFECTS)), max_size=2)):
        i, j = divmod(draw(st.integers(0, dim * dim - 1)), dim)
        if i < len(grid) and isinstance(grid[i], list) and j < len(grid[i]) and isinstance(grid[i][j], list):
            GRID_DEFECTS[name](grid, i, j)
    return json_round_trip(grid), dim


def describe(value):
    """Everything a caller can see of one result, with arrays by their dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, list):
        return "list", [describe(v) for v in value]
    return type(value).__name__, value


def outcome(fn, *args):
    """("value", what the result shows) or ("raise", exception type, message)."""
    try:
        return "value", describe(fn(*args))
    except Exception as exc:  # FormatError, ValueError or a floating-point warning raised as an error
        return "raise", type(exc), str(exc)


def assert_same(old, new, *args):
    assert outcome(new, *args) == outcome(old, *args), args


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(grids(), st.sampled_from(["state", "Choi matrix", "Hamiltonian"]))
def test_grid_to_matrix_reads_as_its_cell_loop(grid_dim, what):
    grid, dim = grid_dim
    assert_same(_grid_to_matrix, cli._grid_to_matrix, grid, dim, what)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(grids(2), min_size=0, max_size=4), st.booleans())
def test_kraus_document_reads_as_its_cell_loop(grids_dims, wrap):
    kraus = [grid for grid, _ in grids_dims]
    text = json.dumps({"dim": 2, "kraus": kraus if wrap else kraus[:1] + [{"op": kraus[1:]}]})
    assert_same(_parse_kraus_doc, cli._parse_kraus_doc, text)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([3, 15]), st.data())
def test_probability_document_reads_as_its_list_comprehension(n, data):
    count = data.draw(st.sampled_from([n, n, n, n - 1, n + 1]))  # now and then a wrong count
    clean = data.draw(st.sampled_from([PROB, st.one_of(PROB, PROB, GOOD)]))  # in [0, 1], or now and then not
    probs = (data.draw(numbers(n, clean)) + [0.5])[:count]
    doc = data.draw(st.sampled_from([{"probs": probs}, {"probs": probs}, {"probs": probs}, {"p": probs},
                                     {"probs": {"values": probs}}]))
    assert_same(_parse_probs_doc, cli._parse_probs_doc, json.dumps(doc), n)


def test_the_edges_read_as_their_cell_loop():
    """Every edge value alone in an otherwise valid grid and probability list, at the first and the last place."""
    for value in [*EDGES, *NOT_NUMBERS]:
        for k in (0, 7):
            grid = [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]]
            grid[k // 4][k // 2 % 2][k % 2] = value
            assert_same(_grid_to_matrix, cli._grid_to_matrix, json_round_trip(grid), 2, "state")
        for k in (0, 2):
            probs = [0.5, 0.5, 0.5]
            probs[k] = value
            assert_same(_parse_probs_doc, cli._parse_probs_doc, json.dumps({"probs": probs}), 3)
