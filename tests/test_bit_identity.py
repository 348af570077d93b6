"""The channel-audit chain against the bodies it had before each input got one Hermiticity pass and one shape check.

The middle section copies those functions as they were, docstrings dropped and bodies unchanged, with the
helpers they called. Hypothesis draws every verdict, non-Hermitian matrices, NaN and inf entries, wrong shapes,
stacks and out-of-range probabilities, and each function must give what its copy gives: array dtype, shape and
bytes, every CptpReport field by type and float.hex, or the same exception type and message. Warnings are
errors in this suite, so the first floating-point warning a call raises is compared as an exception too.
Refusals changed on purpose since then are copied in their new form: 0 x 0 Choi matrices, d = 0 and 0-d Kraus
sets, the ValueError in place of verify_cptp's eigensolver error, the shape refusals of as_square and as_length,
which decide every input's size and whether it may be a stack, the one message for NaN and infinite entries
from the Hermiticity gate and the eigensolver, verify_cptp's refusal of every NaN entry, which its eigensolver
returned on at (0, 0) and (3, 3), and probs_from_choi's refusal of a non-Hermitian matrix by kraus_from_choi's
gate, 1e-9 entrywise, in place of its old rule on the imaginary part of the probabilities, which could not see
Im D00.
"""

import dataclasses
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probchan import channelcore, matcore, probchannel, stateprob
from probchan.channelcore import CptpReport
from probchan.stateprob import _DENSITY_TOL, _DIM, N_PROBS, build_constants
from conftest import complex_normal, random_density, random_tp_kraus

# ---------------------------------------------------------------------------
# the functions as they were, with the helpers they called


def _adjoint(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def as_square(m, what: str = "matrix", n=None, one=False) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or n is not None and arr.shape[-1] != n or one and arr.ndim > 2:
        size = "square" if n is None else f"{n} x {n}"
        raise ValueError(f"expected a {size} {what}{'' if one else ' or a stack of them'}, got shape {arr.shape}")
    return arr


def as_length(v, n: int, what: str = "probabilities", dtype=float, one=False) -> np.ndarray:
    arr = np.asarray(v, dtype=dtype)
    if arr.shape[-1:] != (n,) or one and arr.ndim > 1:
        raise ValueError(f"expected {'one vector of ' if one else ''}{n} {what}, got shape {arr.shape}")
    return arr


def non_finite(what: str) -> ValueError:
    return ValueError(f"{what} has NaN, infinite or too large entries")


def require_range(p: np.ndarray) -> np.ndarray:
    outside = p[~((p >= 0.0) & (p <= 1.0))]  # NaN is outside too
    if outside.size:
        raise ValueError(f"probability {float(outside[0])!r} lies outside [0, 1]")
    return p


def require_hermitian(m, tol: float, what: str = "matrix") -> np.ndarray:
    arr = as_square(m, what)
    defect = hermiticity_defect(arr).max(initial=0.0)
    if not np.isfinite(defect):
        raise non_finite(what)
    if not defect <= tol:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e} exceeds {tol:.3e}")
    return arr


def vec(m) -> np.ndarray:
    arr = as_square(m)
    return arr.reshape(arr.shape[:-2] + (-1,))


def unvec(v, n: int) -> np.ndarray:
    arr = as_length(v, n * n, "vector entries", complex)
    return arr.reshape(arr.shape[:-1] + (n, n))


def hermiticity_defect(m):
    arr = as_square(m)
    return np.abs(arr - _adjoint(arr)).max(axis=(-2, -1), initial=0.0)


def hermitian_part(arr: np.ndarray) -> np.ndarray:
    return (arr + _adjoint(arr)) / 2.0


def hermitian_eigensystem(m, tol: float = 1e-10):
    return np.linalg.eigh(hermitian_part(require_hermitian(m, tol, "Choi matrix")))


def _split_dim(n: int, name: str) -> int:
    d = isqrt(n)
    if d * d != n or not d:
        raise ValueError(f"{name} size {n} is not a positive perfect square")
    return d


def _as_kraus_set(kraus_ops) -> np.ndarray:
    try:
        ops = np.array(list(kraus_ops), dtype=complex)
    except (TypeError, ValueError):
        raise ValueError("Kraus set is not one stack of numeric matrices of equal shape") from None
    if not len(ops):
        raise ValueError("Kraus set is empty")
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or not ops.shape[1]:
        raise ValueError(f"Kraus set must be square matrices stacking to shape (k, d, d), d >= 1, got {ops.shape}")
    return ops


def choi_from_kraus(kraus_ops) -> np.ndarray:
    v = vec(_as_kraus_set(kraus_ops))
    # one outer product per operator, summed in operator order: one matmul over the stack rounds differently
    return np.sum(v[:, :, None] * v[:, None, :].conj(), axis=0, initial=0)


def kraus_from_choi(choi) -> list[np.ndarray]:
    tol = 1e-9
    arr = as_square(choi, "Choi matrix", one=True)
    d = _split_dim(arr.shape[-1], "Choi matrix")
    vals, vecs = hermitian_eigensystem(arr, tol)
    if vals[0] < -tol:
        raise ValueError(f"Choi matrix is not positive semidefinite: min eigenvalue {vals[0]:.3e}")
    keep = vals > tol
    vals, cols = vals[keep][::-1], vecs.T[keep][::-1]
    pivots = np.take_along_axis(cols, np.abs(cols).argmax(axis=1)[:, None], axis=1)
    # np.hypot, not np.abs: on a complex array np.abs can round the modulus differently in the last bit
    cols = cols * (pivots.conj() / np.hypot(pivots.real, pivots.imag))
    return list(np.sqrt(vals)[:, None, None] * unvec(cols, d))


# indexed by 2 * cp_ok + tp_ok
_VERDICTS = np.array(["neither", "TP-not-CP", "CP-not-TP", "CPTP"])


def verify_cptp(choi, tol: float = 1e-9) -> CptpReport:
    arr = as_square(choi, "Choi matrix")
    d = _split_dim(arr.shape[-1], "Choi matrix")
    herm = hermiticity_defect(arr)
    if np.isnan(herm).any():
        raise non_finite("Choi matrix")
    tp_matrix = np.trace(arr.reshape(arr.shape[:-2] + (d, d, d, d)), axis1=-4, axis2=-2)
    tp_defect = np.abs(tp_matrix - np.eye(d)).max(axis=(-2, -1))
    try:
        min_eig = np.linalg.eigvalsh(hermitian_part(arr))[..., 0]
    except np.linalg.LinAlgError:
        raise non_finite("Choi matrix") from None
    cp_ok = (herm <= tol) & (min_eig >= -tol)
    verdict = _VERDICTS[2 * cp_ok + (tp_defect <= tol)]
    fields = (herm, np.trace(arr, axis1=-2, axis2=-1).real, tp_defect, min_eig, verdict)
    if arr.ndim == 2:
        fields = (f.item() for f in fields)
    return CptpReport(*fields)


def _affine(matrix: np.ndarray, offset: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (x[..., None, :] @ matrix.T)[..., 0, :] + offset


def affine_probs(d: np.ndarray) -> np.ndarray:
    k = build_constants(d.shape[-1])
    return _affine(k.prob_matrix, k.prob_offset, vec(d))


def affine_choi(p: np.ndarray) -> np.ndarray:
    n = isqrt(p.shape[-1] + 1)
    k = build_constants(n)
    return unvec(_affine(k.choi_matrix, k.choi_offset, p), n)


def probs_from_choi(choi) -> np.ndarray:
    return affine_probs(require_hermitian(as_square(choi, "Choi matrix", 4), 1e-9, "Choi matrix")).real.copy()


def choi_from_probs(probs) -> np.ndarray:
    return affine_choi(as_length(probs, N_PROBS))


def _as_probs(p, n: int) -> np.ndarray:
    return require_range(as_length(p, n))


def _require_density(rho, dim: int) -> np.ndarray:
    arr = as_square(rho, "density matrix", dim, one=True)
    require_hermitian(arr, _DENSITY_TOL, "density matrix")
    trace_err = abs(arr.trace() - 1.0)
    if not trace_err <= _DENSITY_TOL:
        raise ValueError(f"density matrix trace deviates from 1 by {trace_err:.3e}")
    return arr


def qubit_density_from_probs(probs) -> np.ndarray:
    return affine_choi(_as_probs(probs, 3)) / 2.0


def qubit_probs_from_density(rho) -> np.ndarray:
    return affine_probs(2.0 * _require_density(rho, 2)).real.copy()


def qubit_bloch_check(probs) -> tuple[bool, float]:
    p = as_length(probs, 3, one=True)
    margin = float(np.sum((p - 0.5) ** 2))
    return margin <= 0.25 + 1e-12, margin


def ququart_density_from_probs(probs) -> np.ndarray:
    return affine_choi(_as_probs(probs, N_PROBS)) / 2.0


def ququart_probs_from_density(rho) -> np.ndarray:
    return affine_probs(2.0 * _require_density(rho, _DIM)).real.copy()


# ---------------------------------------------------------------------------
# the comparison

CHOI_PAIRS = [
    (choi_from_kraus, channelcore.choi_from_kraus),
    (kraus_from_choi, channelcore.kraus_from_choi),
    (verify_cptp, channelcore.verify_cptp),
    (probs_from_choi, probchannel.probs_from_choi),
]
PROB_PAIRS = [
    (require_range, matcore.require_range),
    (choi_from_probs, probchannel.choi_from_probs),
    (qubit_density_from_probs, stateprob.qubit_density_from_probs),
    (qubit_bloch_check, stateprob.qubit_bloch_check),
    (ququart_density_from_probs, stateprob.ququart_density_from_probs),
]
DENSITY_PAIRS = [
    (qubit_probs_from_density, stateprob.qubit_probs_from_density),
    (ququart_probs_from_density, stateprob.ququart_probs_from_density),
]
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 5e-324, 1e308, -1e308, 1e-10]


def describe(value):
    """Everything a caller can see of one result, with floats by hex and arrays by their bytes."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [describe(v) for v in value]
    if isinstance(value, CptpReport):
        return "report", [(f.name, describe(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, value


def outcome(fn, arg):
    """("value", what the result shows, whether it is arg itself) or ("raise", exception type, message)."""
    try:
        result = fn(arg)
    except Exception as exc:  # ValueError, LinAlgError or a floating-point warning raised as an error
        return "raise", type(exc), str(exc)
    return "value", describe(result), result is arg


def assert_same(pairs, arg):
    for old, new in pairs:
        assert outcome(new, arg) == outcome(old, arg), (new.__name__, arg)


def _partial_transpose(choi):
    """D_{ki,lj} -> D_{kj,li}: keeps the partial trace of the first slot, so TP stays TP, but breaks positivity."""
    n = len(choi)
    d = isqrt(n)
    return choi.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(n, n)


@st.composite
def spoil(draw, arr):
    """arr, or a copy with up to three entries replaced by special values: NaN, inf, -0.0, huge and tiny."""
    arr = np.array(arr)
    for _ in range(draw(st.integers(0, 3)) if arr.size and draw(st.booleans()) else 0):
        at = tuple(draw(st.integers(0, n - 1)) for n in arr.shape)
        value = draw(st.sampled_from(SPECIAL))
        arr[at] = complex(value, draw(st.sampled_from(SPECIAL))) if np.iscomplexobj(arr) else value
    return arr


@st.composite
def choi_matrix(draw, rng, verdicts):
    """One 4 x 4 candidate: CPTP, CP-not-TP, TP-not-CP, neither, non-Hermitian or nearly Hermitian."""
    kind = draw(st.sampled_from(["CPTP", "CP-not-TP", "TP-not-CP", "neither", "non-Hermitian", "nearly Hermitian"]))
    cptp = choi_from_kraus(random_tp_kraus(rng, draw(st.integers(1, 4))))
    unitary = choi_from_kraus(random_tp_kraus(rng, 1))
    choi = {
        "CPTP": cptp,
        "CP-not-TP": cptp * draw(st.sampled_from([0.5, 2.0, 1.0 + 1e-6])),
        "TP-not-CP": _partial_transpose(unitary),
        "neither": _partial_transpose(unitary) * 0.5,
        "non-Hermitian": complex_normal(rng, (4, 4)),
        "nearly Hermitian": cptp + draw(st.sampled_from([1e-13, 1e-10, 2e-9])) * complex_normal(rng, (4, 4)),
    }[kind]
    if kind not in ("non-Hermitian", "nearly Hermitian"):
        verdicts.add(verify_cptp(choi).verdict)
    return draw(spoil(choi))


@st.composite
def choi_inputs(draw, verdicts):
    """A candidate Choi matrix, a stack of 1-3, a matrix of another shape, a Kraus set, or a nested list of one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["one", "one", "stack", "shape", "kraus", "list"]))
    if form == "stack":
        return np.stack([draw(choi_matrix(rng, verdicts)) for _ in range(draw(st.integers(1, 3)))])
    if form == "shape":
        shapes = [(), (4,), (16,), (4, 3), (3, 3), (2, 2), (1, 1), (0, 0), (9, 9), (16, 16), (2, 9, 9)]
        shape = draw(st.sampled_from(shapes))
        return draw(spoil(complex_normal(rng, shape)))
    if form == "kraus":  # a Kraus set, or its Choi matrix, with entries of random or signed-zero-heavy values
        n = draw(st.sampled_from([2, 2, 2, 3, 1]))
        k = draw(st.integers(1, 4))
        if draw(st.booleans()):
            ops = np.array(random_tp_kraus(rng, k, n))
        else:
            parts = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], (2, k, n, n))
            ops = parts[0].astype(complex)
            ops.imag = parts[1]  # keeps the sign of each zero, which 1j * parts[1] would not
        return draw(spoil(choi_from_kraus(ops) if draw(st.booleans()) else ops))
    matrix = draw(choi_matrix(rng, verdicts))
    return matrix.tolist() if form == "list" else matrix


@st.composite
def prob_inputs(draw):
    """Probability vectors of length 3 or 15, stacks of them, other lengths, entries outside [0, 1], NaN and -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(3,), (15,), (3,), (15,), (2, 3), (3, 15), (1, 15), (4,), (14,), (), (0,)]))
    p = rng.uniform(0.0, 1.0, shape)
    extremes = [np.nan, -0.0, 0.0, 1.0, -1e-300, 1.0 + 2.0**-52, 2.0, -np.inf, np.inf, 0.5]
    for _ in range(draw(st.integers(0, 3)) if p.size else 0):
        p[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(st.sampled_from(extremes))
    return p


@st.composite
def density_inputs(draw):
    """A 2 x 2 or 4 x 4 density matrix, perturbed off Hermiticity or trace 1, with special entries, or misshapen."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 4]))
    rho = random_density(rng, dim) * draw(st.sampled_from([1.0, 1.0, 1.0 + 1e-11, 1.0 + 9e-11, 1.0 + 1e-9, 2.0, 0.0]))
    rho = rho + draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-10, 1e-6])) * complex_normal(rng, (dim, dim))
    rho[0, 0] += 1j * draw(st.sampled_from([0.0, 0.0, 4e-11, 1e-10]))  # near the trace gate, inside the Hermiticity one
    how = draw(st.sampled_from(["matrix", "matrix", "matrix", "stack", "shape"]))
    if how == "stack":
        rho = np.stack([rho, rho])
    elif how == "shape":
        rho = complex_normal(rng, draw(st.sampled_from([(3, 3), (2, 4), (4,), (), (1, 1)])))
    return draw(spoil(rho))


def test_channel_functions_match_their_old_bodies_bit_for_bit():
    verdicts = set()

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(choi_inputs(verdicts))
    def check(choi):
        assert_same(CHOI_PAIRS, choi)

    check()
    assert verdicts == {"CPTP", "CP-not-TP", "TP-not-CP", "neither"}


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(prob_inputs())
def test_probability_functions_match_their_old_bodies_bit_for_bit(p):
    assert_same(PROB_PAIRS, p)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(density_inputs())
def test_density_functions_match_their_old_bodies_bit_for_bit(rho):
    assert_same(DENSITY_PAIRS, rho)


def test_one_eigensolve_per_cptp_check_and_kraus_extraction_and_none_elsewhere(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _solver=solver, **k: calls.append(1) or _solver(*a, **k))
    rng = np.random.default_rng(1701)
    cptp = channelcore.choi_from_kraus(random_tp_kraus(rng, 2))
    not_cp = _partial_transpose(channelcore.choi_from_kraus(random_tp_kraus(rng, 1)))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        channelcore.kraus_from_choi(not_cp)
    runs = [
        (channelcore.verify_cptp, cptp, 1),
        (channelcore.kraus_from_choi, cptp, 1),
        (channelcore.kraus_from_choi, not_cp, 1),  # refused after its eigensolve
        (probchannel.probs_from_choi, cptp, 0),
        (probchannel.choi_from_probs, probchannel.probs_from_choi(cptp), 0),
        (stateprob.qubit_density_from_probs, [0.5, 0.25, 0.75], 0),
        (stateprob.qubit_probs_from_density, random_density(rng, 2), 0),
        (stateprob.ququart_density_from_probs, probchannel.probs_from_choi(cptp), 0),
        (stateprob.ququart_probs_from_density, random_density(rng, 4), 0),
    ]
    for fn, arg, want in runs:
        calls.clear()
        try:
            fn(arg)
        except ValueError:
            pass
        assert len(calls) == want, fn.__name__


def test_stacked_cptp_report_is_its_single_reports_bit_for_bit():
    """At d = 2, 1 and 3; each single matrix also in Fortran order, whose partial trace is not C-contiguous."""
    rng = np.random.default_rng(1702)
    unitary = channelcore.choi_from_kraus(random_tp_kraus(rng, 1))
    rank3 = channelcore.choi_from_kraus(random_tp_kraus(rng, 3))
    cases = [(np.stack([rank3, 0.5 * unitary, _partial_transpose(unitary)]), "TP-not-CP")]
    for dim, last in ((1, "CPTP"), (3, "TP-not-CP")):  # at d = 1 the partial transpose changes nothing
        choi = channelcore.choi_from_kraus(random_tp_kraus(rng, 3, dim))
        cases.append((np.stack([choi, 0.5 * choi, _partial_transpose(choi)]), last))
    for stack, last in cases:
        stacked = channelcore.verify_cptp(stack)
        for i, choi in enumerate(stack):
            for single in (channelcore.verify_cptp(choi), channelcore.verify_cptp(np.asfortranarray(choi))):
                for field in dataclasses.fields(CptpReport):
                    want, got = getattr(single, field.name), getattr(stacked, field.name)[i].item()
                    assert describe(got) == describe(want), (len(choi), i, field.name)
        assert stacked.verdict.tolist() == ["CPTP", "CP-not-TP", last]


def test_kraus_extraction_edge_cases_match_the_old_body():
    """k = 0 from a zero and a sub-tolerance Choi matrix, k = 4 at full rank, and pivot ties.

    The one eigenvector of a unitary channel's Choi matrix has two entries of equal modulus, at 0 and 3. The first
    must win the pivot, so I, Z and S each give back K = U, with K[0, 0] = 1 rather than a K[1, 1] of 1.
    """
    rng = np.random.default_rng(1703)
    cases = [(np.zeros((4, 4)), 0), (1e-10 * np.eye(4), 0), (choi_from_kraus(random_tp_kraus(rng, 4)), 4)]
    unitaries = [np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 1j])]
    for u in unitaries:
        choi = choi_from_kraus([u])
        top = np.abs(np.linalg.eigh(choi)[1][:, -1])
        assert top[0] == top[3] == top.max(), top  # a tie
        cases.append((choi, 1))
    for choi, rank in cases:
        assert_same([(kraus_from_choi, channelcore.kraus_from_choi)], choi)
        assert len(channelcore.kraus_from_choi(choi)) == rank
    for u, (choi, _) in zip(unitaries, cases[3:]):
        assert np.allclose(channelcore.kraus_from_choi(choi)[0], u, rtol=0.0, atol=1e-15)
