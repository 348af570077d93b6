"""Every public callable on misshapen and NaN inputs: it returns or raises ValueError, and a refusal reads the same
wherever it comes from.

matcore's as_square and as_length alone decide an input's size and whether it may be a stack, so a shape refusal is
one of their two forms, "expected a 2 x 2 Hamiltonian, got shape (3, 3)" or "expected one vector of 15 initial
probabilities, got shape (2, 15)", or the words of a check that compares two arguments. A NaN entry that a
Hermiticity gate or the eigensolver meets gets "<what> has NaN, infinite or too large entries". Infinite and
overflowing entries are not drawn: outside validate_hamiltonian they still warn, and warnings are errors in this
suite; a density matrix whose trace overflows is refused in those words once its warning is ignored.

The two shape checks return C-ordered arrays, so every call in the table that takes a stack gives each element of a
C-ordered, Fortran-ordered, strided-view or negative-stride stack the single call's result bit for bit.
"""

import dataclasses
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import probchan as pc
from conftest import complex_normal, random_density

RHO2 = np.eye(2) / 2.0
CHOI = np.eye(4) / 2.0
KRAUS = np.eye(2)[None]
H = pc.PAULI_X
P0 = pc.identity_channel_probs()
TRAJ = pc.evolve_probs(H, P0, 1.0, 0.25)

# each input kind's valid value, and one of the wrong size
KINDS = {
    "matrix": (np.eye(2), np.ones(3)),
    "hamiltonian": (H, np.eye(3)),
    "choi": (CHOI, np.eye(3) / 1.5),
    "density2": (RHO2, np.eye(3) / 3.0),
    "density4": (np.eye(4) / 4.0, np.eye(3) / 3.0),
    "kraus": (KRAUS.astype(complex), np.eye(3)[None]),
    "probs3": (np.full(3, 0.5), np.full(4, 0.5)),
    "probs15": (P0, np.full(14, 0.5)),
    "direction": (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0])),
    "times": (np.array(0.5), np.array([0.5, 1.0])),
}

# public name -> (input kind, the call on that input, what a gate that meets NaN there calls the input), per slot
CALLS = {
    "vec": [("matrix", pc.vec, None)],
    "qubit_density_from_probs": [("probs3", pc.qubit_density_from_probs, None)],
    "qubit_probs_from_density": [("density2", pc.qubit_probs_from_density, "density matrix")],
    "qubit_bloch_check": [("probs3", pc.qubit_bloch_check, None)],
    "tomogram": [
        ("density2", lambda x: pc.tomogram(x, [0.0, 0.0, 1.0]), "density matrix"),
        ("direction", lambda x: pc.tomogram(RHO2, x), None),
    ],
    "ququart_density_from_probs": [("probs15", pc.ququart_density_from_probs, None)],
    "ququart_probs_from_density": [("density4", pc.ququart_probs_from_density, "density matrix")],
    "distribution_set": [("probs15", pc.distribution_set, None)],
    "apply_kraus": [
        ("kraus", lambda x: pc.apply_kraus(x, RHO2), None),
        ("density2", lambda x: pc.apply_kraus(KRAUS, x), None),
    ],
    "kraus_tp_defect": [("kraus", pc.kraus_tp_defect, None)],
    "choi_from_kraus": [("kraus", pc.choi_from_kraus, None)],
    "superop_from_choi": [("choi", pc.superop_from_choi, None)],
    "choi_from_superop": [("choi", pc.choi_from_superop, None)],
    "apply_channel_via_choi": [
        ("choi", lambda x: pc.apply_channel_via_choi(x, RHO2), None),
        ("density2", lambda x: pc.apply_channel_via_choi(CHOI, x), None),
    ],
    "kraus_from_choi": [("choi", pc.kraus_from_choi, "Choi matrix")],
    "verify_cptp": [("choi", pc.verify_cptp, "Choi matrix")],
    "probs_from_choi": [("choi", pc.probs_from_choi, "Choi matrix")],
    "choi_from_probs": [("probs15", pc.choi_from_probs, None)],
    "channel_constraint_residuals": [("probs15", pc.channel_constraint_residuals, None)],
    "check_channel_prob_constraints": [("probs15", pc.check_channel_prob_constraints, None)],
    "validate_hamiltonian": [("hamiltonian", pc.validate_hamiltonian, "Hamiltonian")],
    "build_q": [("hamiltonian", pc.build_q, "Hamiltonian")],
    "build_generator": [("hamiltonian", pc.build_generator, "Hamiltonian")],
    "evolve_blocks": [
        ("hamiltonian", lambda x: pc.evolve_blocks(x, P0, 1.0, 0.25), "Hamiltonian"),
        ("probs15", lambda x: pc.evolve_blocks(H, x, 1.0, 0.25), None),
    ],
    "evolve_probs": [
        ("hamiltonian", lambda x: pc.evolve_probs(x, P0, 1.0, 0.25), "Hamiltonian"),
        ("probs15", lambda x: pc.evolve_probs(H, x, 1.0, 0.25), None),
    ],
    "oracle_probs": [
        ("hamiltonian", lambda x: pc.oracle_probs(x, 0.5), "Hamiltonian"),
        ("times", lambda x: pc.oracle_probs(H, x), None),
    ],
    "compare_to_oracle": [("hamiltonian", lambda x: pc.compare_to_oracle(x, TRAJ), "Hamiltonian")],
}
NO_ARRAY_INPUT = {
    "identity": "takes a size",
    "build_constants": "takes a size",
    "identity_channel_probs": "takes no argument",
    "AffineConstants": "a record, built unchecked",
    "DistributionSet": "a record, built unchecked",
    "CptpReport": "a record, built unchecked",
    "Trajectory": "a record, built unchecked",
}

_SHAPE = r"\([\d, ]*\)"
SHAPE_REFUSALS = [
    rf"expected a (square|\d+ x \d+) [a-zA-Z ]+?( or a stack of them)?, got shape {_SHAPE}",  # as_square
    rf"expected (one vector of )?\d+ [a-zA-Z ]+, got shape {_SHAPE}",  # as_length
    r"[a-zA-Z ]+ size \d+ is not a positive perfect square",  # _split_dim
    rf"Kraus set (is empty|is not one stack of numeric matrices of equal shape|"
    rf"must be square matrices stacking to shape \(k, d, d\), d >= 1, got {_SHAPE})",  # _as_kraus_set
    rf"state shape {_SHAPE} does not match Kraus shape {_SHAPE}",  # apply_kraus
    rf"Choi shape {_SHAPE} does not match state shape {_SHAPE}",  # apply_channel_via_choi
]


def test_the_table_holds_every_public_callable():
    public = {name for name in pc.__all__ if callable(getattr(pc, name))}
    assert public == set(CALLS) | set(NO_ARRAY_INPUT)
    assert not set(CALLS) & set(NO_ARRAY_INPUT)


def shaped(kind, form, k):
    """The kind's input in one form: as is, 0-d, 0-size, the wrong size, a stack of k, or with a trailing axis."""
    valid, wrong = KINDS[kind]
    return {
        "one": lambda: valid.copy(),
        "0-d": lambda: np.array(valid.flat[0]),
        "0-size": lambda: np.zeros(valid.shape[:-1] + (0,) if k == 1 else (0,) * max(valid.ndim, 1)),
        "wrong-size": lambda: wrong.copy(),
        "stack": lambda: np.stack([valid] * k),
        "extra-axis": lambda: valid[..., None],
    }[form]()


def refusal(call, x):
    """The ValueError message of call(x), or None when it returns; any other exception fails the test."""
    try:
        call(x)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    form=st.sampled_from(["one", "0-d", "0-size", "wrong-size", "stack", "extra-axis"]),
    k=st.integers(1, 3),
    nan_at=st.none() | st.integers(0, 63),
    imaginary=st.booleans(),
)
def test_every_public_callable_returns_or_refuses_in_the_shared_words(form, k, nan_at, imaginary):
    for name, slots in CALLS.items():
        for kind, call, gate in slots:
            x = shaped(kind, form, k)
            nan = nan_at is not None and x.size > 0
            if nan:
                x = x.astype(np.result_type(x, float))
                x.flat[nan_at % x.size] = complex(0.0, np.nan) if imaginary and x.dtype == complex else np.nan
            message = refusal(call, x)
            where = (name, kind, form, k, nan_at, imaginary, message)
            is_shape = message is not None and any(re.fullmatch(p, message) for p in SHAPE_REFUSALS)
            if not nan:
                assert message is None if form == "one" else message is None or is_shape, where
            elif gate is not None and not is_shape:
                assert message == f"{gate} has NaN, infinite or too large entries", where


def test_an_overflowing_density_trace_is_refused_as_non_finite():
    """The overflow warning is ignored here; the refusal that follows must be the shared non-finite one."""
    calls = [
        (pc.qubit_probs_from_density, np.full((2, 2), 1e308)),
        (pc.ququart_probs_from_density, np.full((4, 4), 1e308)),
        (lambda x: pc.tomogram(x, [0.0, 0.0, 1.0]), np.full((2, 2), 1e308)),
    ]
    with np.errstate(over="ignore"):
        for call, x in calls:
            assert refusal(call, x) == "density matrix has NaN, infinite or too large entries"


# a random valid element of each kind a stack-taking call reads, so that a stack's elements differ
DRAWS = {
    "matrix": lambda rng: complex_normal(rng, (2, 2)),
    "choi": lambda rng: 2.0 * random_density(rng, 4),
    "probs3": lambda rng: rng.uniform(0.0, 1.0, 3),
    "probs15": lambda rng: rng.uniform(0.0, 1.0, 15),
    "times": lambda rng: np.array(rng.uniform(0.0, 5.0)),
}


def stack_taking():
    """(name, kind, call) of every slot in CALLS whose call takes a stack of two valid inputs."""
    entries = [(name, kind, call) for name, slots in CALLS.items() for kind, call, _ in slots]
    return [(name, kind, call) for name, kind, call in entries if refusal(call, shaped(kind, "stack", 2)) is None]


def test_the_stack_taking_calls_are_the_listed_ones():
    assert {name for name, _, _ in stack_taking()} == {
        "vec", "qubit_density_from_probs", "ququart_density_from_probs", "superop_from_choi", "choi_from_superop",
        "verify_cptp", "probs_from_choi", "choi_from_probs", "channel_constraint_residuals",
        "check_channel_prob_constraints", "oracle_probs",
    }


def layouts(stack):
    """The stack's values as C-ordered, Fortran-ordered, strided-view and negative-stride arrays."""
    every = (slice(None, None, 2),) * stack.ndim
    strided = np.zeros(tuple(2 * n for n in stack.shape), stack.dtype)[every]
    strided[...] = stack
    back = (slice(None, None, -1),) * stack.ndim
    negative = stack[back].copy()[back]
    return {"C": stack, "Fortran": np.asfortranarray(stack), "strided view": strided, "negative strides": negative}


def bits(value):
    """An array by dtype, shape and bytes, a float by hex, a report or pair part by part; anything else as it is."""
    if isinstance(value, tuple):
        return tuple(bits(part) for part in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, pc.CptpReport):
        return [bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value


def element(result, i):
    """Element i's part of a stacked call's result: an array's row, or each part's of a report or pair."""
    if isinstance(result, pc.CptpReport):
        return pc.CptpReport(*(getattr(result, f.name)[i].item() for f in dataclasses.fields(result)))
    if isinstance(result, tuple):
        return tuple(element(part, i) for part in result)
    return result[i]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_a_stack_of_any_layout_gives_its_elements_results_bit_for_bit(k, seed):
    rng = np.random.default_rng(seed)
    for name, kind, call in stack_taking():
        elements = [DRAWS[kind](rng) for _ in range(k)]
        singles = [call(x) for x in elements]
        for layout, stack in layouts(np.stack(elements)).items():
            got = call(stack)
            for i in range(k):
                assert bits(element(got, i)) == bits(singles[i]), (name, layout, k, i)


def test_the_gates_return_a_c_ordered_input_of_their_dtype_as_it_is():
    rng = np.random.default_rng(1704)
    for m in (complex_normal(rng, (4, 4)), complex_normal(rng, (3, 2, 2))):
        assert pc.matcore.as_square(m) is m
        fortran = pc.matcore.as_square(np.asfortranarray(m))
        assert fortran.flags.c_contiguous and np.array_equal(fortran, m)
    for p in (rng.uniform(0.0, 1.0, 15), rng.uniform(0.0, 1.0, (3, 15))):
        assert pc.matcore.as_length(p, 15) is p
        fortran = pc.matcore.as_length(np.asfortranarray(p), 15)
        assert fortran.flags.c_contiguous and np.array_equal(fortran, p)
