"""Every public callable on misshapen and NaN inputs: it returns or raises ValueError, and a refusal reads the same
wherever it comes from.

matcore's as_square and as_length alone decide an input's size and whether it may be a stack, so a shape refusal is
one of their two forms, "expected a 2 x 2 Hamiltonian, got shape (3, 3)" or "expected one vector of 15 initial
probabilities, got shape (2, 15)", or the words of a check that compares two arguments. A NaN entry that a
Hermiticity gate, the eigensolver or probs_from_choi's residue meets gets "<what> has NaN, infinite or too large
entries". Infinite and overflowing entries are not drawn: outside validate_hamiltonian they still warn, and
warnings are errors in this suite.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import probchan as pc

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
