"""The batched executor in locc.run_protocol against the recursive reference
executor, its operator checks, and outcome probabilities that do not depend
on the input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import (
    DimensionMismatch, LocalityViolation, MissingClassicalDependency, NonUnitary,
)
from qremote.locc import ALICE, BOB, ConditionalStep, LocalStep, MeasureStep, Program

from reference_executor import run_reference
from util import klein_character_rep, random_block_diagonal_unitary, random_state

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
GROUP_REPS = {
    "cyclic-3": (lambda: groupform.cyclic_character_rep(3), (1, 1, 1)),
    "cyclic-5": (lambda: groupform.cyclic_character_rep(5), (1,) * 5),
    "klein": (klein_character_rep, (1, 1, 1, 1)),
    "pauli": (groupform.pauli_rep, (2,)),
    "dihedral3": (groupform.dihedral3_rep, (1, 1, 2)),
}


def at_outcomes(state, transcript):
    """The state's tensor form with each measured factor fixed at its outcome."""
    index = [slice(None)] * len(state.factor_dims)
    for e in transcript.events:
        if isinstance(e, locc.MeasurementEvent):
            index[e.target] = e.outcome
    return state.tensor_form()[tuple(index)]


def assert_matches_reference(program, initial):
    got = locc.run_protocol(program, initial)
    want = run_reference(program, initial)
    assert [b.transcript.events for b in got] == [b.transcript.events for b in want]
    for g, w in zip(got, want):
        assert abs(g.probability - w.probability) <= 1e-12
        expected_output = at_outcomes(w.state, w.transcript)
        assert g.output.factor_dims == expected_output.shape
        np.testing.assert_allclose(
            g.output.amplitudes, expected_output.reshape(-1), rtol=0, atol=1e-12
        )
        assert g.state.factor_dims == w.state.factor_dims
        np.testing.assert_allclose(g.state.amplitudes, w.state.amplitudes, rtol=0, atol=1e-12)
    return got


def wang_initial(psi, n):
    return qcore.tensor(psi, locc.maximally_entangled(n))


def group_setup(name, rng):
    make, block_dims = GROUP_REPS[name]
    rep = make()
    decomp = groupform.block_decomposition(rep, block_dims)
    c = groupform.coefficients_from_unitary(
        random_block_diagonal_unitary(decomp, rng), decomp
    )
    return rep, c, random_state(rep.dim, rng)


@pytest.mark.parametrize("dim, n", [(2, 2), (4, 3), (5, 2), (6, 4), (8, 8)])
def test_wang_matches_reference(dim, n):
    rng = np.random.default_rng(dim * 10 + n)
    p = wang.random_partition(dim, n, rng)
    psi = random_state(dim, rng)
    program = wang.wang_program(p, wang.random_phases(n, rng))
    branches = assert_matches_reference(program, wang_initial(psi, n))
    assert len(branches) == n * n


@pytest.mark.parametrize("name", ["pauli", "dihedral3"])
def test_group_matches_reference(name):
    rng = np.random.default_rng(len(name))
    rep, c, psi = group_setup(name, rng)
    program = groupform.group_program(rep, c)
    branches = assert_matches_reference(program, wang_initial(psi, rep.group.order))
    assert len(branches) == rep.group.order ** 2


@pytest.mark.parametrize("dim", [2, 3])
def test_bqst_matches_reference(dim):
    rng = np.random.default_rng(dim)
    u = qcore.random_unitary(dim, rng)
    pair = locc.maximally_entangled(dim)
    initial = qcore.tensor(qcore.tensor(random_state(dim, rng), pair), pair)
    branches = assert_matches_reference(entcost.bqst_program(u), initial)
    assert len(branches) == dim ** 4
    assert all(b.output.factor_dims == (dim,) for b in branches)


def test_svd_remote_matches_reference():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        u = qcore.random_unitary(dim, rng)
        program = wang.svd_remote(u)
        psi = random_state(dim, rng)
        want = assert_matches_reference(wang.svd_program(program), wang_initial(psi, dim))
        got = wang.run_svd_remote(program, psi)
        assert [b.transcript.events for b in got] == [b.transcript.events for b in want]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.output.amplitudes, w.output.amplitudes)
            assert abs(np.vdot(u @ psi.amplitudes, g.output.amplitudes)) >= 1 - 1e-12


# --- synthetic programs --------------------------------------------------------

def test_unsent_outcome_is_used_by_its_own_party():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    initial = qcore.StateVector(amps / np.linalg.norm(amps), (2, 2, 3))
    z = np.diag([1.0, -1.0]).astype(complex)
    program = Program((ALICE, ALICE, BOB), (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        MeasureStep(ALICE, 0, "x", send_to=None),
        ConditionalStep(ALICE, "Z^x", lambda x: np.linalg.matrix_power(z, x), (1,), "x"),
        LocalStep(BOB, "X", qcore.shift_matrix(3), (2,)),
    ))
    branches = assert_matches_reference(program, initial)
    assert len(branches) == 2
    assert all(b.outcomes == {} for b in branches)


def test_a_step_on_a_measured_factor_is_a_dimension_mismatch():
    initial = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 3))
    for step in (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        ConditionalStep(ALICE, "Z^x", lambda x: np.eye(2), (0,), "x"),
        MeasureStep(ALICE, 0, "y"),
    ):
        program = Program((ALICE, BOB), (MeasureStep(ALICE, 0, "x"), step))
        with pytest.raises(DimensionMismatch, match="factor 0 was measured"):
            locc.run_protocol(program, initial)


def test_zero_probability_outcome_is_pruned():
    amps = np.zeros((2, 3), dtype=complex)
    amps[0, 0] = amps[1, 2] = 1 / np.sqrt(2)    # factor 1 never holds |1>
    program = Program((ALICE, BOB), (
        MeasureStep(BOB, 1, "b", send_to=ALICE),
        # not unitary for the pruned outcome, so it must never be built
        ConditionalStep(ALICE, "X^b", lambda b: HADAMARD if b != 1 else 2 * HADAMARD, (0,), "b"),
    ))
    branches = assert_matches_reference(program, qcore.StateVector(amps.reshape(-1), (2, 3)))
    assert [b.outcomes["b"] for b in branches] == [0, 2]


@pytest.mark.parametrize("program, error", [
    (Program((ALICE, BOB), (
        MeasureStep(ALICE, 0, "x", send_to=BOB),
        ConditionalStep(BOB, "H", lambda x: HADAMARD, (0,), "x"),
    )), LocalityViolation),
    (Program((ALICE, BOB), (
        MeasureStep(ALICE, 0, "x"),
        ConditionalStep(BOB, "X^x", lambda x: np.eye(3), (1,), "x"),
    )), MissingClassicalDependency),
    (Program((ALICE, BOB), (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        MeasureStep(ALICE, 0, "x", send_to=BOB),
        ConditionalStep(BOB, "V_x", lambda x: np.eye(3) if x == 0 else 2 * np.eye(3), (1,), "x"),
    )), NonUnitary),
])
def test_bad_conditional_step_raises_in_both_executors(program, error):
    initial = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 3))
    with pytest.raises(error):
        locc.run_protocol(program, initial)
    with pytest.raises(error):
        run_reference(program, initial)


# --- checks counted --------------------------------------------------------------

def test_unitarity_is_checked_once_per_distinct_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    n = 4
    program = wang.wang_program(wang.random_partition(6, n, rng), wang.random_phases(n, rng))
    initial = wang_initial(random_state(6, rng), n)
    checked = []
    original = qcore.is_unitary

    def counting(m):
        checked.append(m)
        return original(m)

    monkeypatch.setattr(qcore, "is_unitary", counting)
    locc.run_protocol(program, initial)
    # P, C and F once each, X^l once per l, R_m once per m
    assert len(checked) == 3 + n + n


def test_runners_slice_the_output_instead_of_factoring(monkeypatch):
    rng = np.random.default_rng(6)

    def forbidden(state, factor):
        raise AssertionError("factor_state called on a runner's output")

    monkeypatch.setattr(qcore, "factor_state", forbidden)
    psi = random_state(3, rng)
    p = wang.random_partition(3, 2, rng)
    assert len(wang.run_wang(p, wang.random_phases(2, rng), psi)) == 4
    rep, c, psi = group_setup("dihedral3", rng)
    assert len(groupform.run_group_protocol(rep, c, psi)) == 36
    branches, _ = entcost.bqst_teleport(qcore.random_unitary(2, rng), random_state(2, rng))
    assert len(branches) == 16


# --- outcome probabilities do not depend on the input --------------------------

@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(1, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_block_branch_has_probability_one_over_n_squared(dim, data, seed):
    n = data.draw(st.integers(1, dim))
    rng = np.random.default_rng(seed)
    p = wang.random_partition(dim, n, rng)
    branches = wang.run_wang(p, wang.random_phases(n, rng), random_state(dim, rng))
    assert len(branches) == n * n
    for b in branches:
        assert abs(b.probability - 1 / n**2) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(GROUP_REPS)), seed=st.integers(0, 2**32 - 1))
def test_every_group_branch_has_probability_one_over_order_squared(name, seed):
    rep, c, psi = group_setup(name, np.random.default_rng(seed))
    branches = groupform.run_group_protocol(rep, c, psi)
    order = rep.group.order
    assert len(branches) == order * order
    for b in branches:
        assert abs(b.probability - 1 / order**2) <= 1e-12
