"""The batched executor in locc.run_protocol against the recursive reference
executor, its operator checks, and outcome probabilities that do not depend
on the input."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import (
    DimensionMismatch, LocalityViolation, MissingClassicalDependency, NonUnitary,
)
from qremote.locc import (
    ALICE, BOB, ConditionalStep, CouplingStep, LocalStep, MeasureStep, Program,
)

from reference_executor import run_reference
from util import (
    klein_character_rep, kron_sum, random_block_diagonal_unitary, random_state, shift_matrix,
)

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
    z_powers = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    program = Program((ALICE, ALICE, BOB), (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        MeasureStep(ALICE, 0, "x", send_to=None),
        ConditionalStep(ALICE, "Z^x", lambda x: z_powers[x], (1,), "x"),
        LocalStep(BOB, "X", shift_matrix(3), (2,)),
    ))
    branches = assert_matches_reference(program, initial)
    assert len(branches) == 2
    assert all(b.outcomes == {} for b in branches)


def test_a_step_on_a_measured_factor_is_a_dimension_mismatch():
    initial = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 3))
    for step in (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        ConditionalStep(ALICE, "Z^x", lambda x: np.eye(2)[None].repeat(len(x), 0), (0,), "x"),
        MeasureStep(ALICE, 0, "y"),
    ):
        program = Program((ALICE, BOB), (MeasureStep(ALICE, 0, "x"), step))
        with pytest.raises(DimensionMismatch, match="factor 0 was measured"):
            locc.run_protocol(program, initial)


def test_zero_probability_outcome_is_pruned():
    amps = np.zeros((2, 3), dtype=complex)
    amps[0, 0] = amps[1, 2] = 1 / np.sqrt(2)    # factor 1 never holds |1>
    received = []

    def build(b):
        # not unitary for the pruned outcome, so it must never be built
        received.append(b.tolist())
        return HADAMARD * np.where(b == 1, 2, 1)[:, None, None]

    program = Program((ALICE, BOB), (
        MeasureStep(BOB, 1, "b", send_to=ALICE),
        ConditionalStep(ALICE, "X^b", build, (0,), "b"),
    ))
    branches = assert_matches_reference(program, qcore.StateVector(amps.reshape(-1), (2, 3)))
    assert [b.outcomes["b"] for b in branches] == [0, 2]
    # once for the batched run, then once per branch for the reference
    assert received == [[0, 2], [0], [2]]


# what each executor error names: the foreign factor, the missing message,
# and the step with the payload whose operator is not unitary
NAMED = {
    LocalityViolation: "factor 0 owned by alice",
    MissingClassicalDependency: "needs message 'x'",
    NonUnitary: "step 'V_x' at x=1 ",
}


@pytest.mark.parametrize("program, error", [
    (Program((ALICE, BOB), (
        MeasureStep(ALICE, 0, "x", send_to=BOB),
        ConditionalStep(BOB, "H", lambda x: HADAMARD[None].repeat(len(x), 0), (0,), "x"),
    )), LocalityViolation),
    (Program((ALICE, BOB), (
        MeasureStep(ALICE, 0, "x"),
        ConditionalStep(BOB, "X^x", lambda x: np.eye(3)[None].repeat(len(x), 0), (1,), "x"),
    )), MissingClassicalDependency),
    (Program((ALICE, BOB), (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        MeasureStep(ALICE, 0, "x", send_to=BOB),
        ConditionalStep(BOB, "V_x", lambda x: np.eye(3) * (1 + x)[:, None, None], (1,), "x"),
    )), NonUnitary),
])
def test_bad_conditional_step_raises_in_both_executors(program, error):
    initial = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 3))
    with pytest.raises(error, match=re.escape(NAMED[error])):
        locc.run_protocol(program, initial)
    with pytest.raises(error):
        run_reference(program, initial)


# --- checks counted --------------------------------------------------------------

def test_unitarity_is_checked_once_per_distinct_matrix(monkeypatch):
    # each conditioned step calls build once, with exactly the distinct
    # payloads of its surviving rows, and checks the stack it returns with
    # one batched product; the coupling is certified from its terms
    rng = np.random.default_rng(5)
    dim, n = 6, 4
    program = wang.wang_program(wang.random_partition(dim, n, rng), wang.random_phases(n, rng))
    built, checked, certified = [], [], []

    def recording(step):
        def build(payloads):
            built.append((step.label, payloads.tolist()))
            return step.build(payloads)
        return dataclasses.replace(step, build=build)

    unitarity_defect, certify_coupling = qcore.unitarity_defect, qcore.certify_coupling

    def defect(stack):
        checked.append(stack.shape)
        return unitarity_defect(stack)

    def certifying(projectors, unitaries, label):
        certified.append(label)
        return certify_coupling(projectors, unitaries, label)

    monkeypatch.setattr(qcore, "unitarity_defect", defect)
    monkeypatch.setattr(qcore, "certify_coupling", certifying)
    steps = tuple(
        recording(s) if isinstance(s, ConditionalStep) else s for s in program.steps
    )
    initial = wang_initial(random_state(dim, rng), n)
    locc.run_protocol(Program(program.owners, steps, program.dims), initial)
    assert built == [("X^l", list(range(n))), ("R_m", list(range(n)))]
    # C and F as one matrix each, X^l and R_m as one stack each, in program
    # order: every check run_protocol makes, is_unitary included, is listed
    assert checked == [(n, n, n), (n, n), (n, n), (n, dim, dim)]
    assert certified == ["P"]
    # one certificate per coupling in the other protocols too
    rep, c, psi = group_setup("dihedral3", rng)
    groupform.run_group_protocol(rep, c, psi)
    entcost.bqst_teleport(qcore.random_unitary(3, rng), random_state(3, rng))
    assert certified == ["P", "P", "CX^-1", "CX^-1"]


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


# --- the coupling certificate -------------------------------------------------

def wang_coupling(dim, n, rng):
    """The projector and shift stacks of a random partition's P step."""
    step = wang.wang_program(wang.random_partition(dim, n, rng), wang.random_phases(n, rng)).steps[0]
    return np.array(step.projectors), np.array(step.unitaries)


def broken_coupling(fault, rng):
    projectors, shifts = wang_coupling(4, 3, rng)
    if fault == "oblique":
        # P_1 + t P_1 X (I - P_1) is idempotent but not Hermitian
        x = rng.normal(size=(4, 4))
        projectors[1] += 1e-3 * projectors[1] @ x @ (np.eye(4) - projectors[1])
    elif fault == "nonunitary":
        shifts[2] *= 1 + 1e-3
    else:
        # P_0 grows by a direction shared by the ranges of P_1 and P_2: still
        # a projector, but the terms overlap and sum past I, most on P_0
        x1, x2 = (p @ random_state(4, rng).amplitudes for p in projectors[1:])
        x = x1 / np.linalg.norm(x1) + x2 / np.linalg.norm(x2)
        projectors[0] += np.outer(x, x.conj()) / 2
    return projectors, shifts


@pytest.mark.parametrize("fault, message", [
    ("oblique", "term 1: P is not an orthogonal projector"),
    ("nonunitary", "term 2: V is not unitary"),
    ("overlap", "of it on the range of term 0"),
])
def test_a_broken_coupling_names_its_step_and_term(fault, message):
    projectors, shifts = broken_coupling(fault, np.random.default_rng(9))
    program = Program((ALICE, ALICE), (CouplingStep(ALICE, "P", projectors, shifts, 0, 1),))
    initial = qcore.tensor(random_state(4, np.random.default_rng(1)), qcore.ket(0, 3))
    with pytest.raises(NonUnitary, match=f"coupling 'P' .*{re.escape(message)}"):
        locc.run_protocol(program, initial)
    with pytest.raises(NonUnitary):
        run_reference(program, initial)


@pytest.mark.parametrize("projectors, unitaries, control, target, error", [
    (np.eye(4)[None], np.eye(4)[None], 0, 0, DimensionMismatch),   # one factor twice
    (np.eye(3)[None], np.eye(3)[None], 0, 1, DimensionMismatch),   # P_i do not fit factor 0
    (np.eye(4)[None], np.eye(3)[[0, 0]], 0, 1, DimensionMismatch),  # 1 projector, 2 unitaries
    (np.zeros((0, 4, 4)), np.zeros((0, 3, 3)), 0, 1, DimensionMismatch),   # no terms
    (np.eye(4)[None], np.eye(2)[None], 0, 2, LocalityViolation),   # factor 2 is Bob's
])
def test_a_malformed_coupling_is_rejected_by_name(projectors, unitaries, control, target, error):
    step = CouplingStep(ALICE, "P", projectors, unitaries, control, target)
    initial = qcore.tensor(qcore.tensor(qcore.ket(0, 4), qcore.ket(0, 3)), qcore.ket(0, 2))
    with pytest.raises(error):
        locc.run_protocol(Program((ALICE, ALICE, BOB), (step,)), initial)


def perturbed_coupling(kind, rng):
    """A wang coupling at D = 2..8 with one perturbation of size 1e-13 to 3e-8."""
    dim = int(rng.integers(2, 9))
    projectors, shifts = wang_coupling(dim, int(rng.integers(1, dim + 1)), rng)
    eps = 10.0 ** rng.uniform(-13, np.log10(3e-8))
    i = int(rng.integers(len(projectors)))
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "hermitian":       # Hermitian noise on one projector
        projectors[i] += eps * (noise + noise.conj().T) / 2
    elif kind == "shrunk":
        projectors[i] *= 1 - eps
    elif kind == "rotated":       # an exact projector turned off its block
        w, v = np.linalg.eigh((noise + noise.conj().T) / 2)
        turn = (v * np.exp(1j * eps * w)) @ v.conj().T
        projectors[i] = turn @ projectors[i] @ turn.conj().T
    else:                         # one shift pushed off unitarity
        n = len(shifts)
        shifts[i] += eps * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return projectors, shifts


def test_the_certificate_never_accepts_what_the_dense_check_rejects():
    rng = np.random.default_rng(10)
    verdicts = set()
    for kind in ("hermitian", "shrunk", "rotated", "nonunitary") * 250:
        projectors, shifts = perturbed_coupling(kind, rng)
        try:
            qcore.certify_coupling(projectors, shifts, "P")
            certified = True
        except NonUnitary:
            certified = False
        verdicts.add((certified, qcore.is_unitary(kron_sum(projectors, shifts))))
    assert (True, False) not in verdicts
    assert {(True, True), (False, False)} <= verdicts


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
