"""The batched executor in locc.run_protocol against the recursive reference
executor, its operator checks, and outcome probabilities that do not depend
on the input."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import (
    DimensionMismatch, LocalityViolation, MissingClassicalDependency, NonUnitary, NotNormalized,
)
from qremote.locc import (
    ALICE, BOB, ConditionalStep, CouplingStep, LocalStep, MeasureStep, Program,
)

from reference_executor import run_reference
from util import (
    coupling_matrix, klein_character_rep, random_block_diagonal_unitary, random_state,
    shift_matrix, spread_state, validate_transcript,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
GROUP_REPS = {
    "cyclic-3": (lambda: groupform.cyclic_character_rep(3), (1, 1, 1)),
    "cyclic-5": (lambda: groupform.cyclic_character_rep(5), (1,) * 5),
    "klein": (klein_character_rep, (1, 1, 1, 1)),
    "pauli": (groupform.pauli_rep, (2,)),
    "dihedral3": (groupform.dihedral3_rep, (1, 1, 2)),
}


def at_outcomes(state, branch):
    """The state's tensor form with each measured factor fixed at its
    outcome, read off the branch's record and row."""
    index = [slice(None)] * len(state.factor_dims)
    measures = [s for s in branch.steps if isinstance(s, MeasureStep)]
    for s, k in zip(measures, branch.row, strict=True):
        index[s.target] = k
    return state.tensor_form()[tuple(index)]


def assert_matches_reference(program, initial):
    """Every branch's record (party, label, targets and consumed tag of each
    operation; party, factor, tag and receiver of each measurement), its
    outcome row (each outcome, and so each payload), probability, output
    and state against the reference's own."""
    got = locc.run_protocol(program, initial)
    want = run_reference(program, initial)
    assert [b.row for b in got] == [w.row for w in want]
    for g, w in zip(got, want):
        assert g.steps == w.steps
        assert abs(g.probability - w.probability) <= 1e-12
        expected_output = at_outcomes(w.state, w)
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
        assert [(b.steps, b.row) for b in got] == [(b.steps, b.row) for b in want]
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
        ConditionalStep(ALICE, "Z^x", z_powers, (1,), "x"),
        LocalStep(BOB, "X", shift_matrix(3), (2,)),
    ))
    branches = assert_matches_reference(program, initial)
    assert len(branches) == 2
    assert all(b.outcomes == {} for b in branches)
    for b in branches:   # the audit, like the run, delivers x to Alice, who measured it
        validate_transcript(b.steps, program.owners)


def test_a_step_on_a_measured_factor_is_a_dimension_mismatch():
    initial = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 3))
    for step in (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        ConditionalStep(ALICE, "Z^x", np.eye(2)[None].repeat(2, 0), (0,), "x"),
        MeasureStep(ALICE, 0, "y"),
        CouplingStep(ALICE, "P", np.eye(2), np.eye(3)[None].repeat(2, 0), 0, 1),
    ):
        program = Program((ALICE, ALICE), (MeasureStep(ALICE, 0, "x"), step))
        with pytest.raises(DimensionMismatch, match="factor 0 was measured"):
            locc.run_protocol(program, initial)


def recorded_checks(monkeypatch):
    """The list that every stack qcore.unitarity_defect checks is appended to."""
    checked, unitarity_defect = [], qcore.unitarity_defect

    def defect(stack):
        checked.append(stack)
        return unitarity_defect(stack)

    monkeypatch.setattr(qcore, "unitarity_defect", defect)
    return checked


def test_zero_probability_outcome_is_pruned(monkeypatch):
    amps = np.zeros((2, 3), dtype=complex)
    amps[0, 0] = amps[1, 2] = 1 / np.sqrt(2)    # factor 1 never holds |1>
    # not unitary at the pruned payload 1, so that entry must never be checked
    table = HADAMARD * np.array([1, 2, 1])[:, None, None]
    program = Program((ALICE, BOB), (
        MeasureStep(BOB, 1, "b", send_to=ALICE),
        ConditionalStep(ALICE, "X^b", table, (0,), "b"),
    ))
    checked = recorded_checks(monkeypatch)
    branches = assert_matches_reference(program, qcore.StateVector(amps.reshape(-1), (2, 3)))
    assert [b.outcomes["b"] for b in branches] == [0, 2]
    # the reached entries as one stack for the batched run, then one entry
    # per branch for the reference
    want = [table[[0, 2]], table[0], table[2]]
    assert [c.tolist() for c in checked] == [w.tolist() for w in want]


def test_a_dead_row_keeps_a_nan_entry_out_of_the_pruning_total():
    # payload 1 of b is never reached and its entry is NaN: the identity
    # applied to its zero rows keeps them zeros, so the later measurement
    # of a counts only what it prunes itself
    table = np.stack([HADAMARD, np.full((2, 2), np.nan)])
    program = Program((BOB, ALICE, ALICE), (
        MeasureStep(BOB, 0, "b", send_to=ALICE),
        ConditionalStep(ALICE, "V_b", table, (1,), "b"),
        MeasureStep(ALICE, 2, "a"),
    ))
    psi = random_state(2, np.random.default_rng(14))

    def initial(small):
        return qcore.tensor(qcore.tensor(qcore.ket(0, 2), psi), spread_state(small))

    # 3999 x 0.99e-12 = 3.959e-9 is past NORM_TOL
    with pytest.raises(NotNormalized, match=r"measurement 'a' of factor 2 .* to 3\.959e-09"):
        locc.run_protocol(program, initial(3999))
    # 505 x 0.99e-12 = 5.0e-10 is within it
    branches = assert_matches_reference(program, initial(505))
    assert [b.row for b in branches] == [(0, 0)]


@pytest.mark.parametrize("table", [
    pytest.param(HADAMARD[None], id="payload-past-the-end"),
    pytest.param(HADAMARD, id="two-dimensional"),
])
def test_a_table_without_an_operator_per_payload_is_a_dimension_mismatch(table):
    program = Program((ALICE, BOB), (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        MeasureStep(ALICE, 0, "x", send_to=BOB),
        ConditionalStep(BOB, "V_x", table, (1,), "x"),
    ))
    initial = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2))
    with pytest.raises(DimensionMismatch, match="step 'V_x' has table shape"):
        locc.run_protocol(program, initial)


def gathered(step, inbox, kept, rows):
    """The conditioned step as the per-row operator gather: table[payload] @
    rows, on rows (row, *target dims, *rest) taken as (row, d, rest), one row
    per cell of the outcome grid kept, whose axis for the message holds the
    payload."""
    payloads = np.indices(kept.shape)[inbox[step.party][step.message]].reshape(-1)
    ops = np.asarray(step.unitaries, dtype=complex)[payloads]
    return ops @ rows.reshape(len(rows), ops.shape[-1], -1)


def pruned_program():
    """Factor 1 never holds |1>, and factor 2 holds only |0> once factor 1
    holds |2>: the rows (b, c) = (0, 0), (0, 1), (2, 0) survive, so b
    reaches the payloads 0 and 2, and c the payloads 0 and 1. Each payload's
    operator is distinct, and V_b's entry for the unreached payload 1 is
    never applied."""
    amps = np.zeros((2, 3, 2), dtype=complex)
    amps[0, 0, 0] = amps[0, 0, 1] = 0.5
    amps[1, 2, 0] = 1 / np.sqrt(2)

    def phased(k):
        return HADAMARD @ np.stack([np.diag([1, np.exp(1j * (v + 1))]) for v in k])

    program = Program((ALICE, BOB, BOB), (
        MeasureStep(BOB, 1, "b", send_to=ALICE),
        MeasureStep(BOB, 2, "c", send_to=ALICE),
        ConditionalStep(ALICE, "V_b", phased(range(3)), (0,), "b"),
        ConditionalStep(ALICE, "V_c", phased(range(3, 5)), (0,), "c"),
    ))
    return program, qcore.StateVector(amps.reshape(-1), (2, 3, 2))


def grouped_apply_cases():
    rng = np.random.default_rng(13)
    p = wang.random_partition(6, 4, rng)
    wang_case = wang.wang_program(p, wang.random_phases(4, rng))
    rep, c, psi = group_setup("dihedral3", rng)
    group_case = groupform.group_program(rep, c)
    bqst_case = entcost.bqst_program(qcore.random_unitary(3, rng))
    return {
        "wang": (wang_case, locc.prepare(wang_case, random_state(6, rng))),
        "group": (group_case, locc.prepare(group_case, psi)),
        "bqst": (bqst_case, locc.prepare(bqst_case, random_state(3, rng))),
        "pruned": pruned_program(),
    }


def test_every_program_holds_arrays_not_callables():
    programs = [program for program, _ in grouped_apply_cases().values()]
    u = qcore.random_unitary(3, np.random.default_rng(2))
    programs.append(wang.svd_program(wang.svd_remote(u)))
    for program in programs:
        for step in program.steps:
            fields = [getattr(step, f.name) for f in dataclasses.fields(step)]
            assert not any(callable(value) for value in fields), step.label
            if isinstance(step, (ConditionalStep, CouplingStep)):
                assert np.asarray(step.unitaries).ndim == 3


@pytest.mark.parametrize("case", ["wang", "group", "bqst", "pruned"])
def test_the_grouped_apply_matches_the_gather(monkeypatch, case):
    program, initial = grouped_apply_cases()[case]
    conditioned = locc._conditioned
    reached = []

    def checking(step, factors, dims, inbox, kept, rows):
        want = gathered(step, inbox, kept, rows)
        got = conditioned(step, factors, dims, inbox, kept, rows)
        np.testing.assert_allclose(got.reshape(want.shape), want, rtol=0, atol=1e-12)
        reached.append(np.unique(np.argwhere(kept)[:, inbox[step.party][step.message]]))
        return got

    monkeypatch.setattr(locc, "_conditioned", checking)
    assert_matches_reference(program, initial)
    assert len(reached) == sum(isinstance(s, ConditionalStep) for s in program.steps)
    if case == "pruned":
        assert [x.tolist() for x in reached] == [[0, 2], [0, 1]]


def wang_32_peak(steps):
    """tracemalloc peak of run_protocol over the given steps on a wang
    (32, 32) initial state, in units of that state's 512 kB, and the
    branch count."""
    rng = np.random.default_rng(12)
    program = wang.wang_program(wang.random_partition(32, 32, rng), wang.random_phases(32, rng))
    initial = locc.prepare(program, random_state(32, rng))
    program = Program(program.owners, program.steps if steps is None else steps, program.dims)
    tracemalloc.start()
    try:
        branches = locc.run_protocol(program, initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / initial.amplitudes.nbytes, len(branches)


def test_a_wang_32_run_peaks_below_three_and_a_half_initial_states():
    # the coupling and each conditioned step hold a few arrays the size of
    # the rows, never one per term or one operator per row, and every
    # operator stack is the program's, built before the run
    peak, count = wang_32_peak(None)
    assert count == 1024
    assert peak <= 3.5


@pytest.mark.parametrize("steps, bound", [
    ((), 1 / 8),                              # the frozen input is not copied
    ((MeasureStep(ALICE, 1, "a"),), 1.5),     # only the measurement's new rows
], ids=["no-steps", "one-measurement"])
def test_the_run_gate_copies_no_rows(steps, bound):
    peak, count = wang_32_peak(steps)
    assert count == 32 ** len(steps)
    assert peak <= bound


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
        ConditionalStep(BOB, "H", HADAMARD[None].repeat(2, 0), (0,), "x"),
    )), LocalityViolation),
    (Program((ALICE, BOB), (
        MeasureStep(ALICE, 0, "x"),
        ConditionalStep(BOB, "X^x", np.eye(3)[None].repeat(2, 0), (1,), "x"),
    )), MissingClassicalDependency),
    (Program((ALICE, BOB), (
        LocalStep(ALICE, "H", HADAMARD, (0,)),
        MeasureStep(ALICE, 0, "x", send_to=BOB),
        ConditionalStep(BOB, "V_x", np.eye(3) * np.array([1, 2])[:, None, None], (1,), "x"),
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
    # a step skips the dense check of a table qcore certified as it made it
    # (the shifts, clocks, F, C, I and the group's U(f), and what is
    # gathered from them); the coupling is still certified from its basis
    # and its stack of column unitaries
    rng = np.random.default_rng(5)
    dim, n = 6, 4
    program = wang.wang_program(wang.random_partition(dim, n, rng), wang.random_phases(n, rng))
    certified, certify_coupling = [], qcore.certify_coupling

    def certifying(basis, unitaries, label):
        certified.append(label)
        return certify_coupling(basis, unitaries, label)

    checked = recorded_checks(monkeypatch)
    monkeypatch.setattr(qcore, "certify_coupling", certifying)
    locc.run_protocol(program, wang_initial(random_state(dim, rng), n))
    # the partition's basis V, in the coupling's certificate, then R_m as
    # one stack: every dense check run_protocol makes, is_unitary included
    shapes = [c.shape for c in checked]
    assert shapes == [(dim, dim), (n, dim, dim)]
    # every payload reaches R_m, so the table is checked as the step holds
    # it, not copied for the run
    assert checked[1] is program.steps[-1].unitaries
    assert certified == ["P"]
    # one certificate per coupling in the other protocols too, and no dense
    # check in their runs: each builder checks only the matrix it is given
    # or forms for the instance (bqst's U, the group's M), once F of the
    # size is cached
    rep, c, psi = group_setup("dihedral3", rng)
    u = qcore.random_unitary(3, rng)
    builds = {
        "group": (lambda: groupform.group_program(rep, c), psi, [(6, 6)]),
        "bqst": (lambda: entcost.bqst_program(u), random_state(3, rng), [(3, 3)]),
    }
    for build, psi, built in builds.values():
        build()
        checked.clear()
        program = build()
        assert [c.shape for c in checked] == built
        checked.clear()
        locc.run_protocol(program, locc.prepare(program, psi))
        assert checked == []
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
    """The P step of a random partition's program."""
    return wang.wang_program(wang.random_partition(dim, n, rng), wang.random_phases(n, rng)).steps[0]


def broken_coupling(fault, rng):
    """The P step of a random (4, 3) partition with its basis, or its V_2,
    pushed 1e-3 off unitarity."""
    step = wang_coupling(4, 3, rng)
    if fault == "basis":
        basis = step.basis.copy()
        basis[:, 1] *= 1 + 1e-3
        return dataclasses.replace(step, basis=basis)
    shifts = step.unitaries.copy()
    shifts[2] *= 1 + 1e-3
    return dataclasses.replace(step, unitaries=shifts)


@pytest.mark.parametrize("fault, message", [
    ("basis", "the basis has defect"),
    ("nonunitary", "term 2: V is not unitary"),
])
def test_a_broken_coupling_names_its_step_and_term(fault, message):
    step = broken_coupling(fault, np.random.default_rng(9))
    program = Program((ALICE, ALICE), (step,))
    initial = qcore.tensor(random_state(4, np.random.default_rng(1)), qcore.ket(0, 3))
    with pytest.raises(NonUnitary, match=f"coupling 'P' .*{re.escape(message)}"):
        locc.run_protocol(program, initial)
    with pytest.raises(NonUnitary):
        run_reference(program, initial)


def test_a_term_no_column_owns_is_not_certified():
    # blocks (I, 0): no column of the basis lies in block 1, so every column
    # carries X^0 and X^1 is not in the step to be certified
    p = wang.validate_partition([np.eye(2), np.zeros((2, 2))])
    step = wang.wang_program(p, wang.Phases(np.ones(2))).steps[0]
    np.testing.assert_array_equal(step.unitaries, qcore.shift_powers(2)[[0, 0]])
    qcore.certify_coupling(step.basis, step.unitaries, "P")
    assert qcore.is_unitary(coupling_matrix(step))


E4, E3 = np.eye(4), np.eye(3)


@pytest.mark.parametrize("basis, unitaries, control, target, error", [
    pytest.param(E4, E4[None].repeat(4, 0), 0, 0, DimensionMismatch, id="one-factor-twice"),
    pytest.param(E3, E3[None].repeat(3, 0), 0, 1, DimensionMismatch, id="basis-off-factor-0"),
    pytest.param(E4, np.eye(2)[None].repeat(4, 0), 0, 1, DimensionMismatch,
                 id="terms-off-factor-1"),
    pytest.param(E4, np.zeros((0, 3, 3)), 0, 1, DimensionMismatch, id="no-terms"),
    pytest.param(E4, E3[None].repeat(3, 0), 0, 1, DimensionMismatch, id="terms-short-of-columns"),
    pytest.param(E4, E3[None].repeat(5, 0), 0, 1, DimensionMismatch, id="terms-past-columns"),
    pytest.param(E4, np.eye(2)[None].repeat(4, 0), 0, 2, LocalityViolation,
                 id="factor-2-is-bobs"),
    pytest.param("ab", E3[None].repeat(4, 0), 0, 1, DimensionMismatch, id="basis-str"),
    pytest.param(E4, [[["a"]]], 0, 1, DimensionMismatch, id="terms-str"),
])
def test_a_malformed_coupling_is_rejected_by_name(basis, unitaries, control, target, error):
    step = CouplingStep(ALICE, "P", basis, unitaries, control, target)
    initial = qcore.tensor(qcore.tensor(qcore.ket(0, 4), qcore.ket(0, 3)), qcore.ket(0, 2))
    match = "coupling 'P'" if error is DimensionMismatch else "factor 2 owned by bob"
    with pytest.raises(error, match=match):
        locc.run_protocol(Program((ALICE, ALICE, BOB), (step,)), initial)


@pytest.mark.parametrize("step", [
    pytest.param(LocalStep(ALICE, "H2", np.eye(16), (0, 0)), id="local"),
    pytest.param(ConditionalStep(ALICE, "V_b", np.eye(16)[None].repeat(2, 0), (0, 0), "b"),
                 id="conditioned"),
    pytest.param(CouplingStep(ALICE, "P", E4, E4[None].repeat(4, 0), 0, 0), id="coupling"),
])
def test_a_step_on_one_factor_twice_is_rejected_before_any_product(monkeypatch, step):
    # the factors are resolved before any operator is checked or applied, so
    # numpy never sees the repeated axis
    program = Program((ALICE, ALICE, BOB), (MeasureStep(BOB, 2, "b", send_to=ALICE), step))
    initial = qcore.tensor(qcore.tensor(qcore.ket(0, 4), qcore.ket(0, 3)), qcore.ket(0, 2))
    checked = recorded_checks(monkeypatch)
    with pytest.raises(DimensionMismatch, match=f"'{re.escape(step.label)}' names a factor twice"):
        locc.run_protocol(program, initial)
    assert checked == []


@pytest.mark.parametrize("step", [
    pytest.param(LocalStep(ALICE, "H", "ab", (0,)), id="local"),
    pytest.param(ConditionalStep(ALICE, "V_x", [E4, E3, E4], (0,), "x"), id="ragged-table"),
    pytest.param(ConditionalStep(ALICE, "V_x", [[["a"]]] * 3, (0,), "x"), id="table-str"),
])
def test_an_operator_step_holding_no_numbers_is_a_dimension_mismatch(step):
    # a bare ValueError from numpy before
    initial = qcore.tensor(qcore.ket(0, 4), qcore.ket(0, 3))
    program = Program((ALICE, ALICE), (MeasureStep(ALICE, 1, "x"), step))
    with pytest.raises(DimensionMismatch, match="not numeric|no array"):
        locc.run_protocol(program, initial)


def perturbed_coupling(kind, rng):
    """A wang P step at D = 2..8 with its basis or one column's V_k
    perturbed by 1e-13 to 3e-8."""
    dim = int(rng.integers(2, 9))
    step = wang_coupling(dim, int(rng.integers(1, dim + 1)), rng)
    basis, shifts = step.basis.copy(), step.unitaries.copy()
    eps = 10.0 ** rng.uniform(-13, np.log10(3e-8))
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "noisy":           # complex noise on the basis
        basis += eps * noise
    elif kind == "shrunk":        # one column of the basis shortened
        basis[:, int(rng.integers(dim))] *= 1 - eps
    elif kind == "rotated":       # the basis turned by a unitary near I
        w, v = np.linalg.eigh((noise + noise.conj().T) / 2)
        basis = (v * np.exp(1j * eps * w)) @ v.conj().T @ basis
    else:                         # one column's shift pushed off unitarity
        n = shifts.shape[-1]
        k = int(rng.integers(dim))
        shifts[k] += eps * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return dataclasses.replace(step, basis=basis, unitaries=shifts)


def test_the_certificate_never_accepts_what_the_dense_check_rejects():
    rng = np.random.default_rng(10)
    verdicts = set()
    for kind in ("noisy", "shrunk", "rotated", "nonunitary") * 250:
        step = perturbed_coupling(kind, rng)
        try:
            qcore.certify_coupling(step.basis, step.unitaries, "P")
            certified = True
        except NonUnitary:
            certified = False
        verdicts.add((certified, qcore.is_unitary(coupling_matrix(step))))
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


# --- random valid programs against the reference --------------------------------

@st.composite
def programs(draw, zeroed=False):
    """A valid Program with its initial state: 2-4 factors of dimension 1-3
    with random owners, then 1 to 6 steps of all four kinds. Targets come
    in any order, a coupling's control on either side of its target, and a
    conditioned step reads any message its party holds. Each factor and
    each step is one drawn integer, split by divmod to keep the draws few:
    a factor into (owner, dimension), a step into (size, pick, side, kind),
    kind the lowest digit. A kind its party cannot take yet falls back to a
    measurement or a local step, and a party with no live factor hands the
    step to the other. Matrices and the state come from a drawn seed. If
    zeroed, each factor of dimension 2 or 3 loses one level of the state
    with even odds, so an outcome measured before any step mixes it in is
    pruned, and a payload it would carry is never reached."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [divmod(v, 3) for v in draw(st.lists(st.integers(0, 5), min_size=2, max_size=4))]
    owners = tuple((ALICE, BOB)[o] for o, _ in factors)
    dims = tuple(1 + d for _, d in factors)
    live = set(range(len(dims)))
    inbox = {ALICE: {}, BOB: {}}   # tag -> dimension of the measured factor
    steps = []
    codes = draw(st.lists(st.integers(0, 24 * 24 * 2 * 4 - 1), min_size=1, max_size=6))
    for i, v in enumerate(codes):
        v, kind = divmod(v, 4)
        v, side = divmod(v, 2)
        size, pick = divmod(v, 24)
        kind = ("local", "coupling", "conditioned", "measure")[kind]
        party, other = ((ALICE, BOB), (BOB, ALICE))[side]
        own = [t for t in sorted(live) if owners[t] is party]
        if not own:
            party, other = other, party
            own = [t for t in sorted(live) if owners[t] is party]
        if not own:
            break   # every factor is measured
        if kind == "conditioned" and not inbox[party]:
            kind = "measure"
        if kind == "coupling" and len(own) < 2:
            kind = "local"
        order = list(itertools.permutations(own))[pick % math.factorial(len(own))]
        if kind == "measure":
            send_to = (None, other)[size % 2]
            steps.append(MeasureStep(party, order[0], f"m{i}", send_to))
            live.remove(order[0])
            for receiver in {party, send_to} - {None}:
                inbox[receiver][f"m{i}"] = dims[order[0]]
        elif kind == "coupling":
            control, target = order[:2]
            unitaries = np.array([qcore.random_unitary(dims[target], rng)
                                  for _ in range(dims[control])])
            steps.append(CouplingStep(party, f"W{i}", qcore.random_unitary(dims[control], rng),
                                      unitaries, control, target))
        else:
            targets = order[: 1 + size % len(own)]
            d = math.prod(dims[t] for t in targets)
            if kind == "local":
                steps.append(LocalStep(party, f"U{i}", qcore.random_unitary(d, rng), targets))
            else:
                tags = sorted(inbox[party])
                tag = tags[pick % len(tags)]
                table = np.array([qcore.random_unitary(d, rng) for _ in range(inbox[party][tag])])
                steps.append(ConditionalStep(party, f"V{i}", table, targets, tag))
    amps = random_state(math.prod(dims), rng).amplitudes.reshape(dims)
    if zeroed:
        amps = amps.copy()
        for f, d in enumerate(dims):
            if d > 1 and rng.integers(2):
                amps[(slice(None),) * f + (rng.integers(d),)] = 0
        amps /= np.linalg.norm(amps)
    return Program(owners, tuple(steps)), qcore.StateVector(amps.reshape(-1), dims)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=programs())
def test_random_programs_match_the_reference(case):
    assert_matches_reference(*case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=programs(zeroed=True))
def test_random_programs_on_inputs_with_pruned_outcomes_match_the_reference(case):
    assert_matches_reference(*case)
