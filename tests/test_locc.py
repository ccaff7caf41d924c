"""Protocol orchestration: resources, branch enumeration, transcripts,
locality and classical-dependency enforcement."""

import gc
import re
import warnings
import weakref

import numpy as np
import pytest

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import (
    DimensionMismatch, LocalityViolation, MissingClassicalDependency, NonFinite, NotNormalized,
)
from qremote.locc import (
    ALICE,
    BOB,
    ClassicalMessageEvent,
    ConditionalStep,
    CouplingStep,
    LocalOpEvent,
    LocalStep,
    MeasureStep,
    Program,
    Transcript,
)

from util import (
    dense_factor_overlap, random_state, shift_matrix, validate_transcript, zero_filled_state,
)


def test_maximally_entangled_small_cases():
    r1 = locc.maximally_entangled(1)
    assert qcore.schmidt(r1, [0]).rank == 1
    assert r1.factor_dims == (1, 1)

    r3 = locc.maximally_entangled(3)
    table = r3.amplitudes.reshape(3, 3)
    np.testing.assert_allclose(table, np.eye(3) / np.sqrt(3), atol=1e-15)

    with pytest.raises(DimensionMismatch):
        locc.maximally_entangled(0)


@pytest.mark.parametrize("call", [
    lambda: locc.maximally_entangled(2.5),
    lambda: locc.run_protocol(
        Program(owners=(ALICE,), steps=(LocalStep(ALICE, "X", shift_matrix(2), (0.5,)),)),
        qcore.ket(0, 2)),
    lambda: locc.run_protocol(
        Program(owners=(ALICE,), steps=(MeasureStep(ALICE, 0.5, "m"),)), qcore.ket(0, 2)),
    # an int where the targets' tuple belongs
    lambda: locc.run_protocol(
        Program(owners=(ALICE,), steps=(LocalStep(ALICE, "H", np.eye(2), 0),)), qcore.ket(0, 2)),
], ids=["resource-size", "local-step-target", "measure-step-target", "local-step-int-targets"])
def test_a_non_integer_size_or_target_is_a_dimension_mismatch(call):
    # a bare TypeError before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch):
            call()


def test_a_coupling_entry_past_the_float_range_is_non_finite():
    # a bare OverflowError before
    coupling = CouplingStep(ALICE, "P", [[10 ** 400, 0], [0, 1]], qcore.shift_powers(2), 0, 1)
    program = Program(owners=(ALICE, ALICE), steps=(coupling,))
    with pytest.raises(NonFinite, match="'P' has an entry past the float range"):
        locc.run_protocol(program, qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2)))


def test_maximally_entangled_rank_via_schmidt():
    for n in range(2, 9):
        form = qcore.schmidt(locc.maximally_entangled(n), [0])
        assert form.rank == n


def test_empty_program_is_identity():
    rng = np.random.default_rng(0)
    s = qcore.StateVector(random_state(4, rng).amplitudes, (2, 2))
    branches = locc.run_protocol(Program(owners=(ALICE, BOB), steps=()), s)
    assert len(branches) == 1
    assert branches[0].transcript.events == ()
    assert branches[0].transcript.probability == 1.0
    np.testing.assert_allclose(branches[0].state.amplitudes, s.amplitudes, atol=0)


def test_locality_is_enforced():
    s = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2))
    program = Program(
        owners=(ALICE, BOB),
        steps=(LocalStep(ALICE, "X", shift_matrix(2), (1,)),),
    )
    with pytest.raises(LocalityViolation):
        locc.run_protocol(program, s)


def test_conditional_step_requires_delivered_message():
    s = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2))
    shifts = qcore.shift_powers(2)
    # no measurement produced the message at all
    program = Program(
        owners=(ALICE, BOB),
        steps=(ConditionalStep(BOB, "X^l", shifts, (1,), "l"),),
    )
    with pytest.raises(MissingClassicalDependency):
        locc.run_protocol(program, s)
    # measured but never sent to Bob
    program = Program(
        owners=(ALICE, BOB),
        steps=(
            MeasureStep(ALICE, 0, "l", send_to=None),
            ConditionalStep(BOB, "X^l", shifts, (1,), "l"),
        ),
    )
    with pytest.raises(MissingClassicalDependency):
        locc.run_protocol(program, s)


def test_wang_program_has_full_branch_tree():
    # one measurement on each side: 3 x 3 = 9 branches
    rng = np.random.default_rng(1)
    p = wang.diagonal_partition(3)
    phases = wang.random_phases(3, rng)
    branches = wang.run_wang(p, phases, random_state(3, rng))
    assert len(branches) == 9
    assert {(b.outcomes["l"], b.outcomes["m"]) for b in branches} == {(l, m) for l in range(3) for m in range(3)}
    total = sum(b.probability for b in branches)
    assert abs(total - 1.0) <= 1e-10


def test_every_wang_branch_applies_the_operation():
    rng = np.random.default_rng(2)
    p = wang.diagonal_partition(3)
    phases = wang.random_phases(3, rng)
    psi = random_state(3, rng)
    expected = wang.assemble(p, phases) @ psi.amplitudes
    for branch in wang.run_wang(p, phases, psi):
        assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9


def test_transcripts_validate_and_serialize():
    rng = np.random.default_rng(3)
    p = wang.diagonal_partition(2)
    phases = wang.random_phases(2, rng)
    for branch in wang.run_wang(p, phases, random_state(2, rng)):
        validate_transcript(branch.transcript, locc.PROTOCOL_OWNERS)
        lines = locc.transcript_lines(branch.transcript)
        assert lines[0] == "LOCALOP|alice|P|0,1"
        assert any(line.startswith("MSG|alice|l|to=bob") for line in lines)
        assert any(line.startswith("MEASURE|bob|2") for line in lines)
        # the recovery is conditioned on m and must come after its message
        assert lines[-1] == "LOCALOP|alice|R_m|0;uses=m"


def test_runs_and_branch_reads_build_no_transcript(monkeypatch):
    # a branch stores its outcome row; probability, outcomes and state are
    # read from it, and a transcript is built only when one is asked for
    def refuse(*args):
        raise AssertionError("a transcript event was built")

    monkeypatch.setattr(locc, "MeasurementEvent", refuse)
    monkeypatch.setattr(locc, "ClassicalMessageEvent", refuse)
    rng = np.random.default_rng(5)
    c = np.zeros(4, dtype=complex)
    c[1] = c[2] = 1 / np.sqrt(2)
    runs = {
        ("l", "m"): wang.run_wang(
            wang.random_partition(3, 3, rng), wang.random_phases(3, rng), random_state(3, rng)
        ),
        ("g", "h"): groupform.run_group_protocol(groupform.pauli_rep(), c, random_state(2, rng)),
        ("p", "q", "r", "s"): entcost.bqst_teleport(
            qcore.random_unitary(2, rng), random_state(2, rng)
        )[0],
    }
    for tags, branches in runs.items():
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)
        for b in branches:
            assert tuple(b.outcomes) == tags
            assert tuple(b.outcomes.values()) == b.row
            assert b.state.factor_dims == b.factor_dims
            # one record per run, holding no operator
            assert b.steps is branches[0].steps
            assert all(isinstance(s, (LocalOpEvent, MeasureStep)) for s in b.steps)


def branch_runs(runner, rng):
    """The branches of one run of each protocol, or every traced stage."""
    p = wang.random_partition(5, 3, rng)
    phases, psi = wang.random_phases(3, rng), random_state(5, rng)
    c = np.zeros(4, dtype=complex)
    c[1] = c[2] = 1 / np.sqrt(2)
    runs = {
        "wang": lambda: wang.run_wang(p, phases, psi),
        "group": lambda: groupform.run_group_protocol(groupform.pauli_rep(), c, random_state(2, rng)),
        "bqst": lambda: entcost.bqst_teleport(qcore.random_unitary(3, rng), random_state(3, rng))[0],
        "svd": lambda: wang.run_svd_remote(
            wang.svd_remote(qcore.random_unitary(3, rng)), random_state(3, rng)
        ),
        "trace": lambda: [
            stage for l, m in ((0, 0), (1, 2)) for stage in wang.trace_branch(p, phases, psi, l, m)
        ],
    }
    return runs[runner]()


@pytest.mark.parametrize("runner", ["wang", "group", "bqst", "svd", "trace"])
def test_branch_state_is_the_zero_filled_reference(runner):
    rng = np.random.default_rng(17)
    for b in branch_runs(runner, rng):
        state, want = b.state, zero_filled_state(b)
        assert state.factor_dims == want.factor_dims
        assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
        # the branch's row is stored as is, the measured factors as labels
        assert np.shares_memory(state.stored, b.amplitudes)
        assert [f for f, _ in state.basis] == [
            s.target for s in b.steps if isinstance(s, MeasureStep)
        ]
        for f, d in enumerate(b.factor_dims):
            vec = 2.5 * random_state(d, rng).amplitudes
            got = qcore.factor_overlap(state, vec, f)
            assert abs(got - dense_factor_overlap(want, vec, f)) <= 1e-12


@pytest.mark.parametrize("runner", ["wang", "group", "bqst", "svd", "trace"])
def test_branch_states_equal_the_checked_construction(runner):
    # state and output skip StateVector's checks, which the run's closing
    # gate has made: they must be what the checked constructor builds
    for b in branch_runs(runner, np.random.default_rng(18)):
        checked = (
            (b.state, qcore.StateVector(b.amplitudes, b.factor_dims, [*zip(b.measured, b.row)])),
            (b.output, qcore.StateVector(b.amplitudes, b.amplitudes.shape)),
        )
        for got, want in checked:
            assert type(got) is qcore.StateVector
            assert got.factor_dims == want.factor_dims and got.basis == want.basis
            assert all(type(x) is int for label in got.basis for x in label)
            assert got.stored.shape == want.stored.shape
            assert got.stored.tobytes() == want.stored.tobytes()
            assert not got.stored.flags.writeable
            assert abs(got._norm - want._norm) <= 1e-15
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_branch_states_are_freed_without_the_cycle_collector():
    rng = np.random.default_rng(4)
    p = wang.diagonal_partition(3)
    gc.disable()
    try:
        branches = wang.run_wang(p, wang.random_phases(3, rng), random_state(3, rng))
        # every branch holds a read-only row of one shared output array
        shared = branches[0].amplitudes.base
        assert shared.shape == (9, 3) and not shared.flags.writeable
        for i, b in enumerate(branches):
            assert b.amplitudes.base is shared and not b.amplitudes.flags.writeable
            np.testing.assert_array_equal(b.amplitudes, shared[i])
        output = weakref.ref(shared)
        del branches, b, shared
        assert output() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("scale, error, message", [
    (2.0, NotNormalized, "norm 2.0"),
    (np.nan, NonFinite, "norm nan"),
])
def test_the_run_gate_names_the_row_of_a_bad_output(monkeypatch, scale, error, message):
    # R_m for m = 1 scales the output after its check; the first branch it
    # reaches is (l, m) = (0, 1)
    local_unitary = qcore.local_unitary

    def scaled(op, *args):
        op = local_unitary(op, *args)
        if op.ndim == 3 and op.shape[1] == 3:
            op = op * np.where(np.arange(len(op)) == 1, scale, 1.0)[:, None, None]
        return op

    monkeypatch.setattr(qcore, "local_unitary", scaled)
    rng = np.random.default_rng(7)
    p = wang.random_partition(3, 2, rng)
    with pytest.raises(error, match=re.escape(f"outcomes (0, 1) has {message}")):
        wang.run_wang(p, wang.random_phases(2, rng), random_state(3, rng))


def spread_state(small):
    """A (4000,) state: `small` amplitudes of probability 0.99e-12, below
    PROB_FLOOR, and the rest of the norm on |0>."""
    amps = np.zeros(4000, dtype=complex)
    amps[1 : small + 1] = np.sqrt(0.99e-12)
    amps[0] = np.sqrt(1 - small * 0.99e-12)
    return qcore.StateVector(amps, (4000,))


def test_pruned_mass_beyond_the_tolerance_is_named():
    program = Program((ALICE,), (MeasureStep(ALICE, 0, "x"),))
    # 3999 x 0.99e-12 = 3.959e-9 would vanish with its rows
    with pytest.raises(NotNormalized, match=r"measurement 'x' of factor 0 .* to 3\.959e-09"):
        locc.run_protocol(program, spread_state(3999))
    # 505 x 0.99e-12 = 5.0e-10 is within NORM_TOL and still runs
    branches = locc.run_protocol(program, spread_state(505))
    assert [b.row for b in branches] == [(0,)]
    assert branches[0].probability == pytest.approx(1 - 505 * 0.99e-12, abs=1e-15)


def test_the_pruning_measurement_is_named_before_a_later_fault():
    # payload 0, the one outcome kept, reaches a non-unitary entry; the
    # measurement that pruned 3.959e-9 is the earlier fault and is named
    table = np.tile(np.eye(2, dtype=complex), (4000, 1, 1))
    table[0] *= 2
    program = Program((ALICE, ALICE), (
        MeasureStep(ALICE, 0, "x"),
        ConditionalStep(ALICE, "V", table, (1,), "x"),
    ))
    initial = qcore.tensor(spread_state(3999), qcore.ket(0, 2))
    with pytest.raises(NotNormalized, match=r"measurement 'x' of factor 0 .* to 3\.959e-09"):
        locc.run_protocol(program, initial)


def test_validator_rejects_out_of_order_use():
    bad = Transcript(
        events=(
            LocalOpEvent(ALICE, "R_m", (0,), consumed="m"),
            ClassicalMessageEvent(BOB, ALICE, "m", 1),
        ),
        probability=1.0,
    )
    with pytest.raises(MissingClassicalDependency):
        validate_transcript(bad, locc.PROTOCOL_OWNERS)


def test_validator_rejects_foreign_factors():
    bad = Transcript(events=(LocalOpEvent(BOB, "P", (0,)),), probability=1.0)
    with pytest.raises(LocalityViolation):
        validate_transcript(bad, locc.PROTOCOL_OWNERS)


def test_prepare_appends_one_maximally_entangled_pair_per_two_factors():
    rng = np.random.default_rng(12)
    psi = random_state(3, rng)
    pair = locc.maximally_entangled(3)
    program = entcost.bqst_program(qcore.random_unitary(3, rng))
    initial = locc.prepare(program, psi)
    assert initial.factor_dims == program.dims == (3,) * 5
    expected = qcore.tensor(qcore.tensor(psi, pair), pair)
    np.testing.assert_array_equal(initial.amplitudes, expected.amplitudes)


@pytest.mark.parametrize("runner", ["wang", "group", "bqst", "svd", "trace"])
def test_a_wrong_size_input_is_rejected_before_the_executor(monkeypatch, runner):
    def unreachable(*args):
        raise AssertionError("run_protocol was reached")

    monkeypatch.setattr(locc, "run_protocol", unreachable)
    p = wang.diagonal_partition(3)
    phases = wang.Phases(np.ones(3))
    psi = qcore.ket(0, 2)   # every register below has dimension 3 or 4
    calls = {
        "wang": lambda: wang.run_wang(p, phases, psi),
        "group": lambda: groupform.run_group_protocol(groupform.dihedral3_rep(), np.eye(6)[0], psi),
        "bqst": lambda: entcost.bqst_teleport(np.eye(3), psi),
        "svd": lambda: wang.run_svd_remote(wang.svd_remote(np.eye(3)), psi),
        "trace": lambda: wang.trace_branch(p, phases, psi, 0, 0),
    }
    with pytest.raises(DimensionMismatch, match="input dimensions"):
        calls[runner]()
