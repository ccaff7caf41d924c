"""Protocol orchestration: resources, branch enumeration, transcripts,
locality and classical-dependency enforcement."""

import gc
import re
import warnings
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import (
    DimensionMismatch, LocalityViolation, MissingClassicalDependency, NonFinite, NotNormalized,
)
from qremote.locc import (
    ALICE,
    BOB,
    ConditionalStep,
    CouplingStep,
    LocalOpEvent,
    LocalStep,
    MeasureStep,
    Program,
)

from util import (
    dense_factor_overlap, eager_branches, random_state, shift_matrix, spread_state,
    validate_transcript, zero_filled_state,
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
    assert branches[0].steps == () and branches[0].row == ()
    assert locc.transcript_lines(branches[0]) == []
    assert branches[0].probability == 1.0
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
        validate_transcript(branch.steps, locc.PROTOCOL_OWNERS)
        lines = locc.transcript_lines(branch)
        assert lines[0] == "LOCALOP|alice|P|0,1"
        assert any(line.startswith("MSG|alice|l|to=bob") for line in lines)
        assert any(line.startswith("MEASURE|bob|2") for line in lines)
        # the recovery is conditioned on m and must come after its message
        assert lines[-1] == "LOCALOP|alice|R_m|0;uses=m"


def test_branches_read_their_outcomes_off_one_record_and_row():
    # a branch stores its outcome row; probability, outcomes and state are
    # read from it, beside the one record its run shares
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


def protocol_run(name, rng):
    """One Run of each protocol, of a prefix of the wang program as
    trace_branch cuts it, and of a program with a pruned outcome."""
    p = wang.random_partition(5, 3, rng)
    phases, psi = wang.random_phases(3, rng), random_state(5, rng)
    if name == "wang":
        return wang.run_wang(p, phases, psi)
    if name == "group":
        c = np.zeros(4, dtype=complex)
        c[1] = c[2] = 1 / np.sqrt(2)
        return groupform.run_group_protocol(groupform.pauli_rep(), c, random_state(2, rng))
    if name == "bqst":
        return entcost.bqst_teleport(qcore.random_unitary(3, rng), random_state(3, rng))[0]
    if name == "svd":
        program = wang.svd_remote(qcore.random_unitary(3, rng))
        return wang.run_svd_remote(program, random_state(3, rng))
    if name == "prefix":
        # cut after Bob's X^l: the l column, the m factor still live
        program = wang.wang_program(p, phases)
        prefix = Program(program.owners, program.steps[:4], program.dims)
        return locc.run_protocol(prefix, locc.prepare(program, psi))
    # factor 0 holds (|0> + |1>)/sqrt 2, so its outcome 2 is pruned; Bob
    # keeps his own measurement of factor 2 and sends nothing
    assert name == "pruned"
    program = Program((ALICE, BOB, BOB), (
        MeasureStep(ALICE, 0, "x", send_to=BOB),
        ConditionalStep(BOB, "X^x", qcore.shift_powers(2)[[0, 1, 0]], (1,), "x"),
        MeasureStep(BOB, 2, "y"),
    ))
    half = qcore.StateVector(np.array([1, 1, 0]) / np.sqrt(2), (3,))
    initial = qcore.tensor(qcore.tensor(half, random_state(2, rng)), random_state(2, rng))
    return locc.run_protocol(program, initial)


RUNS = ["wang", "group", "bqst", "svd", "prefix", "pruned"]


@pytest.mark.parametrize("name", RUNS)
def test_every_view_is_the_branch_the_eager_builder_makes(name):
    rng = np.random.default_rng(19)
    run = protocol_run(name, rng)
    eager = eager_branches(run)
    assert len(run) == len(eager) == len(run.outcomes)
    for b, want in zip(run, eager, strict=True):
        assert type(b) is locc.Branch
        assert b.row == want.row and all(type(k) is int for k in b.row)
        assert b.probability == want.probability and type(b.probability) is float
        assert b.norm == want.norm
        assert b.outcomes == want.outcomes
        assert list(b.outcomes.items()) == list(want.outcomes.items())
        assert locc.transcript_lines(b) == locc.transcript_lines(want)
        assert b.steps is run.steps and b.measured is run.measured
        assert b.factor_dims is run.factor_dims
        assert b.amplitudes.shape == want.amplitudes.shape
        assert b.amplitudes.tobytes() == want.amplitudes.tobytes()
        for got, ref in ((b.state, want.state), (b.output, want.output)):
            assert got.factor_dims == ref.factor_dims and got.basis == ref.basis
            assert got.stored.tobytes() == ref.stored.tobytes() and got._norm == ref._norm
        assert b.state.amplitudes.tobytes() == zero_filled_state(b).amplitudes.tobytes()
    if name == "pruned":
        assert sorted({b.row[0] for b in run}) == [0, 1]


def test_a_run_is_a_sequence_of_views():
    run = protocol_run("wang", np.random.default_rng(20))
    n = len(run)
    assert n == 9 and isinstance(run, locc.Run)
    rows = [b.row for b in run]
    assert rows == sorted(rows) == [tuple(r) for r in run.outcomes.tolist()]
    assert rows == [run[i].row for i in range(n)]
    assert run[-1].row == run[n - 1].row == rows[-1]
    assert run[-n].row == rows[0]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            run[i]
    for i in (slice(0, 2), 1.0, "0"):
        with pytest.raises(TypeError):
            run[i]
    # each iteration makes its views again, in the same order, and views of
    # one branch are equal, so the run finds its own
    assert [b.row for b in run] == rows
    assert run[-1] == run[n - 1] != run[0] and hash(run[-1]) == hash(run[n - 1])
    assert run[3] in run and run.index(run[-1]) == n - 1 and run.count(run[0]) == 1
    assert run[0] not in protocol_run("wang", np.random.default_rng(20))


def test_a_run_and_its_views_are_read_only():
    run = protocol_run("group", np.random.default_rng(21))
    for arr in (run.outcomes, run.probabilities, run.norms, run.amplitudes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    b = run[0]
    assert not b.amplitudes.flags.writeable
    for obj, name in ((run, "steps"), (run, "amplitudes"), (run, "extra"), (b, "row"),
                      (b, "_i"), (b, "extra")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)


def test_a_run_that_measures_every_factor_keeps_its_amplitudes_as_0d_views():
    # a numpy.complex128 per branch before, outside StateVector._prechecked's contract
    program = Program((ALICE,), (MeasureStep(ALICE, 0, "x"),))
    run = locc.run_protocol(program, qcore.StateVector([0.6, 0.8], (2,)))
    assert [b.row for b in run] == [(0,), (1,)]
    for b in run:
        for amps in (b.amplitudes, b.output.stored, b.state.stored):
            assert type(amps) is np.ndarray and amps.shape == ()
            assert not amps.flags.writeable and amps.flags.c_contiguous
            assert amps.base is run.amplitudes
        assert b.output.factor_dims == () and b.output.amplitudes.tolist() == [1]
        assert b.state.amplitudes.tolist() == [int(b.row == (0,)), int(b.row == (1,))]
        assert qcore.factor_overlap(b.state, np.eye(2)[b.row[0]], 0) == 1.0


def test_state_run_and_branch_share_one_immutable_base():
    assert all(issubclass(cls, qcore.Immutable)
               for cls in (qcore.StateVector, locc.Run, locc.Branch))
    assert "__setattr__" not in vars(locc.Run) and "__setattr__" not in vars(locc.Branch)


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


def test_pruned_mass_beyond_the_tolerance_is_named():
    program = Program((ALICE,), (MeasureStep(ALICE, 0, "x"),))
    # 3999 x 0.99e-12 = 3.959e-9 would vanish with its rows
    with pytest.raises(NotNormalized, match=r"measurement 'x' of factor 0 .* to 3\.959e-09"):
        locc.run_protocol(program, spread_state(3999))
    # 505 x 0.99e-12 = 5.0e-10 is within NORM_TOL and still runs
    branches = locc.run_protocol(program, spread_state(505))
    assert [b.row for b in branches] == [(0,)]
    assert branches[0].probability == pytest.approx(1 - 505 * 0.99e-12, abs=1e-15)


def test_a_nan_row_is_not_pruned_silently(monkeypatch):
    # a nan probability is not above PROB_FLOOR, so its row counts as
    # pruned and the running total turns nan: that fails the gate at once,
    # where it would drop the row and keep outcome 1 alone
    local_unitary = qcore.local_unitary

    def poisoned(op, *args):
        op = local_unitary(op, *args).copy()
        op[0, 0] = np.nan
        return op

    monkeypatch.setattr(qcore, "local_unitary", poisoned)
    program = Program((ALICE,), (
        LocalStep(ALICE, "V", np.eye(2), (0,)), MeasureStep(ALICE, 0, "x"),
    ))
    with pytest.raises(NotNormalized, match=r"measurement 'x' of factor 0 .* to nan"):
        locc.run_protocol(program, qcore.StateVector(np.array([0.6, 0.8]), (2,)))


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
    use = LocalOpEvent(ALICE, "R_m", (0,), consumed="m")
    message = MeasureStep(BOB, 2, "m", send_to=ALICE)
    validate_transcript((message, use), locc.PROTOCOL_OWNERS)
    for bad in ((use, message), (MeasureStep(BOB, 2, "m"), use)):
        with pytest.raises(MissingClassicalDependency):
            validate_transcript(bad, locc.PROTOCOL_OWNERS)


@pytest.mark.parametrize("bad", [LocalOpEvent(BOB, "P", (0,)), MeasureStep(ALICE, 2, "m")])
def test_validator_rejects_foreign_factors(bad):
    with pytest.raises(LocalityViolation):
        validate_transcript((bad,), locc.PROTOCOL_OWNERS)


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
