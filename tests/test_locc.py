"""Protocol orchestration: resources, branch enumeration, transcripts,
locality and classical-dependency enforcement."""

import gc
import weakref

import numpy as np
import pytest

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import DimensionMismatch, LocalityViolation, MissingClassicalDependency
from qremote.locc import (
    ALICE,
    BOB,
    ClassicalMessageEvent,
    ConditionalStep,
    LocalOpEvent,
    LocalStep,
    MeasureStep,
    Program,
    Transcript,
)

from util import random_state, validate_transcript


def test_maximally_entangled_small_cases():
    r1 = locc.maximally_entangled(1)
    assert qcore.schmidt(r1, [0]).rank == 1
    assert r1.factor_dims == (1, 1)

    r3 = locc.maximally_entangled(3)
    table = r3.amplitudes.reshape(3, 3)
    np.testing.assert_allclose(table, np.eye(3) / np.sqrt(3), atol=1e-15)

    with pytest.raises(DimensionMismatch):
        locc.maximally_entangled(0)


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
        steps=(LocalStep(ALICE, "X", qcore.shift_matrix(2), (1,)),),
    )
    with pytest.raises(LocalityViolation):
        locc.run_protocol(program, s)


def test_conditional_step_requires_delivered_message():
    s = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2))
    x = qcore.shift_matrix(2)
    # no measurement produced the message at all
    program = Program(
        owners=(ALICE, BOB),
        steps=(ConditionalStep(BOB, "X^l", lambda l: np.linalg.matrix_power(x, l), (1,), "l"),),
    )
    with pytest.raises(MissingClassicalDependency):
        locc.run_protocol(program, s)
    # measured but never sent to Bob
    program = Program(
        owners=(ALICE, BOB),
        steps=(
            MeasureStep(ALICE, 0, "l", send_to=None),
            ConditionalStep(BOB, "X^l", lambda l: np.linalg.matrix_power(x, l), (1,), "l"),
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


def test_branch_states_are_freed_without_the_cycle_collector():
    rng = np.random.default_rng(4)
    p = wang.diagonal_partition(3)
    gc.disable()
    try:
        branches = wang.run_wang(p, wang.random_phases(3, rng), random_state(3, rng))
        output = weakref.ref(branches[0].output)
        del branches
        assert output() is None
    finally:
        gc.enable()


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
