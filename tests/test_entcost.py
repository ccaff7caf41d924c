"""Rank accounting, feasibility certificates, cost comparison, and the
teleport-both-ways baseline."""

import dataclasses

import numpy as np
import pytest

from qremote import cli, entcost, groupform, locc, qcore, wang
from qremote.errors import DimensionMismatch, NonFinite, NonUnitary
from qremote.qcore import StateVector

from util import (
    block_cost_row,
    bqst_cost_row,
    klein_character_rep,
    random_state,
    stacked_rank,
    unit_program,
)


def test_operator_rank_examples():
    basis = np.eye(3, dtype=complex)
    projs = [np.outer(basis[:, i], basis[:, i]) for i in range(3)]
    assert entcost.operator_rank(projs) == 3
    assert entcost.operator_rank([np.eye(2), np.eye(2)]) == 1


def test_partition_blocks_are_independent():
    rng = np.random.default_rng(0)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, dim + 1))
        p = wang.random_partition(dim, n, rng)
        assert entcost.operator_rank(p.blocks) == n
        assert stacked_rank(p.blocks) == n


def test_feasibility_verdicts():
    blocks = tuple(np.diag(np.eye(3)[i]).astype(complex) for i in range(3))
    bad = entcost.feasibility_test(entcost.operator_rank(blocks), 2)
    assert not bad.feasible
    assert bad.operator_rank == 3 and bad.resource_rank == 2
    assert "operator_rank(blocks) = 3 > d = 2" in bad.certificate

    good = entcost.feasibility_test(entcost.operator_rank(blocks), 3)
    assert good.feasible
    assert good.maximal_entanglement_required == "unknown"

    # constructive witness: the protocol itself succeeds at d = n
    rng = np.random.default_rng(1)
    p = wang.validate_partition(blocks)
    phases = wang.random_phases(3, rng)
    psi = random_state(3, rng)
    expected = wang.assemble(p, phases) @ psi.amplitudes
    for branch in wang.run_wang(p, phases, psi):
        assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9


def test_single_known_operation_needs_no_entanglement():
    rng = np.random.default_rng(2)
    block = (qcore.random_unitary(3, rng),)
    verdict = entcost.feasibility_test(entcost.operator_rank(block), 1)
    assert verdict.feasible


def test_partial_entanglement_counts_nonzero_coefficients():
    blocks = tuple(np.diag(np.eye(3)[i]).astype(complex) for i in range(3))
    h = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0])
    resource = StateVector(np.diag(h).reshape(-1), (3, 3))   # sum_k h_k |k>|k>
    d = qcore.schmidt(resource, [0]).rank
    verdict = entcost.feasibility_test(entcost.operator_rank(blocks), d)
    assert verdict.resource_rank == 2
    assert not verdict.feasible


def test_empty_resource_or_block_list_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        entcost.feasibility_test(1, 0)


@pytest.mark.parametrize("call", [
    lambda: entcost.feasibility_test(2.5, 3),
    lambda: entcost.feasibility_test(2, 3.5),
    lambda: entcost.feasibility_test(-1, 3),
    lambda: entcost.compare_costs("wang", locc.Program((), ()), [np.eye(2)]),
    lambda: entcost.operator_rank([np.ones((2, 3))]),
    lambda: entcost.operator_rank("ab"),
    lambda: entcost.operator_rank(5),
    lambda: entcost.operator_rank([np.eye(2), "ab"]),
    lambda: entcost.program_cost("x", locc.Program((locc.ALICE,), ()), 1),
], ids=["float-operator-rank", "float-schmidt-rank", "negative-operator-rank", "no-input-register",
        "non-square-block", "blocks-str", "blocks-int", "block-str", "cost-of-no-registers"])
def test_a_non_integer_rank_or_malformed_argument_is_a_dimension_mismatch(call):
    # accepted (a program without registers got a feasible row of Schmidt
    # rank 1), a bare IndexError for the missing register, or a bare
    # TypeError or ValueError for blocks that are no matrices, before
    with pytest.raises(DimensionMismatch):
        call()


def test_an_operator_rank_of_zero_stays_valid():
    assert entcost.feasibility_test(0, 1).feasible
    assert entcost.operator_rank([]) == 0


@pytest.mark.parametrize("call", [
    lambda: entcost.operator_rank([np.eye(2), np.diag([np.nan, 1.0])]),
    lambda: entcost.bqst_program(np.diag([1.0, np.nan])),
], ids=["operator-rank", "bqst"])
def test_a_non_finite_operator_is_named(call):
    # a bare LinAlgError and NonUnitary before
    with pytest.raises(NonFinite):
        call()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
def test_bqst_of_an_empty_operation_is_a_dimension_mismatch(shape):
    # a numpy error before
    with pytest.raises(DimensionMismatch, match="at least one level"):
        entcost.bqst_program(np.zeros(shape))


def test_feasibility_monotone_in_rank():
    rng = np.random.default_rng(3)
    p = wang.random_partition(6, 4, rng)
    feasible_flags = [
        entcost.feasibility_test(entcost.operator_rank(p.blocks), d).feasible
        for d in range(1, 9)
    ]
    assert feasible_flags == sorted(feasible_flags)   # False... then True...
    assert feasible_flags[3] and not feasible_flags[2]


def test_infeasible_certificates_are_sound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        n = int(rng.integers(2, dim + 1))
        p = wang.random_partition(dim, n, rng)
        for d in range(1, n):
            verdict = entcost.feasibility_test(entcost.operator_rank(p.blocks), d)
            assert not verdict.feasible
            assert stacked_rank(p.blocks) > d   # recomputed independently


def test_cost_report_verdict_invariant():
    row = entcost.CostReport("x", 2, 3, 1.0, 1.0, 1.0)
    assert row.verdict == "infeasible"
    row = entcost.CostReport("x", 3, 3, 1.0, 1.0, 1.0)
    assert row.verdict == "feasible"


def test_cost_report_verdict_is_the_feasibility_test():
    for d in range(1, 7):
        for n in range(1, 7):
            row = entcost.CostReport("x", d, n, 1.0, 1.0, 1.0)
            assert (row.verdict == "feasible") == entcost.feasibility_test(n, d).feasible


def test_compare_costs_diagonal_qubit():
    p = wang.diagonal_partition(2)
    comparison = entcost.compare_costs("wang", unit_program(p), p.blocks)
    wang_row, bqst_row = comparison.rows
    assert wang_row.ebits == pytest.approx(1.0)
    assert bqst_row.ebits == pytest.approx(2.0)
    assert comparison.wang_saves


def test_compare_costs_full_qubit_group_has_no_saving():
    # n = 4 controlled parameters on one qubit (the full single-qubit family)
    program = groupform.group_program(groupform.pauli_rep(), [1, 0, 0, 0])
    comparison = entcost.compare_costs("group", program, [np.eye(2)] * 4)
    wang_row, bqst_row = comparison.rows
    assert wang_row.ebits == pytest.approx(2.0)
    assert bqst_row.ebits == pytest.approx(2.0)
    assert not comparison.wang_saves


def test_multiqubit_diagonal_family_halves_the_cost():
    for n_qubits in (1, 2, 3):
        dim = 2**n_qubits
        p = wang.diagonal_partition(dim)
        comparison = entcost.compare_costs("wang", unit_program(p), p.blocks)
        wang_row, bqst_row = comparison.rows
        assert wang_row.ebits == pytest.approx(float(n_qubits))
        assert bqst_row.ebits == pytest.approx(2.0 * n_qubits)
        assert wang_row.ebits / bqst_row.ebits == pytest.approx(0.5)


def test_wang_row_matches_consumed_resource_rank():
    rng = np.random.default_rng(5)
    p = wang.random_partition(5, 3, rng)
    comparison = entcost.compare_costs("wang", unit_program(p), p.blocks)
    resource = locc.maximally_entangled(p.n)
    assert comparison.rows[0].schmidt_rank == qcore.schmidt(resource, [0]).rank


def test_render_cost_table_alignment():
    p = wang.diagonal_partition(2)
    comparison = entcost.compare_costs("wang", unit_program(p), p.blocks)
    text = cli.render_cost_table(comparison.rows)
    lines = text.splitlines()
    assert lines[0].startswith("protocol")
    assert len(lines) == 3
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_teleport_identity_roundtrip():
    rng = np.random.default_rng(6)
    psi = random_state(2, rng)
    branches, report = entcost.bqst_teleport(np.eye(2, dtype=complex), psi)
    assert len(branches) == 16
    assert report.ebits == pytest.approx(2.0)
    assert report.bits_alice_to_bob == pytest.approx(2.0)
    for branch in branches:
        assert qcore.factor_overlap(branch.state, psi.amplitudes, 4) >= 1 - 1e-9


def test_teleport_report_is_the_bqst_cost_row():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        _, report = entcost.bqst_teleport(qcore.random_unitary(dim, rng), random_state(dim, rng))
        p = wang.diagonal_partition(dim)
        row = entcost.compare_costs("wang", unit_program(p), p.blocks).rows[1]
        assert report.controlled_parameters == dim * dim
        assert dataclasses.replace(report, controlled_parameters=dim) == row


def test_teleport_random_qubit_unitary():
    rng = np.random.default_rng(7)
    u = qcore.random_unitary(2, rng)
    psi = random_state(2, rng)
    expected = u @ psi.amplitudes
    branches, _ = entcost.bqst_teleport(u, psi)
    total = sum(b.probability for b in branches)
    assert abs(total - 1.0) <= 1e-10
    for branch in branches:
        assert qcore.factor_overlap(branch.state, expected, 4) >= 1 - 1e-9


def test_teleport_rejects_nonunitary():
    rng = np.random.default_rng(8)
    with pytest.raises(NonUnitary):
        entcost.bqst_teleport(np.ones((2, 2)), random_state(2, rng))


def test_program_cost_equals_the_closed_forms():
    # each row is read off its program, so compare it exactly with the
    # formulas it replaced: (n, log2 n, log2 n, log2 n) and (D^2, 2 log2 D, ...)
    rng = np.random.default_rng(13)
    for dim in range(1, 9):
        for n in range(1, dim + 1):
            p = wang.random_partition(dim, n, rng)
            row = entcost.program_cost("wang", wang.wang_program(p, wang.random_phases(n, rng)), n)
            assert row == block_cost_row("wang", n, n)
    reps = [groupform.cyclic_character_rep(3), groupform.cyclic_character_rep(5),
            klein_character_rep(), groupform.pauli_rep(), groupform.dihedral3_rep()]
    for rep in reps:
        n = rep.group.order
        program = groupform.group_program(rep, np.eye(n)[rep.group.identity])
        assert entcost.program_cost("group", program, n) == block_cost_row("group", n, n)
    for dim in range(1, 6):
        program = entcost.bqst_program(qcore.random_unitary(dim, rng))
        assert entcost.program_cost("bqst", program, dim * dim) == bqst_cost_row(dim, dim * dim)
        svd = wang.svd_program(wang.svd_remote(qcore.random_unitary(dim, rng)))
        assert entcost.program_cost("wang", svd, dim) == block_cost_row("wang", dim, dim)

