"""Rank accounting, feasibility certificates, cost comparison, and the
teleport-both-ways baseline."""

import dataclasses

import numpy as np
import pytest

from qremote import entcost, locc, qcore, wang
from qremote.errors import DimensionMismatch, NonUnitary
from qremote.qcore import StateVector

from util import random_state, stacked_rank


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
    with pytest.raises(DimensionMismatch):
        entcost.compare_costs([], 2)


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
    blocks = wang.diagonal_partition(2).blocks
    comparison = entcost.compare_costs(blocks, 2)
    wang_row, bqst_row = comparison.rows
    assert wang_row.ebits == pytest.approx(1.0)
    assert bqst_row.ebits == pytest.approx(2.0)
    assert comparison.wang_saves


def test_compare_costs_full_qubit_group_has_no_saving():
    # n = 4 controlled parameters on one qubit (the full single-qubit family)
    comparison = entcost.compare_costs([np.eye(2)] * 4, 2, protocol="group")
    wang_row, bqst_row = comparison.rows
    assert wang_row.ebits == pytest.approx(2.0)
    assert bqst_row.ebits == pytest.approx(2.0)
    assert not comparison.wang_saves


def test_multiqubit_diagonal_family_halves_the_cost():
    for n_qubits in (1, 2, 3):
        dim = 2**n_qubits
        blocks = wang.diagonal_partition(dim).blocks
        comparison = entcost.compare_costs(blocks, dim)
        wang_row, bqst_row = comparison.rows
        assert wang_row.ebits == pytest.approx(float(n_qubits))
        assert bqst_row.ebits == pytest.approx(2.0 * n_qubits)
        assert wang_row.ebits / bqst_row.ebits == pytest.approx(0.5)


def test_wang_row_matches_consumed_resource_rank():
    rng = np.random.default_rng(5)
    p = wang.random_partition(5, 3, rng)
    comparison = entcost.compare_costs(p.blocks, p.dim)
    resource = locc.maximally_entangled(p.n)
    assert comparison.rows[0].schmidt_rank == qcore.schmidt(resource, [0]).rank


def test_render_cost_table_alignment():
    comparison = entcost.compare_costs(wang.diagonal_partition(2).blocks, 2)
    text = entcost.render_cost_table(comparison.rows)
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
        row = entcost.compare_costs(wang.diagonal_partition(dim).blocks, dim).rows[1]
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
