"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every expected value is computed by an independent oracle (direct
matrix application, explicit formulas, or independent rank counts). Each
exactness criterion bounds every branch's phase-aligned residual
||out - e^{i theta} U psi|| by 1e-9 beside its fidelity check: the residual
is linear in an operator fault, so a 1e-5 rad fault fails it, where the
fidelity moves by 1e-10 and passes.
"""

EXACT = 1e-9   # the largest residual an exact branch may show

import functools
import time

import numpy as np
import pytest

from qremote import entcost, groupform, qcore, wang

from util import (
    fidelity,
    klein_character_rep,
    residual,
    random_block_diagonal_unitary,
    random_diag_phases,
    random_state,
    stacked_rank,
    unit_program,
)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return decorate


@criterion("criterion 1 (wang protocol exactness, 50 random partitions)")
def test_criterion_1_wang_exactness():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, min(dim, 8) + 1))
        p = wang.random_partition(dim, n, rng)
        phases = wang.random_phases(n, rng)
        psi = random_state(dim, rng)
        expected = wang.assemble(p, phases) @ psi.amplitudes
        branches = wang.run_wang(p, phases, psi)
        assert len(branches) == n * n
        for branch in branches:
            assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9
            assert residual(branch.output.amplitudes, expected) <= EXACT
    assert time.perf_counter() - started < 10.0


@criterion("criterion 2 (golden trace, N=3 diagonal, branch l=1 m=2)")
def test_criterion_2_golden_trace():
    n = 3
    p = wang.diagonal_partition(n)
    c = np.array([1.0, np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 7)])
    amps = np.array([1.0, 1.0 + 1.0j, 2.0 - 1.0j])
    psi = qcore.StateVector(amps / np.linalg.norm(amps), (n,))
    stages = wang.trace_branch(p, wang.Phases(c), psi, 1, 2)

    # after step 2: sum_j psi_j |j>_A |1>_a |j>_b
    expected2 = np.zeros((n, n, n), dtype=complex)
    for j in range(n):
        expected2[j, 1, j] = psi.amplitudes[j]
    np.testing.assert_allclose(stages[2].state.tensor_form(), expected2, atol=1e-10)

    # after step 4 (m=2): sum_j e^{4 pi i j / 3} c_j psi_j |j>_A |1>_a |2>_b
    expected4 = np.zeros((n, n, n), dtype=complex)
    for j in range(n):
        expected4[j, 1, 2] = np.exp(4j * np.pi * j / 3) * c[j] * psi.amplitudes[j]
    np.testing.assert_allclose(stages[4].state.tensor_form(), expected4, atol=1e-10)


@criterion("criterion 3 (group protocol exactness: cyclic characters and Pauli)")
def test_criterion_3_group_exactness():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    # (a) cyclic characters with inverse-Fourier coefficients
    for n in (2, 3, 4):
        rep = groupform.cyclic_character_rep(n)
        for _ in range(3):
            diag = random_diag_phases(n, rng)
            grid = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
            c = grid @ diag / n
            psi = random_state(n, rng)
            expected = np.diag(diag) @ psi.amplitudes
            for branch in groupform.run_group_protocol(rep, c, psi):
                assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9
                assert residual(branch.output.amplitudes, expected) <= EXACT
    # (b) Pauli rep expanding random single-qubit unitaries
    rep = groupform.pauli_rep()
    for _ in range(20):
        u = qcore.random_unitary(2, rng)
        c = np.array([np.trace(m.conj().T @ u) / 2 for m in rep.matrices])
        psi = random_state(2, rng)
        expected = u @ psi.amplitudes
        branches = groupform.run_group_protocol(rep, c, psi)
        assert len(branches) == 16
        for branch in branches:
            assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9
            assert residual(branch.output.amplitudes, expected) <= EXACT
    assert time.perf_counter() - started < 10.0


@criterion("criterion 4 (coefficient round trip on block-diagonal unitaries)")
def test_criterion_4_coefficient_round_trip():
    rng = np.random.default_rng(104)
    cases = (
        (groupform.cyclic_character_rep(2), (1, 1)),
        (groupform.cyclic_character_rep(3), (1, 1, 1)),
        (groupform.cyclic_character_rep(4), (1, 1, 1, 1)),
        (klein_character_rep(), (1, 1, 1, 1)),
        (groupform.pauli_rep(), (2,)),
    )
    for rep, dims in cases:
        decomp = groupform.block_decomposition(rep, dims)
        for _ in range(100):
            target = random_block_diagonal_unitary(decomp, rng)
            c = groupform.coefficients_from_unitary(target, decomp)
            reassembled = sum(cf * m for cf, m in zip(c, rep.matrices))
            assert np.abs(reassembled - target).max() <= 1e-9


@criterion("criterion 5 (wang and group protocols agree on diagonal operations)")
def test_criterion_5_cross_protocol_consistency():
    rng = np.random.default_rng(105)
    for n in (2, 3, 4):
        diag = random_diag_phases(n, rng)
        psi = random_state(n, rng)
        partition = wang.diagonal_partition(n)
        wang_branches = {
            (b.outcomes["l"], b.outcomes["m"]): b
            for b in wang.run_wang(partition, wang.Phases(diag), psi)
        }
        rep = groupform.cyclic_character_rep(n)
        decomp = groupform.block_decomposition(rep, (1,) * n)
        c = groupform.coefficients_from_unitary(np.diag(diag), decomp)
        group_branches = {
            (b.outcomes["g"], b.outcomes["h"]): b
            for b in groupform.run_group_protocol(rep, c, psi)
        }
        assert wang_branches.keys() == group_branches.keys()
        for key, wb in wang_branches.items():
            assert fidelity(wb.output, group_branches[key].output) >= 1 - 1e-9
            assert residual(wb.output.amplitudes, group_branches[key].output.amplitudes) <= EXACT


@criterion("criterion 6 (rank lower bound with sound certificates)")
def test_criterion_6_lower_bound():
    rng = np.random.default_rng(106)
    for n in range(2, 7):
        for _ in range(3):
            dim = int(rng.integers(n, 9))
            p = wang.random_partition(dim, n, rng)
            assert entcost.operator_rank(p.blocks) == n
            flags = []
            for d in range(1, n + 3):
                verdict = entcost.feasibility_test(entcost.operator_rank(p.blocks), d)
                flags.append(verdict.feasible)
                if d < n:
                    assert not verdict.feasible
                    assert f"operator_rank(blocks) = {n} > d = {d}" in verdict.certificate
                    assert stacked_rank(p.blocks) > d   # independent recount
                else:
                    assert verdict.feasible
            assert flags == sorted(flags)   # monotone in d


@criterion("criterion 7 (cost table and the half-cost diagonal family)")
def test_criterion_7_resource_comparison():
    rng = np.random.default_rng(107)
    for _ in range(5):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, dim + 1))
        p = wang.random_partition(dim, n, rng)
        rows = entcost.compare_costs("wang", unit_program(p), p.blocks).rows
        assert rows[0].ebits == pytest.approx(np.log2(n))
        assert rows[1].ebits == pytest.approx(2 * np.log2(dim))
    for n_qubits in (1, 2, 3):
        dim = 2**n_qubits
        p = wang.diagonal_partition(dim)
        rows = entcost.compare_costs("wang", unit_program(p), p.blocks).rows
        assert rows[0].ebits / rows[1].ebits == 0.5


@criterion("criterion 8 (teleport-apply-teleport baseline at D=2,3)")
def test_criterion_8_bqst_baseline():
    rng = np.random.default_rng(108)
    for dim in (2, 3):
        u = qcore.random_unitary(dim, rng)
        psi = random_state(dim, rng)
        expected = u @ psi.amplitudes
        branches, report = entcost.bqst_teleport(u, psi)
        assert len(branches) == dim**4
        assert report.ebits == pytest.approx(2 * np.log2(dim))
        for branch in branches:
            assert qcore.factor_overlap(branch.state, expected, 4) >= 1 - 1e-9
            assert residual(branch.output.amplitudes, expected) <= EXACT


@criterion("criterion 9 (three-stage split for arbitrary unitaries)")
def test_criterion_9_svd_extension():
    rng = np.random.default_rng(109)
    for dim in (2, 4):
        for _ in range(10):
            u = qcore.random_unitary(dim, rng)
            prog = wang.svd_remote(u)
            # the remotely implemented factor is diagonal with unimodular entries
            assert np.abs(np.abs(prog.diagonal) - 1.0).max() <= 1e-9
            for block in prog.partition.blocks:
                assert np.abs(block - np.diag(np.diag(block))).max() <= 1e-12
            psi = random_state(dim, rng)
            expected = u @ psi.amplitudes
            for res in wang.run_svd_remote(prog, psi):
                assert abs(np.vdot(expected, res.output.amplitudes)) >= 1 - 1e-9
                assert residual(res.output.amplitudes, expected) <= EXACT
