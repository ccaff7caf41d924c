"""Block-partition validation, step operators, protocol exactness, and the
three-stage split for arbitrary unitaries."""

import tracemalloc

import numpy as np
import pytest

from qremote import locc, qcore, wang
from qremote.errors import IncompleteBlocks, NonFinite, NonUnitary, OverlappingBlocks

from util import (
    fidelity,
    random_diag_phases,
    random_state,
    reference_validate_partition,
    step_operators,
)


def _random_setup(dim, n, rng):
    p = wang.random_partition(dim, n, rng)
    phases = wang.random_phases(n, rng)
    psi = random_state(dim, rng)
    return p, phases, psi


def projector_ranks(p):
    """Rank of each block read as the trace of its projector A_i^dag A_i."""
    return tuple(int(round(np.trace(proj).real)) for proj in wang.projectors(p))


def test_diagonal_blocks_validate_with_unit_ranks():
    p = wang.diagonal_partition(4)
    assert projector_ranks(p) == (1, 1, 1, 1)
    assert projector_ranks(p) == tuple(np.linalg.matrix_rank(b) for b in p.blocks)
    assert p.n == 4 and p.dim == 4


def test_identical_blocks_overlap():
    with pytest.raises(OverlappingBlocks):
        wang.validate_partition([np.eye(2), np.eye(2)])


def test_missing_blocks_are_incomplete():
    proj = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(IncompleteBlocks):
        wang.validate_partition([proj])


def test_non_finite_block_entries_are_named():
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        block = np.zeros((2, 2), dtype=complex)
        block[0, 0] = bad
        with pytest.raises(NonFinite):
            wang.validate_partition([block, np.diag([0.0, 1.0])])


def test_partition_from_split_bases():
    rng = np.random.default_rng(0)
    p = wang.partition_from_bases(
        qcore.random_unitary(4, rng), qcore.random_unitary(4, rng), (2, 1, 1)
    )
    assert projector_ranks(p) == (2, 1, 1)
    # revalidating the produced blocks reproduces the same structure
    again = wang.validate_partition(p.blocks)
    assert projector_ranks(again) == (2, 1, 1)


def near_tolerance_blocks(kind, rng):
    """Blocks of a random valid partition at D = 2..16, pushed to the edge of
    validity.

    "noise": complex Gaussian noise of 1e-13 to 1e-7 on every block.
    "scale": one block scaled by 1 +- eps, eps from 1e-13 to 1e-7.
    "spurious": one block gains delta |x><y| with delta just above RANK_TOL,
    y in its kernel and x off its range, so the Gram checks can pass while
    the block has a singular value that is neither 0 nor 1.
    """
    dim = int(rng.integers(2, 17))
    if kind != "spurious":
        blocks = np.array(wang.random_partition(dim, int(rng.integers(1, dim + 1)), rng).blocks)
        eps = 10.0 ** rng.uniform(-13, -7)
        if kind == "noise":
            blocks += eps * (rng.normal(size=blocks.shape) + 1j * rng.normal(size=blocks.shape))
        else:
            blocks[rng.integers(len(blocks))] *= 1 + rng.choice((-1, 1)) * eps
        return blocks
    n = int(rng.integers(2, dim + 1))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n - 1, replace=False))
    edges = np.concatenate(([0], cuts, [dim]))
    u_basis, v_basis = qcore.random_unitary(dim, rng), qcore.random_unitary(dim, rng)
    blocks = np.array(wang.partition_from_bases(u_basis, v_basis, np.diff(edges)).blocks)
    i = int(rng.integers(n))
    outside = np.ones(dim, dtype=bool)
    outside[edges[i] : edges[i + 1]] = False
    x = v_basis[:, outside] @ random_state(int(outside.sum()), rng).amplitudes
    y = u_basis[:, outside] @ random_state(int(outside.sum()), rng).amplitudes
    blocks[i] += rng.uniform(1.05, 2.0) * qcore.RANK_TOL * np.outer(x, y.conj())
    return blocks


REJECTIONS = {
    "overlap": "overlap: max",
    "identity": "deviates from identity",
    "singular": "singular values",
    "ranks": "do not sum",
    "rebuild": "singular form",
}


def assert_runs_on_the_singular_factors(p, factors, rng):
    """P, R_m and every run_wang branch against the operators the oracle's
    singular factors give: P_i = V_r V_r^dag, R_m = sum_j e^{-2 pi i mj/n}
    W_r V_r^dag and the target sum_i c_i W_r V_r^dag; the branches also
    against wang.assemble, which must accept the partition."""
    exact = np.array([w @ vh for w, vh in factors])
    np.testing.assert_allclose(
        wang.projectors(p), [vh.conj().T @ vh for _, vh in factors], atol=1e-12
    )
    for m in range(p.n):
        phases = np.exp(-2j * np.pi * m * np.arange(p.n) / p.n)
        np.testing.assert_allclose(
            wang.recovery(p, m), np.tensordot(phases, exact, axes=1), atol=1e-12
        )
    phases = wang.random_phases(p.n, rng)
    psi = random_state(p.dim, rng)
    target = np.tensordot(phases.values, exact, axes=1) @ psi.amplitudes
    target = qcore.StateVector(target, (p.dim,))
    direct = qcore.StateVector(wang.assemble(p, phases) @ psi.amplitudes, (p.dim,))
    for b in wang.run_wang(p, phases, psi):
        assert fidelity(b.output, target) > 1 - 1e-9
        assert fidelity(b.output, direct) >= 1 - 1e-9


def test_validate_partition_matches_the_pairwise_oracle():
    # both accept with the same ranks and the accepted partition runs on the
    # oracle's operators and on its own assemble, or both raise the same
    # class and message
    rng = np.random.default_rng(13)
    verdicts, drift = set(), 0.0
    for kind in ("noise", "scale", "spurious") * 110:
        blocks = near_tolerance_blocks(kind, rng)
        try:
            factors = reference_validate_partition(blocks)
        except (IncompleteBlocks, OverlappingBlocks) as exc:
            with pytest.raises(type(exc)) as got:
                wang.validate_partition(blocks)
            assert str(got.value) == str(exc)
            verdicts.add(next(rule for rule, text in REJECTIONS.items() if text in str(exc)))
        else:
            p = wang.validate_partition(blocks)
            assert projector_ranks(p) == tuple(vh.shape[0] for _, vh in factors)
            assert_runs_on_the_singular_factors(p, factors, rng)
            drift = max(drift, np.abs(p.blocks - blocks).max())
            verdicts.add("accepted")
    # the stored exact member stays near the given blocks (measured: 3.7e-10)
    assert drift <= 1e-8
    # the sweep reaches acceptance and every rule the near-tolerance cases can break
    assert verdicts >= {"accepted", "overlap", "identity", "singular"}


def test_blocks_off_isometry_within_tolerance_still_run():
    # accepted: completeness is off by 6e-10 and the singular value by 3e-10;
    # P built from the raw blocks would miss unitarity by 1.2e-9 > NORM_TOL
    blocks = [np.diag([1 + 3e-10, 0]), np.diag([0, 1])]
    p = wang.validate_partition(blocks)
    factors = reference_validate_partition(blocks)
    assert_runs_on_the_singular_factors(p, factors, np.random.default_rng(4))


def test_accepted_inputs_are_stored_as_the_exact_class_member():
    # |c_0|^2 - 1 = 1.6e-9 > NORM_TOL, yet |c_0| - 1 = 8e-10 is accepted:
    # Phases stores c/|c|, so C and sum_i c_i A_i come out unitary
    phases = wang.Phases([1 + 8e-10, 1j])
    np.testing.assert_allclose(np.abs(phases.values), 1.0, rtol=0, atol=1e-15)
    p = wang.validate_partition([np.diag([1 + 3e-10, 0]), np.diag([0, 1 - 2e-10])])
    np.testing.assert_allclose(p.blocks, [np.diag([1, 0]), np.diag([0, 1])], rtol=0, atol=1e-15)
    psi = random_state(2, np.random.default_rng(14))
    direct = qcore.StateVector(wang.assemble(p, phases) @ psi.amplitudes, (2,))
    for b in wang.run_wang(p, phases, psi):
        assert fidelity(b.output, direct) >= 1 - 1e-9


def test_the_exact_member_is_a_fixed_point_of_validation():
    # noisy blocks are moved onto the class; the member is left where it is,
    # and a permuted block order permutes it
    rng = np.random.default_rng(16)
    blocks = np.array(wang.random_partition(6, 3, rng).blocks)
    blocks += 1e-11 * (rng.normal(size=blocks.shape) + 1j * rng.normal(size=blocks.shape))
    p = wang.validate_partition(blocks)
    u = np.tensordot(random_diag_phases(3, rng), p.blocks, axes=1)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-14)
    np.testing.assert_allclose(wang.validate_partition(p.blocks).blocks, p.blocks, atol=1e-14)
    np.testing.assert_allclose(wang.validate_partition(blocks[::-1]).blocks, p.blocks[::-1], atol=1e-14)


def controlled_shift(p):
    """The P step of the block protocol's program."""
    return wang.wang_program(p, wang.Phases(np.ones(p.n))).steps[0].matrix


def test_controlled_shift_is_cnot_for_diagonal_qubit_case():
    program = wang.wang_program(wang.diagonal_partition(2), wang.Phases(np.ones(2)))
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    np.testing.assert_allclose(program.steps[0].matrix, cnot, atol=0)


def test_recovery_for_diagonal_qubit_case():
    # hand expansion: R_m = diag(1, e^{-i pi m}) for blocks |0><0|, |1><1|
    p = wang.diagonal_partition(2)
    np.testing.assert_allclose(wang.recovery(p, 0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(wang.recovery(p, 1), np.diag([1.0, -1.0]), atol=1e-12)


def test_controlled_shift_block_circulant_pattern():
    # the (a_out, a_in) block of P is P_{(a_in - a_out) mod N}
    rng = np.random.default_rng(1)
    for p in (wang.diagonal_partition(3), wang.random_partition(5, 3, rng)):
        projs = wang.projectors(p)
        blocks = controlled_shift(p).reshape(p.dim, p.n, p.dim, p.n)
        for r in range(p.n):
            for c in range(p.n):
                np.testing.assert_allclose(
                    blocks[:, r, :, c], projs[(c - r) % p.n], atol=1e-12
                )


def test_controlled_shift_equals_the_kron_sum():
    # P = sum_i P_i (x) X^i, built term by term as an independent oracle
    rng = np.random.default_rng(3)
    partitions = [wang.diagonal_partition(1), wang.diagonal_partition(4)]
    partitions += [wang.random_partition(d, n, rng) for d, n in ((2, 2), (5, 3), (6, 6), (7, 2))]
    for p in partitions:
        shift = qcore.shift_matrix(p.n)
        oracle = sum(
            np.kron(proj, np.linalg.matrix_power(shift, i))
            for i, proj in enumerate(wang.projectors(p))
        )
        np.testing.assert_array_equal(controlled_shift(p), oracle)


def test_recovery_with_no_outcome_maps_u_to_v():
    rng = np.random.default_rng(2)
    u_basis, v_basis = qcore.random_unitary(5, rng), qcore.random_unitary(5, rng)
    p = wang.partition_from_bases(u_basis, v_basis, (2, 1, 2))
    np.testing.assert_allclose(wang.recovery(p, 0) @ u_basis, v_basis, atol=1e-10)


def test_step_operators_are_unitary():
    rng = np.random.default_rng(3)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, dim + 1))
        p, phases, _ = _random_setup(dim, n, rng)
        l, m = int(rng.integers(n)), int(rng.integers(n))
        ops = step_operators(wang.wang_program(p, phases), {"l": l, "m": m})
        assert set(ops) == {"P", "X^l", "C", "F", "R_m"}
        for op in ops.values():
            assert np.abs(op.conj().T @ op - np.eye(op.shape[0])).max() <= 1e-9


def test_alice_side_operators_ignore_the_phases():
    rng = np.random.default_rng(4)
    p = wang.random_partition(4, 3, rng)
    outcomes = {"l": 1, "m": 2}
    one = step_operators(wang.wang_program(p, wang.random_phases(3, rng)), outcomes)
    two = step_operators(wang.wang_program(p, wang.random_phases(3, rng)), outcomes)
    np.testing.assert_array_equal(one["P"], two["P"])
    np.testing.assert_array_equal(one["R_m"], two["R_m"])


def test_branch_product_identity():
    # sqrt(N) R_m sum_j P_{(j-l)%N} <m|F C X^l|j>  ==  sum_i c_i A_i, every (l, m)
    rng = np.random.default_rng(5)
    for _ in range(5):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(2, dim + 1))
        p, phases, _ = _random_setup(dim, n, rng)
        u_direct = wang.assemble(p, phases)
        projs = wang.projectors(p)
        fourier = qcore.fourier_matrix(n)
        phase_gate = wang.phase_gate(phases)
        shift = qcore.shift_matrix(n)
        for l in range(n):
            bob = fourier @ phase_gate @ np.linalg.matrix_power(shift, l)
            for m in range(n):
                picked = sum(projs[(j - l) % n] * bob[m, j] for j in range(n))
                product = np.sqrt(n) * wang.recovery(p, m) @ picked
                assert np.abs(product - u_direct).max() <= 1e-9


def test_trivial_phases_give_identity_operation():
    rng = np.random.default_rng(6)
    p = wang.diagonal_partition(3)
    psi = random_state(3, rng)
    for branch in wang.run_wang(p, wang.Phases(np.ones(3)), psi):
        assert fidelity(branch.output, psi) >= 1 - 1e-9


def test_run_wang_matches_direct_application():
    rng = np.random.default_rng(7)
    for _ in range(8):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, dim + 1))
        p, phases, psi = _random_setup(dim, n, rng)
        expected = wang.assemble(p, phases) @ psi.amplitudes
        branches = wang.run_wang(p, phases, psi)
        assert len(branches) == n * n
        for branch in branches:
            assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9


def test_run_wang_branches_hold_only_their_outputs():
    # 256 branches at (D, n) = (16, 16): full states would take 16 MB, outputs 64 kB
    p, phases, psi = _random_setup(16, 16, np.random.default_rng(12))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        branches = wang.run_wang(p, phases, psi)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(branches) == 256
    assert held < 1_000_000


def test_resource_rank_and_final_disentanglement():
    rng = np.random.default_rng(8)
    p, phases, psi = _random_setup(5, 4, rng)
    resource = locc.maximally_entangled(p.n)
    assert qcore.schmidt(resource, [0]).rank == p.n
    for branch in wang.run_wang(p, phases, psi):
        # both ancillas end in basis states, unentangled from everything
        assert qcore.schmidt(branch.state, [1]).rank == 1
        assert qcore.schmidt(branch.state, [2]).rank == 1
        a_state = qcore.factor_state(branch.state, 1)
        assert abs(a_state.amplitudes[branch.outcomes["l"]]) == pytest.approx(1.0, abs=1e-9)


def test_trace_branch_agrees_with_protocol_run():
    rng = np.random.default_rng(9)
    p, phases, psi = _random_setup(4, 3, rng)
    branches = {(b.outcomes["l"], b.outcomes["m"]): b for b in wang.run_wang(p, phases, psi)}
    for (l, m), branch in branches.items():
        stages = wang.trace_branch(p, phases, psi, l, m)
        assert fidelity(stages[-1].state, branch.state) >= 1 - 1e-12


def test_svd_remote_diagonal_input_stays_diagonal():
    rng = np.random.default_rng(10)
    d = np.exp(2j * np.pi * rng.uniform(size=4))
    prog = wang.svd_remote(np.diag(d))
    np.testing.assert_allclose(prog.pre, np.eye(4), atol=1e-9)
    np.testing.assert_allclose(prog.post, np.eye(4), atol=1e-9)
    np.testing.assert_allclose(prog.diagonal, d, atol=1e-9)


def test_svd_remote_rejects_nonunitary():
    with pytest.raises(NonUnitary):
        wang.svd_remote(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_svd_remote_hadamard():
    rng = np.random.default_rng(11)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    prog = wang.svd_remote(h)
    recon = prog.post @ np.diag(prog.diagonal) @ prog.pre
    assert np.abs(recon - h).max() <= 1e-9
    for _ in range(5):
        psi = random_state(2, rng)
        expected = h @ psi.amplitudes
        for res in wang.run_svd_remote(prog, psi):
            assert abs(np.vdot(expected, res.output.amplitudes)) >= 1 - 1e-9


def test_svd_remote_random_unitary():
    rng = np.random.default_rng(12)
    u = qcore.random_unitary(4, rng)
    prog = wang.svd_remote(u)
    assert np.abs(np.abs(prog.diagonal) - 1.0).max() <= 1e-9
    psi = random_state(4, rng)
    expected = u @ psi.amplitudes
    results = wang.run_svd_remote(prog, psi)
    assert len(results) == 16
    for res in results:
        assert abs(np.vdot(expected, res.output.amplitudes)) >= 1 - 1e-9


def test_svd_remote_transcripts_run_from_pre_to_post():
    rng = np.random.default_rng(13)
    prog = wang.svd_remote(qcore.random_unitary(3, rng))
    for branch in wang.run_svd_remote(prog, random_state(3, rng)):
        lines = locc.transcript_lines(branch.transcript)
        assert lines[0] == "LOCALOP|alice|pre|0"
        assert lines[-1] == "LOCALOP|alice|post|0"
