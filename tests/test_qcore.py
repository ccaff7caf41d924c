"""State and operator primitives: tensor products, local application,
exhaustive measurement, Schmidt decomposition, Fourier/shift gates."""

import warnings

import numpy as np
import pytest

from qremote import groupform, qcore, wang
from qremote.errors import (
    DimensionMismatch, EntangledFactor, NonFinite, NonUnitary, NotNormalized,
)
from qremote.qcore import StateVector

from util import basis_state, fidelity, klein_character_rep, random_state, schmidt_reconstruct


def test_tensor_identity_matrices():
    np.testing.assert_allclose(
        qcore.tensor(np.eye(2), np.eye(3)), np.eye(6), atol=0
    )


def test_tensor_states_concatenates_factors():
    s = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2))
    assert s.factor_dims == (2, 2)
    np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0], atol=0)


def test_basis_state_indexing():
    s = basis_state((1, 0), (2, 3))
    np.testing.assert_allclose(s.amplitudes, np.eye(6)[3], atol=0)
    with pytest.raises(DimensionMismatch):
        basis_state((2, 0), (2, 3))


def test_tensor_builds_the_shared_resource():
    # (1/sqrt3) sum_k |k>|k> assembled from basis tensors
    amps = sum(
        qcore.tensor(qcore.ket(k, 3), qcore.ket(k, 3)).amplitudes for k in range(3)
    ) / np.sqrt(3)
    resource = StateVector(amps, (3, 3))
    expected = np.zeros(9, dtype=complex)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(resource.amplitudes, expected, atol=1e-15)


def test_kron_sum_is_the_kron_loop_bitwise():
    # every coupling the protocols build: wang P, group P and bqst CX^-1
    def shifts(n):
        return [np.linalg.matrix_power(qcore.shift_matrix(n), i) for i in range(n)]

    def labels(n):
        return [np.diag(row) for row in np.eye(n)]

    rng = np.random.default_rng(7)
    partitions = [wang.diagonal_partition(1), wang.diagonal_partition(4)]
    partitions += [wang.random_partition(d, n, rng) for d, n in ((3, 2), (6, 4), (8, 8))]
    cases = [(wang.projectors(p), shifts(p.n)) for p in partitions]
    reps = [groupform.cyclic_character_rep(3), groupform.cyclic_character_rep(5),
            klein_character_rep(), groupform.pauli_rep(), groupform.dihedral3_rep()]
    cases += [(rep.matrices, labels(rep.group.order)) for rep in reps]
    cases += [(labels(d), shifts(d)) for d in range(1, 6)]
    for left, right in cases:
        oracle = sum(np.kron(a, b) for a, b in zip(left, right))
        np.testing.assert_array_equal(qcore.kron_sum(left, right), oracle)
    with pytest.raises(DimensionMismatch):
        qcore.kron_sum([np.eye(2)], shifts(2))


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        qcore.tensor(np.eye(2), qcore.ket(0, 2))


def test_apply_identity_is_noop():
    rng = np.random.default_rng(0)
    s = random_state(6, rng)
    s2 = qcore.apply_local(np.eye(2), StateVector(s.amplitudes, (2, 3)), [0])
    np.testing.assert_allclose(s2.amplitudes, s.amplitudes, atol=0)


def test_shift_on_single_qutrit():
    # X|k> = |k-1 mod 3|, so X|0> = |2>
    out = qcore.apply_local(qcore.shift_matrix(3), qcore.ket(0, 3), [0])
    np.testing.assert_allclose(out.amplitudes, qcore.ket(2, 3).amplitudes, atol=0)


def test_apply_then_adjoint_restores_state():
    rng = np.random.default_rng(1)
    for dims, targets in [((4,), [0]), ((2, 3), [1]), ((2, 3, 2), [2, 0])]:
        s = random_state(int(np.prod(dims)), rng)
        s = StateVector(s.amplitudes, dims)
        d = int(np.prod([dims[t] for t in targets]))
        u = qcore.random_unitary(d, rng)
        roundtrip = qcore.apply_local(u.conj().T, qcore.apply_local(u, s, targets), targets)
        assert np.abs(roundtrip.amplitudes - s.amplitudes).max() <= 1e-12


def test_apply_local_rejects_bad_input():
    s = qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2))
    with pytest.raises(NonUnitary):
        qcore.apply_local(np.array([[1, 1], [0, 1]]), s, [0])
    with pytest.raises(DimensionMismatch):
        qcore.apply_local(np.eye(3), s, [0])
    with pytest.raises(DimensionMismatch):
        qcore.apply_local(np.eye(2), s, [5])


def test_measure_maximally_entangled_pair():
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4, 8]] = 1 / np.sqrt(3)
    outcomes = qcore.measure_computational(StateVector(amps, (3, 3)), 0)
    assert [o.outcome for o in outcomes] == [0, 1, 2]
    for o in outcomes:
        assert o.probability == pytest.approx(1 / 3, abs=1e-12)


def test_measure_basis_state_is_deterministic():
    outcomes = qcore.measure_computational(qcore.ket(1, 2), 0)
    assert len(outcomes) == 1
    assert outcomes[0].outcome == 1
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


def test_measurement_after_controlled_shift_matches_corrected_form():
    # diagonal projectors at N=3: apply sum_i P_i (x) X^i to psi (x) resource,
    # measure the middle register, undo with X^l on the last one
    rng = np.random.default_rng(2)
    n = 3
    psi = random_state(n, rng)
    resource = np.zeros(n * n, dtype=complex)
    resource[[0, 4, 8]] = 1 / np.sqrt(n)
    state = qcore.tensor(psi, StateVector(resource, (n, n)))
    shift = qcore.shift_matrix(n)
    projs = [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]
    ctrl = sum(
        np.kron(projs[i], np.linalg.matrix_power(shift, i)) for i in range(n)
    )
    state = qcore.apply_local(ctrl, state, [0, 1])

    expected = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        expected[:, 0, i] = projs[i] @ psi.amplitudes   # sum_i P_i|psi> (x) |i>_b
    for branch in qcore.measure_computational(state, 1):
        corrected = qcore.apply_local(
            np.linalg.matrix_power(shift, branch.outcome), branch.post_state, [2]
        )
        got = corrected.tensor_form()[:, branch.outcome, :]
        np.testing.assert_allclose(got, expected[:, 0, :], atol=1e-12)


def test_measurement_probabilities_complete():
    rng = np.random.default_rng(3)
    for _ in range(25):
        s = StateVector(random_state(12, rng).amplitudes, (3, 2, 2))
        for factor in range(3):
            total = sum(o.probability for o in qcore.measure_computational(s, factor))
            assert abs(total - 1.0) <= 1e-10


def test_schmidt_product_state():
    form = qcore.schmidt(qcore.tensor(qcore.ket(0, 2), qcore.ket(0, 2)), [0])
    assert form.rank == 1
    assert form.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_of_maximally_entangled():
    for n in range(2, 9):
        amps = np.zeros(n * n, dtype=complex)
        amps[:: n + 1] = 1 / np.sqrt(n)
        form = qcore.schmidt(StateVector(amps, (n, n)), [0])
        assert form.rank == n
        np.testing.assert_allclose(form.coefficients, np.full(n, 1 / np.sqrt(n)), atol=1e-12)


def test_schmidt_two_term_state():
    # hand SVD of [[sqrt(.8), 0], [0, sqrt(.2)]]
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = np.sqrt(0.8), np.sqrt(0.2)
    form = qcore.schmidt(StateVector(amps, (2, 2)), [0])
    assert form.rank == 2
    np.testing.assert_allclose(form.coefficients, [np.sqrt(0.8), np.sqrt(0.2)], atol=1e-12)


def test_schmidt_reconstruction():
    rng = np.random.default_rng(4)
    for dims, cut in [((2, 2), [0]), ((3, 4), [1]), ((2, 3, 2), [0, 2])]:
        s = StateVector(random_state(int(np.prod(dims)), rng).amplitudes, dims)
        rebuilt = schmidt_reconstruct(qcore.schmidt(s, cut))
        assert np.abs(rebuilt.amplitudes - s.amplitudes).max() <= 1e-10


def test_fourier_matrix_small_cases():
    np.testing.assert_allclose(qcore.fourier_matrix(1), [[1]], atol=1e-15)
    w = np.exp(2j * np.pi / 3)
    expected = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w**4]]) / np.sqrt(3)
    np.testing.assert_allclose(qcore.fourier_matrix(3), expected, atol=1e-15)


def test_fourier_matrix_unitary():
    for n in range(2, 17):
        f = qcore.fourier_matrix(n)
        assert np.abs(f.conj().T @ f - np.eye(n)).max() <= 1e-12


def test_shift_matrix_cases():
    np.testing.assert_allclose(qcore.shift_matrix(2), [[0, 1], [1, 0]], atol=0)
    # the row-vector (transposed) form of the 3-dim shift
    np.testing.assert_allclose(
        qcore.shift_matrix(3).T, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=0
    )
    for n in range(2, 9):
        x = qcore.shift_matrix(n)
        np.testing.assert_allclose(np.linalg.matrix_power(x, n), np.eye(n), atol=0)


def test_fourier_conjugation_diagonalizes_shift():
    for n in range(2, 9):
        f = qcore.fourier_matrix(n)
        conj = f @ qcore.shift_matrix(n) @ f.conj().T
        expected = np.diag(np.exp(-2j * np.pi * np.arange(n) / n))
        assert np.abs(conj - expected).max() <= 1e-10


def test_unitary_application_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = StateVector(random_state(8, rng).amplitudes, (2, 2, 2))
        u = qcore.random_unitary(4, rng)
        out = qcore.apply_local(u, s, [0, 2])
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


def test_factor_overlap_and_extraction():
    rng = np.random.default_rng(6)
    psi = random_state(3, rng)
    chi = random_state(4, rng)
    joint = qcore.tensor(psi, chi)
    assert qcore.factor_overlap(joint, psi.amplitudes, 0) == pytest.approx(1.0, abs=1e-12)
    extracted = qcore.factor_state(joint, 1)
    assert fidelity(extracted, chi) == pytest.approx(1.0, abs=1e-12)

    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    assert qcore.factor_overlap(bell, np.array([1, 0]), 0) == pytest.approx(
        1 / np.sqrt(2), abs=1e-12
    )
    with pytest.raises(ValueError):
        qcore.factor_state(bell, 0)


def test_state_vector_invariants():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), (2,))
    with pytest.raises(DimensionMismatch):
        StateVector(np.array([1.0, 0.0]), (3,))


@pytest.mark.parametrize("amp", [1e308, np.nan, np.inf])
def test_non_finite_norm_is_named_without_a_numpy_warning(amp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            StateVector(np.array([amp, 0.0]), (2,))


def test_state_vector_copies_writable_arrays_and_keeps_frozen_ones():
    amps = np.array([1.0, 0.0], dtype=complex)
    state = StateVector(amps, (2,))
    amps[0] = 0.0
    assert state.amplitudes[0] == 1.0
    assert not state.amplitudes.flags.writeable
    amps[0] = 1.0
    amps.setflags(write=False)
    assert np.shares_memory(StateVector(amps, (2,)).amplitudes, amps)



def test_executor_invariants_raise_named_value_errors():
    with pytest.raises(NotNormalized):
        StateVector(np.array([1.0, 1.0]), (2,))
    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    with pytest.raises(EntangledFactor):
        qcore.factor_state(bell, 0)
    assert issubclass(NotNormalized, ValueError) and issubclass(EntangledFactor, ValueError)
