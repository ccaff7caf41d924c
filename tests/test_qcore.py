"""State and operator primitives: tensor products, local application,
exhaustive measurement, Schmidt decomposition, Fourier/shift gates."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qremote import groupform, qcore, wang
from qremote.errors import (
    DimensionMismatch, EntangledFactor, NonFinite, NonUnitary, NotNormalized, UnsupportedProblem,
)
from qremote.qcore import StateVector

from util import (
    basis_state,
    dense_factor_overlap,
    fidelity,
    klein_character_rep,
    kron_sum,
    random_state,
    schmidt_reconstruct,
    shift_matrix,
)


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
        return [np.linalg.matrix_power(shift_matrix(n), i) for i in range(n)]

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
        np.testing.assert_array_equal(kron_sum(left, right), oracle)
    with pytest.raises(DimensionMismatch):
        kron_sum([np.eye(2)], shifts(2))


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
    out = qcore.apply_local(shift_matrix(3), qcore.ket(0, 3), [0])
    np.testing.assert_allclose(out.amplitudes, qcore.ket(2, 3).amplitudes, atol=0)


def test_shift_powers_are_the_powers_of_the_shift():
    for n in range(1, 7):
        shift = np.zeros((n, n))
        for k in range(n):
            shift[(k - 1) % n, k] = 1.0   # |k> -> |k-1 mod n>
        powers = qcore.shift_powers(n)
        for i in range(n):
            np.testing.assert_array_equal(powers[i], np.linalg.matrix_power(shift, i))


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
    shift = shift_matrix(n)
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
    np.testing.assert_allclose(shift_matrix(2), [[0, 1], [1, 0]], atol=0)
    # the row-vector (transposed) form of the 3-dim shift
    np.testing.assert_allclose(
        shift_matrix(3).T, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=0
    )
    for n in range(2, 9):
        x = shift_matrix(n)
        np.testing.assert_allclose(np.linalg.matrix_power(x, n), np.eye(n), atol=0)


def test_fourier_conjugation_diagonalizes_shift():
    for n in range(2, 9):
        f = qcore.fourier_matrix(n)
        conj = f @ shift_matrix(n) @ f.conj().T
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


def test_factor_overlap_matches_dense_oracle_on_every_factor():
    rng = np.random.default_rng(61)
    for count in range(1, 6):
        for _ in range(4):
            dims = tuple(int(d) for d in rng.integers(1, 5, size=count))
            parts = [random_state(d, rng) for d in dims]
            product = parts[0]
            for part in parts[1:]:
                product = qcore.tensor(product, part)
            entangled = StateVector(random_state(math.prod(dims), rng).amplitudes, dims)
            for f, d in enumerate(dims):
                # the factor's own state, and a vector of norm != 1
                for vec in (parts[f].amplitudes, 2.5 * random_state(d, rng).amplitudes):
                    for state in (product, entangled):
                        got = qcore.factor_overlap(state, vec, f)
                        assert abs(got - dense_factor_overlap(state, vec, f)) <= 1e-12
                assert qcore.factor_overlap(product, parts[f].amplitudes, f) == pytest.approx(
                    1.0, abs=1e-12
                )


def test_factor_overlap_rejects_a_bad_factor_or_vector():
    s = StateVector(random_state(24, np.random.default_rng(62)).amplitudes, (2, 3, 4))
    for factor in (-1, 3):
        with pytest.raises(DimensionMismatch):
            qcore.factor_overlap(s, np.ones(2), factor)
    for factor, size in ((0, 3), (1, 2), (2, 24)):
        with pytest.raises(DimensionMismatch):
            qcore.factor_overlap(s, np.ones(size), factor)
    # a vector of non-finite norm (nan, inf, or one that overflows |vec|^2) is
    # named, on a first and a last factor, with no numpy warning
    for factor, d in ((0, 2), (2, 4)):
        for bad in (np.nan, np.inf, 1e200):
            vec = np.zeros(d, dtype=complex)
            vec[-1] = bad
            with pytest.raises(NonFinite):
                qcore.factor_overlap(s, vec, factor)


def test_factor_overlap_copies_no_state_on_any_factor():
    # 32 768 amplitudes hold 512 kB; an eighth of that rules out any full copy
    rng = np.random.default_rng(63)
    s = StateVector(random_state(32**3, rng).amplitudes, (32, 32, 32))
    vec = random_state(32, rng).amplitudes
    for factor in (0, 1, 2):
        tracemalloc.start()
        try:
            qcore.factor_overlap(s, vec, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000, (factor, peak)


def test_factor_overlap_reads_a_basis_factor_off_its_label():
    # factor 1 in |2>: the state is the dense vector with zeros elsewhere
    rng = np.random.default_rng(64)
    rest = random_state(8, rng).amplitudes
    s = StateVector(rest, (2, 3, 4), [(1, 2)])
    dense = StateVector(s.amplitudes, (2, 3, 4))
    assert s.stored.shape == (2, 4)
    for f, d in enumerate(s.factor_dims):
        for vec in (2.5 * random_state(d, rng).amplitudes, np.eye(d)[-1]):
            got = qcore.factor_overlap(s, vec, f)
            assert abs(got - dense_factor_overlap(dense, vec, f)) <= 1e-12
    assert qcore.factor_overlap(s, np.eye(3)[2], 1) == pytest.approx(1.0, abs=1e-12)


def test_an_embedded_state_is_the_zero_filled_dense_vector():
    amps = np.array([0.6, 0.8j], dtype=complex)
    s = StateVector(amps, (3, 2, 2), [(2, 1), (0, 0)])
    want = np.zeros((3, 2, 2), dtype=complex)
    want[0, :, 1] = amps
    assert s.basis == ((2, 1), (0, 0)) and s.dim == 12
    assert s.amplitudes.tobytes() == want.tobytes()
    np.testing.assert_array_equal(s.tensor_form(), want)
    # built once, on first read, and read-only
    assert s.amplitudes is s.amplitudes and not s.amplitudes.flags.writeable
    # every factor measured: one stored amplitude
    point = StateVector(np.array([1j]), (2, 3), [(0, 1), (1, 2)])
    assert point.stored.shape == () and point.amplitudes[5] == 1j


def test_a_bool_label_is_the_index_it_equals():
    # True was a numpy mask: dense [1, 1], of norm 1.414, before
    one = qcore.ket(1, 2).amplitudes.tobytes()
    for s in (StateVector(np.ones(1), (2,), [(0, True)]), qcore.ket(True, 2)):
        assert s.basis == ((0, 1),) and all(type(x) is int for x in s.basis[0])
        assert s.amplitudes.tobytes() == one
        assert qcore.factor_overlap(s, [0, 1], 0) == 1.0
    # and False was all zeros
    amps = np.array([0.6, 0.8j])
    s = StateVector(amps, (2, 2), [(np.int64(0), False)])
    assert s.basis == ((0, 0),) and all(type(x) is int for x in s.basis[0])
    assert s.amplitudes.tobytes() == StateVector(amps, (2, 2), [(0, 0)]).amplitudes.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    measured=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_overlap_matches_the_dense_oracle_on_labelled_states(dims, measured, seed):
    rng = np.random.default_rng(seed)
    basis = [(f, int(rng.integers(d))) for f, d in enumerate(dims) if measured[f]]
    live = [d for f, d in enumerate(dims) if not measured[f]]
    s = StateVector(random_state(math.prod(live), rng).amplitudes, dims, basis)
    dense = StateVector(s.amplitudes, dims)
    for f, d in enumerate(dims):
        for vec in (random_state(d, rng).amplitudes, 2.5 * random_state(d, rng).amplitudes):
            got = qcore.factor_overlap(s, vec, f)
            assert abs(got - dense_factor_overlap(dense, vec, f)) <= 1e-12
    if len(live) == 1:
        # every check comes before the one inner product of the live factor
        f = next(f for f in range(len(dims)) if not measured[f])
        for factor, vec, error in (
            (len(dims), np.ones(1), DimensionMismatch),
            (f, np.ones(dims[f] + 1), DimensionMismatch),
            (f, np.full(dims[f], np.nan), NonFinite),
            (f, np.full(dims[f], 1e200), NonFinite),
        ):
            with pytest.raises(error):
                qcore.factor_overlap(s, vec, factor)


@pytest.mark.parametrize("basis, size", [
    ([(3, 0)], 24),             # no factor 3
    ([(-1, 0)], 24),            # nor factor -1
    ([(0, 0), (0, 1)], 12),     # factor 0 twice
    ([(1, 3)], 8),              # factor 1 has no |3>
    ([(2, -1)], 6),             # nor any |-1>
    ([(1, 0)], 24),             # amplitudes for factor 1 too
    ([(1, 0), (2, 0)], 1),      # too few for factor 0
    ([(1, 0.5)], 8),            # no |0.5> either
], ids=["factor-3", "factor-minus-1", "factor-0-twice", "k-3-of-3", "k-minus-1",
        "amplitudes-for-all", "too-few-amplitudes", "k-not-an-integer"])
def test_a_bad_basis_is_a_dimension_mismatch(basis, size):
    amps = np.zeros(size, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(DimensionMismatch):
        StateVector(amps, (2, 3, 4), basis)


@pytest.mark.parametrize("index", [2, 5, -1, 0.5])
def test_a_ket_outside_its_register_is_a_dimension_mismatch(index):
    # an IndexError, or |1> for -1, before
    with pytest.raises(DimensionMismatch):
        qcore.ket(index, 2)


@pytest.mark.parametrize("call", [
    lambda: StateVector([1, 0], (2.7,)),
    lambda: qcore.local_unitary(np.eye(2), (2,), (0.7,)),
    lambda: qcore.factor_overlap(qcore.ket(0, 2), [1, 0], 0.9),
    lambda: qcore.fourier_matrix(2.5),
    lambda: qcore.shift_powers(2.5),
    lambda: qcore.ket(0, 2.5),
    lambda: qcore.random_unitary(2.5, np.random.default_rng(0)),
], ids=["state-dims", "local-unitary-target", "overlap-factor", "fourier-size", "shift-size",
        "ket-size", "random-unitary-size"])
def test_a_non_integer_dimension_or_factor_is_a_dimension_mismatch(call):
    # truncated to a wrong value, or a bare TypeError, before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch):
            call()


@pytest.mark.parametrize("values, error, named", [
    ([], DimensionMismatch, "block 0 is missing"),
    ([1.0, 2.0], DimensionMismatch, "block 0 is missing"),
    ([np.zeros((0, 0))], DimensionMismatch, "block 0 is missing"),
    ([np.eye(2), np.eye(3)], DimensionMismatch, "block 1 has shape (3, 3)"),
    ([np.eye(2), np.ones(2)], DimensionMismatch, "block 1 has shape (2,)"),
    ([np.eye(2), np.eye(2), np.full((2, 2), np.nan)], NonFinite, "block 2 has"),
    ([np.eye(2), np.diag([1, np.inf])], NonFinite, "block 1 has"),
    ("ab", DimensionMismatch, "block 0 is not numeric"),
    (5, DimensionMismatch, "block 0 is missing"),
    ([np.eye(2), [[1, 0], [0]]], DimensionMismatch, "block 1 is not numeric"),
], ids=["empty", "scalars", "no-level", "mixed-sizes", "vector", "nan", "inf", "str", "int",
        "ragged"])
def test_the_operator_gate_names_the_first_entry_at_fault(values, error, named):
    with pytest.raises(error, match=re.escape(named)):
        qcore.operators(values, "block")


@pytest.mark.parametrize("call", [
    lambda: qcore.coefficients("ab", "coefficients"),
    lambda: qcore.coefficients([1, None, "x"], "coefficients"),
    lambda: StateVector("ab", (2,)),
    lambda: qcore.local_unitary("ab", (2,), (0,)),
    lambda: qcore.factor_overlap(qcore.ket(0, 2), ["a", "b"], 0),
    lambda: qcore.is_unitary([["a"]]),
    lambda: wang.partition_from_bases([["a"]], [["b"]], (1,)),
    lambda: qcore.tensor([["a"]], [[1]]),
], ids=["coefficients-str", "coefficients-entry", "state-str", "local-unitary-str",
        "overlap-str", "is-unitary-str", "bases-str", "tensor-str"])
def test_a_value_of_the_wrong_kind_is_a_dimension_mismatch(call):
    # a bare TypeError or ValueError before
    with pytest.raises(DimensionMismatch):
        call()


def test_the_coefficient_gate_flattens_and_names_non_finite_entries():
    vec = qcore.coefficients([[1, 2j], [3, 4]], "coefficients")
    assert vec.dtype == complex and vec.tolist() == [1, 2j, 3, 4]
    with pytest.raises(NonFinite, match="coefficients must be finite"):
        qcore.coefficients([1, np.inf], "coefficients")


BIG = 10 ** 400   # an integer past the float range


@pytest.mark.parametrize("call", [
    lambda: qcore.operators([[[BIG]]], "block"),
    lambda: qcore.coefficients([1, BIG], "coefficients"),
    lambda: StateVector([BIG, 0], (2,)),
    lambda: qcore.local_unitary([[BIG, 0], [0, 1]], (2,), (0,)),
    lambda: qcore.factor_overlap(qcore.ket(0, 2), [BIG, 0], 0),
    lambda: qcore.is_unitary([[BIG]]),
    lambda: wang.partition_from_bases([[BIG]], [[BIG]], (1,)),
], ids=["operators", "coefficients", "state", "local-unitary", "overlap", "is-unitary",
        "bases"])
def test_an_integer_past_the_float_range_is_non_finite(call):
    # a bare OverflowError before, as the literal 1e400 is inf
    with pytest.raises(NonFinite):
        call()


@pytest.mark.parametrize("entry", [1e308, -1e308, 1e200, complex(1e308, 1e308)])
def test_an_overflowing_unitarity_product_fails_without_a_warning(entry):
    # "overflow encountered in matmul" before, an error under -W error
    m = np.eye(3, dtype=complex)
    m[1, 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not qcore.unitarity_defect(m) <= qcore.NORM_TOL
        assert not qcore.is_unitary(m)
        with pytest.raises(NonUnitary):
            qcore.local_unitary(np.stack([np.eye(3), m]), (3,), (0,))


def test_an_empty_matrix_is_not_unitary():
    # a numpy ValueError before
    assert not qcore.is_unitary(np.zeros((0, 0)))


@pytest.mark.parametrize("amp, error", [
    (2.0, NotNormalized), (np.nan, NonFinite), (np.inf, NonFinite), (1e308, NonFinite),
])
def test_an_embedded_state_is_normalised_on_its_stored_amplitudes(amp, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            StateVector(np.array([amp, 0.0, 0.0]), (2, 3), [(0, 1)])


def test_a_state_is_immutable():
    plain = StateVector(np.array([0.0, 1.0]), (2,))
    embedded = StateVector(np.array([0.0, 1.0]), (2, 3), [(1, 0)])
    for s in (plain, embedded):
        for name in ("amplitudes", "factor_dims", "basis", "stored", "_dense"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(s, name)
        assert not s.stored.flags.writeable and not s.amplitudes.flags.writeable


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


def test_the_size_ceiling_admits_bqst_at_36_and_refuses_37():
    # no layout is allocated: the check reads a count
    qcore.check_size(qcore.MAX_AMPLITUDES, "layout")
    qcore.check_size(36 ** 5, "bqst at D = 36")
    for count in (qcore.MAX_AMPLITUDES + 1, 37 ** 5):
        with pytest.raises(UnsupportedProblem, match=f"layout holds {count} amplitudes, beyond"):
            qcore.check_size(count, "layout")
