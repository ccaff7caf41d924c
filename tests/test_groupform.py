"""Groups, projective representations, the group-form protocol, and
coefficient reconstruction from block-diagonal unitaries."""

import warnings

import numpy as np
import pytest

from qremote import groupform, qcore, wang
from qremote.errors import (
    DimensionMismatch,
    MultiplicityNotOne,
    NonFinite,
    NonUnimodularFactor,
    NonUnitary,
    NonUnitaryM,
    NonUnitaryTarget,
    NotAGroup,
    NotARepresentation,
    NotBlockDiagonal,
)

from util import (
    fidelity,
    klein_character_rep,
    random_block_diagonal_unitary,
    random_diag_phases,
    random_state,
    reference_coefficients_from_unitary,
    step_operators,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


# --- groups -------------------------------------------------------------------

def test_builtin_groups_validate():
    for group in (groupform.cyclic(5), groupform.klein_four(), groupform.dihedral3()):
        n = group.order
        for i in range(n):
            assert group.cayley[i, group.inverses[i]] == group.identity
            assert group.cayley[group.identity, i] == i


def test_dihedral3_relations():
    g = groupform.dihedral3()
    r, s = 1, 3
    assert g.names[g.cayley[r, r]] == "r2"
    # s r s = r^{-1}
    assert g.cayley[g.cayley[s, r], s] == g.inverses[r]
    assert g.inverses[s] == s


def test_bad_cayley_tables_rejected():
    with pytest.raises(ValueError):
        groupform.finite_group(np.zeros((2, 2), dtype=int))   # rows not permutations
    # permutation rows/columns but not associative
    table = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(ValueError):
        groupform.finite_group(table)
    # row 2 is the first row that is no permutation, but column 0 is named
    table = np.array([[0, 1, 2], [1, 2, 0], [0, 0, 1]])
    with pytest.raises(NotAGroup, match="row/column 0 of the Cayley table"):
        groupform.finite_group(table)
    # an empty table, a numpy error before
    with pytest.raises(NotAGroup, match="non-empty"):
        groupform.finite_group(np.zeros((0, 0), dtype=int))


@pytest.mark.parametrize("call, error", [
    (lambda: groupform.finite_group([[0, 1.7], [1, 0]]), NotAGroup),
    (lambda: groupform.block_decomposition(groupform.pauli_rep(), (2.9,)), DimensionMismatch),
    (lambda: groupform.z_gate(2.5), DimensionMismatch),
    (lambda: groupform.cyclic_character_rep(4.5), DimensionMismatch),
    (lambda: groupform.cyclic(2.5), DimensionMismatch),
    (lambda: groupform.cyclic(0), DimensionMismatch),
], ids=["cayley-entry", "block-dims", "z-gate-order", "character-rep-order", "cyclic-order",
        "cyclic-order-zero"])
def test_a_non_integer_entry_or_dimension_is_named(call, error):
    # truncated before: the table read as Z2, the blocks as (2,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


# --- representations -----------------------------------------------------------

def test_cyclic_characters_are_an_ordinary_rep():
    rep = groupform.cyclic_character_rep(4)
    np.testing.assert_allclose(rep.mu, np.ones((4, 4)), atol=1e-12)


def test_pauli_rep_is_projective():
    rep = groupform.pauli_rep()
    # ZX = -XZ, so mu(z, x) = -1 with z at index 2 and x at index 1
    assert rep.mu[2, 1] == pytest.approx(-1.0, abs=1e-12)
    assert rep.mu[1, 2] == pytest.approx(1.0, abs=1e-12)


def test_pauli_matrices_with_trivial_factors_rejected():
    group = groupform.klein_four()
    mats = [np.eye(2, dtype=complex), X, Z, X @ Z]
    with pytest.raises(NotARepresentation):
        groupform.projective_rep(group, mats, mu=np.ones((4, 4)))


def test_nonunimodular_factor_rejected():
    rep = groupform.cyclic_character_rep(3)
    with pytest.raises(NonUnimodularFactor):
        groupform.projective_rep(rep.group, rep.matrices, mu=2 * np.ones((3, 3)))


def test_non_finite_matrices_and_factors_are_named():
    rep = groupform.cyclic_character_rep(3)
    mu = np.ones((3, 3), dtype=complex)
    mu[1, 2] = np.nan
    with pytest.raises(NonFinite):
        groupform.projective_rep(rep.group, rep.matrices, mu=mu)
    mats = list(rep.matrices)
    mats[1] = np.where(np.eye(3) > 0, np.inf, 0).astype(complex)
    with pytest.raises(NonFinite):
        groupform.projective_rep(rep.group, mats)


@pytest.mark.parametrize("matrices", [[1, -1], [np.zeros((0, 0))] * 2, 5, "ab"],
                         ids=["scalars", "no-level", "int", "str"])
def test_matrices_that_are_no_operators_are_a_dimension_mismatch(matrices):
    # a bare IndexError, TypeError or ValueError before
    with pytest.raises(DimensionMismatch):
        groupform.projective_rep(groupform.cyclic(2), matrices)


@pytest.mark.parametrize("call", [
    lambda: groupform.projective_rep(groupform.cyclic(2), [[[1]], [[-1]]], mu="ab"),
    lambda: groupform.assemble(groupform.pauli_rep(), "abcd"),
    lambda: groupform.mixer(groupform.pauli_rep(), [1, 0, 0, "x"]),
], ids=["factor-system-str", "coefficients-str", "coefficient-entry-str"])
def test_coefficients_or_factors_that_are_no_numbers_are_a_dimension_mismatch(call):
    # a bare TypeError or ValueError before
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize("call", [groupform.assemble, groupform.mixer], ids=["assemble", "mixer"])
def test_non_finite_coefficients_are_named(call):
    # NonUnitaryTarget and NonUnitaryM before
    with pytest.raises(NonFinite):
        call(groupform.pauli_rep(), [np.nan, 0, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_target_is_named(bad):
    # NaN coefficients before, and a numpy warning for inf
    decomp = groupform.block_decomposition(klein_character_rep(), (1, 1, 1, 1))
    target = np.eye(4, dtype=complex)
    target[1, 1] = bad
    with pytest.raises(NonFinite):
        groupform.coefficients_from_unitary(target, decomp)
    with pytest.raises(NonFinite):
        groupform.coefficients_from_unitary(np.full((4, 4), bad), decomp)


def test_near_unimodular_factor_is_stored_exactly_and_runs():
    # |mu(1,2)| = 1 + 8e-10 passes validation; stored as mu/|mu|, it gives a
    # unitary M for c = e_2, where |mu|^2 - 1 = 1.6e-9 would fail NORM_TOL
    rep = groupform.pauli_rep()
    mu = np.array(rep.mu)
    mu[1, 2] *= 1 + 8e-10
    near = groupform.projective_rep(rep.group, rep.matrices, mu=mu)
    np.testing.assert_allclose(np.abs(near.mu), 1.0, rtol=0, atol=1e-15)
    c = np.eye(4)[2]
    psi = random_state(2, np.random.default_rng(15))
    expected = qcore.StateVector(Z @ psi.amplitudes, (2,))
    for b in groupform.run_group_protocol(near, c, psi):
        assert fidelity(b.output, expected) >= 1 - 1e-9


def test_near_unitary_matrices_are_stored_exactly_and_run():
    # S U(f) S^-1 with S = I + delta K keeps closure and |mu| = 1 to O(delta^2)
    # but moves U^dag U off I; scaled so the worst entry sits just inside
    # NORM_TOL, the stack's Frobenius residual is several times NORM_TOL
    rep = groupform.dihedral3_rep()
    rng = np.random.default_rng(31)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    k = g + g.conj().T

    def residual(mats):
        return max(np.abs(m.conj().T @ m - np.eye(4)).max() for m in mats)

    def similar(delta):
        s = np.eye(4) + delta * k
        return [s @ m @ np.linalg.inv(s) for m in rep.matrices]

    mats = similar(1e-10 * 8e-10 / residual(similar(1e-10)))
    stack = np.stack(mats)
    assert 7e-10 < residual(mats) <= qcore.NORM_TOL
    assert np.linalg.norm(stack.conj().transpose(0, 2, 1) @ stack - np.eye(4)) > 2e-9
    near = groupform.projective_rep(rep.group, mats)
    assert residual(near.matrices) <= 1e-14
    assert np.abs(np.stack(near.matrices) - stack).max() <= qcore.NORM_TOL
    c = np.eye(6)[4]
    psi = random_state(4, np.random.default_rng(32))
    expected = qcore.StateVector(near.matrices[4] @ psi.amplitudes, (4,))
    for b in groupform.run_group_protocol(near, c, psi):
        assert fidelity(b.output, expected) >= 1 - 1e-9


def test_nonunitary_matrices_rejected():
    group = groupform.cyclic(2)
    with pytest.raises(NonUnitary):
        groupform.projective_rep(group, [np.eye(2), np.diag([1.0, 0.5])])


def test_factor_products_are_translation_invariant():
    # mu(h^-1, f) mu(h, h^-1 f) is independent of f; for the character reps it
    # is 1, for the genuinely projective Pauli system it is mu(h^-1, h)
    for rep in (
        groupform.cyclic_character_rep(4),
        klein_character_rep(),
        groupform.dihedral3_rep(),
        groupform.pauli_rep(),
    ):
        g = rep.group
        for h in range(g.order):
            hinv = g.inverses[h]
            products = {
                complex(np.round(rep.mu[hinv, f] * rep.mu[h, g.cayley[hinv, f]], 9))
                for f in range(g.order)
            }
            assert len(products) == 1
            assert abs(products.pop() - rep.mu[hinv, h]) <= 1e-9
    for rep in (groupform.cyclic_character_rep(5), klein_character_rep()):
        g = rep.group
        for h in range(g.order):
            for f in range(g.order):
                prod = rep.mu[g.inverses[h], f] * rep.mu[h, g.cayley[g.inverses[h], f]]
                assert abs(prod - 1.0) <= 1e-9


# --- protocol operators ---------------------------------------------------------

def one_hot(f, n):
    c = np.zeros(n, dtype=complex)
    c[f] = 1.0
    return c


def test_translations_are_weighted_permutations():
    # a one-hot coefficient vector picks out the single translation R(f)
    for rep in (groupform.cyclic_character_rep(4), groupform.pauli_rep()):
        n = rep.group.order
        identity = groupform.mixer(rep, one_hot(rep.group.identity, n))
        assert np.abs(identity - np.eye(n)).max() <= 1e-12
        for f in range(n):
            r = groupform.mixer(rep, one_hot(f, n))
            support = np.abs(r) > 1e-12
            assert (support.sum(axis=0) == 1).all()
            assert (support.sum(axis=1) == 1).all()
            assert np.abs(np.abs(r[support]) - 1.0).max() <= 1e-12


def test_identity_coefficients_give_identity_mixer():
    rep = groupform.cyclic_character_rep(4)
    c = np.zeros(4)
    c[rep.group.identity] = 1.0
    np.testing.assert_allclose(groupform.mixer(rep, c), np.eye(4), atol=1e-12)


def test_mixer_matches_plain_translations_for_cyclic_group():
    # with mu = 1 each R(f) is the permutation |g> -> |g f^{-1}> read off the table
    rep = groupform.cyclic_character_rep(3)
    c = random_diag_phases(3, np.random.default_rng(0))
    table = rep.group.cayley
    expected = np.zeros((3, 3), dtype=complex)
    for f in range(3):
        perm = np.zeros((3, 3), dtype=complex)
        for g in range(3):
            perm[g, table[g, f]] = 1.0
        expected += c[f] * perm
    got = sum(c[f] * groupform.mixer(rep, one_hot(f, 3)) for f in range(3))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_hadamard_expansion_builds_unitary_steps():
    rep = groupform.pauli_rep()
    c = np.zeros(4, dtype=complex)
    c[1] = c[2] = 1 / np.sqrt(2)   # H = (X + Z)/sqrt(2)
    ops = step_operators(groupform.group_program(rep, c), {"g": 1, "h": 2})
    assert set(ops) == {"P", "F", "Z(g)", "M", "U(h^-1)"}
    for op in ops.values():
        assert np.abs(op.conj().T @ op - np.eye(op.shape[0])).max() <= 1e-9


def test_z_gate_undoes_each_fourier_row():
    # Z(g)|f> = (1/sqrt|G|) <g|F|f>^{-1} |f>: Z(g) times row g of sqrt(n) F
    # is all ones, and the table is diagonal with plain zeros off the diagonal
    for n in range(1, 33):
        rows = np.sqrt(n) * qcore.fourier_matrix(n)
        table = groupform.z_gate(n)
        assert table.shape == (n, n, n)
        diagonal = np.einsum("gkk->gk", table)
        np.testing.assert_allclose(diagonal * rows, np.ones((n, n)), rtol=0, atol=1e-12)
        off = table[:, ~np.eye(n, dtype=bool)]
        assert not np.signbit(off.real).any() and not np.signbit(off.imag).any(), n
        assert not off.any(), n


def test_alice_side_group_operators_ignore_the_coefficients():
    # the "partially unknown" property: Alice's P, F and every U(h^-1) are
    # built from the representation alone, never from Bob's c(f)
    rng = np.random.default_rng(5)
    rep = groupform.dihedral3_rep()
    decomp = groupform.block_decomposition(rep, (1, 1, 2))
    one, two = (
        groupform.group_program(rep, groupform.coefficients_from_unitary(
            random_block_diagonal_unitary(decomp, rng), decomp))
        for _ in range(2)
    )
    for h in range(rep.group.order):
        ops_one = step_operators(one, {"g": 0, "h": h})
        ops_two = step_operators(two, {"g": 0, "h": h})
        assert not np.array_equal(ops_one["M"], ops_two["M"])   # Bob's side differs
        for label in ("P", "F", "U(h^-1)"):
            np.testing.assert_array_equal(ops_one[label], ops_two[label])


def test_nonunitary_target_rejected():
    rep = groupform.cyclic_character_rep(2)
    with pytest.raises(NonUnitaryTarget):
        groupform.assemble(rep, [1.0, 1.0])


def test_nonunitary_mixer_rejected():
    rep = groupform.cyclic_character_rep(2)
    with pytest.raises(NonUnitaryM):
        groupform.mixer(rep, [1.0, 1.0])


# --- protocol runs ---------------------------------------------------------------

def test_identity_coefficients_leave_input_unchanged():
    rng = np.random.default_rng(1)
    rep = groupform.cyclic_character_rep(3)
    c = np.zeros(3)
    c[rep.group.identity] = 1.0
    psi = random_state(3, rng)
    for branch in groupform.run_group_protocol(rep, c, psi):
        assert fidelity(branch.output, psi) >= 1 - 1e-9


def test_pauli_protocol_implements_hadamard_on_all_branches():
    rng = np.random.default_rng(2)
    rep = groupform.pauli_rep()
    c = np.zeros(4, dtype=complex)
    c[1] = c[2] = 1 / np.sqrt(2)
    psi = random_state(2, rng)
    expected = groupform.assemble(rep, c) @ psi.amplitudes
    branches = groupform.run_group_protocol(rep, c, psi)
    assert len(branches) == 16
    total = sum(b.probability for b in branches)
    assert abs(total - 1.0) <= 1e-10
    for branch in branches:
        assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9


def test_conjugated_reps_keep_their_factor_systems_and_run_exactly():
    # V U(f) V^dag is the same projective rep in another basis: the derived mu
    # must be the original one, and the protocol implements V T V^dag
    rng = np.random.default_rng(8)
    for rep, dims in (
        (groupform.cyclic_character_rep(4), (1, 1, 1, 1)),
        (klein_character_rep(), (1, 1, 1, 1)),
        (groupform.pauli_rep(), (2,)),
        (groupform.dihedral3_rep(), (1, 1, 2)),
    ):
        v = qcore.random_unitary(rep.dim, rng)
        conjugated = groupform.projective_rep(
            rep.group, [v @ m @ v.conj().T for m in rep.matrices]
        )
        assert np.abs(conjugated.mu - rep.mu).max() <= 1e-12
        decomp = groupform.block_decomposition(rep, dims)
        target = random_block_diagonal_unitary(decomp, rng)
        c = groupform.coefficients_from_unitary(target, decomp)
        psi = random_state(rep.dim, rng)
        expected = v @ target @ v.conj().T @ psi.amplitudes
        branches = groupform.run_group_protocol(conjugated, c, psi)
        assert len(branches) == rep.group.order ** 2
        for branch in branches:
            assert abs(np.vdot(expected, branch.output.amplitudes)) >= 1 - 1e-9


def test_dihedral_protocol_runs_exactly():
    rng = np.random.default_rng(3)
    rep = groupform.dihedral3_rep()
    decomp = groupform.block_decomposition(rep, (1, 1, 2))
    target = random_block_diagonal_unitary(decomp, rng)
    c = groupform.coefficients_from_unitary(target, decomp)
    psi = random_state(4, rng)
    expected = target @ psi.amplitudes
    branches = groupform.run_group_protocol(rep, c, psi)
    assert len(branches) == 36
    for branch in branches:
        assert qcore.factor_overlap(branch.state, expected, 0) >= 1 - 1e-9


def test_cyclic_protocol_agrees_with_wang_diagonal():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        target_phases = random_diag_phases(n, rng)
        target = np.diag(target_phases)
        rep = groupform.cyclic_character_rep(n)
        decomp = groupform.block_decomposition(rep, (1,) * n)
        c = groupform.coefficients_from_unitary(target, decomp)
        psi = random_state(n, rng)

        partition = wang.diagonal_partition(n)
        wang_branches = {(b.outcomes["l"], b.outcomes["m"]): b for b in
                         wang.run_wang(partition, wang.Phases(target_phases), psi)}
        group_branches = {(b.outcomes["g"], b.outcomes["h"]): b for b in
                          groupform.run_group_protocol(rep, c, psi)}
        assert wang_branches.keys() == group_branches.keys()
        for key in wang_branches:
            fid = fidelity(wang_branches[key].output, group_branches[key].output)
            assert fid >= 1 - 1e-9


# --- coefficient reconstruction ----------------------------------------------------

def test_single_element_unitary_recovers_delta():
    for rep, dims in (
        (groupform.cyclic_character_rep(4), (1, 1, 1, 1)),
        (groupform.pauli_rep(), (2,)),
    ):
        decomp = groupform.block_decomposition(rep, dims)
        for f0 in range(rep.group.order):
            c = groupform.coefficients_from_unitary(rep.matrices[f0], decomp)
            expected = np.zeros(rep.group.order)
            expected[f0] = 1.0
            np.testing.assert_allclose(c, expected, atol=1e-10)


def test_cyclic_coefficients_are_inverse_fourier():
    rng = np.random.default_rng(5)
    n = 5
    rep = groupform.cyclic_character_rep(n)
    decomp = groupform.block_decomposition(rep, (1,) * n)
    phases = rng.uniform(0, 2 * np.pi, size=n)
    target = np.diag(np.exp(1j * phases))
    c = groupform.coefficients_from_unitary(target, decomp)
    # independent formula: c(k) = (1/n) sum_j e^{i phi_j} e^{-2 pi i k j / n}
    grid = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    expected = grid @ np.exp(1j * phases) / n
    np.testing.assert_allclose(c, expected, atol=1e-10)
    reassembled = sum(cf * m for cf, m in zip(c, rep.matrices))
    np.testing.assert_allclose(reassembled, target, atol=1e-10)


def test_round_trip_on_random_block_diagonal_unitaries():
    rng = np.random.default_rng(6)
    for rep, dims in (
        (groupform.cyclic_character_rep(4), (1, 1, 1, 1)),
        (klein_character_rep(), (1, 1, 1, 1)),
        (groupform.pauli_rep(), (2,)),
    ):
        decomp = groupform.block_decomposition(rep, dims)
        for _ in range(20):
            target = random_block_diagonal_unitary(decomp, rng)
            c = groupform.coefficients_from_unitary(target, decomp)
            reassembled = sum(cf * m for cf, m in zip(c, rep.matrices))
            assert np.abs(reassembled - target).max() <= 1e-9


NAMED_REPS = (
    (lambda: groupform.cyclic_character_rep(3), (1, 1, 1)),
    (lambda: groupform.cyclic_character_rep(5), (1,) * 5),
    (klein_character_rep, (1, 1, 1, 1)),
    (groupform.pauli_rep, (2,)),
    (groupform.dihedral3_rep, (1, 1, 2)),
)


@pytest.mark.parametrize("make, dims", NAMED_REPS)
def test_coefficients_match_the_blockwise_oracle(make, dims):
    # one contraction against the per-element, per-block sum, on every U(f)
    # of the rep and on seeded block-diagonal targets
    rep = make()
    decomp = groupform.block_decomposition(rep, dims)
    # W is built once, read-only: entry (j, k) is d/|G| when j and k share
    # a block of dimension d, else 0
    block = np.repeat(np.arange(len(dims)), dims)
    same = block[:, None] == block[None, :]
    oracle = np.where(same, np.array(dims)[block][:, None] / rep.group.order, 0.0)
    np.testing.assert_array_equal(decomp.weights, oracle)
    assert not decomp.weights.flags.writeable
    rng = np.random.default_rng(len(dims) * 7 + rep.group.order)
    targets = list(rep.matrices) + [random_block_diagonal_unitary(decomp, rng) for _ in range(10)]
    for target in targets:
        np.testing.assert_allclose(
            groupform.coefficients_from_unitary(target, decomp),
            reference_coefficients_from_unitary(target, decomp),
            rtol=0, atol=1e-12,
        )


def test_multiplicity_violations_rejected():
    with pytest.raises(MultiplicityNotOne):
        groupform.block_decomposition(groupform.pauli_rep(), (1, 1))
    with pytest.raises(MultiplicityNotOne):
        groupform.block_decomposition(groupform.cyclic_character_rep(2), (2,))


def test_block_structure_violations_rejected():
    # splitting the 2-dim irrep of the triangle rep leaks weight off-diagonal
    # in every U(f) but U(e); the first named is U(r), a rotation by 2 pi/3,
    # with sin(2 pi/3) off the blocks
    for dims in ((2, 1, 1), (1, 2, 1)):
        with pytest.raises(NotBlockDiagonal, match=r"^U\(r\) has weight 8\.660e-01 outside"):
            groupform.block_decomposition(groupform.dihedral3_rep(), dims)
    rep = klein_character_rep()
    decomp = groupform.block_decomposition(rep, (1, 1, 1, 1))
    rng = np.random.default_rng(7)
    with pytest.raises(NotBlockDiagonal):
        groupform.coefficients_from_unitary(qcore.random_unitary(4, rng), decomp)


# --- Weyl-Heisenberg representations -------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_the_weyl_rep_implements_a_haar_unitary_on_every_branch(d):
    # d-dimensional and irreducible, with |G| = d^2, so one block spans every
    # d x d matrix: the group protocol implements any unitary exactly
    rng = np.random.default_rng(40 + d)
    rep = groupform.weyl_rep(d)
    decomp = groupform.block_decomposition(rep, (d,))
    target = qcore.random_unitary(d, rng)
    c = groupform.coefficients_from_unitary(target, decomp)
    np.testing.assert_allclose(groupform.assemble(rep, c), target, rtol=0, atol=1e-12)
    psi = random_state(d, rng)
    expected = qcore.StateVector(target @ psi.amplitudes, (d,))
    branches = groupform.run_group_protocol(rep, c, psi)
    assert len(branches) == d ** 4
    for b in branches:
        assert abs(b.probability - d ** -4) <= 1e-12
        assert fidelity(b.output, expected) >= 1 - 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_the_weyl_factor_system_is_its_closed_form(d):
    # X|k> = |k-1> and Z|k> = w^k |k> give Z X = w^-1 X Z, so
    # U(a,b) U(a',b') = w^{-b a'} U(a+a', b+b') with w = e^{2 pi i/d}
    a, b = np.divmod(np.arange(d * d), d)
    closed = np.exp(-2j * np.pi * np.outer(b, a) / d)
    np.testing.assert_allclose(groupform.weyl_rep(d).mu, closed, rtol=0, atol=1e-12)


def test_the_qubit_weyl_rep_is_the_pauli_rep_up_to_labels():
    weyl, pauli = groupform.weyl_rep(2).matrices, groupform.pauli_rep().matrices
    close = np.abs(weyl[:, None] - pauli[None]).max(axis=(2, 3)) <= 1e-12
    assert (close.sum(axis=0) == 1).all() and (close.sum(axis=1) == 1).all()
