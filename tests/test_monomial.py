"""Monomial representations: qcore.monomial reads a stack's
permutation-and-phase form, and groupform.projective_rep certifies such a
stack on that form. The monomial path must give the dense path's factor
system, closure residuals, stored matrices, error classes and messages."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qremote import groupform, qcore
from qremote.errors import NotAGroup, QRemoteError

from util import klein_character_rep


# --- the detector ---------------------------------------------------------------

def test_shift_and_clock_tables_are_read_as_columns_and_phases():
    n = 5
    cols, phases = qcore.monomial(qcore.shift_powers(n))
    np.testing.assert_array_equal(cols, (np.arange(n)[:, None] + np.arange(n)) % n)
    np.testing.assert_array_equal(phases, np.ones((n, n)))
    cols, phases = qcore.monomial(qcore.clock_powers(n))
    np.testing.assert_array_equal(cols, np.broadcast_to(np.arange(n), (n, n)))
    np.testing.assert_array_equal(phases, np.einsum("kjj->kj", qcore.clock_powers(n)))


def test_a_signed_zero_is_zero_and_a_phase_of_any_modulus_is_kept():
    # the form is a pattern; unimodularity is the caller's check
    m = np.array([[[-0.0, 2.0], [0.5j, 0.0]]])
    cols, phases = qcore.monomial(m)
    np.testing.assert_array_equal(cols, [[1, 0]])
    np.testing.assert_array_equal(phases, [[2.0, 0.5j]])


@pytest.mark.parametrize("matrix", [
    [[1, 1e-300], [0, 1]],        # an off-pattern entry, however small
    [[1, 1], [0, 0]],             # two entries in a row, none in the other
    [[1, 0], [1, 0]],             # one entry per row, both in one column
    [[1, 0], [0, 0]],             # a zero row
], ids=["off-pattern", "two-in-a-row", "two-in-a-column", "zero-row"])
def test_a_stack_off_the_form_is_none(matrix):
    assert qcore.monomial(np.array([np.eye(2), matrix], dtype=complex)) is None


# --- inputs: monomial reps, conjugated and relabelled ---------------------------

def weyl(d):
    """The Weyl rep's group, matrices and closed-form factor system
    w^{-b a'} for U(a, b) U(a', b')."""
    rep = groupform.weyl_rep(d)
    a, b = np.divmod(np.arange(d * d), d)
    return rep.group, np.array(rep.matrices), np.exp(-2j * np.pi * np.outer(b, a) / d)


def characters(n):
    return groupform.cyclic(n), qcore.clock_powers(n), np.ones((n, n), dtype=complex)


FAMILIES = st.one_of(
    st.builds(weyl, st.integers(2, 6)),
    st.builds(characters, st.integers(2, 16)),
)


def disguised(family, seed):
    """family conjugated by a random monomial V and its elements relabelled
    by a random permutation: still monomial, with mu relabelled alike."""
    group, mats, mu = family
    rng = np.random.default_rng(seed)
    d, n = mats.shape[1], len(mats)
    v = np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
    mats = v @ mats @ v.conj().T
    perm = rng.permutation(n)            # new element i is old element perm[i]
    cayley = np.argsort(perm)[group.cayley[perm][:, perm]]
    return groupform.finite_group(cayley), mats[perm], mu[perm][:, perm], rng


def off_pattern(mats, rng, value=1e-300):
    """mats with one entry off the monomial pattern set to value."""
    cols, _ = qcore.monomial(mats)
    f, r = rng.integers(len(mats)), rng.integers(mats.shape[1])
    nudged = mats.copy()
    nudged[f, r, (cols[f, r] + 1 + rng.integers(mats.shape[1] - 1)) % mats.shape[1]] = value
    assert qcore.monomial(nudged) is None
    return nudged


def outcome(group, mats, mu):
    """What projective_rep makes of the input: the rep, or the class and
    message of its refusal."""
    try:
        return groupform.projective_rep(group, mats, mu)
    except QRemoteError as err:
        return type(err), str(err)


# --- the two paths agree ----------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=FAMILIES, seed=st.integers(0, 2**32 - 1), derive=st.booleans())
def test_the_monomial_path_gives_the_dense_paths_numbers(family, seed, derive):
    group, mats, mu, rng = disguised(family, seed)
    given_mu = None if derive else mu
    form = qcore.monomial(mats)
    assert form is not None
    mono_mu, mono_closure = groupform._monomial_closure(group.cayley, *form, given_mu)
    dense_mu, dense_closure = groupform._dense_closure(group.cayley, mats, given_mu)
    assert np.abs(mono_mu - dense_mu).max() <= 1e-15
    assert np.abs(mono_closure - dense_closure).max() <= 1e-15
    # whole runs of projective_rep, the dense one reached by one entry of 1e-300
    mono = groupform.projective_rep(group, mats, given_mu)
    dense = groupform.projective_rep(group, off_pattern(mats, rng), given_mu)
    assert np.abs(mono.mu - dense.mu).max() <= 1e-15
    assert np.abs(mono.matrices - dense.matrices).max() <= 1e-15
    assert np.abs(mono.mu - mu).max() <= 1e-12


def scale_entry(mats, cols, f, r):
    mats[f, r, cols[f, r]] *= 1 + 1e-6


def turn_phase(mats, cols, f, r):
    mats[f, r, cols[f, r]] *= np.exp(1e-6j)


def swap_columns(mats, cols, f, r):
    c, c2 = cols[f, r], cols[f, (r + 1) % mats.shape[1]]
    mats[f][:, [c, c2]] = mats[f][:, [c2, c]]


FAULTS = {"scale-entry": scale_entry, "turn-phase": turn_phase, "swap-columns": swap_columns}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=FAMILIES, seed=st.integers(0, 2**32 - 1), derive=st.booleans(),
       fault=st.sampled_from(sorted(FAULTS) + ["identity-phase"]))
def test_each_fault_is_refused_alike_on_both_paths(family, seed, derive, fault):
    group, mats, mu, rng = disguised(family, seed)
    given_mu = None if derive else mu
    cols, _ = qcore.monomial(mats)
    if fault == "identity-phase":
        mats[group.identity] *= np.exp(2j * np.pi * rng.uniform(0.01, 0.99))
    else:
        FAULTS[fault](mats, cols, rng.integers(len(mats)), rng.integers(mats.shape[1]))
    assert qcore.monomial(mats) is not None
    mono = outcome(group, mats, given_mu)
    assert isinstance(mono, tuple), f"{fault} accepted"
    assert outcome(group, off_pattern(mats, rng), given_mu) == mono


# --- dispatch and memory ------------------------------------------------------------

@pytest.fixture
def paths(monkeypatch):
    """The closure helpers projective_rep called, in order."""
    called = []
    for name in ("_dense_closure", "_monomial_closure"):
        helper = getattr(groupform, name)

        def spy(*args, helper=helper, name=name):
            called.append(name)
            return helper(*args)

        monkeypatch.setattr(groupform, name, spy)
    return called


def near_monomial_rep():
    # an off-pattern 1e-17 is no exact zero: the dense path certifies it
    mats = qcore.clock_powers(4).copy()   # the certified table itself cannot be written
    mats[1, 0, 3] = 1e-17
    return groupform.projective_rep(groupform.cyclic(4), mats)


@pytest.mark.parametrize("make, path", [
    (lambda: groupform.cyclic_character_rep(16), "_monomial_closure"),
    (klein_character_rep, "_monomial_closure"),
    (groupform.pauli_rep, "_monomial_closure"),
    (lambda: groupform.weyl_rep(5), "_monomial_closure"),
    (groupform.dihedral3_rep, "_dense_closure"),
    (near_monomial_rep, "_dense_closure"),
], ids=["cyclic", "klein", "pauli", "weyl", "dihedral3", "off-pattern-1e-17"])
def test_each_named_rep_takes_its_path(paths, make, path):
    make()
    assert paths == [path]


def test_the_weyl_8_rep_peaks_no_higher_than_on_dense_products():
    # 729 705 bytes with every rep on the dense path (|G| = 64, D = 8)
    rep = groupform.weyl_rep(8)
    mats = np.array(rep.matrices)
    tracemalloc.start()
    try:
        groupform.projective_rep(rep.group, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 729_705


# --- Cayley-table associativity in blocks -----------------------------------------

def associative(table):
    """The whole n^3 comparison of (ij)k with i(jk)."""
    return np.array_equal(table[table, :], table[:, table])


def intercalated(n):
    """Z_n's table (n even) with one 2 x 2 Latin subsquare swapped in the
    last rows: still a Latin square, no longer associative."""
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    rows, cols = [n // 2 - 1, n - 1], [0, n // 2]
    table[np.ix_(rows, cols)] = table[np.ix_(rows, cols)][:, ::-1]
    return table


@pytest.mark.parametrize("table", [
    *(groupform.cyclic(n).cayley for n in (1, 2, 5, 16, 64, 130)),
    groupform.klein_four().cayley,
    groupform.dihedral3().cayley,
    *(groupform.weyl_rep(d).group.cayley for d in (2, 3, 8, 16)),
    (np.arange(7)[:, None] - np.arange(7)) % 7,          # subtraction: a quasigroup
    (np.arange(130)[:, None] - np.arange(130)) % 130,    # in 130 blocks of one row
    intercalated(64),                                    # found in the last block
    intercalated(130),
], ids=lambda t: f"n={len(t)}")
def test_blocked_associativity_gives_the_whole_comparisons_verdict(table):
    if associative(table):
        assert groupform.finite_group(table).order == len(table)
    else:
        with pytest.raises(NotAGroup, match=r"^Cayley table is not associative$"):
            groupform.finite_group(table)


def test_associativity_at_order_256_holds_a_bounded_block():
    table = np.array(groupform.weyl_rep(16).group.cayley)
    tracemalloc.start()
    try:
        groupform.finite_group(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two blocks of 2^16 int64 entries, 1 MiB, and the Latin-square sorts;
    # the whole comparison held 272 MiB
    assert peak <= 4 * 2**20
