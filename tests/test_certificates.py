"""Certificates: qcore certifies a table where it makes or checks it, binds
the certificate to that very array in memory no caller can write, and a
step skips the dense unitarity check only for such a table."""

import gc
import re

import numpy as np
import pytest

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import NonUnitary, NonUnitaryM
from qremote.locc import ALICE, BOB, ConditionalStep, LocalStep, MeasureStep, Program

from util import random_state


def is_certified(table):
    return qcore._certificate(table) is not None


def recorded_checks(monkeypatch):
    """The list every stack qcore.unitarity_defect checks is appended to."""
    checked, unitarity_defect = [], qcore.unitarity_defect

    def defect(stack):
        checked.append(stack)
        return unitarity_defect(stack)

    monkeypatch.setattr(qcore, "unitarity_defect", defect)
    return checked


def certified_tables():
    """Every kind of table qcore certifies, by name."""
    rng = np.random.default_rng(1)
    p = wang.random_partition(4, 3, rng)
    program = wang.wang_program(p, wang.random_phases(3, rng))
    dense = groupform.dihedral3_rep()
    return {
        "shift_powers": qcore.shift_powers(4),
        "clock_powers": qcore.clock_powers(4),
        "fourier_matrix": qcore.fourier_matrix(5),
        "inverse fourier_matrix": qcore.fourier_matrix(5, inverse=True),
        "identity": qcore.identity(3),
        "gather": qcore.gather(qcore.shift_powers(3), [2, 2, 0]),
        "checked_unitary": qcore.checked_unitary(qcore.random_unitary(3, rng)),
        "wang phase gate": wang.phase_gate(wang.random_phases(4, rng)),
        "wang coupling shifts": program.steps[0].unitaries,
        "monomial rep": groupform.weyl_rep(3).matrices,
        "dense rep": dense.matrices,
        "z_gate": groupform.z_gate(5),
        "mixer": groupform.mixer(dense, np.eye(6)[2]),
        "bqst U": entcost.bqst_program(qcore.random_unitary(3, rng)).steps[6].matrix,
    }


@pytest.mark.parametrize("name", list(certified_tables()))
def test_a_certified_table_cannot_be_made_writable(name):
    table = certified_tables()[name]
    assert is_certified(table)
    assert qcore.unitarity_defect(table).max() <= qcore.NORM_TOL
    with pytest.raises(ValueError, match="WRITEABLE"):
        table.setflags(write=True)


def test_a_plain_read_only_array_holds_no_certificate():
    # numpy lets the owner of plain read-only memory make it writable again
    plain = np.eye(2, dtype=complex)
    plain.setflags(write=False)
    plain.setflags(write=True)
    plain.setflags(write=False)
    assert not is_certified(plain)
    table = qcore.shift_powers(3)
    for other in (table.copy(), table[:], table.reshape(9, 3), np.asarray(table).view()):
        assert not is_certified(other)


def test_a_certificate_goes_with_its_table():
    table = qcore.gather(qcore.shift_powers(6), [1, 2])   # shift_powers(6) itself is cached
    key = id(table)
    assert key in qcore._CERTIFICATES
    del table
    gc.collect()
    assert key not in qcore._CERTIFICATES


def test_shift_and_clock_tables_are_cached_up_to_the_cached_order():
    # a table past the cached order is built afresh each time, so no large
    # table stays in memory once its program is gone
    n = qcore.CACHED_ORDER
    for make in (qcore.shift_powers, qcore.clock_powers):
        assert make(n) is make(n)
        big = make(n + 1)
        assert big is not make(n + 1) and is_certified(big)


def test_a_step_skips_the_check_only_for_a_certified_table(monkeypatch):
    table = qcore.shift_powers(3)
    checked = recorded_checks(monkeypatch)
    assert qcore.local_unitary(table, (3,), (0,)) is table
    assert checked == []
    # a writable copy with the same entries is checked densely, and passes
    copy = table.copy()
    qcore.local_unitary(copy, (3,), (0,))
    assert len(checked) == 1 and checked[0] is copy


def bad_copy_message(table, make_step):
    """The NonUnitary message of a run whose step holds table."""
    program = Program((ALICE, BOB), (
        MeasureStep(ALICE, 0, "x", send_to=BOB), make_step(table),
    ))
    initial = qcore.tensor(random_state(3, np.random.default_rng(2)), qcore.ket(0, 3))
    with pytest.raises(NonUnitary) as caught:
        locc.run_protocol(program, initial)
    return str(caught.value)


@pytest.mark.parametrize("make_step", [
    lambda t: ConditionalStep(BOB, "X^x", t, (1,), "x"),
    lambda t: LocalStep(BOB, "X", t[1], (1,)),
], ids=["conditioned", "local"])
def test_a_step_from_a_non_unitary_copy_of_a_certified_table_is_refused(make_step):
    copy = qcore.shift_powers(3).copy()
    copy[1, 0, 1] = 1.5
    # the class and message of a table that was never certified
    fresh = np.array(copy.tolist())
    message = bad_copy_message(copy, make_step)
    assert message == bad_copy_message(fresh, make_step)
    assert re.search(r"on factors \(1,\) is not unitary \(defect 1\.250e\+00\)", message)


def test_a_gather_certifies_only_what_a_certified_stack_holds():
    bad = np.stack([np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)])
    taken = qcore.gather(bad, [1, 0])
    assert not is_certified(taken)
    with pytest.raises(NonUnitary, match=r"defect 3\.000e\+00"):
        qcore.local_unitary(taken[:1], (2,), (0,))
    with pytest.raises(NonUnitary):
        qcore.local_unitary(taken, (2,), (0,))
    clocks = qcore.clock_powers(3)
    taken = qcore.gather(clocks, [2, 0])
    assert is_certified(taken)
    np.testing.assert_array_equal(taken, clocks[[2, 0]])
    np.testing.assert_array_equal(qcore._certificate(taken), qcore._certificate(clocks)[[2, 0]])


def test_fourier_matrix_is_checked_once_per_size_and_direction(monkeypatch):
    qcore._fourier.cache_clear()
    checked = recorded_checks(monkeypatch)
    f = qcore.fourier_matrix(7)
    assert qcore.fourier_matrix(7) is f
    f_inv = qcore.fourier_matrix(7, inverse=True)
    assert [c.shape for c in checked] == [(7, 7), (7, 7)]
    np.testing.assert_array_equal(f_inv, f.conj().T)
    np.testing.assert_array_equal(qcore._certificate(f), qcore.unitarity_defect(f))


def test_checked_unitary_certifies_only_what_passes():
    assert qcore.checked_unitary(np.eye(3, dtype=complex) * (1 + 1e-8)) is None
    assert qcore.checked_unitary(np.full((2, 2), np.nan, dtype=complex)) is None
    near = np.eye(3, dtype=complex) * (1 + 4e-10)
    checked = qcore.checked_unitary(near)
    assert is_certified(checked) and checked is not near
    np.testing.assert_array_equal(checked, near)


@pytest.mark.parametrize("cols, phases", [
    ([0, 0, 2], [1, 1, 1]),              # not a permutation
    ([0, 1, 2], [1, 1 + 1e-8, 1]),       # a phase off the unit circle
    ([0, 1, 2], [1, np.nan, 1]),
])
def test_from_monomial_certifies_only_a_unitary_form(cols, phases):
    table = qcore.from_monomial(cols, phases)
    assert not is_certified(table)
    with pytest.raises(NonUnitary):
        qcore.local_unitary(table, (3,), (0,))


def test_certified_tables_are_the_same_bytes():
    # each maker writes the entries it wrote before it certified them,
    # down to the sign of each zero
    n = 5
    grid = np.arange(n)
    clocks = np.zeros((n, n, n), dtype=complex)
    clocks[:, grid, grid] = np.exp(2j * np.pi * np.outer(grid, grid) / n)
    phases = wang.random_phases(n, np.random.default_rng(3))
    pairs = [
        (qcore.shift_powers(n), np.eye(n, dtype=complex)[(grid[:, None] + grid) % n]),
        (qcore.clock_powers(n), clocks),
        (wang.phase_gate(phases), np.diag(phases.values)),
        (qcore.identity(n), np.eye(n, dtype=complex)),
        (qcore.fourier_matrix(n, inverse=True), qcore.fourier_matrix(n).conj().T),
    ]
    for table, before in pairs:
        assert table.shape == before.shape and table.tobytes() == before.tobytes()


def test_the_builders_still_refuse_a_non_unitary_matrix():
    with pytest.raises(NonUnitary, match="bqst needs a unitary operation"):
        entcost.bqst_program(np.diag([1.0, 1.0 + 1e-8]))
    rep = groupform.pauli_rep()
    with pytest.raises(NonUnitaryM, match="sum c\\(f\\) R\\(f\\) is not unitary"):
        groupform.mixer(rep, [1.0, 1.0, 0.0, 0.0])
