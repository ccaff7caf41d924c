"""The index rule, stated once in qcore.index_in: every factor, basis-state
and outcome index is accepted or refused the same way at every entry point
that takes one, and a refusal is always a DimensionMismatch saying why."""

import numpy as np
import pytest

from qremote import locc, qcore, wang
from qremote.errors import DimensionMismatch, LocalityViolation
from qremote.locc import (
    ALICE, BOB, ConditionalStep, CouplingStep, LocalStep, MeasureStep, Program,
)
from qremote.qcore import StateVector

from util import random_state

# every entry point below indexes range(SIZE): three factors, three levels
# or three outcomes
SIZE = 3
F3 = qcore.fourier_matrix(SIZE)
SHIFTS = qcore.shift_powers(SIZE)
STATE = random_state(SIZE ** 3, np.random.default_rng(3))
INPUT = StateVector(STATE.amplitudes, (SIZE,) * 3)
NINE = np.arange(1, 10) / np.linalg.norm(np.arange(1, 10))   # the two factors left
PARTITION = wang.diagonal_partition(SIZE)
PHASES = wang.Phases(np.exp(2j * np.pi * np.arange(SIZE) / 5))
TRACE_INPUT = random_state(SIZE, np.random.default_rng(4))


def run(*steps):
    return locc.run_protocol(Program((ALICE,) * 3, steps), INPUT)


ENTRY_POINTS = {
    "local-step": lambda i: run(LocalStep(ALICE, "F", F3, (i,))),
    "conditioned-step": lambda i: run(
        MeasureStep(ALICE, 0, "x"), ConditionalStep(ALICE, "X^x", SHIFTS, (i,), "x")),
    "measure-step": lambda i: run(MeasureStep(ALICE, i, "x")),
    "coupling-control": lambda i: run(CouplingStep(ALICE, "P", F3, SHIFTS, i, 0)),
    "coupling-target": lambda i: run(CouplingStep(ALICE, "P", F3, SHIFTS, 0, i)),
    "local_unitary": lambda i: qcore.local_unitary(F3, (SIZE,) * 3, (i,)),
    "factor_overlap": lambda i: qcore.factor_overlap(INPUT, [0.6, 0.8j, 0], i),
    "basis-factor": lambda i: StateVector(NINE, (SIZE,) * 3, [(i, 2)]),
    "basis-state": lambda i: StateVector(NINE, (SIZE,) * 3, [(0, i)]),
    "ket": lambda i: qcore.ket(i, SIZE),
    "trace-l": lambda i: wang.trace_branch(PARTITION, PHASES, TRACE_INPUT, i, 0),
    "trace-m": lambda i: wang.trace_branch(PARTITION, PHASES, TRACE_INPUT, 0, i),
}


def summary(result):
    """What an entry point returned, as plain values; every index it holds
    must be a Python int, never a bool or a numpy value."""
    if isinstance(result, locc.Run):
        for s in result.steps:
            assert all(type(t) is int for t in s.targets), s
        return result.steps, result.outcomes.tolist(), result.amplitudes.tolist()
    if isinstance(result, StateVector):
        assert all(type(f) is int and type(k) is int for f, k in result.basis), result.basis
        return result.factor_dims, result.basis, result.amplitudes.tolist()
    if isinstance(result, list):   # trace stages
        return [(b.row, b.steps, b.state.amplitudes.tolist()) for b in result]
    return np.asarray(result).tolist()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [1, np.int64(1), np.array(1), True],
                         ids=["int", "int64", "0-d-array", "True"])
def test_every_integer_form_of_one_is_index_one(entry, value):
    call = ENTRY_POINTS[entry]
    assert summary(call(value)) == summary(call(1))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value, why", [
    ("1", "not an integer"),
    (1.0, "not an integer"),
    (2.5, "not an integer"),
    (None, "not an integer"),
    (-1, r"not in range\(3\)"),
    (SIZE, r"not in range\(3\)"),
], ids=["str", "float-1", "float-2.5", "None", "minus-1", "size"])
def test_a_value_that_is_no_index_in_range_is_a_dimension_mismatch(entry, value, why):
    with pytest.raises(DimensionMismatch, match=why):
        ENTRY_POINTS[entry](value)


TUPLE_ENTRY_POINTS = {
    "local-step": lambda t: run(LocalStep(ALICE, "F", F3, t)),
    "conditioned-step": lambda t: run(
        MeasureStep(ALICE, 0, "x"), ConditionalStep(ALICE, "X^x", SHIFTS, t, "x")),
    "local_unitary": lambda t: qcore.local_unitary(F3, (SIZE,) * 3, t),
    "apply_local": lambda t: qcore.apply_local(F3, INPUT, t),
    "schmidt": lambda t: qcore.schmidt(INPUT, t).coefficients,
}


@pytest.mark.parametrize("entry", TUPLE_ENTRY_POINTS)
def test_a_generator_of_factors_runs_on_exactly_the_factors_it_yields(entry):
    call = TUPLE_ENTRY_POINTS[entry]
    assert summary(call(f for f in [1])) == summary(call((1,)))
    with pytest.raises(DimensionMismatch, match=r"not in range\(3\)"):
        call(f for f in [SIZE])


@pytest.mark.parametrize("entry", ["measure-step", "coupling-control", "factor_overlap", "ket"])
def test_a_generator_where_one_index_belongs_is_a_dimension_mismatch(entry):
    with pytest.raises(DimensionMismatch, match="not an integer"):
        ENTRY_POINTS[entry](f for f in [1])


@pytest.mark.parametrize("entry", TUPLE_ENTRY_POINTS)
def test_a_factor_that_is_no_sequence_is_a_dimension_mismatch(entry):
    # a bare TypeError ("'int' object is not iterable") would escape otherwise
    with pytest.raises(DimensionMismatch, match="not a sequence of factors"):
        TUPLE_ENTRY_POINTS[entry](1)


@pytest.mark.parametrize("targets, error, match", [
    pytest.param((1, 1), DimensionMismatch, "'F2' names a factor twice", id="repeated"),
    pytest.param((2, 2), DimensionMismatch, "'F2' names a factor twice",
                 id="repeated-and-bobs"),
    pytest.param((2, 3), DimensionMismatch, r"'F2' factor 3 is not in range\(3\)",
                 id="out-of-range-after-bobs"),
    pytest.param((1, 2), LocalityViolation, "factor 2 owned by bob", id="bobs"),
])
def test_a_step_is_resolved_under_its_name_before_its_locality(targets, error, match):
    step = LocalStep(ALICE, "F2", np.kron(F3, F3), targets)
    with pytest.raises(error, match=match):
        locc.run_protocol(Program((ALICE, ALICE, BOB), (step,)), INPUT)
