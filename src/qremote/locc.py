"""Two-party protocol orchestration over local operations and classical messages.

A Program is an ordered list of steps against a fixed register layout (one
owner per tensor factor). Running a program enumerates the full measurement
branch tree, never one sampled run: correctness claims for these protocols
are quantified over all outcomes. A branch's transcript is the run's
record (each step on its resolved factors, with no operator) read beside the
branch's outcome row: it holds the local operations, the measurement
outcomes, and the classical messages that carried outcomes between the
parties, and transcript_lines renders it.

run_protocol advances all branches together on one fixed grid: after each
measurement the batch has one row per combination of outcomes so far, in
lexicographic order, over the factors not yet measured, so each step's
shape follows from the program. Each step's factors are resolved to axes of
that array by one check (_factor_axes) and recorded. A measurement copies
the rows into one new array, the measured axis next to the rows, and
divides each by the root of its probability, summed from the real and
imaginary parts with no conjugated copy; an outcome at or below PROB_FLOOR
is divided by inf, so its row and every row under it are zeros. A boolean
grid, one axis per measurement, marks the outcomes kept. An operator step
holds every operator it applies, built with the program, and is a function
of the rows moved to put its axes first, a coupling's control first: a
local step is one product; a conditioned step is its table broadcast along
its message's grid axis in one product, with the identity for each payload
no kept row reaches; a coupling sum_k B|k><k|B^dag (x) V_k, the opening
step of every protocol here, is three products, none larger than the rows,
its B and V_k certified by qcore.certify_coupling. A table qcore certified
as it made it (the shifts, clocks, F, I, the phase gate, a group's U(f) and
M, bqst's U, and what is gathered from them) is not checked densely again:
its step reads the defects off the certificate. R_m and a partition's basis
V are checked by the step that holds them. Each measurement adds
the probability it prunes to one running total, and the measurement that
takes it past NORM_TOL raises NotNormalized then and there. The run's
outcomes are read off the grid, and the kept rows gathered only if one was
pruned. One gate closes the run: every row of the final array must have
norm 1 within NORM_TOL, checked in one pass; the final array is frozen in
place, and copied only if it is a strided view. The run is returned as
arrays, one Run: the outcome columns, the probabilities, the norms the gate
measured and the checked amplitudes, beside one operator-free record of the
steps and of the measured factors. No Branch is built as the run closes:
the lists the views read are each made in one pass. A Branch is a view of
one row of a Run, made on indexing or iteration; its output and outcomes
are derived from the run on each read. Its full state is a
qcore.StateVector that stores the row as is and labels each measured factor
with its outcome's basis state, so reading it copies no amplitudes; the
zero-filled dense vector is built only if read. The closing gate is the
check each branch's state and output rely on: StateVector._prechecked
builds them from the row and its norm, and checks nothing again.

A Program declares its registers, dims: the input at factor 0, then a
maximally entangled pair on each of (1, 2), (3, 4), ... prepare checks the
input against them and appends the pairs, as one array whose norm is
checked once, and entcost reads cost rows off
the same program. Every protocol runner returns the Run of
run_protocol(program, prepare(program, input)), and its program leaves
exactly its output register unmeasured. A step-by-step trace
(wang.trace_branch) is the program cut after each traced step, run as is.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import index

import numpy as np

from .errors import (
    DimensionMismatch, LocalityViolation, MissingClassicalDependency, NonFinite, NotNormalized,
)
from . import qcore
from .qcore import StateVector


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"


ALICE = Party.ALICE
BOB = Party.BOB

# Register layout shared by the remote-implementation protocols:
# factor 0 = Alice's data register, factor 1 = Alice's resource half,
# factor 2 = Bob's resource half.
PROTOCOL_OWNERS = (ALICE, ALICE, BOB)


# --- program steps ---------------------------------------------------------

@dataclass(frozen=True)
class LocalStep:
    """Fixed unitary applied by one party to factors it owns."""

    party: Party
    label: str
    matrix: np.ndarray
    targets: tuple[int, ...]


@dataclass(frozen=True)
class ConditionalStep:
    """Unitary whose matrix depends on a classical message received earlier:
    unitaries is a (payloads, d, d) table, and payload k applies
    unitaries[k]."""

    party: Party
    label: str
    unitaries: np.ndarray
    targets: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class MeasureStep:
    """Computational-basis measurement; the outcome may be sent to the peer."""

    party: Party
    target: int
    message: str
    send_to: Party | None = None

    @property
    def targets(self) -> tuple[int, ...]:
        """The measured factor, as the other steps name their factors."""
        return (self.target,)


@dataclass(frozen=True)
class CouplingStep:
    """Controlled coupling W = sum_k B|k><k|B^dag (x) V_k applied by one
    party: basis is a d_c x d_c unitary B on the control factor, and
    unitaries the (d_c, d_t, d_t) stack of the V_k on the target factor,
    one per column of B."""

    party: Party
    label: str
    basis: np.ndarray
    unitaries: np.ndarray
    control: int
    target: int

    @property
    def targets(self) -> tuple[int, ...]:
        """Both factors in ascending order, as the transcript records them."""
        return tuple(sorted((self.control, self.target)))


Step = LocalStep | CouplingStep | ConditionalStep | MeasureStep


# --- the run's record ---------------------------------------------------------

@dataclass(frozen=True)
class LocalOpEvent:
    """An operator step in the run's record: its resolved factors, no operator."""

    party: Party
    label: str
    targets: tuple[int, ...]
    consumed: str | None = None   # message tag this operation depended on


class Run(qcore.Immutable, Sequence):
    """Every branch of one run, as arrays over the B surviving branches in
    lexicographic outcome order: outcomes (B, m), one column per
    MeasureStep in program order; probabilities (B,); norms (B,), each
    row's norm as the run's closing gate passed it; amplitudes (B, *live
    dims), the state of the unmeasured factors in factor order, one axis
    per factor. All four are read-only. steps is the run's record of the
    program on its resolved factors (a LocalOpEvent per operator step, a
    MeasureStep per measurement), measured the factor each MeasureStep
    targets, in the same order, sent the (column, tag) of each measurement
    whose outcome is sent as a message, and factor_dims the register layout.

    A Run is an immutable sequence of Branch views: len, integer indexing
    (negative from the end) and iteration in outcome order. The view reads
    lists made once here, as the run closes: each row as a tuple of Python
    ints, each probability and norm as a float, each row of amplitudes as
    an array view (0-d where every factor is measured) and each branch's
    measured factors as basis labels.
    run_protocol builds it from its final rows, and building a Run runs the
    closing gate (_checked_output) on them, so every state a view builds
    rests on it."""

    __slots__ = (
        "steps", "measured", "sent", "factor_dims",
        "outcomes", "probabilities", "norms", "amplitudes",
        "_rows", "_probs", "_norms", "_amps", "_labels",
    )

    def __init__(self, steps, factor_dims, batch, outcomes, probabilities):
        amplitudes, norms = _checked_output(batch, outcomes)
        measures = [s for s in steps if isinstance(s, MeasureStep)]
        measured = tuple([s.target for s in measures])
        sent = tuple((j, s.message) for j, s in enumerate(measures) if s.send_to is not None)
        columns = outcomes.T.tolist()   # Python ints, one list per measurement
        if columns:
            rows = list(zip(*columns))
            # each (factor, k) label made once, for the outcomes kept, and
            # shared by the branches it labels
            tables = [{k: (f, k) for k in set(col)} for f, col in zip(measured, columns)]
            labels = list(zip(*(map(t.__getitem__, col) for t, col in zip(tables, columns))))
        else:   # no measurement: the one branch has an empty row
            rows = labels = [()]
        for arr in (outcomes, probabilities, norms):
            arr.setflags(write=False)
        init = object.__setattr__
        init(self, "steps", steps)
        init(self, "measured", measured)
        init(self, "sent", sent)
        init(self, "factor_dims", factor_dims)
        init(self, "outcomes", outcomes)
        init(self, "probabilities", probabilities)
        init(self, "norms", norms)
        init(self, "amplitudes", amplitudes)
        init(self, "_rows", rows)
        init(self, "_probs", probabilities.tolist())
        init(self, "_norms", norms.tolist())
        # a 1-D array iterates as scalars: its rows are taken as 0-d views
        init(self, "_amps", list(amplitudes) if amplitudes.ndim > 1
             else [amplitudes[i, ...] for i in range(len(amplitudes))])
        init(self, "_labels", labels)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i) -> Branch:
        """The view of branch i; a slice, like any non-integer, is a TypeError."""
        i, n = index(i), len(self._rows)
        if not -n <= i < n:
            raise IndexError(f"branch {i} out of range for a run of {n}")
        return _view(self, i % n)

    def __iter__(self) -> Iterator[Branch]:
        n = len(self._rows)
        return map(_view, repeat(self, n), range(n))


class Branch(qcore.Immutable):
    """One measurement branch: a view of branch i of a Run, which it reads
    for everything it returns. row is its outcome per MeasureStep in
    program order, probability, norm and amplitudes (a read-only view of
    its row of Run.amplitudes) its entries of the run's arrays, and steps,
    measured and factor_dims are shared by every branch of the run. Its
    output, state and outcomes are built on each read."""

    __slots__ = ("_run", "_i")

    def __eq__(self, other) -> bool:
        """Views of one branch of one run are equal, so a Run finds its
        own views (in, index and count)."""
        return isinstance(other, Branch) and other._run is self._run and other._i == self._i

    def __hash__(self) -> int:
        return hash((id(self._run), self._i))

    @property
    def steps(self) -> tuple[LocalOpEvent | MeasureStep, ...]:
        return self._run.steps

    @property
    def measured(self) -> tuple[int, ...]:
        return self._run.measured

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self._run.factor_dims

    @property
    def row(self) -> tuple[int, ...]:
        return self._run._rows[self._i]

    @property
    def probability(self) -> float:
        return self._run._probs[self._i]

    @property
    def norm(self) -> float:
        """The norm of amplitudes that the run's closing gate passed."""
        return self._run._norms[self._i]

    @property
    def amplitudes(self) -> np.ndarray:
        return self._run._amps[self._i]

    @property
    def output(self) -> StateVector:
        """The state of the unmeasured factors, built on each read with no
        check but the run's closing gate."""
        run, i = self._run, self._i
        amps = run._amps[i]
        return StateVector._prechecked(amps, amps.shape, (), run._norms[i])

    @property
    def state(self) -> StateVector:
        """The full register state, built on each read with no check but the
        run's closing gate and without copying the amplitudes: they are
        stored for the unmeasured factors, and each measured factor is a
        basis label, in its outcome's basis state. Its dense form is built
        only if read."""
        run, i = self._run, self._i
        return StateVector._prechecked(run._amps[i], run.factor_dims, run._labels[i], run._norms[i])

    @property
    def outcomes(self) -> dict[str, int]:
        """Message tag -> payload, in the order the messages were sent."""
        row = self.row
        return {tag: row[j] for j, tag in self._run.sent}


_new_view = object.__new__
_set_run, _set_i = Branch._run.__set__, Branch._i.__set__


def _view(run: Run, i: int) -> Branch:
    """Branch i of the run, made without __init__: Branch.__setattr__
    refuses every assignment, so its slots are set through their
    descriptors."""
    view = _new_view(Branch)
    _set_run(view, run)
    _set_i(view, i)
    return view


# --- resource states -------------------------------------------------------

def maximally_entangled(n: int) -> StateVector:
    """sum_k |k>|k> / sqrt(n) over two n-dimensional registers."""
    (n,) = qcore.dimensions((n,), "resource dimension")
    return StateVector(_pair(n), (n, n))


def _pair(n: int) -> np.ndarray:
    """The amplitudes of maximally_entangled(n)."""
    amps = np.zeros(n * n, dtype=complex)
    amps[:: n + 1] = 1.0 / math.sqrt(n)
    return amps


# --- program execution -----------------------------------------------------

@dataclass(frozen=True)
class Program:
    owners: tuple[Party, ...]
    steps: tuple[Step, ...]
    dims: tuple[int, ...] = ()   # input, then a maximally entangled pair per two


def prepare(program: Program, input_state: StateVector) -> StateVector:
    """The input at factor 0, then a maximally entangled pair on each of
    factors (1, 2), (3, 4), ... of program.dims; UnsupportedProblem if the
    layout is past qcore.MAX_AMPLITUDES. The state is built as one array,
    of the products qcore.tensor would take (np.kron's, an outer product
    flattened), and its norm checked once."""
    dims = input_state.factor_dims
    if dims != program.dims[:1]:
        raise DimensionMismatch(f"input dimensions {dims} != {program.dims[:1]}")
    qcore.check_size(math.prod(program.dims), f"register layout {program.dims}")
    amps = input_state.amplitudes
    for n in program.dims[1::2]:
        amps, dims = np.multiply.outer(amps, _pair(n)).reshape(-1), dims + (n, n)
    amps.setflags(write=False)   # the state keeps the product as it is
    return StateVector(amps, dims)


def _check_owned(owners, party: Party, factors: tuple[int, ...]) -> None:
    """LocalityViolation unless party owns each of the resolved factors."""
    for t in factors:
        if owners[t] is not party:
            raise LocalityViolation(
                f"{party.value} acted on factor {t} owned by {owners[t].value}"
            )


def _factor_axes(owners, step: Step, live: list[int]) -> tuple[tuple[int, ...], list[int]]:
    """The factors the step acts on, a coupling's control first, resolved
    under the step's name, and their batch axes: the one check of a step's
    factors (resolved once, then _check_owned, then none may have been
    measured)."""
    if isinstance(step, CouplingStep):
        what, factors = f"coupling {step.label!r}", (step.control, step.target)
    elif isinstance(step, MeasureStep):
        what, factors = f"measurement {step.message!r}", step.targets
    else:
        what, factors = f"step {step.label!r}", step.targets
    factors = qcore.indices(factors, len(owners), what)
    _check_owned(owners, step.party, factors)
    for t in factors:
        if t not in live:
            raise DimensionMismatch(f"factor {t} was measured and cannot be used again")
    return factors, [1 + live.index(t) for t in factors]


def _coupling(step: CouplingStep, factors, dims: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """sum_k B|k><k|B^dag (x) V_k, certified from its basis and unitaries
    (qcore.certify_coupling), applied to rows of shape (branch, d_c, d_t,
    *rest), on factors (control, target). The sum is never formed: B^dag
    turns the control into the eigenbasis, where column k carries V_k on
    the target, and B turns it back."""
    basis = qcore._numeric(step.basis, f"coupling {step.label!r}")
    stack = qcore._numeric(step.unitaries, f"coupling {step.label!r}")
    control, target = factors
    d_c, d_t = dims[control], dims[target]
    if (basis.shape, stack.shape) != ((d_c, d_c), (d_c, d_t, d_t)):
        raise DimensionMismatch(
            f"coupling {step.label!r} has basis {basis.shape} and terms "
            f"{stack.shape} for factors {control} and {target}"
        )
    qcore.certify_coupling(basis, stack, step.label)
    y = basis.conj().T @ rows.reshape(len(rows), d_c, -1)
    y = stack @ y.reshape(len(rows), d_c, d_t, -1)
    return basis @ y.reshape(len(rows), d_c, -1)


def run_protocol(program: Program, initial: StateVector) -> Run:
    """Execute every measurement branch of the program.

    Returns the Run of every surviving outcome combination, in deterministic
    (lexicographic outcome) order. Branch probabilities multiply along the
    measurement path. The module docstring says how the branches are run.
    """
    owners, dims = program.owners, initial.factor_dims
    if len(owners) != len(dims):
        raise DimensionMismatch(
            f"{len(owners)} owners declared for {len(dims)} factors"
        )
    batch = initial.tensor_form()[None]   # (row, *dims of the live factors)
    live = list(range(len(dims)))         # factor on each axis after the first
    prob = np.ones(1)
    kept = np.ones((), dtype=bool)   # the outcome grid, one axis per measurement
    lost = 0.0                       # mass dropped by the measurements
    inbox: dict[Party, dict[str, int]] = {ALICE: {}, BOB: {}}   # tag -> grid axis
    record: list[LocalOpEvent | MeasureStep] = []   # the steps on their resolved factors

    for step in program.steps:
        factors, axes = _factor_axes(owners, step, live)
        if isinstance(step, MeasureStep):
            (target,), (axis,) = factors, axes
            p = _weights(batch, axis)
            kept_mask = p > qcore.PROB_FLOOR
            lost += prob @ np.where(kept_mask, 0.0, p).sum(axis=1)
            if not lost <= qcore.NORM_TOL:   # nan, from a nan row, is at fault too
                raise NotNormalized(
                    f"measurement {step.message!r} of factor {target} brings the "
                    f"probability pruned below {qcore.PROB_FLOOR} to {lost:.3e}, "
                    f"beyond {qcore.NORM_TOL}"
                )
            # one row per (row, outcome), copied, then divided in place: a division out of
            # the strided view buffers twice the memory; inf zeroes a pruned outcome's row
            moved = np.moveaxis(batch, axis, 1)
            batch = np.empty((p.size, *moved.shape[2:]), dtype=complex)
            split = batch.reshape(moved.shape)
            np.copyto(split, moved)
            split /= np.where(kept_mask, np.sqrt(p), np.inf)[(...,) + (None,) * (split.ndim - 2)]
            prob = (prob[:, None] * p).reshape(-1)
            kept = kept_mask.reshape(kept.shape + p.shape[1:])
            live.remove(target)
            record.append(MeasureStep(step.party, target, step.message, step.send_to))
            # the measuring party always learns its own outcome, and the receiver a sent one
            for party in {step.party, step.send_to} - {None}:
                inbox[party][step.message] = kept.ndim - 1
            continue
        perm = [0, *axes, *(a for a in range(1, batch.ndim) if a not in axes)]
        moved = batch.transpose(perm)
        if isinstance(step, LocalStep):
            op = qcore.local_unitary(step.matrix, dims, factors)
            new = op @ moved.reshape(len(moved), len(op), -1)
            record.append(LocalOpEvent(step.party, step.label, factors))
        elif isinstance(step, CouplingStep):
            new = _coupling(step, factors, dims, moved)
            record.append(LocalOpEvent(step.party, step.label, tuple(sorted(factors))))
        else:
            new = _conditioned(step, factors, dims, inbox, kept, moved)
            record.append(LocalOpEvent(step.party, step.label, factors, step.message))
        batch = new.reshape(moved.shape).transpose(*map(perm.index, range(len(perm))))
        del new, moved   # the old batch ends with the step

    outcomes = np.argwhere(kept)
    if len(outcomes) < kept.size:   # gather the kept rows only if one was pruned
        batch, prob = batch[kept.reshape(-1)], prob[kept.reshape(-1)]
    return Run(tuple(record), dims, batch, outcomes, prob)


def _weights(batch: np.ndarray, axis: int) -> np.ndarray:
    """|amplitude|^2 summed over every axis but the row and the given one,
    from the real and imaginary views: no copy of the batch."""
    axes, re, im = list(range(batch.ndim)), batch.real, batch.imag
    return np.einsum(re, axes, re, axes, [0, axis]) + np.einsum(im, axes, im, axes, [0, axis])


def _conditioned(
    step: ConditionalStep, factors: tuple[int, ...], dims: tuple[int, ...], inbox,
    kept: np.ndarray, rows: np.ndarray,
) -> np.ndarray:
    """The step on rows (row, *dims of factors, *rest), one per cell of the
    outcome grid kept, as a new array. Only entries that kept rows reach are
    checked (the table itself if all are); I stands in for the others' zero rows."""
    if step.message not in inbox[step.party]:
        raise MissingClassicalDependency(
            f"{step.party.value} step {step.label!r} needs message "
            f"{step.message!r} before it runs"
        )
    axis = inbox[step.party][step.message]
    others = tuple(a for a in range(kept.ndim) if a != axis)
    reached = kept.any(axis=others)
    values = np.flatnonzero(reached)
    table = qcore._numeric(step.unitaries, f"step {step.label!r} table")
    if table.ndim != 3 or len(table) <= values[-1]:
        raise DimensionMismatch(
            f"step {step.label!r} has table shape {table.shape} for payloads "
            f"up to {values[-1]}"
        )
    ops = qcore.local_unitary(
        table if len(values) == len(table) else table[values], dims, factors,
        lambda i: f"step {step.label!r} at {step.message}={values[i]}",
    )
    d = ops.shape[-1]
    grid = (*kept.shape, d, -1)   # the rows as (*outcomes, d, rest)
    if len(values) < len(reached):   # I for each unreached payload
        checked, ops = ops, np.tile(np.eye(d, dtype=complex), (len(reached), 1, 1))
        ops[values] = checked
    out = np.empty(rows.shape, dtype=complex)   # owned in the rows' shape, as Run's views read it
    np.matmul(np.expand_dims(ops, others), rows.reshape(grid), out=out.reshape(grid))
    return out


def _checked_output(batch: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run's closing gate, and the one check that each branch's state
    and output rely on: batch frozen once and returned with each row's
    norm, after checking that every row has norm 1 within NORM_TOL, in one
    pass (NonFinite or NotNormalized names the first row at fault by its
    outcomes). The rows are read-only, C-contiguous and complex, as
    StateVector._prechecked requires."""
    # a copy only of a strided view: other memory is the run's own or the
    # frozen input's, and is frozen in place
    final = np.ascontiguousarray(batch)
    if final.base is not None:
        final.base.setflags(write=False)
    final.setflags(write=False)
    # each row's real and imaginary parts, interleaved: a view, not a copy
    parts = final.reshape(len(final), -1).view(float)
    # a non-finite norm is named below, not warned about
    with np.errstate(all="ignore"):
        norms = np.sqrt(np.einsum("br,br->b", parts, parts))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= qcore.NORM_TOL))
    if len(bad):
        i = int(bad[0])
        where = f"output of the branch with outcomes {tuple(outcomes[i].tolist())}"
        norm = float(norms[i])
        if not math.isfinite(norm):
            raise NonFinite(f"{where} has norm {norm}, which is not finite")
        raise NotNormalized(f"{where} has norm {norm!r}, deviating from 1 beyond {qcore.NORM_TOL}")
    return final, norms


def transcript_lines(branch: Branch) -> list[str]:
    """The branch's transcript, rendered from its record (steps) and its
    outcome row: LOCALOP|party|label|factors[;uses=tag] per operator step,
    MEASURE|party|factor|outcome=k per measurement, followed by
    MSG|sender|tag|to=receiver,payload=k when the outcome is sent."""
    lines, row = [], iter(branch.row)
    for s in branch.steps:
        if isinstance(s, LocalOpEvent):
            targets = ",".join(map(str, s.targets))
            data = targets if s.consumed is None else f"{targets};uses={s.consumed}"
            lines.append(f"LOCALOP|{s.party.value}|{s.label}|{data}")
            continue
        k = next(row)
        lines.append(f"MEASURE|{s.party.value}|{s.target}|outcome={k}")
        if s.send_to is not None:
            lines.append(f"MSG|{s.party.value}|{s.message}|to={s.send_to.value},payload={k}")
    return lines
