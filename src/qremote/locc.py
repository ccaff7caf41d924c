"""Two-party protocol orchestration over local operations and classical messages.

A Program is an ordered list of steps against a fixed register layout (one
owner per tensor factor). Running a program enumerates the full measurement
branch tree, never one sampled run: correctness claims for these protocols
are quantified over all outcomes. Each branch yields an immutable transcript
recording local operations, measurement outcomes, and the classical messages
that carried outcomes between the parties.

run_protocol advances all branches together. Their states are the rows of
one array over the factors not yet measured. A measurement splits each row
into one row per outcome above PROB_FLOOR and drops the measured axis; the
outcome goes into a column, and a later step on that factor is a
DimensionMismatch. A local step is one matrix product over all rows. A
conditioned step builds and checks its operator once per distinct outcome
value and gathers it per row. A branch stores its outcomes, probability
and output (its row) and shares the run's operator-free record of the
steps; its transcript, outcomes and full state (each measured factor back
in its outcome's basis state) are derived from these on each read.

Every protocol runner returns run_protocol's Branch values, and each
runner's program leaves exactly its output register unmeasured. A
step-by-step trace (wang.trace_branch) is the program cut after each traced
step, run as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, LocalityViolation, MissingClassicalDependency
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
    """Unitary whose matrix depends on a classical message received earlier."""

    party: Party
    label: str
    build: Callable[[int], np.ndarray]
    targets: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class MeasureStep:
    """Computational-basis measurement; the outcome may be sent to the peer."""

    party: Party
    target: int
    message: str
    send_to: Party | None = None


Step = LocalStep | ConditionalStep | MeasureStep


# --- transcript events -----------------------------------------------------

@dataclass(frozen=True)
class LocalOpEvent:
    party: Party
    label: str
    targets: tuple[int, ...]
    consumed: str | None = None   # message tag this operation depended on


@dataclass(frozen=True)
class MeasurementEvent:
    party: Party
    target: int
    outcome: int


@dataclass(frozen=True)
class ClassicalMessageEvent:
    sender: Party
    receiver: Party
    tag: str
    payload: int


Event = LocalOpEvent | MeasurementEvent | ClassicalMessageEvent


@dataclass(frozen=True)
class Transcript:
    events: tuple[Event, ...]
    probability: float


@dataclass(frozen=True)
class Branch:
    """One measurement branch over registers of factor_dims. steps is the
    run's record of the program (a LocalOpEvent per operator step, each
    MeasureStep as is), row one outcome per MeasureStep in program order,
    and output the state of the unmeasured factors in factor order."""

    steps: tuple[LocalOpEvent | MeasureStep, ...]
    row: tuple[int, ...]
    probability: float
    output: StateVector
    factor_dims: tuple[int, ...]

    def _measured(self):
        """(MeasureStep, outcome) pairs in program order."""
        return zip((s for s in self.steps if isinstance(s, MeasureStep)), self.row)

    @property
    def transcript(self) -> Transcript:
        """The branch's events, built on each read from steps and row."""
        row = iter(self.row)
        events: list[Event] = []
        for s in self.steps:
            if isinstance(s, LocalOpEvent):
                events.append(s)
                continue
            k = next(row)
            events.append(MeasurementEvent(s.party, s.target, k))
            if s.send_to is not None:
                events.append(ClassicalMessageEvent(s.party, s.send_to, s.message, k))
        return Transcript(tuple(events), self.probability)

    @property
    def state(self) -> StateVector:
        """The full register state, built on each read: the output at the
        unmeasured factors, each outcome's basis state at its measured one."""
        index: list[int | slice] = [slice(None)] * len(self.factor_dims)
        for s, k in self._measured():
            index[s.target] = k
        full = np.zeros(math.prod(self.factor_dims), dtype=complex)
        full.reshape(self.factor_dims)[tuple(index)] = self.output.tensor_form()
        full.setflags(write=False)   # frozen here, so StateVector need not copy it
        return StateVector(full, self.factor_dims)

    @property
    def outcomes(self) -> dict[str, int]:
        """Message tag -> payload, in the order the messages were sent."""
        return {s.message: k for s, k in self._measured() if s.send_to is not None}


# --- resource states -------------------------------------------------------

def maximally_entangled(n: int) -> StateVector:
    """sum_k |k>|k> / sqrt(n) over two n-dimensional registers."""
    if n < 1:
        raise DimensionMismatch("resource dimension must be >= 1")
    amps = np.zeros(n * n, dtype=complex)
    amps[:: n + 1] = 1.0 / math.sqrt(n)
    return StateVector(amps, (n, n))


# --- program execution -----------------------------------------------------

@dataclass(frozen=True)
class Program:
    owners: tuple[Party, ...]
    steps: tuple[Step, ...]


def _check_locality(owners, party: Party, targets) -> None:
    for t in targets:
        if not 0 <= t < len(owners):
            raise DimensionMismatch(f"target {t} outside the register layout")
        if owners[t] is not party:
            raise LocalityViolation(
                f"{party.value} acted on factor {t} owned by {owners[t].value}"
            )


def run_protocol(program: Program, initial: StateVector) -> list[Branch]:
    """Execute every measurement branch of the program.

    Returns one Branch per surviving outcome combination, in deterministic
    (lexicographic outcome) order. Branch probabilities multiply along the
    measurement path. The module docstring says how the branches are run.
    """
    owners, dims = program.owners, initial.factor_dims
    if len(owners) != len(dims):
        raise DimensionMismatch(
            f"{len(owners)} owners declared for {len(dims)} factors"
        )
    batch = initial.tensor_form()[None]   # (branch, *dims of the live factors)
    live = list(range(len(dims)))         # factor on each axis after the first
    prob = np.ones(1)
    outcomes = np.zeros((1, 0), dtype=int)   # one column per measurement
    inbox: dict[Party, dict[str, int]] = {ALICE: {}, BOB: {}}   # tag -> column

    def axes(targets) -> list[int]:
        """Batch axes of the target factors, which must not be measured yet."""
        for t in targets:
            if t not in live:
                raise DimensionMismatch(f"factor {t} was measured and cannot be used again")
        return [1 + live.index(t) for t in targets]

    for step in program.steps:
        if isinstance(step, MeasureStep):
            _check_locality(owners, step.party, (step.target,))
            (axis,) = axes((step.target,))
            moved = np.moveaxis(batch, axis, 1)
            slabs = moved.reshape(moved.shape[:2] + (-1,))
            p = np.einsum("bkr,bkr->bk", slabs.conj(), slabs).real
            rows, ks = np.nonzero(p > qcore.PROB_FLOOR)
            kept = p[rows, ks]
            batch = moved[rows, ks] / np.sqrt(kept).reshape((-1,) + (1,) * (moved.ndim - 2))
            prob = prob[rows] * kept
            outcomes = np.column_stack((outcomes[rows], ks))
            live.remove(step.target)
            # the measuring party always learns its own outcome
            inbox[step.party][step.message] = outcomes.shape[1] - 1
            if step.send_to is not None:
                inbox[step.send_to][step.message] = outcomes.shape[1] - 1
            continue
        _check_locality(owners, step.party, step.targets)
        targets = axes(step.targets)
        if isinstance(step, LocalStep):
            ops = qcore.local_unitary(step.matrix, dims, step.targets)
        else:
            if step.message not in inbox[step.party]:
                raise MissingClassicalDependency(
                    f"{step.party.value} step {step.label!r} needs message "
                    f"{step.message!r} before it runs"
                )
            # one operator per distinct outcome value, gathered per branch
            values, index = np.unique(
                outcomes[:, inbox[step.party][step.message]], return_inverse=True
            )
            ops = np.stack([
                qcore.local_unitary(step.build(int(v)), dims, step.targets) for v in values
            ])[index]
        front = range(1, len(targets) + 1)
        moved = np.moveaxis(batch, targets, front)
        out = ops @ moved.reshape(len(moved), ops.shape[-1], -1)
        batch = np.moveaxis(out.reshape(moved.shape), front, targets)

    steps = tuple(
        s if isinstance(s, MeasureStep) else LocalOpEvent(
            s.party, s.label, s.targets, s.message if isinstance(s, ConditionalStep) else None)
        for s in program.steps
    )
    return [
        Branch(steps, tuple(row), p, StateVector(amps, amps.shape), dims)
        for amps, row, p in zip(batch, outcomes.tolist(), prob.tolist())
    ]


def transcript_lines(transcript: Transcript) -> list[str]:
    """Line-oriented text form, one event per line: EVENT|party|label|data."""
    lines = []
    for event in transcript.events:
        if isinstance(event, LocalOpEvent):
            targets = ",".join(str(t) for t in event.targets)
            data = targets if event.consumed is None else f"{targets};uses={event.consumed}"
            lines.append(f"LOCALOP|{event.party.value}|{event.label}|{data}")
        elif isinstance(event, MeasurementEvent):
            lines.append(
                f"MEASURE|{event.party.value}|{event.target}|outcome={event.outcome}"
            )
        else:
            lines.append(
                f"MSG|{event.sender.value}|{event.tag}|"
                f"to={event.receiver.value},payload={event.payload}"
            )
    return lines
