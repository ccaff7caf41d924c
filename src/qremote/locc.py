"""Two-party protocol orchestration over local operations and classical messages.

A Program is an ordered list of steps against a fixed register layout (one
owner per tensor factor). Running a program enumerates the full measurement
branch tree, never one sampled run: correctness claims for these protocols
are quantified over all outcomes. Each branch yields an immutable transcript
recording local operations, measurement outcomes, and the classical messages
that carried outcomes between the parties.
Every protocol runner returns Branch values. A step-by-step trace
(wang.trace_branch) is the program cut after each traced step, run as is.
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

    def outcome(self, tag: str) -> int:
        """Outcome carried by the classical message with the given tag."""
        for event in self.events:
            if isinstance(event, ClassicalMessageEvent) and event.tag == tag:
                return event.payload
        raise KeyError(f"no message tagged {tag!r}")

    def measurements(self) -> tuple[MeasurementEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, MeasurementEvent))


@dataclass(frozen=True)
class Branch:
    """One measurement branch: its transcript, the full register state and,
    when a protocol runner has factored it out, the output register."""

    transcript: Transcript
    state: StateVector
    output: StateVector | None = None

    @property
    def probability(self) -> float:
        return self.transcript.probability

    @property
    def outcomes(self) -> dict[str, int]:
        """Message tag -> payload, in the order the messages were sent."""
        return {
            e.tag: e.payload
            for e in self.transcript.events
            if isinstance(e, ClassicalMessageEvent)
        }


# --- resource states -------------------------------------------------------

@dataclass(frozen=True)
class ResourceState:
    """Bipartite resource, diagonal in its construction basis."""

    dims: tuple[int, int]
    coefficients: np.ndarray          # h_i, nonnegative, sum of squares 1
    basis: str = "computational"

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if np.any(coeffs < 0):
            raise ValueError("Schmidt coefficients must be nonnegative")
        if abs(float(np.sum(coeffs**2)) - 1.0) > qcore.NORM_TOL:
            raise ValueError("Schmidt coefficients must have unit square sum")
        if coeffs.size > min(self.dims):
            raise DimensionMismatch("more coefficients than the smaller register")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.coefficients > qcore.RANK_TOL))

    def to_state(self) -> StateVector:
        """sum_i h_i |i>|i> over the two registers."""
        d_a, d_b = self.dims
        amps = np.zeros(d_a * d_b, dtype=complex)
        for i, h in enumerate(self.coefficients):
            amps[i * d_b + i] = h
        return StateVector(amps, (d_a, d_b))


def maximally_entangled(n: int) -> ResourceState:
    """Rank-n resource with all Schmidt coefficients 1/sqrt(n)."""
    if n < 1:
        raise DimensionMismatch("resource dimension must be >= 1")
    return ResourceState((n, n), np.full(n, 1.0 / math.sqrt(n)))


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
    measurement path and are recorded on the transcript.
    """
    if len(program.owners) != len(initial.factor_dims):
        raise DimensionMismatch(
            f"{len(program.owners)} owners declared for "
            f"{len(initial.factor_dims)} factors"
        )

    branches: list[Branch] = []

    def execute(i, state, prob, events, inbox):
        # inbox: messages available per party, tag -> payload
        if i == len(program.steps):
            branches.append(Branch(Transcript(tuple(events), prob), state))
            return
        step = program.steps[i]
        if isinstance(step, LocalStep):
            _check_locality(program.owners, step.party, step.targets)
            nxt = qcore.apply_local(step.matrix, state, step.targets)
            execute(
                i + 1, nxt, prob,
                events + [LocalOpEvent(step.party, step.label, step.targets)],
                inbox,
            )
        elif isinstance(step, ConditionalStep):
            _check_locality(program.owners, step.party, step.targets)
            if step.message not in inbox.get(step.party, {}):
                raise MissingClassicalDependency(
                    f"{step.party.value} step {step.label!r} needs message "
                    f"{step.message!r} before it runs"
                )
            outcome = inbox[step.party][step.message]
            nxt = qcore.apply_local(step.build(outcome), state, step.targets)
            execute(
                i + 1, nxt, prob,
                events
                + [LocalOpEvent(step.party, step.label, step.targets, step.message)],
                inbox,
            )
        else:
            _check_locality(program.owners, step.party, (step.target,))
            for out in qcore.measure_computational(state, step.target):
                new_events = events + [
                    MeasurementEvent(step.party, step.target, out.outcome)
                ]
                new_inbox = {p: dict(m) for p, m in inbox.items()}
                # the measuring party always learns its own outcome
                new_inbox.setdefault(step.party, {})[step.message] = out.outcome
                if step.send_to is not None:
                    new_events.append(
                        ClassicalMessageEvent(
                            step.party, step.send_to, step.message, out.outcome
                        )
                    )
                    new_inbox.setdefault(step.send_to, {})[step.message] = out.outcome
                execute(
                    i + 1, out.post_state, prob * out.probability,
                    new_events, new_inbox,
                )

    execute(0, initial, 1.0, [], {ALICE: {}, BOB: {}})
    del execute   # a self-referencing closure would hold every state until gc runs
    return branches


def validate_transcript(transcript: Transcript, owners) -> None:
    """Structural audit: locality of every event and message-before-use causality."""
    delivered: dict[Party, set[str]] = {ALICE: set(), BOB: set()}
    for event in transcript.events:
        if isinstance(event, LocalOpEvent):
            _check_locality(owners, event.party, event.targets)
            if event.consumed is not None and event.consumed not in delivered[event.party]:
                raise MissingClassicalDependency(
                    f"{event.party.value} used outcome {event.consumed!r} "
                    "before any message delivered it"
                )
        elif isinstance(event, MeasurementEvent):
            _check_locality(owners, event.party, (event.target,))
        else:
            delivered[event.receiver].add(event.tag)


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
