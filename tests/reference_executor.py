"""Reference oracle for locc.run_protocol: the recursive executor.

It walks the branch tree depth first, one full state per node, through
qcore.apply_local and qcore.measure_computational. It is slow and simple,
so the batched executor is checked against it. Each branch keeps the full
state it reached, so the check does not rest on locc.Branch.state, which
derives that state from the output.
"""

from dataclasses import dataclass

from qremote import qcore
from qremote.errors import MissingClassicalDependency
from qremote.locc import (
    ALICE,
    BOB,
    ClassicalMessageEvent,
    ConditionalStep,
    LocalOpEvent,
    LocalStep,
    MeasurementEvent,
    Transcript,
    _check_locality,
)
from qremote.qcore import StateVector


@dataclass(frozen=True)
class ReferenceBranch:
    transcript: Transcript
    state: StateVector

    @property
    def probability(self) -> float:
        return self.transcript.probability


def run_reference(program, initial):
    branches = []

    def execute(i, state, prob, events, inbox):
        if i == len(program.steps):
            branches.append(ReferenceBranch(Transcript(tuple(events), prob), state))
            return
        step = program.steps[i]
        if isinstance(step, (LocalStep, ConditionalStep)):
            _check_locality(program.owners, step.party, step.targets)
            if isinstance(step, LocalStep):
                op, event = step.matrix, LocalOpEvent(step.party, step.label, step.targets)
            else:
                if step.message not in inbox[step.party]:
                    raise MissingClassicalDependency(step.label)
                op = step.build(inbox[step.party][step.message])
                event = LocalOpEvent(step.party, step.label, step.targets, step.message)
            nxt = qcore.apply_local(op, state, step.targets)
            execute(i + 1, nxt, prob, events + [event], inbox)
            return
        _check_locality(program.owners, step.party, (step.target,))
        for out in qcore.measure_computational(state, step.target):
            new_events = events + [MeasurementEvent(step.party, step.target, out.outcome)]
            new_inbox = {p: dict(m) for p, m in inbox.items()}
            new_inbox[step.party][step.message] = out.outcome
            if step.send_to is not None:
                new_events.append(
                    ClassicalMessageEvent(step.party, step.send_to, step.message, out.outcome)
                )
                new_inbox[step.send_to][step.message] = out.outcome
            execute(i + 1, out.post_state, prob * out.probability, new_events, new_inbox)

    execute(0, initial, 1.0, [], {ALICE: {}, BOB: {}})
    del execute   # the closure refers to itself; break the cycle
    return branches
