"""Reference oracle for locc.run_protocol: the recursive executor.

It walks the branch tree depth first, one full state per node, through
qcore.apply_local and qcore.measure_computational. It is slow and simple,
so the batched executor is checked against it. A coupling step is applied
as its dense sum_k B|k><k|B^dag (x) V_k, formed from the step's basis and
unitaries, so apply_local checks its unitarity as one matrix. A conditioned
step applies its table's entry for the payload, checked by apply_local.
Each branch keeps the full state it reached, so the check does not rest on
locc.Branch.state, which derives that state from the output. Each branch
also builds its own record and outcome row, the two halves of its
transcript, so neither rests on the run's shared record.
"""

from dataclasses import dataclass

from qremote import qcore
from qremote.errors import MissingClassicalDependency
from qremote.locc import (
    ALICE,
    BOB,
    ConditionalStep,
    CouplingStep,
    LocalOpEvent,
    LocalStep,
    MeasureStep,
    _check_owned,
)
from qremote.qcore import StateVector

from util import coupling_matrix


@dataclass(frozen=True)
class ReferenceBranch:
    """steps is the branch's record (a LocalOpEvent per operator step, a
    MeasureStep per measurement) and row its outcome per measurement."""

    steps: tuple
    row: tuple
    probability: float
    state: StateVector


def run_reference(program, initial):
    branches = []

    def execute(i, state, prob, record, row, inbox):
        if i == len(program.steps):
            branches.append(ReferenceBranch(tuple(record), tuple(row), prob, state))
            return
        step = program.steps[i]
        if isinstance(step, (LocalStep, CouplingStep, ConditionalStep)):
            _check_owned(program.owners, step.party,
                         qcore.indices(step.targets, len(program.owners), "step"))
            if isinstance(step, LocalStep):
                op, entry = step.matrix, LocalOpEvent(step.party, step.label, step.targets)
            elif isinstance(step, CouplingStep):
                op = coupling_matrix(step)
                entry = LocalOpEvent(step.party, step.label, step.targets)
            else:
                if step.message not in inbox[step.party]:
                    raise MissingClassicalDependency(step.label)
                op = step.unitaries[inbox[step.party][step.message]]
                entry = LocalOpEvent(step.party, step.label, step.targets, step.message)
            nxt = qcore.apply_local(op, state, step.targets)
            execute(i + 1, nxt, prob, record + [entry], row, inbox)
            return
        _check_owned(program.owners, step.party,
                     qcore.indices((step.target,), len(program.owners), "step"))
        entry = MeasureStep(step.party, step.target, step.message, step.send_to)
        for out in qcore.measure_computational(state, step.target):
            new_inbox = {p: dict(m) for p, m in inbox.items()}
            new_inbox[step.party][step.message] = out.outcome
            if step.send_to is not None:
                new_inbox[step.send_to][step.message] = out.outcome
            execute(i + 1, out.post_state, prob * out.probability, record + [entry],
                    row + [out.outcome], new_inbox)

    execute(0, initial, 1.0, [], [], {ALICE: {}, BOB: {}})
    del execute   # the closure refers to itself; break the cycle
    return branches
