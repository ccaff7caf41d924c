"""Entanglement accounting: the Schmidt-rank lower bound, cost rows read
off a protocol's Program, and the teleport-both-ways baseline.

The lower bound is a rank certificate, not a search: in any protocol of the
two-round shape (controlled shift + measurement on Alice's side, one
operation + measurement on Bob's side, then recovery), every implemented
block factors through the span of the d row operators that the resource's
Schmidt rank d makes available, so no more than d of the blocks can be
linearly independent. n independent blocks therefore need rank >= n.
Whether the resource must additionally be maximally entangled is left open
and reported as unknown.
Cost rows state no formula of their own: program_cost reads them off the
program that run executes, its resource pairs and its sent outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import index

import numpy as np

from . import locc, qcore
from .errors import DimensionMismatch, NonUnitary
from .locc import (
    ALICE, BOB, ConditionalStep, CouplingStep, LocalStep, MeasureStep, Program, Run,
)
from .qcore import StateVector

ASSUMED_SHAPE = (
    "two-round protocols: controlled shift and measurement on the sender, "
    "one local operation and measurement on the receiver, then a recovery "
    "fixed by the outcomes"
)


def operator_rank(blocks) -> int:
    """Numerical rank of the span of the blocks, each flattened to a row."""
    try:
        empty = not len(blocks)
    except TypeError:
        empty = False   # no sequence: qcore.operators names it
    if empty:
        return 0
    stack = qcore.operators(blocks, "block")
    return int(np.linalg.matrix_rank(stack.reshape(len(stack), -1), tol=qcore.RANK_TOL))


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    operator_rank: int
    resource_rank: int
    certificate: str
    maximal_entanglement_required: str = "unknown"


def feasibility_test(n: int, d: int) -> FeasibilityVerdict:
    """Rank certificate for blocks of operator rank n against a resource of
    Schmidt rank d.

    Infeasible whenever d is below n; feasible otherwise, by the constructive
    protocol with a maximally entangled resource of rank n. Partial
    entanglement only enters through d, the count of nonzero Schmidt
    coefficients.
    """
    try:
        n, d = index(n), index(d)
    except TypeError:
        raise DimensionMismatch(f"ranks are integers, got n={n!r} and d={d!r}") from None
    if n < 0 or d < 1:
        raise DimensionMismatch(f"need operator rank n >= 0 and Schmidt rank d >= 1, got {n}, {d}")
    if d < n:
        certificate = (
            f"operator_rank(blocks) = {n} > d = {d}: within {ASSUMED_SHAPE}, "
            f"a rank-{d} resource exposes only {d} row operators, so at most "
            f"{d} independent blocks are implementable"
        )
        return FeasibilityVerdict(False, n, d, certificate)
    certificate = (
        f"d = {d} >= operator_rank(blocks) = {n}: the controlled-shift "
        f"protocol with a rank-{n} maximally entangled resource implements "
        "the operation exactly on every branch"
    )
    return FeasibilityVerdict(True, n, d, certificate)


# --- cost reports ------------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    protocol: str
    schmidt_rank: int
    controlled_parameters: int
    ebits: float
    bits_alice_to_bob: float
    bits_bob_to_alice: float
    verdict: str = field(init=False)

    def __post_init__(self):
        feasible = feasibility_test(self.controlled_parameters, self.schmidt_rank).feasible
        object.__setattr__(self, "verdict", "feasible" if feasible else "infeasible")


@dataclass(frozen=True)
class CostComparison:
    rows: tuple[CostReport, ...]
    wang_saves: bool       # strict ebit saving of the block protocol over BQST


def program_cost(protocol: str, program: Program, controlled_parameters: int) -> CostReport:
    """The program's cost row: log2 d ebits per rank-d pair of program.dims,
    and log2 of the measured factor's dimension per outcome a party sends."""
    if not program.dims:
        raise DimensionMismatch(f"program {protocol!r} declares no input register")
    ranks = program.dims[1::2]
    sent = {ALICE: 0.0, BOB: 0.0}
    for s in program.steps:
        if isinstance(s, MeasureStep) and s.send_to is not None:
            sent[s.party] += math.log2(program.dims[s.target])
    return CostReport(
        protocol, math.prod(ranks), controlled_parameters,
        sum(math.log2(d) for d in ranks), sent[ALICE], sent[BOB],
    )


def compare_costs(protocol: str, program: Program, blocks) -> CostComparison:
    """Cost rows of the protocol's program and of BQST on its input register,
    both judged against the operator rank of the blocks, which may be < n."""
    rank = operator_rank(blocks)
    row = program_cost(protocol, program, rank)
    bqst_row = program_cost("bqst", bqst_program(np.eye(program.dims[0])), rank)
    return CostComparison(rows=(row, bqst_row), wang_saves=row.ebits < bqst_row.ebits)


# --- bidirectional teleportation baseline -------------------------------------

def bqst_program(unitary: np.ndarray) -> Program:
    """Teleport to Bob, apply the unitary, teleport back.

    Registers: (A, a1, b1, b2, a2) with Alice holding A, a1, a2. Each
    teleportation is a generalized Bell measurement (inverse controlled
    shift, inverse Fourier, two computational measurements) followed by
    shift/clock corrections on the far half. The final state lands in a2.
    The unitary is checked once and certified (qcore.checked_unitary), so
    Bob's step does not check it again; every other table is one qcore
    certifies as it makes it.
    """
    (u,) = qcore.operators([unitary], "bqst operation")
    u = qcore.checked_unitary(u)
    if u is None:
        raise NonUnitary("bqst needs a unitary operation")
    dim = u.shape[0]
    shifts = qcore.shift_powers(dim)
    basis = qcore.identity(dim)   # column i of I carries X^i
    f_inv = qcore.fourier_matrix(dim, inverse=True)
    clocks = qcore.clock_powers(dim)
    return Program(
        owners=(ALICE, ALICE, BOB, BOB, ALICE),
        steps=(
            # Alice -> Bob
            # CX^-1 = sum_i |i><i| (x) X^i
            CouplingStep(ALICE, "CX^-1", basis, shifts, 0, 1),
            LocalStep(ALICE, "F^-1", f_inv, (0,)),
            MeasureStep(ALICE, 0, "p", send_to=BOB),
            MeasureStep(ALICE, 1, "q", send_to=BOB),
            ConditionalStep(BOB, "X^q", shifts, (2,), "q"),
            ConditionalStep(BOB, "Z^p", clocks, (2,), "p"),
            # the remote operation
            LocalStep(BOB, "U", u, (2,)),
            # Bob -> Alice
            CouplingStep(BOB, "CX^-1", basis, shifts, 2, 3),
            LocalStep(BOB, "F^-1", f_inv, (2,)),
            MeasureStep(BOB, 2, "r", send_to=ALICE),
            MeasureStep(BOB, 3, "s", send_to=ALICE),
            ConditionalStep(ALICE, "X^s", shifts, (4,), "s"),
            ConditionalStep(ALICE, "Z^r", clocks, (4,), "r"),
        ),
        dims=(dim,) * 5,
    )


def bqst_teleport(unitary: np.ndarray, input_state: StateVector) -> tuple[Run, CostReport]:
    """Run bqst_program over all D^4 outcome branches; a2 is the output of
    every branch. The report is the program's cost row."""
    program = bqst_program(unitary)
    branches = locc.run_protocol(program, locc.prepare(program, input_state))
    return branches, program_cost("bqst", program, program.dims[0] ** 2)
