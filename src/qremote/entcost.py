"""Entanglement accounting: the Schmidt-rank lower bound and the
teleport-both-ways baseline.

The lower bound is a rank certificate, not a search: in any protocol of the
two-round shape (controlled shift + measurement on Alice's side, one
operation + measurement on Bob's side, then recovery), every implemented
block factors through the span of the d row operators that the resource's
Schmidt rank d makes available, so no more than d of the blocks can be
linearly independent. n independent blocks therefore need rank >= n.
Whether the resource must additionally be maximally entangled is left open
and reported as unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import locc, qcore
from .errors import DimensionMismatch, NonUnitary
from .locc import ALICE, BOB, Branch, ConditionalStep, LocalStep, MeasureStep, Program
from .qcore import StateVector

ASSUMED_SHAPE = (
    "two-round protocols: controlled shift and measurement on the sender, "
    "one local operation and measurement on the receiver, then a recovery "
    "fixed by the outcomes"
)


def operator_rank(blocks) -> int:
    """Numerical rank of the span of the blocks, each flattened to a row."""
    mats = [np.asarray(b, dtype=complex) for b in blocks]
    if not mats:
        return 0
    shape = mats[0].shape
    for b in mats:
        if b.shape != shape:
            raise DimensionMismatch("blocks must share one shape")
    rows = np.stack([b.reshape(-1) for b in mats])
    return int(np.linalg.matrix_rank(rows, tol=qcore.RANK_TOL))


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
    if d < 1:
        raise DimensionMismatch(f"a resource has Schmidt rank >= 1, got {d}")
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


def bqst_cost(dim: int, controlled_parameters: int) -> CostReport:
    """Teleport both ways: two rank-dim pairs, 2 log2(dim) bits each way."""
    bits = 2 * math.log2(dim)
    return CostReport("bqst", dim * dim, controlled_parameters, bits, bits, bits)


def compare_costs(blocks, dim: int, protocol: str = "wang") -> CostComparison:
    """Cost rows for the block protocol (rank n) against BQST (rank D^2),
    both judged against the operator rank of the blocks, which may be < n."""
    blocks = tuple(blocks)
    n = len(blocks)
    if n < 1:
        raise DimensionMismatch("at least one block is required")
    rank = operator_rank(blocks)
    bits = math.log2(n)
    bqst_row = bqst_cost(dim, rank)
    return CostComparison(
        rows=(CostReport(protocol, n, rank, bits, bits, bits), bqst_row),
        wang_saves=bits < bqst_row.ebits,
    )


# --- bidirectional teleportation baseline -------------------------------------

def _clock(dim: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))


def bqst_program(unitary: np.ndarray) -> Program:
    """Teleport to Bob, apply the unitary, teleport back.

    Registers: (A, a1, b1, b2, a2) with Alice holding A, a1, a2. Each
    teleportation is a generalized Bell measurement (inverse controlled
    shift, inverse Fourier, two computational measurements) followed by
    shift/clock corrections on the far half. The final state lands in a2.
    """
    u = np.asarray(unitary, dtype=complex)
    dim = u.shape[0]
    shift = qcore.shift_matrix(dim)
    shifts = [np.linalg.matrix_power(shift, i) for i in range(dim)]
    # CX^-1 = sum_i |i><i| (x) X^i
    csub = qcore.kron_sum([np.diag(e) for e in np.eye(dim)], shifts)
    f_inv = qcore.fourier_matrix(dim).conj().T
    clock = _clock(dim)
    return Program(
        owners=(ALICE, ALICE, BOB, BOB, ALICE),
        steps=(
            # Alice -> Bob
            LocalStep(ALICE, "CX^-1", csub, (0, 1)),
            LocalStep(ALICE, "F^-1", f_inv, (0,)),
            MeasureStep(ALICE, 0, "p", send_to=BOB),
            MeasureStep(ALICE, 1, "q", send_to=BOB),
            ConditionalStep(BOB, "X^q", lambda q: shifts[q], (2,), "q"),
            ConditionalStep(BOB, "Z^p", lambda p: np.linalg.matrix_power(clock, p), (2,), "p"),
            # the remote operation
            LocalStep(BOB, "U", u, (2,)),
            # Bob -> Alice
            LocalStep(BOB, "CX^-1", csub, (2, 3)),
            LocalStep(BOB, "F^-1", f_inv, (2,)),
            MeasureStep(BOB, 2, "r", send_to=ALICE),
            MeasureStep(BOB, 3, "s", send_to=ALICE),
            ConditionalStep(ALICE, "X^s", lambda s: shifts[s], (4,), "s"),
            ConditionalStep(ALICE, "Z^r", lambda r: np.linalg.matrix_power(clock, r), (4,), "r"),
        ),
    )


def bqst_teleport(unitary: np.ndarray, input_state: StateVector) -> tuple[list[Branch], CostReport]:
    """Run bqst_program over all D^4 outcome branches; a2 is the output of
    every branch."""
    u = np.asarray(unitary, dtype=complex)
    if not qcore.is_unitary(u):
        raise NonUnitary("bqst_teleport needs a unitary operation")
    dim = u.shape[0]
    if input_state.dim != dim:
        raise DimensionMismatch(
            f"input dimension {input_state.dim} does not match the unitary ({dim})"
        )
    pair = locc.maximally_entangled(dim)
    initial = qcore.tensor(qcore.tensor(input_state, pair), pair)
    return locc.run_protocol(bqst_program(u), initial), bqst_cost(dim, dim * dim)
