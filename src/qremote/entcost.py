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

from . import locc, qcore, wang
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
class FeasibilityInstance:
    """n candidate blocks against a resource of Schmidt rank d."""

    blocks: tuple
    candidate_rank: int
    schmidt_coefficients: np.ndarray | None = None

    def __post_init__(self):
        if self.candidate_rank < 1:
            raise ValueError("candidate rank must be >= 1")
        if not self.blocks:
            raise ValueError("at least one block is required")


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    operator_rank: int
    resource_rank: int
    certificate: str
    maximal_entanglement_required: str = "unknown"


def feasibility_test(instance: FeasibilityInstance) -> FeasibilityVerdict:
    """Rank certificate for the instance.

    Infeasible whenever the resource rank is below the number of linearly
    independent blocks; feasible otherwise, by the constructive protocol with
    a maximally entangled resource of that rank. Partial entanglement only
    enters through the count of nonzero Schmidt coefficients.
    """
    n = operator_rank(instance.blocks)
    if instance.schmidt_coefficients is not None:
        h = np.asarray(instance.schmidt_coefficients, dtype=float)
        d = int(np.count_nonzero(h > qcore.RANK_TOL))
    else:
        d = instance.candidate_rank
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
        verdict = (
            "infeasible" if self.schmidt_rank < self.controlled_parameters else "feasible"
        )
        object.__setattr__(self, "verdict", verdict)

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "schmidt_rank": self.schmidt_rank,
            "controlled_parameters": self.controlled_parameters,
            "ebits": self.ebits,
            "bits_alice_to_bob": self.bits_alice_to_bob,
            "bits_bob_to_alice": self.bits_bob_to_alice,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class CostComparison:
    rows: tuple[CostReport, ...]
    wang_saves: bool       # strict ebit saving of the block protocol over BQST


def compare_costs(blocks, dim: int, protocol: str = "wang") -> CostComparison:
    """Cost rows for the block protocol (rank n) against BQST (rank D^2)."""
    n = len(tuple(blocks))
    if n < 1:
        raise ValueError("at least one block is required")
    wang_row = CostReport(
        protocol=protocol,
        schmidt_rank=n,
        controlled_parameters=n,
        ebits=math.log2(n),
        bits_alice_to_bob=math.log2(n),
        bits_bob_to_alice=math.log2(n),
    )
    bqst_row = CostReport(
        protocol="bqst",
        schmidt_rank=dim * dim,
        controlled_parameters=n,
        ebits=2 * math.log2(dim),
        bits_alice_to_bob=2 * math.log2(dim),
        bits_bob_to_alice=2 * math.log2(dim),
    )
    return CostComparison(
        rows=(wang_row, bqst_row),
        wang_saves=math.log2(n) < 2 * math.log2(dim),
    )


def render_cost_table(rows) -> str:
    """Aligned-column text table for a sequence of CostReports."""
    header = (
        "protocol", "schmidt_rank", "params", "ebits",
        "bits A->B", "bits B->A", "verdict",
    )
    body = [
        (
            r.protocol,
            str(r.schmidt_rank),
            str(r.controlled_parameters),
            f"{r.ebits:g}",
            f"{r.bits_alice_to_bob:g}",
            f"{r.bits_bob_to_alice:g}",
            r.verdict,
        )
        for r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


# --- bidirectional teleportation baseline -------------------------------------

def _clock(dim: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))


def bqst_teleport(unitary: np.ndarray, input_state: StateVector) -> tuple[list[Branch], CostReport]:
    """Teleport to Bob, apply the unitary, teleport back.

    Registers: (A, a1, b1, b2, a2) with Alice holding A, a1, a2. Each
    teleportation is a generalized Bell measurement (inverse controlled
    shift, inverse Fourier, two computational measurements) followed by
    shift/clock corrections on the far half. All D^4 outcome branches are
    enumerated; the final state lands in a2, the output of every branch.
    """
    u = np.asarray(unitary, dtype=complex)
    if not qcore.is_unitary(u):
        raise NonUnitary("bqst_teleport needs a unitary operation")
    dim = u.shape[0]
    if input_state.dim != dim:
        raise DimensionMismatch(
            f"input dimension {input_state.dim} does not match the unitary ({dim})"
        )
    pair = locc.maximally_entangled(dim).to_state()
    initial = qcore.tensor(qcore.tensor(input_state, pair), pair)

    csub = wang.controlled_shift(wang.diagonal_partition(dim))
    f_inv = qcore.fourier_matrix(dim).conj().T
    shift = qcore.shift_matrix(dim)
    clock = _clock(dim)
    program = Program(
        owners=(ALICE, ALICE, BOB, BOB, ALICE),
        steps=(
            # Alice -> Bob
            LocalStep(ALICE, "CX^-1", csub, (0, 1)),
            LocalStep(ALICE, "F^-1", f_inv, (0,)),
            MeasureStep(ALICE, 0, "p", send_to=BOB),
            MeasureStep(ALICE, 1, "q", send_to=BOB),
            ConditionalStep(BOB, "X^q", lambda q: np.linalg.matrix_power(shift, q), (2,), "q"),
            ConditionalStep(BOB, "Z^p", lambda p: np.linalg.matrix_power(clock, p), (2,), "p"),
            # the remote operation
            LocalStep(BOB, "U", u, (2,)),
            # Bob -> Alice
            LocalStep(BOB, "CX^-1", csub, (2, 3)),
            LocalStep(BOB, "F^-1", f_inv, (2,)),
            MeasureStep(BOB, 2, "r", send_to=ALICE),
            MeasureStep(BOB, 3, "s", send_to=ALICE),
            ConditionalStep(ALICE, "X^s", lambda s: np.linalg.matrix_power(shift, s), (4,), "s"),
            ConditionalStep(ALICE, "Z^r", lambda r: np.linalg.matrix_power(clock, r), (4,), "r"),
        ),
    )
    branches = [
        Branch(b.transcript, b.state, qcore.factor_state(b.state, 4))
        for b in locc.run_protocol(program, initial)
    ]
    report = CostReport(
        protocol="bqst",
        schmidt_rank=dim * dim,
        controlled_parameters=dim * dim,
        ebits=2 * math.log2(dim),
        bits_alice_to_bob=2 * math.log2(dim),
        bits_bob_to_alice=2 * math.log2(dim),
    )
    return branches, report
