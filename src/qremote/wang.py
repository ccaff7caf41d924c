"""Remote implementation of block-structured operations U = sum_i c_i A_i.

The operation class: blocks A_i with A_i^dag A_j = 0 for i != j and
sum_i A_i^dag A_i = I, combined with unimodular coefficients c_i known only
to Bob. Alice's side of the protocol (the controlled shift P and the
recovery R_m) is built from the block structure alone; the coefficient
vector lives in a separate Bob-side object so that ignorance is enforced by
construction, not convention.

The class conditions make every block a partial isometry, so Alice's
operators are functions of the blocks themselves: the projectors
P_i = A_i^dag A_i and the recovery R_m = sum_j e^{-2 pi i m j / N} A_j.
Validation stores the class's exact member, so these operators and every
sum_i c_i A_i are unitary by construction.

wang_program is the one description of the protocol: run_wang executes it,
trace_branch is that program cut after each traced step, and svd_program
wraps it in Alice's local factors of an arbitrary unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import locc, qcore
from .errors import (
    DimensionMismatch,
    IncompleteBlocks,
    NonFinite,
    NonUnimodularCoefficient,
    NonUnitary,
    OverlappingBlocks,
)
from .locc import ALICE, BOB, Branch, ConditionalStep, LocalStep, MeasureStep, Program
from .qcore import StateVector


@dataclass(frozen=True)
class BlockPartition:
    """Validated block structure {A_i}: the public half of the operation."""

    blocks: np.ndarray              # read-only (n, D, D) stack of the exact A_i

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]


@dataclass(frozen=True)
class Phases:
    """Bob's private coefficient vector: unimodular scalars, stored as c/|c|."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        if not np.isfinite(vals).all():
            raise NonFinite("coefficients must be finite")
        if (np.abs(np.abs(vals) - 1.0) > qcore.NORM_TOL).any():
            raise NonUnimodularCoefficient("coefficients must have modulus 1")
        vals = vals / np.abs(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def validate_partition(blocks) -> BlockPartition:
    """Check the operation-class conditions on the blocks.

    All pairs are read from the Gram table [A_i^dag A_j], one batched
    product per block row against the stack of blocks. Raises
    OverlappingBlocks at the first (i, j), i != j in row-major order, whose
    entry is not 0, and IncompleteBlocks if the diagonal entries do not sum
    to I, if a block has a singular value above RANK_TOL that is not 1
    within 1e-8, or if the block ranks do not sum to the dimension.
    The stored blocks are the exact member A_i = W diag(owner == i) V^dag:
    W and V are the polar factors of the kept singular vectors, which no
    phase or basis choice of the SVD changes.
    """
    mats = tuple(np.asarray(b, dtype=complex) for b in blocks)
    if not mats:
        raise IncompleteBlocks("a partition needs at least one block")
    dim = mats[0].shape[0]
    for i, b in enumerate(mats):
        if b.ndim != 2 or b.shape != (dim, dim):
            raise DimensionMismatch(
                f"block {i} has shape {b.shape}, expected ({dim}, {dim})"
            )
        if not np.isfinite(b).all():
            raise NonFinite(f"block {i} has a non-finite entry")
    stack = np.stack(mats)
    # entries near the float limit can overflow these products; such a block
    # is still rejected by name (its singular values are not 1), so numpy
    # need not warn about the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        completeness = np.zeros((dim, dim), dtype=complex)
        # one block row [A_i^dag A_j]_j of the Gram table at a time, so the
        # table never holds more than n D^2 entries
        for i, block in enumerate(stack):
            row = block.conj().T @ stack
            overlaps = np.abs(row).max(axis=(1, 2))
            overlaps[i] = 0.0
            bad = np.flatnonzero(overlaps > qcore.NORM_TOL)
            if len(bad):
                raise OverlappingBlocks(
                    f"blocks {i} and {bad[0]} overlap: "
                    f"max |A_i^dag A_j| = {overlaps[bad[0]]:.3e}"
                )
            completeness += row[i]
        dev = np.abs(completeness - np.eye(dim)).max()
    if dev > qcore.NORM_TOL:
        raise IncompleteBlocks(
            f"sum A_i^dag A_i deviates from identity by {dev:.3e}"
        )

    w, singular, vh = np.linalg.svd(stack)
    kept = singular > qcore.RANK_TOL
    ranks = np.count_nonzero(kept, axis=1)
    for i, (s, r) in enumerate(zip(singular, ranks)):
        if r and np.abs(s[:r] - 1.0).max() > 1e-8:
            raise IncompleteBlocks(
                f"block {i} has singular values {s[:r]} != 1; "
                "it cannot belong to a unitary combination"
            )
    if ranks.sum() != dim:
        raise IncompleteBlocks(
            f"block ranks {tuple(ranks.tolist())} do not sum to the dimension {dim}"
        )
    # by the rank sum the kept singular vectors are D per side: the rows of
    # W^T (outputs) and V^dag (inputs), each replaced by its polar factor
    u, _, uh = np.linalg.svd(np.stack((w.transpose(0, 2, 1)[kept], vh[kept])))
    out_rows, in_rows = u @ uh
    owned = np.nonzero(kept)[0] == np.arange(len(stack))[:, None]
    member = (out_rows.T * owned[:, None, :]) @ in_rows
    member.setflags(write=False)
    return BlockPartition(member)


def diagonal_partition(dim: int) -> BlockPartition:
    """Rank-1 blocks |i><i|: the diagonal-operation special case."""
    eye = np.eye(dim, dtype=complex)
    return validate_partition([np.outer(eye[:, i], eye[:, i]) for i in range(dim)])


def partition_from_bases(u_basis: np.ndarray, v_basis: np.ndarray, sizes) -> BlockPartition:
    """Build blocks A_i = sum_{j in group i} |v_j><u_j| from two orthonormal bases."""
    u_basis = np.asarray(u_basis, dtype=complex)
    v_basis = np.asarray(v_basis, dtype=complex)
    dim = u_basis.shape[0]
    if sum(sizes) != dim:
        raise DimensionMismatch(f"group sizes {tuple(sizes)} must sum to {dim}")
    blocks, start = [], 0
    for size in sizes:
        cols = slice(start, start + size)
        blocks.append(v_basis[:, cols] @ u_basis[:, cols].conj().T)
        start += size
    return validate_partition(blocks)


def random_partition(dim: int, n_blocks: int, rng: np.random.Generator) -> BlockPartition:
    """Random valid partition: random bases split into n_blocks groups."""
    if not 1 <= n_blocks <= dim:
        raise DimensionMismatch(f"need 1 <= blocks <= dim, got {n_blocks} at dim {dim}")
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [dim])))
    return partition_from_bases(
        qcore.random_unitary(dim, rng), qcore.random_unitary(dim, rng), sizes
    )


def random_phases(n: int, rng: np.random.Generator) -> Phases:
    return Phases(np.exp(2j * np.pi * rng.uniform(size=n)))


def projectors(p: BlockPartition) -> np.ndarray:
    """P_i = A_i^dag A_i, the projectors onto the block supports, as a stack."""
    return p.blocks.conj().transpose(0, 2, 1) @ p.blocks


def assemble(p: BlockPartition, phases: Phases) -> np.ndarray:
    """Direct matrix sum_i c_i A_i (the operation the protocol must reproduce)."""
    if len(phases) != p.n:
        raise DimensionMismatch(f"{len(phases)} coefficients for {p.n} blocks")
    total = sum(c * b for c, b in zip(phases.values, p.blocks))
    if not qcore.is_unitary(total):
        raise NonUnitary("sum c_i A_i is not unitary")
    return total


def phase_gate(phases: Phases) -> np.ndarray:
    """Bob's C = diag(c_0 .. c_{N-1})."""
    return np.diag(phases.values)


def recovery(p: BlockPartition, m: int) -> np.ndarray:
    """R_m = sum_j e^{-2 pi i m j / N} A_j."""
    phases = np.exp(-2j * np.pi * m * np.arange(p.n) / p.n)
    return np.tensordot(phases, p.blocks, axes=1)


def wang_program(p: BlockPartition, phases: Phases) -> Program:
    """The five-step program on registers (A, a, b) = (Alice, Alice, Bob)."""
    if len(phases) != p.n:
        raise DimensionMismatch(f"{len(phases)} coefficients for {p.n} blocks")
    shift = qcore.shift_matrix(p.n)
    shifts = [np.linalg.matrix_power(shift, i) for i in range(p.n)]
    return Program(
        owners=locc.PROTOCOL_OWNERS,
        steps=(
            # P = sum_i P_i (x) X^i on (A, a): shifts the ancilla by the block index
            LocalStep(ALICE, "P", qcore.kron_sum(projectors(p), shifts), (0, 1)),
            MeasureStep(ALICE, 1, "l", send_to=BOB),
            ConditionalStep(BOB, "X^l", lambda l: shifts[l], (2,), "l"),
            LocalStep(BOB, "C", phase_gate(phases), (2,)),
            LocalStep(BOB, "F", qcore.fourier_matrix(p.n), (2,)),
            MeasureStep(BOB, 2, "m", send_to=ALICE),
            ConditionalStep(ALICE, "R_m", lambda m: recovery(p, m), (0,), "m"),
        ),
    )


def run_wang(p: BlockPartition, phases: Phases, input_state: StateVector) -> list[Branch]:
    """Execute the protocol over every (l, m) branch.

    Each branch ends with the A register holding sum_i c_i A_i applied to the
    input, up to a global phase, and both resource registers in basis states.
    """
    if input_state.dim != p.dim:
        raise DimensionMismatch(
            f"input dimension {input_state.dim} does not match blocks ({p.dim})"
        )
    initial = qcore.tensor(input_state, locc.maximally_entangled(p.n))
    return locc.run_protocol(wang_program(p, phases), initial)


def trace_branch(
    p: BlockPartition, phases: Phases, input_state: StateVector, l: int, m: int
) -> list[Branch]:
    """Branches of wang_program cut after each traced step, on outcomes (l, m).

    Stage order: initial, controlled shift, measurement of a plus Bob's X^l,
    phase gate, Fourier plus measurement of b, recovery. Measured stages are
    renormalized, and the last stage is the run_wang branch (l, m). Every
    in-range (l, m) has probability 1/n^2 whatever the input.
    """
    if not (0 <= l < p.n and 0 <= m < p.n):
        raise DimensionMismatch(f"branch ({l},{m}) out of range for {p.n} outcomes")
    program = wang_program(p, phases)
    initial = qcore.tensor(input_state, locc.maximally_entangled(p.n))
    wanted = {"l": l, "m": m}.items()
    stages = []
    for k in (0, 1, 3, 4, 6, 7):
        prefix = Program(program.owners, program.steps[:k])
        stages.append(next(
            b for b in locc.run_protocol(prefix, initial) if b.outcomes.items() <= wanted
        ))
    return stages


# --- remote implementation of arbitrary unitaries --------------------------

@dataclass(frozen=True)
class RemoteSvdProgram:
    """Three-stage split U = post . diag(d) . pre with unimodular diagonal d.

    pre and post are published to Alice; the diagonal entries d stay with Bob
    and are implemented remotely through the diagonal-block protocol.
    """

    pre: np.ndarray
    post: np.ndarray
    diagonal: np.ndarray
    partition: BlockPartition
    phases: Phases


def svd_remote(unitary: np.ndarray) -> RemoteSvdProgram:
    """Split a unitary for remote implementation of its diagonal factor.

    Singular values of a unitary are all 1; the singular-vector phase freedom
    is folded into the diagonal factor so that the published matrices carry
    no coefficient information (for an already-diagonal input they reduce to
    the identity).
    """
    u_mat = np.asarray(unitary, dtype=complex)
    if not qcore.is_unitary(u_mat):
        raise NonUnitary("svd_remote needs a unitary input")
    dim = u_mat.shape[0]
    w, s, vh = np.linalg.svd(u_mat)
    # all singular values are 1, so the triplet order is arbitrary; align each
    # right vector with its dominant column so a diagonal input stays diagonal
    order = np.argsort(np.abs(vh).argmax(axis=1), kind="stable")
    w, s, vh = w[:, order], s[order], vh[order, :]
    # fold the leading-entry phase of each singular vector into the diagonal
    w_lead = w[np.abs(w).argmax(axis=0), np.arange(dim)]
    w_phase = w_lead / np.abs(w_lead)
    vh_lead = vh[np.arange(dim), np.abs(vh).argmax(axis=1)]
    vh_phase = vh_lead / np.abs(vh_lead)
    post = w / w_phase
    pre = vh / vh_phase[:, None]
    diag = w_phase * s * vh_phase
    if np.abs(np.abs(diag) - 1.0).max() > qcore.NORM_TOL:
        raise NonUnitary("diagonal factor is not unimodular")
    return RemoteSvdProgram(
        pre=pre,
        post=post,
        diagonal=diag,
        partition=diagonal_partition(dim),
        phases=Phases(diag),
    )


def svd_program(program: RemoteSvdProgram) -> Program:
    """wang_program for the diagonal factor between Alice's local pre and post."""
    core = wang_program(program.partition, program.phases)
    pre = LocalStep(ALICE, "pre", program.pre, (0,))
    post = LocalStep(ALICE, "post", program.post, (0,))
    return Program(core.owners, (pre, *core.steps, post))


def run_svd_remote(program: RemoteSvdProgram, input_state: StateVector) -> list[Branch]:
    """Execute svd_program over every (l, m) branch: each transcript runs from
    Alice's pre to her post, and each output is U applied to the input."""
    initial = qcore.tensor(input_state, locc.maximally_entangled(program.partition.n))
    return locc.run_protocol(svd_program(program), initial)
