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
sum_i c_i A_i are unitary by construction. It also stores the basis in
which every P_i is diagonal, the eigenbasis of sum_i i P_i, and that basis
is the controlled shift's eigenbasis.

wang_program is the one description of the protocol, registers and
operators included (X^l and R_m as tables indexed by outcome): run_wang
executes it, trace_branch is that program cut after each traced step,
svd_program wraps it in Alice's local factors of an arbitrary unitary, and
entcost reads its cost row off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import locc, qcore
from .errors import (
    DimensionMismatch,
    IncompleteBlocks,
    NonUnimodularCoefficient,
    NonUnitary,
    OverlappingBlocks,
)
from .locc import (
    ALICE, BOB, Branch, ConditionalStep, CouplingStep, LocalStep, MeasureStep, Program, Run,
)
from .qcore import StateVector


@dataclass(frozen=True)
class BlockPartition:
    """Validated block structure {A_i}: the public half of the operation.
    basis is the eigenbasis of sum_i i P_i: column k has eigenvalue
    owner[k] and lies in the support of that block, so basis^dag P_i basis =
    diag(owner == i), and basis is the eigenbasis of Alice's controlled
    shift. owner is nondecreasing."""

    blocks: np.ndarray              # read-only (n, D, D) stack of the exact A_i
    basis: np.ndarray               # read-only D x D unitary V
    owner: np.ndarray               # read-only (D,) block of each column of V

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
        vals = qcore.coefficients(self.values, "coefficient vector")
        if (np.abs(np.abs(vals) - 1.0) > qcore.NORM_TOL).any():
            raise NonUnimodularCoefficient("coefficients must have modulus 1")
        vals = vals / np.abs(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def validate_partition(blocks) -> BlockPartition:
    """Check the operation-class conditions on the blocks and store the
    class's exact member. A residual bound accepts from O(n D^3) products
    and one D x D eigh; only the Gram checks reject.

    With rows the (n D, D) stack of the blocks' rows, rows^dag rows is
    sum_i A_i^dag A_i, and its largest entry of |. - I| must be at most
    NORM_TOL. One eigh of H = sum_i i A_i^dag A_i, rows^dag times the rows
    weighted by their block index, gives V; owner[k] is the eigenvalue of
    column k rounded and clipped to [0, n). The eigenvalues only propose
    owners, so they need no tolerance: the residuals of Y_i = A_i V, one
    batched product, decide. Let M_i = diag(owner == i) and
    E_i = Y_i (I - M_i); eps is the largest ||E_i||_F. W has column
    k = Y[owner[k], :, k], so Y_i = W M_i + E_i. Let
    gamma = ||W^dag W - I||_F and eta = ||V^dag V - I||_F < 1/10. With ||.||
    the operator norm, ||E_i|| <= eps, ||W||^2 <= 1 + gamma and the singular
    values of V lie in [sqrt(1 - eta), sqrt(1 + eta)].

    Overlaps: M_i M_j = 0 for i != j, so

        V^dag A_i^dag A_j V = M_i (W^dag W - I) M_j + M_i W^dag E_j
                              + E_i^dag W M_j + E_i^dag E_j

    and ||A_i^dag A_j|| <= (gamma + 2 sqrt(1 + gamma) eps + eps^2)/(1 - eta).
    The largest entry of a matrix is at most its operator norm, so a bound
    <= NORM_TOL passes no pair the Gram table rejects.

    Singular values: on the r_i = #{k : owner[k] = i} columns block i owns,
    M_i W^dag W M_i is a principal submatrix of W^dag W, so W M_i has r_i
    singular values within gamma of 1 and D - r_i zeros. By Weyl's
    inequality A_i V has r_i within gamma + eps of 1 and D - r_i below eps,
    and scaling by V^-1 multiplies each by a factor in
    [1/sqrt(1 + eta), 1/sqrt(1 - eta)]. With gamma + eps <= 1, block i has
    r_i singular values within gamma + eps + 2 eta of 1 and D - r_i below
    2 eps. So 2 eps <= RANK_TOL and
    gamma + eps + 2 eta <= SINGULAR_TOL make the block ranks the r_i,
    which sum to D, and each kept singular value 1 within SINGULAR_TOL.

    Any other outcome, a failed gate or bound or a residual that is not
    finite, runs the Gram checks (_gram_checks). They raise
    OverlappingBlocks at the first (i, j), i != j in row-major order, whose
    entry of the Gram table [A_i^dag A_j] is not 0, and IncompleteBlocks if
    the diagonal entries do not sum to I, if a block has a singular value
    above RANK_TOL that is not 1 within SINGULAR_TOL, or if the block ranks
    do not sum to the dimension. What passes them lies in the narrow band
    between the bound and the gates. Either way the stored blocks are the
    exact member A_i = polar(W) M_i V^dag, and V is stored as the basis.
    """
    try:
        empty = not len(blocks)
    except TypeError:
        empty = False   # no sequence: qcore.operators names it
    if empty:
        raise IncompleteBlocks("a partition needs at least one block")
    stack = qcore.operators(blocks, "block")
    n, dim = stack.shape[:2]
    rows = stack.reshape(n * dim, dim)
    adjoint = rows.conj().T
    eye = np.eye(dim)
    # entries near the float limit can overflow these products; such a block
    # is still rejected by name (its singular values are not 1), so numpy
    # need not warn about the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.abs(adjoint @ rows - eye).max()
        h = (adjoint * np.repeat(np.arange(n), dim)) @ rows
        if not np.isfinite(h).all():
            # H overflows only where some A_i^dag A_i is far from I, and
            # there the Gram checks raise
            _gram_checks(stack)
        levels, basis = np.linalg.eigh(h)
        owner = np.rint(levels).clip(0, n - 1).astype(int)
        mask = owner == np.arange(n)[:, None]
        y = (rows @ basis).reshape(n, dim, dim)
        # |Y_i|^2 down each column, summed over the columns block i does not own
        column_weights = (y.real ** 2 + y.imag ** 2).sum(axis=1)
        eps = np.sqrt((column_weights * ~mask).sum(axis=1).max())
        w = y[owner, :, np.arange(dim)].T
        gamma = np.linalg.norm(w.conj().T @ w - eye)
        eta = np.linalg.norm(basis.conj().T @ basis - eye)
        # each comparison fails on nan
        certified = (
            deviation <= qcore.NORM_TOL and eta < 0.1
            and (gamma + 2 * np.sqrt(1 + gamma) * eps + eps * eps) / (1 - eta) <= qcore.NORM_TOL
            and 2 * eps <= qcore.RANK_TOL and gamma + eps + 2 * eta <= qcore.SINGULAR_TOL
        )
    if not certified:
        _gram_checks(stack)
    u, _, vh = np.linalg.svd(w)
    member = ((u @ vh) * mask[:, None, :]) @ basis.conj().T
    for a in (member, basis, owner):
        a.setflags(write=False)
    return BlockPartition(member, basis, owner)


def _gram_checks(stack: np.ndarray) -> None:
    """The class conditions checked entry by entry, for an input the residual
    bound of validate_partition cannot decide; raises as it documents.

    All pairs are read from the Gram table [A_i^dag A_j], one batched
    product per block row against the stack of blocks, so the table never
    holds more than n D^2 entries."""
    dim = stack.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        completeness = np.zeros((dim, dim), dtype=complex)
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
    singular = np.linalg.svd(stack, compute_uv=False)
    ranks = np.count_nonzero(singular > qcore.RANK_TOL, axis=1)
    for i, (s, r) in enumerate(zip(singular, ranks)):
        if r and np.abs(s[:r] - 1.0).max() > qcore.SINGULAR_TOL:
            raise IncompleteBlocks(
                f"block {i} has singular values {s[:r]} != 1; "
                "it cannot belong to a unitary combination"
            )
    if ranks.sum() != dim:
        raise IncompleteBlocks(
            f"block ranks {tuple(ranks.tolist())} do not sum to the dimension {dim}"
        )


def diagonal_partition(dim: int) -> BlockPartition:
    """Rank-1 blocks |i><i|: the diagonal-operation special case."""
    (dim,) = qcore.dimensions((dim,), "partition dimension")
    eye = np.eye(dim, dtype=complex)
    return validate_partition([np.outer(eye[:, i], eye[:, i]) for i in range(dim)])


def partition_from_bases(u_basis: np.ndarray, v_basis: np.ndarray, sizes) -> BlockPartition:
    """Build blocks A_i = sum_{j in group i} |v_j><u_j| from two orthonormal
    bases, D x D matrices that pass the operator gate together."""
    u_basis, v_basis = qcore.operators((u_basis, v_basis), "basis")
    sizes = qcore.dimensions(sizes, "group sizes")
    dim = u_basis.shape[0]
    if sum(sizes) != dim:
        raise DimensionMismatch(f"group sizes {sizes} must sum to {dim}")
    blocks, start = [], 0
    for size in sizes:
        cols = slice(start, start + size)
        blocks.append(v_basis[:, cols] @ u_basis[:, cols].conj().T)
        start += size
    return validate_partition(blocks)


def random_partition(dim: int, n_blocks: int, rng: np.random.Generator) -> BlockPartition:
    """Random valid partition: random bases split into n_blocks groups;
    UnsupportedProblem if its n_blocks D^2 entries pass qcore.MAX_AMPLITUDES."""
    dim, n_blocks = qcore.dimensions((dim, n_blocks), "partition dimension and block count")
    if n_blocks > dim:
        raise DimensionMismatch(f"need 1 <= blocks <= dim, got {n_blocks} at dim {dim}")
    qcore.check_size(n_blocks * dim * dim, f"a partition of {n_blocks} blocks at dim {dim}")
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [dim])))
    return partition_from_bases(
        qcore.random_unitary(dim, rng), qcore.random_unitary(dim, rng), sizes
    )


def random_phases(n: int, rng: np.random.Generator) -> Phases:
    (n,) = qcore.dimensions((n,), "phase count")
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
    """Bob's C = diag(c_0 .. c_{N-1}), certified on its diagonal
    (qcore.from_monomial): Phases stores each c_i as c/|c|."""
    return qcore.from_monomial(np.arange(len(phases)), phases.values)


def recovery(p: BlockPartition) -> np.ndarray:
    """The table R_0 .. R_{N-1} of R_m = sum_j e^{-2 pi i m j / N} A_j, one
    contraction over j."""
    m = np.arange(p.n)
    phases = np.exp(-2j * np.pi * np.outer(m, m) / p.n)
    return np.tensordot(phases, p.blocks, axes=1)


def wang_program(p: BlockPartition, phases: Phases) -> Program:
    """The five-step program on registers (A, a, b) = (Alice, Alice, Bob)."""
    if len(phases) != p.n:
        raise DimensionMismatch(f"{len(phases)} coefficients for {p.n} blocks")
    shifts = qcore.shift_powers(p.n)
    return Program(
        owners=locc.PROTOCOL_OWNERS,
        steps=(
            # P = sum_i P_i (x) X^i on (A, a): shifts the ancilla by the block
            # index, X^owner[k] on column k of the partition's basis
            CouplingStep(ALICE, "P", p.basis, qcore.gather(shifts, p.owner), 0, 1),
            MeasureStep(ALICE, 1, "l", send_to=BOB),
            ConditionalStep(BOB, "X^l", shifts, (2,), "l"),
            LocalStep(BOB, "C", phase_gate(phases), (2,)),
            LocalStep(BOB, "F", qcore.fourier_matrix(p.n), (2,)),
            MeasureStep(BOB, 2, "m", send_to=ALICE),
            ConditionalStep(ALICE, "R_m", recovery(p), (0,), "m"),
        ),
        dims=(p.dim, p.n, p.n),
    )


def run_wang(p: BlockPartition, phases: Phases, input_state: StateVector) -> Run:
    """Execute the protocol over every (l, m) branch.

    Each branch ends with the A register holding sum_i c_i A_i applied to the
    input, up to a global phase, and both resource registers in basis states.
    """
    program = wang_program(p, phases)
    return locc.run_protocol(program, locc.prepare(program, input_state))


def trace_branch(
    p: BlockPartition, phases: Phases, input_state: StateVector, l: int, m: int
) -> list[Branch]:
    """Branches of wang_program cut after each traced step, on outcomes (l, m).

    Stage order: initial, controlled shift, measurement of a plus Bob's X^l,
    phase gate, Fourier plus measurement of b, recovery. Measured stages are
    renormalized, and the last stage is the run_wang branch (l, m). Each
    stage is a Branch view of its prefix's Run. Every in-range (l, m) has
    probability 1/n^2 whatever the input; l and m are indices in range(n)
    (qcore.index_in).
    """
    l, m = qcore.index_in(l, p.n, "outcome l"), qcore.index_in(m, p.n, "outcome m")
    program = wang_program(p, phases)
    initial = locc.prepare(program, input_state)
    wanted = {"l": l, "m": m}.items()
    stages = []
    for k in (0, 1, 3, 4, 6, 7):
        prefix = Program(program.owners, program.steps[:k], program.dims)
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
    (u_mat,) = qcore.operators([unitary], "svd_remote input")
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
    return Program(core.owners, (pre, *core.steps, post), core.dims)


def run_svd_remote(program: RemoteSvdProgram, input_state: StateVector) -> Run:
    """Execute svd_program over every (l, m) branch: each transcript runs from
    Alice's pre to her post, and each output is U applied to the input."""
    full = svd_program(program)
    return locc.run_protocol(full, locc.prepare(full, input_state))
