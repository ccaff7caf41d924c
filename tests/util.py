"""Shared test helpers: random states, independent oracle constructions, and
the state, transcript and representation oracles the tests check the library
against."""

import math
from dataclasses import dataclass

import numpy as np

from qremote import entcost, groupform, locc, qcore, wang
from qremote.errors import (
    DimensionMismatch,
    IncompleteBlocks,
    MissingClassicalDependency,
    NonFinite,
    OverlappingBlocks,
)
from qremote.locc import ALICE, BOB, MeasureStep


def random_state(dim, rng):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qcore.StateVector(amps / np.linalg.norm(amps), (dim,))


def spread_state(small):
    """A (4000,) state: `small` amplitudes of probability 0.99e-12, below
    PROB_FLOOR, and the rest of the norm on |0>."""
    amps = np.zeros(4000, dtype=complex)
    amps[1 : small + 1] = np.sqrt(0.99e-12)
    amps[0] = np.sqrt(1 - small * 0.99e-12)
    return qcore.StateVector(amps, (4000,))


def random_diag_phases(n, rng):
    return np.exp(2j * np.pi * rng.uniform(size=n))


def kron_sum(left, right):
    """sum_i left[i] (x) right[i] for two equally long stacks of square
    matrices, as one matrix product over the term index i."""
    a = np.asarray(left, dtype=complex)
    b = np.asarray(right, dtype=complex)
    n, da, db = len(a), a.shape[-1], b.shape[-1]
    if a.shape != (n, da, da) or b.shape != (n, db, db):
        raise DimensionMismatch(
            f"kron_sum needs two stacks of n square matrices, got {a.shape} and {b.shape}"
        )
    # entry ((r, c), (s, t)) = sum_i a[i, r, c] b[i, s, t], regrouped to ((r, s), (c, t))
    terms = a.reshape(n, -1).T @ b.reshape(n, -1)
    return terms.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


def unit_program(p):
    """wang_program of the partition with every coefficient 1."""
    return wang.wang_program(p, wang.Phases(np.ones(p.n)))


def block_cost_row(protocol, n, params):
    """Closed form of a block or group cost row: a rank-n pair, one outcome
    of log2 n bits each way."""
    bits = math.log2(n)
    return entcost.CostReport(protocol, n, params, bits, bits, bits)


def bqst_cost_row(dim, params):
    """Closed form of the bqst cost row: two rank-dim pairs, two outcomes of
    log2 dim bits each way."""
    bits = 2 * math.log2(dim)
    return entcost.CostReport("bqst", dim * dim, params, bits, bits, bits)


def shift_matrix(n):
    """The shift X|k> = |k-1 mod n>, the X^1 of qcore.shift_powers."""
    return qcore.shift_powers(n)[1 % n]


def coupling_projectors(step):
    """The stack of the projectors B|k><k|B^dag of a coupling step, one per
    column k of its basis B."""
    basis = np.asarray(step.basis, dtype=complex)
    return np.einsum("ik,jk->kij", basis, basis.conj())


def coupling_matrix(step):
    """The dense sum_k B|k><k|B^dag (x) V_k of a coupling step, over
    step.targets (its two factors in ascending order)."""
    if step.control < step.target:
        return kron_sum(coupling_projectors(step), step.unitaries)
    return kron_sum(step.unitaries, coupling_projectors(step))


def step_operators(program, outcomes):
    """Label -> matrix of every unitary step, conditioned ones read from
    their table at the outcome their message carries and couplings as
    their dense sum."""
    ops = {}
    for step in program.steps:
        if isinstance(step, locc.LocalStep):
            ops[step.label] = step.matrix
        elif isinstance(step, locc.CouplingStep):
            ops[step.label] = coupling_matrix(step)
        elif isinstance(step, locc.ConditionalStep):
            ops[step.label] = step.unitaries[outcomes[step.message]]
    return ops


def stacked_rank(blocks, tol=1e-9):
    """Independent rank oracle: count singular values of the stacked rows."""
    rows = np.stack([np.asarray(b, dtype=complex).reshape(-1) for b in blocks])
    return int(np.count_nonzero(np.linalg.svd(rows, compute_uv=False) > tol))


# --- partition oracle ------------------------------------------------------

def reference_validate_partition(blocks):
    """Block-class conditions checked pair by pair and block by block.

    Same checks, order and messages as wang.validate_partition, from a
    pairwise A_i^dag A_j loop and one SVD per block; additionally rebuilds
    each block from its singular vectors. Returns each block's singular
    factors (W_r, V_r^dag) over its r singular values above RANK_TOL.
    """
    mats = tuple(np.asarray(b, dtype=complex) for b in blocks)
    if not mats:
        raise IncompleteBlocks("a partition needs at least one block")
    dim = mats[0].shape[0] if mats[0].ndim else 0
    if not dim:
        raise DimensionMismatch(f"block 0 has shape {mats[0].shape}, which holds no operator")
    for i, b in enumerate(mats):
        if b.ndim != 2 or b.shape != (dim, dim):
            raise DimensionMismatch(
                f"block {i} has shape {b.shape}, expected ({dim}, {dim})"
            )
        if not np.isfinite(b).all():
            raise NonFinite(f"block {i} has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(mats)):
            for j in range(len(mats)):
                if i == j:
                    continue
                overlap = np.abs(mats[i].conj().T @ mats[j]).max()
                if overlap > qcore.NORM_TOL:
                    raise OverlappingBlocks(
                        f"blocks {i} and {j} overlap: max |A_i^dag A_j| = {overlap:.3e}"
                    )
        gram = sum(b.conj().T @ b for b in mats)
        dev = np.abs(gram - np.eye(dim)).max()
    if dev > qcore.NORM_TOL:
        raise IncompleteBlocks(
            f"sum A_i^dag A_i deviates from identity by {dev:.3e}"
        )
    factors, ranks = [], []
    for i, b in enumerate(mats):
        w, s, vh = np.linalg.svd(b)
        r = int(np.count_nonzero(s > qcore.RANK_TOL))
        if r and np.abs(s[:r] - 1.0).max() > 1e-8:
            raise IncompleteBlocks(
                f"block {i} has singular values {s[:r]} != 1; "
                "it cannot belong to a unitary combination"
            )
        factors.append((w[:, :r], vh[:r]))
        ranks.append(r)
    if sum(ranks) != dim:
        raise IncompleteBlocks(
            f"block ranks {tuple(ranks)} do not sum to the dimension {dim}"
        )
    for i, (b, (w, vh)) in enumerate(zip(mats, factors)):
        if np.abs(w @ vh - b).max() > 1e-8:
            raise IncompleteBlocks(f"block {i} does not match its singular form")
    return factors


def reference_member(blocks):
    """(member, owner) of an accepted partition, built from one SVD per
    block: its kept left and right singular vectors, stacked over the
    blocks into one basis per side and each replaced by its polar factor,
    give A_i = W diag(owner == i) V^dag. No phase or basis choice of the
    SVD changes the member, so it is the oracle for the stored blocks."""
    stack = np.asarray(blocks, dtype=complex)
    w, singular, vh = np.linalg.svd(stack)
    kept = singular > qcore.RANK_TOL
    u, _, uh = np.linalg.svd(np.stack((w.transpose(0, 2, 1)[kept], vh[kept])))
    out_rows, in_rows = u @ uh
    owner = np.nonzero(kept)[0]
    member = (out_rows.T * (owner == np.arange(len(stack))[:, None, None])) @ in_rows
    return member, owner


# --- state oracles ---------------------------------------------------------

def basis_state(indices, dims):
    """Computational basis state |i0, i1, ...> over the given factors."""
    dims = tuple(int(d) for d in dims)
    flat = 0
    for i, d in zip(indices, dims, strict=True):
        if not 0 <= i < d:
            raise DimensionMismatch(f"basis index {i} out of range for dim {d}")
        flat = flat * d + i
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[flat] = 1.0
    return qcore.StateVector(amps, dims)


def zero_filled_state(branch):
    """The branch's full register state as one dense vector: zeros, then its
    amplitudes written at each measured factor's outcome, found by walking
    its steps. The reference for locc.Branch.state."""
    index = [slice(None)] * len(branch.factor_dims)
    measures = (s for s in branch.steps if isinstance(s, locc.MeasureStep))
    for s, k in zip(measures, branch.row, strict=True):
        index[s.target] = k
    full = np.zeros(branch.factor_dims, dtype=complex)
    full[tuple(index)] = branch.amplitudes
    return qcore.StateVector(full.reshape(-1), branch.factor_dims)


@dataclass(frozen=True)
class EagerBranch:
    """One branch as a frozen record of its own fields, built eagerly for
    every row of a run, with its states and outcomes derived from them: the
    oracle that each locc.Branch view is checked against."""

    steps: tuple
    row: tuple
    probability: float
    amplitudes: np.ndarray
    norm: float
    factor_dims: tuple
    measured: tuple

    @property
    def output(self):
        return qcore.StateVector._prechecked(self.amplitudes, self.amplitudes.shape, (), self.norm)

    @property
    def state(self):
        labels = tuple(zip(self.measured, self.row))
        return qcore.StateVector._prechecked(self.amplitudes, self.factor_dims, labels, self.norm)

    @property
    def outcomes(self):
        measures = (s for s in self.steps if isinstance(s, MeasureStep))
        return {s.message: k for s, k in zip(measures, self.row) if s.send_to is not None}


def eager_branches(run):
    """One EagerBranch per row of the run's arrays, read straight off the
    arrays rather than the lists the views read."""
    return [
        EagerBranch(run.steps, tuple(row), p, amps, norm, run.factor_dims, run.measured)
        for amps, row, p, norm in zip(
            run.amplitudes, run.outcomes.tolist(), run.probabilities.tolist(), run.norms.tolist()
        )
    ]


def dense_factor_overlap(state, vec, factor):
    """|(<vec| (x) I) state|, contracted over the factor moved to the front:
    the oracle for qcore.factor_overlap."""
    moved = np.moveaxis(state.tensor_form(), factor, 0)
    rest = np.tensordot(np.conj(vec), moved, axes=(0, 0))
    return float(np.linalg.norm(rest))


def schmidt_reconstruct(form):
    """Rebuild sum_i h_i |l_i>|r_i> and restore the original factor order."""
    matrix = (form.left_basis * form.coefficients) @ form.right_basis.conj().T
    left_dims = tuple(form.factor_dims[i] for i in form.cut)
    rest = tuple(i for i in range(len(form.factor_dims)) if i not in form.cut)
    rest_dims = tuple(form.factor_dims[i] for i in rest)
    tensor_form = matrix.reshape(left_dims + rest_dims)
    tensor_form = np.moveaxis(tensor_form, range(len(form.cut)), form.cut)
    return qcore.StateVector(tensor_form.reshape(-1), form.factor_dims)


def fidelity(a, b):
    """|<a|b>|; equality up to global phase means fidelity 1."""
    if a.factor_dims != b.factor_dims:
        raise DimensionMismatch(
            f"cannot compare factors {a.factor_dims} with {b.factor_dims}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


# --- transcript oracle -----------------------------------------------------

def residual(out, expected):
    """||out - e^{i theta} expected|| with e^{i theta} the phase of
    <expected|out>: linear in an operator fault, where the fidelity
    |<expected|out>| moves only with its square."""
    out, expected = np.reshape(out, -1), np.reshape(expected, -1)
    overlap = np.vdot(expected, out)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(out - phase * expected))


def validate_transcript(steps, owners):
    """Structural audit of a record (a LocalOpEvent per operation, a
    MeasureStep per measurement): locality of every entry, and
    message-before-use causality, where a measurement delivers its tag to
    the measuring party and, if sent, to the receiver."""
    delivered = {ALICE: set(), BOB: set()}
    for s in steps:
        factors = qcore.indices(s.targets, len(owners), "step")
        locc._check_owned(owners, s.party, factors)
        if isinstance(s, MeasureStep):
            for party in {s.party, s.send_to} - {None}:
                delivered[party].add(s.message)
        elif s.consumed is not None and s.consumed not in delivered[s.party]:
            raise MissingClassicalDependency(
                f"{s.party.value} used outcome {s.consumed!r} "
                "before any message delivered it"
            )


# --- representations -------------------------------------------------------

def klein_character_rep():
    """Z2 x Z2 by its four characters on the diagonal."""
    group = groupform.klein_four()
    signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    mats = [np.diag(signs[:, f].astype(complex)) for f in range(4)]
    return groupform.projective_rep(group, mats, mu=np.ones((4, 4)))


def random_block_diagonal_unitary(decomp, rng):
    """Random unitary respecting the decomposition's block layout."""
    out = np.zeros((decomp.rep.dim, decomp.rep.dim), dtype=complex)
    for d, o in zip(decomp.dims, decomp.offsets):
        out[o : o + d, o : o + d] = qcore.random_unitary(d, rng)
    return out


def reference_coefficients_from_unitary(unitary, decomp):
    """c(f) = sum_blocks (d/|G|) sum_{jk} conj(D_block(f)_{jk}) R_block_{jk},
    summed block by block and element by element: the oracle for
    groupform.coefficients_from_unitary."""
    rep = decomp.rep
    order = rep.group.order
    coeffs = np.zeros(order, dtype=complex)
    for f, m in enumerate(rep.matrices):
        acc = 0.0 + 0.0j
        for d, o in zip(decomp.dims, decomp.offsets):
            block_rep = m[o : o + d, o : o + d]
            block_target = unitary[o : o + d, o : o + d]
            acc += (d / order) * np.sum(block_rep.conj() * block_target)
        coeffs[f] = acc
    return coeffs
