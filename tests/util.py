"""Shared test helpers: random states, independent oracle constructions, and
the state, transcript and representation oracles the tests check the library
against."""

import math

import numpy as np

from qremote import groupform, locc, qcore
from qremote.errors import (
    DimensionMismatch,
    IncompleteBlocks,
    MissingClassicalDependency,
    NonFinite,
    OverlappingBlocks,
)
from qremote.locc import ALICE, BOB, LocalOpEvent, MeasurementEvent


def random_state(dim, rng):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qcore.StateVector(amps / np.linalg.norm(amps), (dim,))


def random_diag_phases(n, rng):
    return np.exp(2j * np.pi * rng.uniform(size=n))


def step_operators(program, outcomes):
    """Label -> matrix of every unitary step, conditioned ones built from the
    outcome their message carries."""
    ops = {}
    for step in program.steps:
        if isinstance(step, locc.LocalStep):
            ops[step.label] = step.matrix
        elif isinstance(step, locc.ConditionalStep):
            ops[step.label] = step.build(outcomes[step.message])
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
    dim = mats[0].shape[0]
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

def validate_transcript(transcript, owners):
    """Structural audit: locality of every event and message-before-use causality."""
    delivered = {ALICE: set(), BOB: set()}
    for event in transcript.events:
        if isinstance(event, LocalOpEvent):
            locc._check_locality(owners, event.party, event.targets)
            if event.consumed is not None and event.consumed not in delivered[event.party]:
                raise MissingClassicalDependency(
                    f"{event.party.value} used outcome {event.consumed!r} "
                    "before any message delivered it"
                )
        elif isinstance(event, MeasurementEvent):
            locc._check_locality(owners, event.party, (event.target,))
        else:
            delivered[event.receiver].add(event.tag)


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
