"""Shared test helpers: random states, independent oracle constructions, and
the state, transcript and representation oracles the tests check the library
against."""

import math

import numpy as np

from qremote import groupform, locc, qcore
from qremote.errors import DimensionMismatch, MissingClassicalDependency
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
