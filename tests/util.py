"""Shared test helpers: random states and independent oracle constructions."""

import numpy as np

from qremote import locc, qcore


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
