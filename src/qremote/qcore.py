"""Dense complex linear algebra on small tensor-factored Hilbert spaces.

States are flat complex vectors tagged with an ordered list of subsystem
dimensions. Everything is a pure function over immutable values; registers
stay small (tens of levels each, so a block-protocol branch at (D, n) =
(32, 32) holds 32 768 amplitudes), and dense row-major storage is used
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EntangledFactor, NonFinite, NonUnitary, NotNormalized

# Double precision leaves >= 6 orders of margin at these dimensions.
NORM_TOL = 1e-9     # unitarity and state-normalization checks
RANK_TOL = 1e-9     # Schmidt coefficients below this do not count toward rank
PROB_FLOOR = 1e-12  # measurement branches below this probability are dropped


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only complex copy. An array that is already read-only and owns
    its memory is kept as is: whoever froze it has given up writing to it."""
    if (
        isinstance(arr, np.ndarray) and arr.dtype == complex
        and arr.flags.owndata and not arr.flags.writeable
    ):
        return arr
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over an ordered product of subsystems."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        amps = _freeze(self.amplitudes).reshape(-1)
        dims = tuple(int(d) for d in self.factor_dims)
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"factor dims must be positive, got {dims}")
        if amps.size != math.prod(dims):
            raise DimensionMismatch(
                f"{amps.size} amplitudes do not fill factors {dims}"
            )
        norm = np.linalg.norm(amps)
        if not math.isfinite(norm):
            raise NonFinite(f"state norm {norm} is not finite")
        if abs(norm - 1.0) > NORM_TOL:
            raise NotNormalized(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor_form(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor."""
        return self.amplitudes.reshape(self.factor_dims)


@dataclass(frozen=True)
class MeasurementOutcome:
    outcome: int
    probability: float
    post_state: StateVector


@dataclass(frozen=True)
class SchmidtForm:
    """Bipartite decomposition: coefficients sorted descending, orthonormal bases."""

    coefficients: np.ndarray      # nonincreasing, nonnegative
    left_basis: np.ndarray        # columns, one per coefficient
    right_basis: np.ndarray       # columns, one per coefficient
    rank: int
    cut: tuple[int, ...]          # factor indices on the left side
    factor_dims: tuple[int, ...]  # of the decomposed state


def ket(index: int, dim: int) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, (dim,))


def tensor(a, b):
    """Kronecker product of two matrices or two states (factor lists concatenate)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(
            np.kron(a.amplitudes, b.amplitudes), a.factor_dims + b.factor_dims
        )
    if isinstance(a, StateVector) or isinstance(b, StateVector):
        raise TypeError("tensor expects two matrices or two states, not a mix")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_sum(left, right) -> np.ndarray:
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


def is_unitary(m: np.ndarray, tol: float = NORM_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(
        np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= tol
    )


def _check_targets(dims: tuple[int, ...], targets) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise DimensionMismatch(f"repeated target factors {targets}")
    for t in targets:
        if not 0 <= t < len(dims):
            raise DimensionMismatch(
                f"target {t} out of range for {len(dims)} factors"
            )
    return targets


def local_unitary(op: np.ndarray, dims: tuple[int, ...], targets) -> np.ndarray:
    """op as a complex matrix, checked to be a unitary on the target factors."""
    targets = _check_targets(dims, targets)
    op = np.asarray(op, dtype=complex)
    d_op = math.prod(dims[t] for t in targets)
    if op.shape != (d_op, d_op):
        raise DimensionMismatch(
            f"operator shape {op.shape} does not match target dims product {d_op}"
        )
    if not is_unitary(op):
        raise NonUnitary(f"operator on factors {targets} is not unitary")
    return op


def apply_local(op: np.ndarray, state: StateVector, targets) -> StateVector:
    """Apply a unitary to the designated factors, leaving the others untouched."""
    op = local_unitary(op, state.factor_dims, targets)
    targets = _check_targets(state.factor_dims, targets)
    k = len(targets)
    moved = np.moveaxis(state.tensor_form(), targets, range(k))
    rest_shape = moved.shape[k:]
    out = op @ moved.reshape(op.shape[0], -1)
    out = out.reshape(tuple(state.factor_dims[t] for t in targets) + rest_shape)
    out = np.moveaxis(out, range(k), targets)
    return StateVector(out.reshape(-1), state.factor_dims)


def measure_computational(state: StateVector, target: int) -> list[MeasurementOutcome]:
    """Enumerate every computational-basis outcome on one factor.

    Returns all branches with probability above PROB_FLOOR, each with its
    renormalized post-measurement state. Deterministic enumeration, never
    sampling, so callers can verify every branch.
    """
    (target,) = _check_targets(state.factor_dims, [target])
    moved = np.moveaxis(state.tensor_form(), target, 0)
    outcomes = []
    for k in range(state.factor_dims[target]):
        slab = moved[k]
        p = float(np.vdot(slab, slab).real)
        if p <= PROB_FLOOR:
            continue
        post = np.zeros_like(moved)
        post[k] = slab / math.sqrt(p)
        post = np.moveaxis(post, 0, target)
        outcomes.append(
            MeasurementOutcome(k, p, StateVector(post.reshape(-1), state.factor_dims))
        )
    return outcomes


def schmidt(state: StateVector, cut) -> SchmidtForm:
    """Schmidt decomposition across the bipartition (cut | remaining factors)."""
    cut = _check_targets(state.factor_dims, cut)
    rest = tuple(i for i in range(len(state.factor_dims)) if i not in cut)
    if not cut or not rest:
        raise DimensionMismatch("cut must leave factors on both sides")
    d_left = math.prod(state.factor_dims[i] for i in cut)
    moved = np.moveaxis(state.tensor_form(), cut, range(len(cut)))
    matrix = moved.reshape(d_left, -1)
    left, coeffs, right_h = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.count_nonzero(coeffs > RANK_TOL))
    return SchmidtForm(
        coefficients=_freeze(coeffs).real,
        left_basis=_freeze(left),
        right_basis=_freeze(right_h.conj().T),
        rank=rank,
        cut=cut,
        factor_dims=state.factor_dims,
    )


def fourier_matrix(n: int) -> np.ndarray:
    """Discrete Fourier transform, entries e^{2*pi*i*m*j/n} / sqrt(n)."""
    if n < 1:
        raise DimensionMismatch("fourier_matrix needs n >= 1")
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(2j * np.pi * grid / n) / math.sqrt(n)


def shift_matrix(n: int) -> np.ndarray:
    """Permutation mapping |k> to |k-1 mod n>."""
    if n < 1:
        raise DimensionMismatch("shift_matrix needs n >= 1")
    m = np.zeros((n, n), dtype=complex)
    for k in range(n):
        m[(k - 1) % n, k] = 1.0
    return m


def factor_overlap(state: StateVector, vec: np.ndarray, factor: int) -> float:
    """Weight of |vec> on one factor: 1 iff that factor holds vec exactly,
    disentangled from the rest and up to global phase."""
    (factor,) = _check_targets(state.factor_dims, [factor])
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size != state.factor_dims[factor]:
        raise DimensionMismatch(
            f"vector of size {vec.size} does not fit factor {factor}"
        )
    moved = np.moveaxis(state.tensor_form(), factor, 0)
    rest = np.tensordot(vec.conj(), moved, axes=(0, 0))
    return float(np.linalg.norm(rest))


def factor_state(state: StateVector, factor: int) -> StateVector:
    """Extract one factor's state, requiring it to be unentangled from the rest."""
    (factor,) = _check_targets(state.factor_dims, [factor])
    if len(state.factor_dims) == 1:
        return state
    form = schmidt(state, [factor])
    if form.rank != 1:
        raise EntangledFactor(
            f"factor {factor} is entangled with the rest (Schmidt rank {form.rank})"
        )
    return StateVector(form.left_basis[:, 0], (state.factor_dims[factor],))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
