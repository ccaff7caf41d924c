"""Dense complex linear algebra on small tensor-factored Hilbert spaces.

States are flat complex vectors tagged with an ordered list of subsystem
dimensions. Everything is a pure function over immutable values; dimensions
stay small (a few hundred amplitudes at most), so dense row-major storage is
used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonUnitary

# Double precision leaves >= 6 orders of margin at these dimensions.
NORM_TOL = 1e-9     # unitarity and state-normalization checks
RANK_TOL = 1e-9     # Schmidt coefficients below this do not count toward rank
PROB_FLOOR = 1e-12  # measurement branches below this probability are dropped


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over an ordered product of subsystems."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
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
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))
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


def basis_state(indices, dims) -> StateVector:
    """Computational basis state |i0, i1, ...> over the given factors."""
    dims = tuple(int(d) for d in dims)
    flat = 0
    for i, d in zip(indices, dims, strict=True):
        if not 0 <= i < d:
            raise DimensionMismatch(f"basis index {i} out of range for dim {d}")
        flat = flat * d + i
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[flat] = 1.0
    return StateVector(amps, dims)


def tensor(a, b):
    """Kronecker product of two matrices or two states (factor lists concatenate)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(
            np.kron(a.amplitudes, b.amplitudes), a.factor_dims + b.factor_dims
        )
    if isinstance(a, StateVector) or isinstance(b, StateVector):
        raise TypeError("tensor expects two matrices or two states, not a mix")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_unitary(m: np.ndarray, tol: float = NORM_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(
        np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= tol
    )


def _check_targets(state: StateVector, targets) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise DimensionMismatch(f"repeated target factors {targets}")
    for t in targets:
        if not 0 <= t < len(state.factor_dims):
            raise DimensionMismatch(
                f"target {t} out of range for {len(state.factor_dims)} factors"
            )
    return targets


def apply_local(op: np.ndarray, state: StateVector, targets) -> StateVector:
    """Apply a unitary to the designated factors, leaving the others untouched."""
    targets = _check_targets(state, targets)
    op = np.asarray(op, dtype=complex)
    d_op = math.prod(state.factor_dims[t] for t in targets)
    if op.shape != (d_op, d_op):
        raise DimensionMismatch(
            f"operator shape {op.shape} does not match target dims product {d_op}"
        )
    if not is_unitary(op):
        raise NonUnitary(f"operator on factors {targets} is not unitary")
    k = len(targets)
    moved = np.moveaxis(state.tensor_form(), targets, range(k))
    rest_shape = moved.shape[k:]
    out = op @ moved.reshape(d_op, -1)
    out = out.reshape(tuple(state.factor_dims[t] for t in targets) + rest_shape)
    out = np.moveaxis(out, range(k), targets)
    return StateVector(out.reshape(-1), state.factor_dims)


def measure_computational(state: StateVector, target: int) -> list[MeasurementOutcome]:
    """Enumerate every computational-basis outcome on one factor.

    Returns all branches with probability above PROB_FLOOR, each with its
    renormalized post-measurement state. Deterministic enumeration, never
    sampling, so callers can verify every branch.
    """
    (target,) = _check_targets(state, [target])
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
    cut = _check_targets(state, cut)
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


def schmidt_reconstruct(form: SchmidtForm) -> StateVector:
    """Rebuild sum_i h_i |l_i>|r_i> and restore the original factor order."""
    matrix = (form.left_basis * form.coefficients) @ form.right_basis.conj().T
    left_dims = tuple(form.factor_dims[i] for i in form.cut)
    rest = tuple(i for i in range(len(form.factor_dims)) if i not in form.cut)
    rest_dims = tuple(form.factor_dims[i] for i in rest)
    tensor_form = matrix.reshape(left_dims + rest_dims)
    tensor_form = np.moveaxis(tensor_form, range(len(form.cut)), form.cut)
    return StateVector(tensor_form.reshape(-1), form.factor_dims)


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


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|; equality up to global phase means fidelity 1."""
    if a.factor_dims != b.factor_dims:
        raise DimensionMismatch(
            f"cannot compare factors {a.factor_dims} with {b.factor_dims}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def factor_overlap(state: StateVector, vec: np.ndarray, factor: int) -> float:
    """Weight of |vec> on one factor: 1 iff that factor holds vec exactly,
    disentangled from the rest and up to global phase."""
    (factor,) = _check_targets(state, [factor])
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
    (factor,) = _check_targets(state, [factor])
    if len(state.factor_dims) == 1:
        return state
    form = schmidt(state, [factor])
    if form.rank != 1:
        raise ValueError(
            f"factor {factor} is entangled with the rest (Schmidt rank {form.rank})"
        )
    return StateVector(form.left_basis[:, 0], (state.factor_dims[factor],))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
