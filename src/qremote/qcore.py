"""Dense complex linear algebra on small tensor-factored Hilbert spaces.

States are flat complex vectors tagged with an ordered list of subsystem
dimensions. Everything is a pure function over immutable values; registers
stay small (tens of levels each, so a block-protocol branch at (D, n) =
(32, 32) holds 32 768 amplitudes), and dense row-major storage is used
throughout. Every module's arguments pass four gates: dimensions for
sizes, operators for stacks of matrices, coefficients for vectors of
scalars and index_in for every factor, basis state and outcome index (a
Python int from operator.index, in range; indices, for a tuple of factors,
also refuses a factor named twice). A value of the wrong kind, such as a
string where numbers belong, is a DimensionMismatch at each gate, as it is
for StateVector and for the arrays that local_unitary, is_unitary, tensor
and factor_overlap take; an integer past the float range is NonFinite
there. The shift and clock of the protocols' corrections are built in one
place each, as whole tables of powers: shift_powers and clock_powers.
A stack whose every matrix is a permutation with phases is read off in one
place too: monomial returns its (cols, phases) form. A layout's size is
checked in one place, before anything is allocated: check_size refuses one
past MAX_AMPLITUDES.

Each operator is certified once, where it is made. A certificate records
each matrix's unitarity defect (the largest entry of |U^dag U - I|) and is
issued only here (_certify), to a table copied into memory no caller can
write: an array over immutable bytes, whose WRITEABLE flag numpy refuses to
set, where a plain read-only array's owner may set it again. It is bound to
that very array, so a copy, view or reshape of it holds none. The issuers:
from_monomial checks a permutation-and-phase table on that form, with no
product (shift_powers, clock_powers, identity, wang's phase gate and the
monomial representations' polar matrices come from it); checked_unitary
after one dense check (bqst's U, the group's M and the dense
representations' polar matrices); fourier_matrix, checked once per size and
cached (as are the identity and the shift and clock tables up to
CACHED_ORDER); and gather, along the stack axis of a certified stack. local_unitary
and certify_coupling read a certified table's defects off its certificate
and skip the dense check; any other table takes it, with the same class and
message. The same tables hold the same bytes as before they were certified.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache, partial
from operator import index
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch, EntangledFactor, NonFinite, NonUnitary, NotNormalized, UnsupportedProblem,
)

# Double precision leaves >= 6 orders of margin at these dimensions.
NORM_TOL = 1e-9     # unitarity and state-normalization checks
# a partition block's nonzero singular values must be 1 within this: the
# SVD's error on them is larger than the Gram products' that NORM_TOL bounds
SINGULAR_TOL = 1e-8
# Schmidt coefficients and a partition block's singular values at or below
# this do not count toward rank
RANK_TOL = 1e-9
PROB_FLOOR = 1e-12  # measurement branches below this probability are dropped
# the most amplitudes a layout may hold (1 GiB of complex128): bqst runs up
# to D = 36, D^5 = 60 466 176, and a partition up to n D^2 = 2^26
MAX_AMPLITUDES = 2 ** 26
# shift and clock tables up to this order (512 KiB each) are cached, 16 of
# each at most: the cache never holds more than 16 MiB
CACHED_ORDER = 32


def check_size(count: int, what: str) -> None:
    """UnsupportedProblem, before anything is allocated, if what holds
    count > MAX_AMPLITUDES amplitudes."""
    if count > MAX_AMPLITUDES:
        raise UnsupportedProblem(
            f"{what} holds {count} amplitudes, beyond the ceiling of {MAX_AMPLITUDES}"
        )


def index_in(k, size: int, what: str) -> int:
    """k, converted by operator.index, as a Python int in range(size): the
    one index rule. "1", 1.0 and None are not indices; DimensionMismatch
    names what k indexes and why it is refused."""
    try:
        i = index(k)
    except TypeError:
        raise DimensionMismatch(f"{what} {k!r} is not an integer") from None
    if not 0 <= i < size:
        raise DimensionMismatch(f"{what} {i} is not in range({size})")
    return i


def indices(values, n: int, what: str) -> tuple[int, ...]:
    """values, factors of an n-factor register, as a tuple of Python ints,
    each resolved by index_in; DimensionMismatch, naming what holds them,
    if they are no sequence or name a factor twice."""
    each = f"{what} factor"
    try:
        # from a list: tuple(genexpr) builds a tuple by resizing, which is slower
        named = tuple([index_in(v, n, each) for v in values])
    except TypeError:
        raise DimensionMismatch(f"{what} names {values!r}, not a sequence of factors") from None
    if len(set(named)) != len(named):
        raise DimensionMismatch(f"{what} names a factor twice in {named}")
    return named


def dimensions(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints >= 1, converted by operator.index, so a
    non-integer such as 2.7 is a DimensionMismatch, never truncated."""
    try:
        # from a list: tuple(map(...)) builds a tuple by resizing, which is slower
        dims = tuple([index(d) for d in values])
    except TypeError:
        dims = None
    if dims is None or min(dims, default=1) < 1:
        raise DimensionMismatch(f"{what} must be integers >= 1, got {values!r}")
    return dims


def operators(values, what: str) -> np.ndarray:
    """values, a non-empty sequence of finite D x D matrices with D >= 1, as one
    (k, D, D) complex stack; DimensionMismatch or NonFinite names the first
    entry at fault. A value that is no sequence is read as its only entry."""
    entries = values if np.iterable(values) else (values,)
    mats = [_numeric(m, f"{what} {i}") for i, m in enumerate(entries)]
    dim = mats[0].shape[0] if mats and mats[0].ndim else 0
    if not dim:
        raise DimensionMismatch(f"{what} 0 is missing or not an operator on at least one level")
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"{what} {i} has shape {m.shape}, expected ({dim}, {dim})")
    stack = np.array(mats)
    finite = np.isfinite(stack)
    if not finite.all():
        raise NonFinite(f"{what} {finite.all(axis=(1, 2)).argmin()} has a non-finite entry")
    return stack


def coefficients(values, what: str) -> np.ndarray:
    """values, finite scalars, flattened to one complex vector;
    DimensionMismatch if they are not numbers, NonFinite if one is not
    finite."""
    vec = _numeric(values, what).reshape(-1)
    if not np.isfinite(vec).all():
        raise NonFinite(f"{what} must be finite")
    return vec


def _numeric(values, what: str) -> np.ndarray:
    """values as a complex array; DimensionMismatch if they are not numbers,
    NonFinite if one is an integer past the float range."""
    try:
        return np.asarray(values, dtype=complex)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{what} is not numeric") from None
    except OverflowError:
        raise NonFinite(f"{what} has an entry past the float range") from None


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only complex copy. A read-only, C-contiguous complex array whose
    memory belongs to a read-only array is kept as is: whoever froze that
    memory has given up writing to it."""
    if (
        isinstance(arr, np.ndarray) and arr.dtype == complex
        and not arr.flags.writeable and arr.flags.c_contiguous
    ):
        owner = arr if arr.base is None else arr.base
        if isinstance(owner, np.ndarray) and not owner.flags.writeable:
            return arr
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


class Immutable:
    """A value whose fields are set once, through object.__setattr__:
    assignment and deletion raise FrozenInstanceError, as for a frozen
    dataclass."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class StateVector(Immutable):
    """Normalized amplitude vector over an ordered product of subsystems.

    basis holds (factor, k) pairs of integers: each named factor is in its
    basis state |k>, and amplitudes passed in cover only the other factors,
    in factor order. They are kept as stored, one axis per such factor;
    their norm is the norm of the whole state, so the norm check runs on
    them alone. The dense amplitudes, every factor's axis flattened, are
    built once, on first read, with zeros off the basis states. Instances
    are immutable.
    """

    __slots__ = ("factor_dims", "basis", "stored", "_norm", "_dense")

    def __init__(self, amplitudes: np.ndarray, factor_dims, basis=()):
        amps = _freeze(_numeric(amplitudes, "state vector")).reshape(-1)
        dims = dimensions(factor_dims, "factor dims")
        pairs = list(basis)
        factors = indices([f for f, _ in pairs], len(dims), "basis")
        # Python ints: a bool k would index the dense form as a mask
        basis = tuple([(f, index_in(k, dims[f], f"factor {f}'s basis state"))
                       for f, (_, k) in zip(factors, pairs)])
        live = [d for f, d in enumerate(dims) if f not in factors]
        if amps.size != math.prod(live):
            where = f" outside basis {basis}" if basis else ""
            raise DimensionMismatch(f"{amps.size} amplitudes do not fill factors {dims}{where}")
        # vdot sets no floating-point flags: an overflow is NonFinite, not a warning
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not math.isfinite(norm):
            raise NonFinite(f"state norm {norm} is not finite")
        if abs(norm - 1.0) > NORM_TOL:
            raise NotNormalized(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        init = object.__setattr__
        init(self, "factor_dims", dims)
        init(self, "basis", basis)
        init(self, "stored", amps.reshape(live))
        init(self, "_norm", norm)
        init(self, "_dense", None if basis else amps)

    @classmethod
    def _prechecked(cls, stored: np.ndarray, factor_dims, basis, norm: float):
        """The state __init__ would build from these, with none of its checks:
        for a caller that has already made them, as locc's closing gate does
        for every branch. The caller guarantees that
        - stored is read-only, C-contiguous and complex, with one axis per
          factor not in basis, in factor order;
        - factor_dims is a tuple of Python ints >= 1, and basis a tuple of
          (factor, k) pairs of in-range Python ints, no factor twice;
        - norm is the norm of stored and has already passed the NORM_TOL gate.
        """
        self = object.__new__(cls)
        init = object.__setattr__
        init(self, "factor_dims", factor_dims)
        init(self, "basis", basis)
        init(self, "stored", stored)
        init(self, "_norm", norm)
        init(self, "_dense", None if basis else stored.reshape(-1))
        return self

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense, read-only amplitudes over every factor, flattened."""
        if self._dense is None:
            full = np.zeros(self.factor_dims, dtype=complex)
            index: list[int | slice] = [slice(None)] * len(self.factor_dims)
            for f, k in self.basis:
                index[f] = k
            full[tuple(index)] = self.stored
            full.setflags(write=False)
            object.__setattr__(self, "_dense", full.reshape(-1))
        return self._dense

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

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
    """The basis state |index> of a dim-level register."""
    return StateVector(np.ones(1), (dim,), [(0, index)])


def tensor(a, b):
    """Kronecker product of two matrices or two states (factor lists concatenate)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(
            np.kron(a.amplitudes, b.amplitudes), a.factor_dims + b.factor_dims
        )
    if isinstance(a, StateVector) or isinstance(b, StateVector):
        raise TypeError("tensor expects two matrices or two states, not a mix")
    return np.kron(_numeric(a, "tensor factor"), _numeric(b, "tensor factor"))


def unitarity_defect(stack: np.ndarray) -> np.ndarray:
    """Largest entry of |U^dag U - I| for each matrix U of a (..., d, d)
    stack, from one batched product; inf or nan, with no warning, where U
    is not finite or the product overflows (an entry near 1e308), so every
    caller's check against NORM_TOL fails there."""
    d = stack.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stack.conj().swapaxes(-1, -2) @ stack
        gram.reshape(gram.shape[:-2] + (d * d,))[..., :: d + 1] -= 1
        return np.abs(gram).max(axis=(-2, -1))


def monomial(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The permutation-and-phase form of a (k, d, d) stack, or None.

    A matrix is monomial when each row and each column holds exactly one
    nonzero entry and every other entry is exactly 0: it is then
    sum_r phases[r] |r><cols[r]|. The form is returned as (cols, phases),
    both (k, d): row r of matrix i has its one nonzero entry phases[i, r]
    in column cols[i, r]. Any other stack, including one with an
    off-pattern entry as small as 1e-300, gives None."""
    k, d = stack.shape[0], stack.shape[-1]
    # k d nonzero entries with at least one in every row is exactly one per row
    if np.count_nonzero(stack) != k * d:
        return None
    cols = (stack != 0).argmax(axis=-1)
    phases = np.take_along_axis(stack, cols[..., None], axis=-1)[..., 0]
    # one per column: each row's column is distinct, a permutation of range(d)
    if not phases.all() or not (np.sort(cols, axis=-1) == np.arange(d)).all():
        return None
    return cols, phases


# --- certificates ------------------------------------------------------------

# id of a certified table -> (a weak reference to it, the defect of each of its
# matrices); an entry goes when its table does
_CERTIFICATES: dict[int, tuple[weakref.ref, np.ndarray]] = {}


def _certify(table: np.ndarray, defects) -> np.ndarray:
    """table, copied into memory no caller can write (an array over
    immutable bytes: numpy refuses to set its WRITEABLE flag), under a
    certificate that holds each matrix's defect. The one place a
    certificate is issued; its callers have checked every defect against
    NORM_TOL, densely or on the table's exact form."""
    frozen = np.frombuffer(np.asarray(table, dtype=complex).tobytes(), dtype=complex)
    frozen = frozen.reshape(table.shape)
    defects = np.array(defects, dtype=float)
    defects.setflags(write=False)
    key = id(frozen)
    _CERTIFICATES[key] = (weakref.ref(frozen, partial(_revoke, key)), defects)
    return frozen


def _revoke(key: int, ref: weakref.ref) -> None:
    if _CERTIFICATES.get(key, (None,))[0] is ref:
        del _CERTIFICATES[key]


def _certificate(table) -> np.ndarray | None:
    """The defects certified for this very array, or None: a copy, a view
    or a reshape of a certified table is another array and holds none."""
    entry = _CERTIFICATES.get(id(table))
    return entry[1] if entry is not None and entry[0]() is table else None


def _defects(table: np.ndarray) -> np.ndarray:
    """Each matrix's defect: read off the table's certificate if it holds
    one, else computed by unitarity_defect."""
    certified = _certificate(table)
    return unitarity_defect(table) if certified is None else certified


def checked_unitary(table: np.ndarray) -> np.ndarray | None:
    """table, a complex matrix or (k, d, d) stack, certified after one
    dense check (unitarity_defect), or None if a matrix fails it."""
    defects = unitarity_defect(table)
    if not (defects <= NORM_TOL).all():   # nan fails too
        return None
    return _certify(table, defects)


def from_monomial(cols, phases) -> np.ndarray:
    """The matrices sum_r phases[r] |r><cols[r]| of a monomial form, the
    inverse of monomial: cols and phases have shape (..., d), one row per
    matrix, and each phase is written into zeros. The table is certified on
    that form, with no product, when each row of cols is a permutation of
    range(d) and each | |phase|^2 - 1 | is at most NORM_TOL: U^dag U is
    then diagonal with the |phase|^2 on it, so those are its defects.
    Otherwise it is returned uncertified."""
    cols, phases = np.asarray(cols), np.asarray(phases, dtype=complex)
    d = cols.shape[-1]
    table = np.zeros(cols.shape + (d,), dtype=complex)
    rows = table.reshape(-1, d)
    rows[np.arange(len(rows)), cols.reshape(-1)] = phases.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):   # inf or nan is at fault
        defects = np.abs(phases.real ** 2 + phases.imag ** 2 - 1).max(axis=-1)
    if (defects <= NORM_TOL).all() and (np.sort(cols, axis=-1) == np.arange(d)).all():
        return _certify(table, defects)
    return table


def gather(stack: np.ndarray, index) -> np.ndarray:
    """stack[index] along the stack axis, certified with the defects of the
    matrices it takes when stack is certified."""
    certified = _certificate(stack)
    taken = stack[index]
    return taken if certified is None else _certify(taken, certified[index])


def identity(n: int) -> np.ndarray:
    """The n x n identity, certified; the last few sizes are cached."""
    (n,) = dimensions((n,), "identity size")
    return _identity(n)


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    return from_monomial(np.arange(n), np.ones(n))


def is_unitary(m: np.ndarray) -> bool:
    m = _numeric(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        return False
    return bool(unitarity_defect(m) <= NORM_TOL)


def certify_coupling(basis: np.ndarray, unitaries: np.ndarray, label: str) -> None:
    """Certify the coupling W = sum_k B|k><k|B^dag (x) V_k, one V_k of the
    (d_c, d_t, d_t) stack unitaries per column of the d_c x d_c basis B.
    NonUnitary, naming the label and either the basis or the term at fault,
    is raised unless the dense check |W^dag W - I| <= NORM_TOL (largest
    entry) is sure to pass.

    The work is one unitarity_defect on B and one on the stack of the V_k,
    each skipped for a certified table, whose certificate holds its
    defects: delta_B and delta_V are their largest entries of
    |X^dag X - I|. With
    ||.|| the operator norm, ||X^dag X - I|| <= d delta for a d x d matrix
    X, so e = d_c delta_B bounds ||B^dag B - I||, which is also
    ||B B^dag - I||, and u = d_t delta_V bounds ||V_k^dag V_k - I|| for
    every k. W = (B (x) I) L (B^dag (x) I) with L the block diagonal of the
    V_k, so ||L^dag L - I|| <= u, ||L||^2 <= 1 + u and ||B||^2 <= 1 + e.
    Expanding,

        W^dag W - I = (B B^dag - I) (x) I + (B (x) I)(L^dag L - I)(B^dag (x) I)
                      + (B (x) I) L^dag ((B^dag B - I) (x) I) L (B^dag (x) I),

    so ||W^dag W - I|| <= bound = e + (1 + e)(u + (1 + u) e). The largest
    entry of a matrix is at most its operator norm, so the gate
    bound <= NORM_TOL never accepts a coupling the dense check rejects.
    """
    d_c, d_t = len(basis), unitaries.shape[-1]
    basis_defect = float(_defects(basis))
    term_defects = _defects(unitaries)
    e, u = d_c * basis_defect, d_t * float(term_defects.max())
    bound = e + (1 + e) * (u + (1 + u) * e)
    if bound <= NORM_TOL:
        return
    if e > u or not math.isfinite(e):
        fault = f"the basis has defect {basis_defect:.3e}"
    else:
        k = int(term_defects.argmax())
        fault = f"term {k}: V is not unitary (defect {term_defects[k]:.3e})"
    raise NonUnitary(
        f"coupling {label!r} is not unitary: bound {bound:.3e} > {NORM_TOL}; {fault}"
    )


def local_unitary(
    op: np.ndarray, dims: tuple[int, ...], targets, name: Callable[[int], str] | None = None
) -> np.ndarray:
    """op, one matrix or a (k, d, d) stack of them, as complex and checked
    to be unitary on the target factors by one unitarity_defect, or by its
    certificate if qcore certified this very array. NonUnitary names the
    first matrix at fault: name(i) for matrix i of a stack."""
    targets = indices(targets, len(dims), "target")
    op = _numeric(op, f"operator on factors {targets}")
    d_op = math.prod(dims[t] for t in targets)
    if op.ndim not in (2, 3) or op.shape[-2:] != (d_op, d_op):
        raise DimensionMismatch(
            f"operator shape {op.shape} does not match target dims product {d_op}"
        )
    defect = _defects(op).reshape(-1)
    bad = np.flatnonzero(~(defect <= NORM_TOL))   # nan is at fault too
    if len(bad):
        i = int(bad[0])
        what = "operator" if name is None else name(i)
        raise NonUnitary(
            f"{what} on factors {targets} is not unitary (defect {defect[i]:.3e})"
        )
    return op


def apply_local(op: np.ndarray, state: StateVector, targets) -> StateVector:
    """Apply a unitary to the designated factors, leaving the others
    untouched; local_unitary checks the matrix on the resolved targets."""
    if np.ndim(op) != 2:
        raise DimensionMismatch(f"apply_local takes one matrix, not shape {np.shape(op)}")
    targets = indices(targets, len(state.factor_dims), "target")
    op = local_unitary(op, state.factor_dims, targets)
    k = len(targets)
    moved = np.moveaxis(state.tensor_form(), targets, range(k))
    out = (op @ moved.reshape(len(op), -1)).reshape(moved.shape)
    return StateVector(np.moveaxis(out, range(k), targets).reshape(-1), state.factor_dims)


def measure_computational(state: StateVector, target: int) -> list[MeasurementOutcome]:
    """Enumerate every computational-basis outcome on one factor.

    Returns all branches with probability above PROB_FLOOR, each with its
    renormalized post-measurement state. Deterministic enumeration, never
    sampling, so callers can verify every branch.
    """
    target = index_in(target, len(state.factor_dims), "measured factor")
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
    cut = indices(cut, len(state.factor_dims), "cut")
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


def fourier_matrix(n: int, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform F, entries e^{2*pi*i*m*j/n} / sqrt(n), or
    with inverse its adjoint. Certified after one dense check per size and
    direction; the last few are cached, so a size is checked once."""
    (n,) = dimensions((n,), "fourier_matrix size")
    return _fourier(n, bool(inverse))


@lru_cache(maxsize=16)
def _fourier(n: int, inverse: bool) -> np.ndarray:
    grid = np.outer(np.arange(n), np.arange(n))
    f = np.exp(2j * np.pi * grid / n) / math.sqrt(n)
    # the DFT is unitary to rounding, n eps, far inside NORM_TOL at any size
    return checked_unitary(f.conj().T if inverse else f)


def shift_powers(n: int) -> np.ndarray:
    """The certified stack X^0 .. X^{n-1} of the permutation
    X|k> = |k-1 mod n>: entry [i, r, c] is 1 iff c = r + i mod n. The last
    few sizes up to CACHED_ORDER are cached."""
    (n,) = dimensions((n,), "shift_powers size")
    return (_shift_powers if n <= CACHED_ORDER else _shift_powers.__wrapped__)(n)


@lru_cache(maxsize=16)
def _shift_powers(n: int) -> np.ndarray:
    grid = np.arange(n)
    return from_monomial((grid[:, None] + grid) % n, np.ones((n, n)))


def clock_powers(n: int) -> np.ndarray:
    """The certified stack Z^0 .. Z^{n-1} of the clock
    Z|k> = e^{2 pi i k/n}|k>, each diagonal written into zeros, so no -0.0
    appears off it. The last few sizes up to CACHED_ORDER are cached."""
    (n,) = dimensions((n,), "clock_powers size")
    return (_clock_powers if n <= CACHED_ORDER else _clock_powers.__wrapped__)(n)


@lru_cache(maxsize=16)
def _clock_powers(n: int) -> np.ndarray:
    grid = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(grid, grid) / n)
    return from_monomial(np.broadcast_to(grid, (n, n)), phases)


def factor_overlap(state: StateVector, vec: np.ndarray, factor: int) -> float:
    """Weight of |vec> on one factor: 1 iff that factor holds vec exactly,
    disentangled from the rest and up to global phase. It is read off the
    stored amplitudes, never the dense form: a basis factor in |k> gives
    |vec[k]| times their norm. A vec whose norm is not finite raises
    NonFinite."""
    factor = index_in(factor, len(state.factor_dims), "overlap factor")
    vec = _numeric(vec, "overlap vector")
    if vec.ndim != 1:
        vec = vec.reshape(-1)
    d = state.factor_dims[factor]
    if vec.size != d:
        raise DimensionMismatch(
            f"vector of size {vec.size} does not fit factor {factor}"
        )
    # vdot sets no floating-point flags; a finite |vec|^2 also bounds the
    # product below, so it cannot overflow
    if not math.isfinite(np.vdot(vec, vec).real):
        raise NonFinite(f"vector on factor {factor} has a non-finite norm")
    axis = factor   # the factor's axis among the stored ones
    for f, k in state.basis:
        if f == factor:
            return float(abs(vec[k])) * state._norm
        axis -= f < factor
    stored = state.stored
    if stored.ndim == 1:   # the factor is the only one stored
        return float(abs(np.vdot(vec, stored)))
    # (before, d, after) is a view of the stored amplitudes for any factor
    rest = vec.conj() @ stored.reshape(math.prod(stored.shape[:axis]), d, -1)
    return math.sqrt(np.vdot(rest, rest).real)


def factor_state(state: StateVector, factor: int) -> StateVector:
    """Extract one factor's state, requiring it to be unentangled from the rest."""
    factor = index_in(factor, len(state.factor_dims), "factor")
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
    (dim,) = dimensions((dim,), "random_unitary size")
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
