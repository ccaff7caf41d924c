"""Remote implementation of operations U = sum_f c(f) U(f) over a finite group.

U(f) is a projective representation: U(f)U(g) = mu(f,g) U(fg) with a
unimodular factor system mu. The protocol entangles the group label into the
resource, lets Bob mix the coefficients with M = sum_f c(f) R(f) built from
weighted right-translations, and closes with Alice's U(h^{-1}) after the
group sum re-indexes under left translation (every row and column of the
Cayley table is a permutation, so the sum over the group is invariant).

Coefficient recovery: when the representation is multiplicity-free
(sum of squared irrep dimensions equals the group order) and a block basis
is given, c(f) follows from the orthogonality relations of irreducible
blocks; see coefficients_from_unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import locc, qcore
from .errors import (
    DimensionMismatch,
    MultiplicityNotOne,
    NonFinite,
    NonUnimodularFactor,
    NonUnitary,
    NonUnitaryM,
    NonUnitaryTarget,
    NotAGroup,
    NotARepresentation,
    NotBlockDiagonal,
)
from .locc import ALICE, BOB, Branch, ConditionalStep, LocalStep, MeasureStep, Program
from .qcore import StateVector


# --- groups -----------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroup:
    """Finite group as a Cayley table of element indices."""

    cayley: np.ndarray
    names: tuple[str, ...]
    identity: int
    inverses: np.ndarray

    @property
    def order(self) -> int:
        return self.cayley.shape[0]


def finite_group(cayley, names=None) -> FiniteGroup:
    """Validate a Cayley table: permutation rows/columns, associativity and a
    unique identity, which together give inverses."""
    table = np.asarray(cayley, dtype=int)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup(f"Cayley table must be square, got shape {table.shape}")
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("Cayley table entries must be element indices")
    elements = np.arange(n)
    permutes = (np.sort(table, axis=1) == elements).all(axis=1)
    permutes &= (np.sort(table, axis=0) == elements[:, None]).all(axis=0)
    if not permutes.all():
        raise NotAGroup(
            f"row/column {np.argmin(permutes)} of the Cayley table is not a permutation"
        )
    left = table[table, :]          # left[i,j,k] = (ij)k
    right = table[:, table]         # right[i,j,k] = i(jk)
    if not np.array_equal(left, right):
        raise NotAGroup("Cayley table is not associative")
    identities = np.flatnonzero(
        (table == elements).all(axis=1) & (table == elements[:, None]).all(axis=0)
    )
    if len(identities) != 1:
        raise NotAGroup(f"expected one identity element, found {len(identities)}")
    e = int(identities[0])
    # an associative Latin square with an identity is a group: the one e in
    # row i marks i's inverse
    inverses = np.argmax(table == e, axis=1)
    names = tuple(str(x) for x in (range(n) if names is None else names))
    if len(names) != n:
        raise DimensionMismatch(f"need {n} names, got {len(names)}")
    table = table.copy()
    table.setflags(write=False)
    inverses.setflags(write=False)
    return FiniteGroup(table, names, e, inverses)


def cyclic(n: int) -> FiniteGroup:
    grid = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return finite_group(grid)


def klein_four() -> FiniteGroup:
    """Z2 x Z2 with elements indexed 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)."""
    table = np.bitwise_xor(np.arange(4)[:, None], np.arange(4)[None, :])
    return finite_group(table, names=("00", "01", "10", "11"))


def dihedral3() -> FiniteGroup:
    """Symmetries of the triangle: rotations r^a and reflections s r^a."""
    names = ("e", "r", "r2", "s", "sr", "sr2")
    table = np.zeros((6, 6), dtype=int)
    for a in range(3):
        for b in range(3):
            table[a, b] = (a + b) % 3               # r^a r^b
            table[a, 3 + b] = 3 + (b - a) % 3       # r^a (s r^b) = s r^{b-a}
            table[3 + a, b] = 3 + (a + b) % 3       # (s r^a) r^b = s r^{a+b}
            table[3 + a, 3 + b] = (b - a) % 3       # (s r^a)(s r^b) = r^{b-a}
    return finite_group(table, names=names)


# --- projective representations ----------------------------------------------

@dataclass(frozen=True)
class ProjectiveRep:
    group: FiniteGroup
    matrices: tuple[np.ndarray, ...]
    mu: np.ndarray                  # factor system, mu[f, g]

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def projective_rep(group: FiniteGroup, matrices, mu=None) -> ProjectiveRep:
    """Assemble and validate; with mu omitted it is read off the product table.

    Every product U(f)U(g) is formed once, one table row U(f)U(.) at a
    time. The checks, in order: finite entries, unitary matrices, unimodular
    factors, the identity element carrying the identity matrix, closure, and
    factor-system consistency. mu is stored as mu/|mu|; the matrices are kept
    as given, as the protocol's P and U(h^-1) check the residual bounded here.
    Closure: U(f)U(g) = mu(f,g) U(fg) for every pair. Consistency of the
    two-term products mu(h^{-1},f) mu(h,h^{-1}f): closure makes this
    independent of f and equal to mu(h^{-1},h), which is checked; it
    collapses to 1 whenever the system is normalized with mu(h^{-1},h) = 1
    (all the character representations here), but genuinely projective
    systems can carry -1 there.
    """
    mats = tuple(np.asarray(m, dtype=complex) for m in matrices)
    n = group.order
    if len(mats) != n:
        raise DimensionMismatch(f"{len(mats)} matrices for a group of order {n}")
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"matrix {i} has shape {m.shape}")
    if mu is not None:
        mu = np.asarray(mu, dtype=complex)
        if mu.shape != (n, n):
            raise DimensionMismatch(f"factor system has shape {mu.shape}")
    stack = np.stack(mats)
    if not np.isfinite(stack).all() or (mu is not None and not np.isfinite(mu).all()):
        raise NonFinite("representation matrices and factor system must be finite")
    for f, m in enumerate(mats):
        if not qcore.is_unitary(m):
            raise NonUnitary(f"representation matrix {group.names[f]} is not unitary")
    derive = mu is None
    if derive:
        mu = np.empty((n, n), dtype=complex)
    closure = np.empty((n, n))
    # one table row at a time, so it never holds more than |G| D^2 entries:
    # products[g] = U(f) U(g) against targets[g] = U(fg)
    for f, row in enumerate(group.cayley):
        products = stack[f] @ stack
        targets = stack[row]
        if derive:
            mu[f] = np.einsum("gab,gab->g", targets.conj(), products) / dim
        closure[f] = np.abs(products - mu[f, :, None, None] * targets).max(axis=(1, 2))
    worst = np.abs(np.abs(mu) - 1.0).max()
    if worst > qcore.NORM_TOL:
        raise NonUnimodularFactor(
            f"factor system deviates from modulus 1 by {worst:.3e}"
        )
    if np.abs(mats[group.identity] - np.eye(dim)).max() > qcore.NORM_TOL:
        raise NotARepresentation("identity element must carry the identity matrix")
    bad = np.argwhere(closure > qcore.NORM_TOL)
    if len(bad):
        f, g = bad[0]
        raise NotARepresentation(
            f"U({group.names[f]}) U({group.names[g]}) != "
            f"mu U({group.names[group.cayley[f, g]]}) (deviation {closure[f, g]:.3e})"
        )
    elements, hinv = np.arange(n), group.inverses
    # consistency[h, f] = mu(h^-1, f) mu(h, h^-1 f), to equal mu(h^-1, h)
    consistency = mu[hinv] * mu[elements[:, None], group.cayley[hinv]]
    expected = mu[hinv, elements][:, None]
    bad = np.argwhere(np.abs(consistency - expected) > qcore.NORM_TOL)
    if len(bad):
        h, f = bad[0]
        raise NotARepresentation(
            f"factor products mu(h^-1,f) mu(h,h^-1 f) are inconsistent at "
            f"h={group.names[h]}, f={group.names[f]}"
        )
    return ProjectiveRep(group, mats, mu / np.abs(mu))


def cyclic_character_rep(n: int) -> ProjectiveRep:
    """Z_n acting by its characters: U(k) = diag_j e^{2 pi i k j / n}, mu = 1."""
    mats = [np.diag(np.exp(2j * np.pi * k * np.arange(n) / n)) for k in range(n)]
    return projective_rep(cyclic(n), mats, mu=np.ones((n, n)))


def pauli_rep() -> ProjectiveRep:
    """Projective rep of Z2 x Z2 by I, X, Z, XZ (anticommutation gives mu = -1 entries)."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return projective_rep(klein_four(), [np.eye(2, dtype=complex), x, z, x @ z])


def dihedral3_rep() -> ProjectiveRep:
    """Multiplicity-free rep of the triangle group: trivial + sign + 2d standard."""
    group = dihedral3()
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    flip = np.array([[1, 0], [0, -1]], dtype=complex)
    mats = []
    for idx in range(6):
        a, reflected = idx % 3, idx >= 3
        two = np.linalg.matrix_power(rot, a)
        if reflected:
            two = flip @ two
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[1, 1] = -1.0 if reflected else 1.0
        m[2:, 2:] = two
        mats.append(m)
    return projective_rep(group, mats, mu=np.ones((6, 6)))


# --- protocol operators -------------------------------------------------------

def z_gate(g: int, order: int) -> np.ndarray:
    """Z(g)|f> = (1/sqrt|G|) <g|F|f>^{-1} |f> for the Fourier matrix F.

    Every entry of F has modulus 1/sqrt|G|, so Z(g) is diagonal unimodular;
    run_protocol checks it as it checks every operator it builds.
    """
    return np.diag(1.0 / (math.sqrt(order) * qcore.fourier_matrix(order)[g, :]))


def assemble(rep: ProjectiveRep, coefficients) -> np.ndarray:
    """Direct matrix sum_f c(f) U(f); must come out unitary."""
    c = _coefficient_vector(rep, coefficients)
    total = sum(cf * m for cf, m in zip(c, rep.matrices))
    if not qcore.is_unitary(total):
        raise NonUnitaryTarget("sum c(f) U(f) is not unitary")
    return total


def mixer(rep: ProjectiveRep, coefficients) -> np.ndarray:
    """M = sum_f c(f) R(f) over the weighted right-translations
    R(f) = sum_g mu(g, f) |g><gf|: entry (g, gf) is c(f) mu(g, f), placed
    through the Cayley table, whose rows are permutations. Unitarity is not
    guaranteed for arbitrary factor systems, so it is verified here per
    instance."""
    c = _coefficient_vector(rep, coefficients)
    n = rep.group.order
    total = np.zeros((n, n), dtype=complex)
    total[np.arange(n)[:, None], rep.group.cayley] = c * rep.mu
    if not qcore.is_unitary(total):
        raise NonUnitaryM("sum c(f) R(f) is not unitary for this instance")
    return total


def _coefficient_vector(rep: ProjectiveRep, coefficients) -> np.ndarray:
    c = np.asarray(coefficients, dtype=complex).reshape(-1)
    if c.size != rep.group.order:
        raise DimensionMismatch(
            f"{c.size} coefficients for a group of order {rep.group.order}"
        )
    return c


def group_program(rep: ProjectiveRep, coefficients) -> Program:
    """Five-step program on registers (A, a, b) = (Alice, Alice, Bob)."""
    assemble(rep, coefficients)
    n = rep.group.order
    mix = mixer(rep, coefficients)
    inverses = rep.group.inverses
    mats = rep.matrices
    labels = [np.diag(e) for e in np.eye(n)]
    return Program(
        owners=locc.PROTOCOL_OWNERS,
        steps=(
            # P = sum_f U(f) (x) |f><f| on (A, a): entangles the group label
            LocalStep(ALICE, "P", qcore.kron_sum(mats, labels), (0, 1)),
            LocalStep(ALICE, "F", qcore.fourier_matrix(n), (1,)),
            MeasureStep(ALICE, 1, "g", send_to=BOB),
            ConditionalStep(BOB, "Z(g)", lambda g: z_gate(g, n), (2,), "g"),
            LocalStep(BOB, "M", mix, (2,)),
            MeasureStep(BOB, 2, "h", send_to=ALICE),
            ConditionalStep(ALICE, "U(h^-1)", lambda h: mats[inverses[h]], (0,), "h"),
        ),
    )


def run_group_protocol(rep: ProjectiveRep, coefficients, input_state: StateVector) -> list[Branch]:
    """Execute all |G|^2 branches; every branch leaves sum_f c(f) U(f) applied
    to the A register up to a global phase."""
    if input_state.dim != rep.dim:
        raise DimensionMismatch(
            f"input dimension {input_state.dim} does not match the rep ({rep.dim})"
        )
    initial = qcore.tensor(input_state, locc.maximally_entangled(rep.group.order))
    return locc.run_protocol(group_program(rep, coefficients), initial)


# --- coefficient reconstruction ----------------------------------------------

@dataclass(frozen=True)
class BlockDecomposition:
    """Irreducible-block layout of a multiplicity-free representation.

    The basis is the caller's: the representation matrices must already be
    block diagonal with the declared dimensions, one block per inequivalent
    irreducible, so that sum d^2 = |G|.
    """

    rep: ProjectiveRep
    dims: tuple[int, ...]
    offsets: tuple[int, ...]


def block_decomposition(rep: ProjectiveRep, dims) -> BlockDecomposition:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"block dimensions must be positive, got {dims}")
    if sum(dims) != rep.dim:
        raise DimensionMismatch(
            f"block dimensions {dims} do not fill the representation ({rep.dim})"
        )
    if sum(d * d for d in dims) != rep.group.order:
        raise MultiplicityNotOne(
            f"sum of squared block dimensions {dims} must equal the group "
            f"order {rep.group.order}; the layout is not multiplicity-free"
        )
    offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(dims)[:-1])))
    decomp = BlockDecomposition(rep, dims, offsets)
    for f, m in enumerate(rep.matrices):
        _check_block_diagonal(m, decomp, f"U({rep.group.names[f]})")
    return decomp


def _check_block_diagonal(matrix: np.ndarray, decomp: BlockDecomposition, label: str) -> None:
    mask = np.ones(matrix.shape, dtype=bool)
    for d, o in zip(decomp.dims, decomp.offsets):
        mask[o : o + d, o : o + d] = False
    spill = np.abs(matrix[mask]).max() if mask.any() else 0.0
    if spill > qcore.NORM_TOL:
        raise NotBlockDiagonal(
            f"{label} has weight {spill:.3e} outside the declared blocks"
        )


def coefficients_from_unitary(unitary: np.ndarray, decomp: BlockDecomposition) -> np.ndarray:
    """Recover c(f) with sum_f c(f) U(f) equal to the given block-diagonal matrix.

    c(f) = sum_blocks (d/|G|) sum_{jk} conj(D_block(f)_{jk}) R_block_{jk},
    the orthogonality relations of irreducible blocks applied blockwise.
    """
    rep = decomp.rep
    target = np.asarray(unitary, dtype=complex)
    if target.shape != (rep.dim, rep.dim):
        raise DimensionMismatch(
            f"matrix shape {target.shape} does not match the representation"
        )
    _check_block_diagonal(target, decomp, "target")
    order = rep.group.order
    coeffs = np.zeros(order, dtype=complex)
    for f, m in enumerate(rep.matrices):
        acc = 0.0 + 0.0j
        for d, o in zip(decomp.dims, decomp.offsets):
            block_rep = m[o : o + d, o : o + d]
            block_target = target[o : o + d, o : o + d]
            acc += (d / order) * np.sum(block_rep.conj() * block_target)
        coeffs[f] = acc
    return coeffs
