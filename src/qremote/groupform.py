"""Remote implementation of operations U = sum_f c(f) U(f) over a finite group.

U(f) is a projective representation: U(f)U(g) = mu(f,g) U(fg) with a
unimodular factor system mu. The protocol entangles the group label into the
resource, lets Bob mix the coefficients with M = sum_f c(f) R(f) built from
weighted right-translations, and closes with Alice's U(h^{-1}) after the
group sum re-indexes under left translation (every row and column of the
Cayley table is a permutation, so the sum over the group is invariant).

The standard representations here (the Z_n characters, Klein, Pauli and the
Weyl-Heisenberg clock-and-shift reps of weyl_rep) are monomial: one
unimodular entry per row and column. projective_rep certifies those on
their permutation-and-phase form (qcore.monomial) and any other on dense
products, with the same checks and messages.

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
    NonUnimodularFactor,
    NonUnitary,
    NonUnitaryM,
    NonUnitaryTarget,
    NotAGroup,
    NotARepresentation,
    NotBlockDiagonal,
)
from .locc import (
    ALICE, BOB, ConditionalStep, CouplingStep, LocalStep, MeasureStep, Program, Run,
)
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
    unique identity, which together give inverses. Associativity compares
    (ij)k with i(jk) in blocks of rows i whose two index arrays hold at most
    max(2^16, n^2) entries each, 2 x 512 KiB of int64 for any order
    n <= 256, against 2 n^3 entries for the whole comparison."""
    table = np.asarray(cayley)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or not table.size:
        raise NotAGroup(f"Cayley table must be square and non-empty, got shape {table.shape}")
    # an entry such as 1.7 is not truncated to an element
    if table.dtype.kind not in "iu":
        raise NotAGroup(f"Cayley table entries must be integers, got dtype {table.dtype}")
    table = table.astype(int)
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
    # (ij)k against i(jk) for a block of rows i at a time
    rows = max(1, 2 ** 16 // (n * n))
    for start in range(0, n, rows):
        block = table[start : start + rows]
        if not np.array_equal(table[block], block[:, table]):
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
    table.setflags(write=False)
    inverses.setflags(write=False)
    return FiniteGroup(table, names, e, inverses)


def cyclic(n: int) -> FiniteGroup:
    (n,) = qcore.dimensions((n,), "group order")
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
    matrices: np.ndarray            # read-only (|G|, D, D) stack, U(f) at [f]
    mu: np.ndarray                  # factor system, mu[f, g]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


def projective_rep(group: FiniteGroup, matrices, mu=None) -> ProjectiveRep:
    """Assemble and validate; with mu omitted it is read off the product table.

    The checks, in order: finite entries, unitary matrices, unimodular
    factors, the identity element carrying the identity matrix, closure, and
    factor-system consistency. Once they pass, mu is stored as mu/|mu| and
    each matrix as its polar factor, the unitary nearest to it, certified by
    qcore (from_monomial on a monomial stack's form, checked_unitary
    otherwise): the protocol's coupling P and its U(h^-1) table read their
    defects off the certificate, exact however close to NORM_TOL the given
    residual was.
    Closure: U(f)U(g) = mu(f,g) U(fg) for every pair. Consistency of the
    two-term products mu(h^{-1},f) mu(h,h^{-1}f): closure makes this
    independent of f and equal to mu(h^{-1},h), which is checked; it
    collapses to 1 whenever the system is normalized with mu(h^{-1},h) = 1
    (all the character representations here), but genuinely projective
    systems can carry -1 there.

    A monomial stack (qcore.monomial: one nonzero entry per row and column,
    every other entry exactly 0, as for the cyclic, Klein, Pauli and Weyl
    reps) is checked on its (cols, phases) form, in O(|G|^2 D) against the
    dense path's |G|^2 products of D x D matrices: U^dag U is diagonal with
    |phase|^2 on it, U(f)U(g) has columns cols_g[cols_f] and phases
    ph_f ph_g[cols_f], and the polar factor is phase/|phase| on the
    pattern. Every off-pattern entry of these products is an exact 0, so
    mu, each residual and each stored matrix are the dense path's numbers
    up to the rounding of the one nonzero term per row, and every message
    is the same. Its blocks of Cayley-table rows hold at most |G| D^2
    entries per array, as the dense path's one row of products does. Any
    other stack takes the dense path.
    """
    n = group.order
    stack = qcore.operators(matrices, "representation matrix")
    if len(stack) != n:
        raise DimensionMismatch(f"{len(stack)} matrices for a group of order {n}")
    dim = stack.shape[1]
    if mu is not None:
        (mu,) = qcore.operators([mu], "factor system")
        if mu.shape != (n, n):
            raise DimensionMismatch(f"factor system has shape {mu.shape}")
    form = qcore.monomial(stack)
    if form is None:
        defect = qcore.unitarity_defect(stack)
    else:
        cols, phases = form
        with np.errstate(over="ignore"):   # an entry near 1e308 is inf, and at fault
            defect = np.abs(phases.real ** 2 + phases.imag ** 2 - 1).max(axis=-1)
    bad = np.flatnonzero(~(defect <= qcore.NORM_TOL))
    if len(bad):
        raise NonUnitary(f"representation matrix {group.names[bad[0]]} is not unitary")
    if form is None:
        mu, closure = _dense_closure(group.cayley, stack, mu)
    else:
        mu, closure = _monomial_closure(group.cayley, cols, phases, mu)
    worst = np.abs(np.abs(mu) - 1.0).max()
    if worst > qcore.NORM_TOL:
        raise NonUnimodularFactor(
            f"factor system deviates from modulus 1 by {worst:.3e}"
        )
    if np.abs(stack[group.identity] - np.eye(dim)).max() > qcore.NORM_TOL:
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
    if form is None:
        w, _, vh = np.linalg.svd(stack)
        exact = qcore.checked_unitary(w @ vh)
        if exact is None:   # an SVD's factors are unitary to rounding
            raise NonUnitary("the polar factors of the representation are not unitary")
    else:
        exact = qcore.from_monomial(cols, phases / np.abs(phases))
    return ProjectiveRep(group, exact, mu / np.abs(mu))


def _dense_closure(cayley: np.ndarray, stack: np.ndarray, mu=None):
    """(mu, closure): mu read off the products when it is None, and
    closure[f, g] = max |U(f)U(g) - mu(f,g) U(fg)|, from every product
    U(f)U(g) formed once, one table row U(f)U(.) at a time, so it never
    holds more than |G| D^2 entries."""
    n, dim = stack.shape[:2]
    derive = mu is None
    if derive:
        mu = np.empty((n, n), dtype=complex)
    closure = np.empty((n, n))
    # products[g] = U(f) U(g) against targets[g] = U(fg)
    for f, row in enumerate(cayley):
        products = stack[f] @ stack
        targets = stack[row]
        if derive:
            mu[f] = np.einsum("gab,gab->g", targets.conj(), products) / dim
        closure[f] = np.abs(products - mu[f, :, None, None] * targets).max(axis=(1, 2))
    return mu, closure


def _monomial_closure(cayley: np.ndarray, cols: np.ndarray, phases: np.ndarray, mu=None):
    """What _dense_closure returns for the monomial stack of qcore.monomial's
    (cols, phases) form. Row r of U(f)U(g) is phases[f, r] phases[g, c] in
    column cols[g, c], c = cols[f, r], against U(fg)'s one entry t: where
    the two columns agree the row adds conj(t) p to D mu and leaves the
    residual |p - mu t|; where they differ it leaves max(|p|, |mu t|). Each
    block of D table rows holds (D, |G|, D) arrays, |G| D^2 entries."""
    n, dim = cols.shape
    derive = mu is None
    if derive:
        mu = np.empty((n, n), dtype=complex)
    closure = np.empty((n, n))
    elements = np.arange(n)[:, None]
    for start in range(0, n, dim):
        block = slice(start, start + dim)
        via = cols[block, None, :]           # c = cols[f, r], against every g
        agree = cols[elements, via] == cols[cayley[block]]
        p = phases[block, None, :] * phases[elements, via]
        t = phases[cayley[block]]
        if derive:
            mu[block] = np.where(agree, t.conj() * p, 0).sum(axis=-1) / dim
        scaled = mu[block, :, None] * t
        residual = np.where(agree, np.abs(p - scaled), np.maximum(np.abs(p), np.abs(scaled)))
        closure[block] = residual.max(axis=-1)
    return mu, closure


def cyclic_character_rep(n: int) -> ProjectiveRep:
    """Z_n acting by its characters: U(k) = diag_j e^{2 pi i k j / n}, mu = 1."""
    (n,) = qcore.dimensions((n,), "group order")
    return projective_rep(cyclic(n), qcore.clock_powers(n), mu=np.ones((n, n)))


def pauli_rep() -> ProjectiveRep:
    """Projective rep of Z2 x Z2 by I, X, Z, XZ (anticommutation gives mu = -1 entries)."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return projective_rep(klein_four(), [np.eye(2, dtype=complex), x, z, x @ z])


def weyl_rep(d: int) -> ProjectiveRep:
    """The Weyl-Heisenberg rep of Z_d x Z_d: U(a, b) = X^a Z^b, the
    clock-and-shift basis, with element (a, b) at index a*d + b and mu read
    off the products. It is irreducible with |G| = d^2, so its U(f) span
    every d x d matrix, and each of them is monomial."""
    (d,) = qcore.dimensions((d,), "Weyl dimension")
    a, b = np.divmod(np.arange(d * d), d)
    cayley = ((a[:, None] + a) % d) * d + (b[:, None] + b) % d
    names = [f"{i},{j}" for i, j in zip(a, b)]
    mats = qcore.shift_powers(d)[a] @ qcore.clock_powers(d)[b]
    return projective_rep(finite_group(cayley, names), mats)


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

def z_gate(order: int) -> np.ndarray:
    """The table Z(0) .. Z(|G|-1) of Z(g)|f> = (1/sqrt|G|) <g|F|f>^{-1} |f>
    for the Fourier matrix F, which is the clock power Z^{-g}: diagonal
    unimodular, gathered from qcore.clock_powers with its certificate."""
    (order,) = qcore.dimensions((order,), "group order")
    return qcore.gather(qcore.clock_powers(order), -np.arange(order) % order)


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
    instance, once: M is returned certified (qcore.checked_unitary), and
    Bob's step does not check it again."""
    c = _coefficient_vector(rep, coefficients)
    n = rep.group.order
    total = np.zeros((n, n), dtype=complex)
    total[np.arange(n)[:, None], rep.group.cayley] = c * rep.mu
    checked = qcore.checked_unitary(total)
    if checked is None:
        raise NonUnitaryM("sum c(f) R(f) is not unitary for this instance")
    return checked


def _coefficient_vector(rep: ProjectiveRep, coefficients) -> np.ndarray:
    c = qcore.coefficients(coefficients, "coefficient vector")
    if c.size != rep.group.order:
        raise DimensionMismatch(
            f"{c.size} coefficients for a group of order {rep.group.order}"
        )
    return c


def group_program(rep: ProjectiveRep, coefficients) -> Program:
    """Five-step program on registers (A, a, b) = (Alice, Alice, Bob)."""
    n = rep.group.order
    mix = mixer(rep, coefficients)
    inverses = rep.group.inverses
    mats = rep.matrices
    return Program(
        owners=locc.PROTOCOL_OWNERS,
        steps=(
            # P = sum_f U(f) (x) |f><f| on (A, a): entangles the group label
            CouplingStep(ALICE, "P", qcore.identity(n), mats, 1, 0),
            LocalStep(ALICE, "F", qcore.fourier_matrix(n), (1,)),
            MeasureStep(ALICE, 1, "g", send_to=BOB),
            ConditionalStep(BOB, "Z(g)", z_gate(n), (2,), "g"),
            LocalStep(BOB, "M", mix, (2,)),
            MeasureStep(BOB, 2, "h", send_to=ALICE),
            ConditionalStep(ALICE, "U(h^-1)", qcore.gather(mats, inverses), (0,), "h"),
        ),
        dims=(rep.dim, n, n),
    )


def run_group_protocol(rep: ProjectiveRep, coefficients, input_state: StateVector) -> Run:
    """Execute all |G|^2 branches; every branch leaves sum_f c(f) U(f), which
    assemble checks is unitary, applied to the A register up to a global phase."""
    assemble(rep, coefficients)
    program = group_program(rep, coefficients)
    return locc.run_protocol(program, locc.prepare(program, input_state))


# --- coefficient reconstruction ----------------------------------------------

@dataclass(frozen=True)
class BlockDecomposition:
    """Irreducible-block layout of a multiplicity-free representation.

    The basis is the caller's: the representation matrices must already be
    block diagonal with the declared dimensions, one block per inequivalent
    irreducible, so that sum d^2 = |G|. weights, read-only, is W: d/|G| on
    each declared block of dimension d and 0 off the blocks.
    """

    rep: ProjectiveRep
    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    weights: np.ndarray


def block_decomposition(rep: ProjectiveRep, dims) -> BlockDecomposition:
    dims = qcore.dimensions(dims, "block dimensions")
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
    weights = np.zeros((rep.dim, rep.dim))
    for d, o in zip(dims, offsets):
        weights[o : o + d, o : o + d] = d / rep.group.order
    weights.setflags(write=False)
    decomp = BlockDecomposition(rep, dims, offsets, weights)
    spill = _spill(rep.matrices, decomp)
    bad = np.flatnonzero(spill > qcore.NORM_TOL)
    if len(bad):
        f = bad[0]
        raise NotBlockDiagonal(
            f"U({rep.group.names[f]}) has weight {spill[f]:.3e} outside the declared blocks"
        )
    return decomp


def _spill(stack: np.ndarray, decomp: BlockDecomposition) -> np.ndarray:
    """Largest entry outside the declared blocks of each matrix in a
    (..., D, D) stack, all in one operation."""
    outside = decomp.weights == 0
    if not outside.any():
        return np.zeros(stack.shape[:-2])
    return np.abs(stack[..., outside]).max(axis=-1)


def coefficients_from_unitary(unitary: np.ndarray, decomp: BlockDecomposition) -> np.ndarray:
    """Recover c(f) with sum_f c(f) U(f) equal to the given block-diagonal matrix.

    c(f) = sum_blocks (d/|G|) sum_{jk} conj(D_block(f)_{jk}) R_block_{jk},
    the orthogonality relations of irreducible blocks applied blockwise, as
    one contraction of the representation stack with decomp.weights * target.
    """
    rep = decomp.rep
    (target,) = qcore.operators([unitary], "target matrix")
    if target.shape != (rep.dim, rep.dim):
        raise DimensionMismatch(
            f"matrix shape {target.shape} does not match the representation"
        )
    spill = _spill(target, decomp)
    if spill > qcore.NORM_TOL:
        raise NotBlockDiagonal(f"target has weight {spill:.3e} outside the declared blocks")
    return np.einsum("fjk,jk->f", rep.matrices.conj(), decomp.weights * target)
