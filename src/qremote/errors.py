"""Exception hierarchy shared by all qremote modules.

Every validation failure raises a subclass of QRemoteError whose class name
states the violated invariant; the CLI prints that name verbatim as the
diagnostic and exits with code 2.
"""


class QRemoteError(Exception):
    """Base class for all validation and protocol errors."""


class DimensionMismatch(QRemoteError):
    """Operator or state shapes are inconsistent with the declared factors."""


class NonUnitary(QRemoteError):
    """A matrix that must be unitary fails the unitarity check."""


class OverlappingBlocks(QRemoteError):
    """Partition blocks are not pairwise orthogonal (A_i^dag A_j != 0)."""


class IncompleteBlocks(QRemoteError):
    """Partition blocks do not resolve the identity (sum A_i^dag A_i != I)."""


class LocalityViolation(QRemoteError):
    """A protocol step touches a register its party does not own."""


class MissingClassicalDependency(QRemoteError):
    """A conditioned step runs before its classical message was delivered."""


class NotARepresentation(QRemoteError):
    """Matrices do not close under the group law with the given factors."""


class NonUnimodularFactor(QRemoteError):
    """A factor-system entry does not have modulus one."""


class NonUnitaryTarget(QRemoteError):
    """The requested combination of representation matrices is not unitary."""


class NonUnitaryM(QRemoteError):
    """The coefficient-mixing operator built for Bob is not unitary."""


class NotBlockDiagonal(QRemoteError):
    """A matrix has weight outside the declared diagonal blocks."""


class MultiplicityNotOne(QRemoteError):
    """Block dimensions are inconsistent with a multiplicity-free layout."""


class NonFinite(QRemoteError):
    """A state amplitude or coefficient is NaN or infinite."""


class MalformedProblem(QRemoteError):
    """A problem document lacks a key or holds a value of the wrong JSON type."""
