"""qremote: simulate and audit remote implementation of quantum operations.

Two parties share an entangled resource and classical messages; the library
executes the block-structured and group-form remote-implementation protocols
over every measurement branch, certifies the Schmidt-rank lower bound on the
resource, and provides the teleport-both-ways baseline for comparison.
"""

from . import cli, entcost, errors, groupform, locc, qcore, wang
from .errors import QRemoteError
from .locc import Party, maximally_entangled, run_protocol
from .qcore import StateVector, apply_local, measure_computational, schmidt, tensor
from .wang import run_wang, svd_remote, validate_partition

__all__ = [
    "QRemoteError",
    "Party",
    "StateVector",
    "apply_local",
    "cli",
    "entcost",
    "errors",
    "groupform",
    "locc",
    "maximally_entangled",
    "measure_computational",
    "qcore",
    "run_protocol",
    "run_wang",
    "schmidt",
    "svd_remote",
    "tensor",
    "validate_partition",
    "wang",
]
