"""qremote: simulate and audit remote implementation of quantum operations.

Two parties share an entangled resource and classical messages; the library
executes the block-structured and group-form remote-implementation protocols
over every measurement branch, certifies the Schmidt-rank lower bound on the
resource, and provides the teleport-both-ways baseline for comparison.

`import qremote` loads nothing: import the modules you use, each of which
loads only what it needs.
- `qremote.qcore`: states, unitarity checks and the tolerances;
- `qremote.locc`: programs, the resource state and `run_protocol`;
- `qremote.wang`: the block protocol and its partition validation;
- `qremote.groupform`: groups, projective representations and the group
  protocol;
- `qremote.entcost`: Schmidt-rank costs and the teleportation baseline;
- `qremote.errors`: `QRemoteError` and its subclasses;
- `qremote.cli`: the `qremote` command, also run by `python -m qremote`.
"""
