"""Seeded inputs, timed operations and independent oracles for the workloads.

Every input is made here from the run's seed with plain numpy: raw block
matrices, raw Cayley tables and representation matrices, Haar unitaries and
JSON problem files. The program under test only ever sees those raw inputs.
Each input carries an oracle vector, the expected output U|psi> computed by
direct matrix application in this file, and every operation's result is
checked against it before the operation counts as a success.

A workload is a cycle: a fixed, interleaved list of operation kinds. The
harness runs whole cycles, so the mix of kinds in a run never depends on how
fast the program is.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

FIDELITY_FLOOR = 1.0 - 1e-9   # every branch must reach this fidelity
PROB_TOL = 1e-9               # branch probabilities and their sum
PRINTED_VECTOR_FLOOR = 1.0 - 1e-4   # trace prints amplitudes to 6 decimals
CLI_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """An operation's output disagreed with its oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- seeded generators (independent of qremote) ------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


@dataclass(frozen=True)
class WangInput:
    blocks: list
    phases: np.ndarray
    psi: np.ndarray
    expected: np.ndarray


def wang_input(dim: int, n: int, rng: np.random.Generator) -> WangInput:
    """Blocks A_i = V_i U_i^dag over a random split of two Haar bases."""
    u, v = haar_unitary(dim, rng), haar_unitary(dim, rng)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n - 1, replace=False))
    edges = np.concatenate(([0], cuts, [dim]))
    blocks = [
        v[:, a:b] @ u[:, a:b].conj().T for a, b in zip(edges[:-1], edges[1:])
    ]
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    psi = random_state(dim, rng)
    direct = sum(c * blk for c, blk in zip(phases, blocks))
    return WangInput(blocks, phases, psi, direct @ psi)


def overlapping_blocks(dim: int, rng: np.random.Generator) -> list:
    """Two equal blocks V/sqrt(2): they resolve the identity but overlap."""
    half = haar_unitary(dim, rng) / math.sqrt(2)
    return [half, half.copy()]


@dataclass(frozen=True)
class RawRep:
    """A representation as the program receives it: table, matrices, blocks."""

    cayley: np.ndarray
    matrices: list
    block_dims: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def _table_from_faithful(mats: list) -> np.ndarray:
    """Cayley table read off a faithful matrix representation."""
    n = len(mats)
    table = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            prod = mats[i] @ mats[j]
            (k,) = [k for k in range(n) if np.allclose(mats[k], prod)]
            table[i, j] = k
    return table


def raw_rep(name: str) -> RawRep:
    """cyclic-k (characters of Z_k), klein, pauli or dihedral3."""
    if name.startswith("cyclic-"):
        k = int(name.split("-")[1])
        idx = np.arange(k)
        mats = [np.diag(np.exp(2j * np.pi * f * idx / k)) for f in range(k)]
        return RawRep((idx[:, None] + idx[None, :]) % k, mats, (1,) * k)
    if name == "klein":
        bits = np.array([[(f >> 1) & 1, f & 1] for f in range(4)])
        signs = (-1.0) ** (bits @ bits.T)          # chi_c(f) = (-1)^{c.f}
        mats = [np.diag(signs[:, f]).astype(complex) for f in range(4)]
        return RawRep(np.arange(4)[:, None] ^ np.arange(4)[None, :], mats, (1,) * 4)
    if name == "pauli":
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        mats = [np.eye(2, dtype=complex), x, z, x @ z]
        return RawRep(np.arange(4)[:, None] ^ np.arange(4)[None, :], mats, (2,))
    if name == "dihedral3":
        c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
        rot = np.array([[c, -s], [s, c]], dtype=complex)
        flip = np.array([[1, 0], [0, -1]], dtype=complex)
        mats = []
        for reflected in (False, True):
            for a in range(3):
                m = np.zeros((4, 4), dtype=complex)
                m[0, 0] = 1.0
                m[1, 1] = -1.0 if reflected else 1.0
                two = np.linalg.matrix_power(rot, a)
                m[2:, 2:] = flip @ two if reflected else two
                mats.append(m)
        return RawRep(_table_from_faithful(mats), mats, (1, 1, 2))
    raise ValueError(f"unknown representation {name!r}")


@dataclass(frozen=True)
class GroupInput:
    rep: RawRep
    unitary: np.ndarray     # seeded block-diagonal target
    psi: np.ndarray
    expected: np.ndarray


def group_input(name: str, rng: np.random.Generator) -> GroupInput:
    rep = raw_rep(name)
    target = np.zeros((rep.dim, rep.dim), dtype=complex)
    offset = 0
    for d in rep.block_dims:
        target[offset:offset + d, offset:offset + d] = haar_unitary(d, rng)
        offset += d
    psi = random_state(rep.dim, rng)
    return GroupInput(rep, target, psi, target @ psi)


@dataclass(frozen=True)
class BqstInput:
    unitary: np.ndarray
    psi: np.ndarray
    expected: np.ndarray


def bqst_input(dim: int, rng: np.random.Generator) -> BqstInput:
    u = haar_unitary(dim, rng)
    psi = random_state(dim, rng)
    return BqstInput(u, psi, u @ psi)


# --- independent oracle checks ------------------------------------------------

def factor_weight(amplitudes, dims, factor: int, vec: np.ndarray) -> float:
    """|| <vec| on one factor ||: 1 iff that factor holds vec, disentangled."""
    moved = np.moveaxis(np.asarray(amplitudes).reshape(dims), factor, 0)
    return float(np.linalg.norm(vec.conj() @ moved.reshape(dims[factor], -1)))


def check_branches(branches, program_fids, expected, factor: int, count: int) -> int:
    """Oracle gate for one certified problem; returns the verified branch count."""
    require(len(branches) == count, f"{len(branches)} branches, expected {count}")
    probs = np.array([b.probability for b in branches])
    require(
        np.abs(probs - 1.0 / count).max() <= PROB_TOL,
        "a branch probability differs from 1/branches",
    )
    require(abs(probs.sum() - 1.0) <= PROB_TOL, "branch probabilities do not sum to 1")
    require(min(program_fids) >= FIDELITY_FLOOR, "the program's own fidelity gate failed")
    for b in branches:
        fid = factor_weight(b.state.amplitudes, b.state.factor_dims, factor, expected)
        require(fid >= FIDELITY_FLOOR, f"branch fidelity {fid!r} below the floor")
        out = abs(np.vdot(expected, b.output.amplitudes))
        require(out >= FIDELITY_FLOOR, f"output fidelity {out!r} below the floor")
    return count


# --- operations ---------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `run` is timed, `check` is not.

    `check` receives what `run` returned and either returns the number of
    verified branches or raises CheckFailed. `collect`, when set, runs after
    the check and gathers spans that a traced child process wrote.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], int]
    collect: Callable[[], None] | None = None


def wang_op(kind: str, inp: WangInput, expected: np.ndarray) -> Op:
    from qremote import qcore, wang

    dim, n = inp.psi.size, len(inp.blocks)

    def run():
        partition = wang.validate_partition(inp.blocks)
        phases = wang.Phases(inp.phases)
        target = wang.assemble(partition, phases) @ inp.psi
        branches = wang.run_wang(partition, phases, qcore.StateVector(inp.psi, (dim,)))
        return branches, [qcore.factor_overlap(b.state, target, 0) for b in branches]

    return Op(kind, run, lambda res: check_branches(*res, expected, 0, n * n))


def group_op(kind: str, inp: GroupInput, expected: np.ndarray) -> Op:
    from qremote import groupform, qcore

    rep = inp.rep

    def run():
        group = groupform.finite_group(rep.cayley)
        prep = groupform.projective_rep(group, rep.matrices)
        decomp = groupform.block_decomposition(prep, rep.block_dims)
        coeffs = groupform.coefficients_from_unitary(inp.unitary, decomp)
        target = groupform.assemble(prep, coeffs) @ inp.psi
        branches = groupform.run_group_protocol(
            prep, coeffs, qcore.StateVector(inp.psi, (rep.dim,))
        )
        return branches, [qcore.factor_overlap(b.state, target, 0) for b in branches]

    return Op(kind, run, lambda res: check_branches(*res, expected, 0, rep.order**2))


def bqst_op(kind: str, inp: BqstInput, expected: np.ndarray) -> Op:
    from qremote import entcost, qcore

    dim = inp.psi.size

    def run():
        branches, _ = entcost.bqst_teleport(
            inp.unitary, qcore.StateVector(inp.psi, (dim,))
        )
        target = inp.unitary @ inp.psi
        return branches, [qcore.factor_overlap(b.state, target, 4) for b in branches]

    return Op(kind, run, lambda res: check_branches(*res, expected, 4, dim**4))


# --- CLI problem files ----------------------------------------------------------

def _pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec).reshape(-1)]


def _matrix(mat) -> list:
    return [_pairs(row) for row in np.asarray(mat)]


def wang_doc(blocks, phases=None, psi=None) -> dict:
    doc = {
        "kind": "wang",
        "dim": int(blocks[0].shape[0]),
        "blocks": [_matrix(b) for b in blocks],
    }
    if phases is not None:
        doc["phases"] = _pairs(phases)
    if psi is not None:
        doc["input"] = _pairs(psi)
    return doc


def group_doc(inp: GroupInput) -> dict:
    """Coefficients are solved here, by least squares, not by the program."""
    rep = inp.rep
    basis = np.stack([m.reshape(-1) for m in rep.matrices], axis=1)
    coeffs = np.linalg.lstsq(basis, inp.unitary.reshape(-1), rcond=None)[0]
    return {
        "kind": "group",
        "order": rep.order,
        "cayley": rep.cayley.tolist(),
        "matrices": [_matrix(m) for m in rep.matrices],
        "coefficients": _pairs(coeffs),
        "blocks": list(rep.block_dims),
        "input": _pairs(inp.psi),
    }


def bqst_doc(inp: BqstInput) -> dict:
    return {
        "kind": "bqst",
        "dim": int(inp.psi.size),
        "unitary": _matrix(inp.unitary),
        "input": _pairs(inp.psi),
    }


@dataclass(frozen=True)
class CliCall:
    """One `qremote` invocation and what its output must show."""

    kind: str
    args: tuple[str, ...]
    check: Callable[[subprocess.CompletedProcess], int]


def _probabilities_and_fids(rows, count: int) -> None:
    require(len(rows) == count, f"{len(rows)} branches reported, expected {count}")
    for prob, fid in rows:
        require(abs(prob - 1.0 / count) <= PROB_TOL, f"branch probability {prob}")
        require(fid >= FIDELITY_FLOOR, f"branch fidelity {fid} below the floor")


BRANCH_LINE = re.compile(r"^branch .*  p=(\S+)  fidelity=(\S+)$")


def check_run_text(count: int) -> Callable:
    def check(proc) -> int:
        require(proc.returncode == 0, f"exit code {proc.returncode}")
        lines = proc.stdout.splitlines()
        require(f"branches: {count}" in lines, "branch count line missing")
        rows = [
            (float(m.group(1)), float(m.group(2)))
            for m in map(BRANCH_LINE.search, lines) if m
        ]
        _probabilities_and_fids(rows, count)
        require(lines[-1] == "result: OK", "missing 'result: OK'")
        return count
    return check


def check_run_json(count: int) -> Callable:
    def check(proc) -> int:
        require(proc.returncode == 0, f"exit code {proc.returncode}")
        doc = json.loads(proc.stdout)
        require(doc["ok"] is True, "'ok' is not true")
        _probabilities_and_fids(
            [(b["probability"], b["fidelity"]) for b in doc["branches"]], count
        )
        return count
    return check


def check_trace(expected: np.ndarray) -> Callable:
    def check(proc) -> int:
        require(proc.returncode == 0, f"exit code {proc.returncode}")
        lines = [line.strip() for line in proc.stdout.splitlines()]
        fid_lines = [x for x in lines if x.startswith("fidelity vs direct application:")]
        require(len(fid_lines) == 1, "final fidelity line missing")
        require(float(fid_lines[0].split(":")[1]) >= FIDELITY_FLOOR, "trace fidelity low")
        numeric = [x for x in lines if x.startswith("numeric: [")][-1]
        amps = np.array([
            complex(tok.strip().replace("i", "j"))
            for tok in numeric[len("numeric: ["):-1].split(",")
        ])
        require(
            abs(np.vdot(expected, amps)) >= PRINTED_VECTOR_FLOOR,
            "final amplitudes differ from direct application",
        )
        return 0
    return check


def check_cost_text(n: int) -> Callable:
    def check(proc) -> int:
        require(proc.returncode == 0, f"exit code {proc.returncode}")
        verdicts = [
            line.split(":")[1].split()[0]
            for line in proc.stdout.splitlines()
            if line.startswith("  d=")
        ]
        expected = ["infeasible"] * (n - 1) + ["feasible"]
        require(verdicts == expected, f"feasibility lines {verdicts}")
        return 0
    return check


def check_cost_json(n: int) -> Callable:
    def check(proc) -> int:
        require(proc.returncode == 0, f"exit code {proc.returncode}")
        doc = json.loads(proc.stdout)
        rows = doc["feasibility"]
        require([r["d"] for r in rows] == list(range(1, n + 1)), "one row per d")
        require(all(r["operator_rank"] == n for r in rows), "operator rank != blocks")
        require([r["feasible"] for r in rows] == [d >= n for d in range(1, n + 1)],
                "feasibility verdicts")
        return 0
    return check


def check_rejected(name: str) -> Callable:
    def check(proc) -> int:
        require(proc.returncode == 2, f"exit code {proc.returncode}, expected 2")
        require(name in proc.stderr, f"diagnostic does not name {name}")
        return 0
    return check


def cli_op(call: CliCall, command: list[str], env: dict, cwd: Path, collect=None) -> Op:
    def run():
        return subprocess.run(
            command + list(call.args), capture_output=True, text=True,
            env=env, cwd=cwd, timeout=CLI_TIMEOUT_S,
        )

    return Op(call.kind, run, call.check, collect)


# --- workloads ------------------------------------------------------------------

WARMUP_STREAM = 0xFFFF_FFFF   # rng stream for warm-up inputs, apart from cycles


def interleave(kinds) -> list[str]:
    """Spread each (kind, count) evenly through one cycle, deterministically."""
    slots = [
        ((i + 0.5) / count, order, kind)
        for order, (kind, count) in enumerate(kinds)
        for i in range(count)
    ]
    return [kind for _, _, kind in sorted(slots)]


def _dims(kind: str) -> tuple[int, ...]:
    """'wang-16x16' -> (16, 16); 'bqst-5' -> (5,)."""
    return tuple(int(x) for x in kind.split("-")[-1].split("x"))


def make_wang_op(kind: str, rng: np.random.Generator) -> Op:
    inp = wang_input(*_dims(kind), rng)
    return wang_op(kind, inp, inp.expected)


def make_group_op(kind: str, rng: np.random.Generator) -> Op:
    if kind.startswith("bqst-"):
        inp = bqst_input(*_dims(kind), rng)
        return bqst_op(kind, inp, inp.expected)
    inp = group_input(kind.removeprefix("group-"), rng)
    return group_op(kind, inp, inp.expected)


# The ROADMAP ladder. Never shrink or re-seed it; (32,32) stays in even while
# it is slow. Counts per cycle put p50 inside the (4,3) group and p90 inside
# the (16,16) group, with more than ten samples beyond p90 in every run.
WANG_LADDER = (
    ("wang-4x3", 96), ("wang-16x16", 10), ("wang-32x16", 3), ("wang-32x32", 1),
)

# Listed by latency at the seed commit. The 16 fastest operations come
# first, then dihedral3 x8 covers the 40-60% band of the sorted latencies,
# so p50 falls in the middle of it; cyclic-16 x6 covers 80-95%, so p90 falls
# inside it. Both sit well away from the gaps between kinds, where one stray
# sample would move a percentile from one kind to another.
GROUP_BQST = (
    ("group-cyclic-3", 3), ("group-pauli", 3), ("group-klein", 3),
    ("bqst-2", 3), ("group-cyclic-5", 4), ("group-dihedral3", 8),
    ("group-cyclic-7", 2), ("bqst-3", 2), ("group-cyclic-11", 2),
    ("bqst-4", 2), ("group-cyclic-16", 6), ("bqst-5", 2),
)


class InProcessWorkload:
    """Problems certified through the library API inside this process.

    Every cycle gets fresh inputs from its own rng stream, so no cycle can
    reuse a result cached by an earlier one.
    """

    in_process = True

    def __init__(self, kinds, make, warmup, traced_cycles):
        self.order = interleave(kinds)
        self.make = make
        self.warmup = warmup
        self.traced_cycles = traced_cycles

    def setup(self, seed: int, workdir: Path) -> None:
        import qremote  # noqa: F401  (the import is part of set-up)

        self.seed = seed
        self._first = self._build(0)
        rng = np.random.default_rng([seed, WARMUP_STREAM])
        for kind in self.warmup:
            op = self.make(kind, rng)
            op.check(op.run())

    def _build(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        return [self.make(kind, rng) for kind in self.order]

    def cycle(self, index: int, tracer=None) -> list[Op]:
        return self._first if index == 0 else self._build(index)


class CliWorkload:
    """`qremote` subprocess calls on seeded problem files.

    The files are written once in set-up and reused by every cycle: each call
    is a fresh interpreter, so nothing carries over between calls.
    """

    in_process = False
    traced_cycles = 4

    def __init__(self, src: Path, child_script: Path):
        self.env = child_env(src)
        self.child_script = child_script

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.calls = cli_calls(np.random.default_rng([seed, 0]), workdir)
        warm = cli_op(self.calls[0], qremote_command(), self.env, workdir)
        warm.check(warm.run())

    def cycle(self, index: int, tracer=None) -> list[Op]:
        if tracer is None:
            return [
                cli_op(call, qremote_command(), self.env, self.workdir)
                for call in self.calls
            ]
        ops = []
        for i, call in enumerate(self.calls):
            spans = self.workdir / f"spans-{index}-{i}.json"
            command = [sys.executable, str(self.child_script), str(spans)]
            ops.append(cli_op(
                call, command, self.env, self.workdir,
                collect=lambda path=spans: tracer.absorb(path),
            ))
        return ops


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def cli_calls(rng: np.random.Generator, workdir: Path) -> list[CliCall]:
    """The cli-mix cycle: one call per entry, each with its output check.

    The two (32,32) cost calls are 2 of 10, so p90 falls in the middle of
    their block.
    """
    wang_files = {}
    for dim, n in ((4, 3), (8, 5), (8, 6), (32, 32)):
        inp = wang_input(dim, n, rng)
        path = _write(workdir / f"wang-{dim}x{n}.json", wang_doc(inp.blocks, inp.phases, inp.psi))
        wang_files[dim, n] = (path, inp)
    trace_path, trace_input = wang_files[8, 6]
    l, m = (int(x) for x in rng.integers(6, size=2))
    group = group_input("dihedral3", rng)
    group_path = _write(workdir / "group-dihedral3.json", group_doc(group))
    bqst_paths = {
        dim: _write(workdir / f"bqst-{dim}.json", bqst_doc(bqst_input(dim, rng)))
        for dim in (2, 3)
    }
    overlapping = _write(workdir / "overlapping.json", wang_doc(overlapping_blocks(4, rng)))
    big = wang_files[32, 32][0]
    return [
        CliCall("run-wang-4x3", ("run", wang_files[4, 3][0]), check_run_text(9)),
        CliCall("run-json-wang-8x5", ("run", wang_files[8, 5][0], "--json"),
                check_run_json(25)),
        CliCall("trace-wang-8x6", ("trace", trace_path, "--branch", f"{l},{m}"),
                check_trace(trace_input.expected)),
        CliCall("run-group-dihedral3", ("run", group_path),
                check_run_text(group.rep.order ** 2)),
        CliCall("run-bqst-2", ("run", bqst_paths[2]), check_run_text(2 ** 4)),
        CliCall("run-bqst-3", ("run", bqst_paths[3]), check_run_text(3 ** 4)),
        CliCall("cost-wang-8x5", ("cost", wang_files[8, 5][0]), check_cost_text(5)),
        CliCall("reject-overlapping", ("run", overlapping),
                check_rejected("OverlappingBlocks")),
        CliCall("cost-wang-32x32", ("cost", big), check_cost_text(32)),
        CliCall("cost-json-wang-32x32", ("cost", big, "--json"), check_cost_json(32)),
    ]


def qremote_command() -> list[str]:
    return [sys.executable, "-m", "qremote"]


def child_env(src: Path) -> dict:
    """This process's environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return env


def by_name(src: Path, child_script: Path) -> dict:
    """The three workloads, under the names BENCHMARK.json gives them."""
    return {
        "wang-ladder": InProcessWorkload(
            WANG_LADDER, make_wang_op,
            warmup=("wang-4x3",), traced_cycles=1,
        ),
        "group-bqst": InProcessWorkload(
            GROUP_BQST, make_group_op,
            warmup=("group-cyclic-3", "group-pauli", "bqst-2"), traced_cycles=4,
        ),
        "cli-mix": CliWorkload(src, child_script),
    }
