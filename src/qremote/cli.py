"""Command-line front end: run, trace, cost, gen.

Problem files are JSON; complex numbers are two-element [re, im] arrays
everywhere, matrices are nested lists of rows of such pairs. Exit codes:
0 success, 1 fidelity below threshold, 2 parse or validation failure (the
diagnostic names the violated invariant).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from collections.abc import Callable
from fractions import Fraction

import numpy as np

from . import entcost, groupform, locc, qcore, wang
from .errors import (
    DimensionMismatch, MalformedProblem, NonFinite, QRemoteError, UnsupportedProblem,
)
from .qcore import StateVector

FIDELITY_TOL = 1e-9


# --- JSON wire format --------------------------------------------------------

def pair_to_complex(pair) -> complex:
    """A [re, im] pair of JSON numbers; float() would accept "1" and true."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise MalformedProblem(f"complex numbers are [re, im] pairs, got {pair!r}")
    re, im = pair
    # exact types, so bool (a subclass of int) is rejected
    if type(re) not in (int, float) or type(im) not in (int, float):
        raise MalformedProblem(f"[re, im] entries must be JSON numbers, got {pair!r}")
    return complex(re, im)


def _finite(values: np.ndarray) -> np.ndarray:
    """JSON has no NaN or Infinity, but Python's json module reads both."""
    if not np.isfinite(values).all():
        raise NonFinite("problem values must be finite numbers")
    return values


def _list(value) -> list:
    """A JSON list; iterating an object would read its keys."""
    if not isinstance(value, list):
        raise MalformedProblem(f"expected a list, got {value!r}")
    return value


def vector_from_json(obj) -> np.ndarray:
    return _finite(np.array([pair_to_complex(p) for p in _list(obj)], dtype=complex))


def matrix_from_json(obj) -> np.ndarray:
    rows = [[pair_to_complex(p) for p in _list(row)] for row in _list(obj)]
    return _finite(np.array(rows, dtype=complex))


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def vector_to_json(vec) -> list:
    return [complex_to_pair(z) for z in np.asarray(vec).reshape(-1)]


def matrix_to_json(mat) -> list:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(mat)]


# --- problem files -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Problem:
    """A loaded problem file: the values that run, trace and cost read."""

    kind: str
    run: Callable[[], list]      # every branch of the protocol
    expected: np.ndarray         # expected output amplitudes
    describe: str                # header line
    blocks: object = None        # the operators cost judges; None for bqst
    trace: tuple | None = None   # (partition, phases, input) for wang only


@contextlib.contextmanager
def _document_shape():
    """Reads of the problem document only: a missing key or a wrong JSON type
    becomes MalformedProblem. Library calls stay outside, keeping their names."""
    try:
        yield
    except KeyError as exc:
        raise MalformedProblem(f"problem file has no {exc} key") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedProblem(f"problem value has the wrong JSON type or form: {exc}") from exc


def _integer(value) -> int:
    """A JSON integer; int() would truncate 2.7 and accept "2" or true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedProblem(f"expected an integer, got {value!r}")
    return value


def _strings(value) -> list[str]:
    """A JSON list of strings; list() would split "xy" into characters."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise MalformedProblem(f"expected a list of strings, got {value!r}")
    return value


def _input_state(doc: dict, dim: int, override: str | None) -> StateVector:
    with _document_shape():
        if override is not None:
            amps = vector_from_json(json.loads(override))
        elif "input" in doc:
            amps = vector_from_json(doc["input"])
        else:
            return qcore.ket(0, dim)
    return StateVector(amps, (dim,))


def load_problem(path: str, input_override: str | None = None) -> Problem:
    # JSONDecodeError and UnicodeDecodeError are ValueErrors
    with open(path, "r", encoding="utf-8") as handle, _document_shape():
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise MalformedProblem(f"a problem file holds a JSON object, not {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "wang":
        with _document_shape():
            dim = _integer(doc["dim"])
            blocks = [matrix_from_json(b) for b in _list(doc["blocks"])]
            values = vector_from_json(doc["phases"]) if "phases" in doc else None
        partition = wang.validate_partition(blocks)
        if partition.dim != dim:
            raise DimensionMismatch(f"declared dim {dim} does not match blocks ({partition.dim})")
        phases = wang.Phases(np.ones(partition.n) if values is None else values)
        state = _input_state(doc, dim, input_override)
        expected = wang.assemble(partition, phases) @ state.amplitudes
        return Problem(
            kind="wang",
            run=lambda: wang.run_wang(partition, phases, state),
            expected=expected,
            describe=f"kind: wang  dim={dim}  blocks={partition.n}",
            blocks=partition.blocks,
            trace=(partition, phases, state),
        )
    if kind == "group":
        with _document_shape():
            order = _integer(doc["order"])
            rows = [[_integer(x) for x in _list(row)] for row in _list(doc["cayley"])]
            cayley = np.array(rows, dtype=int)
            names = _strings(doc["names"]) if "names" in doc else None
            matrices = [matrix_from_json(m) for m in _list(doc["matrices"])]
            mu = matrix_from_json(doc["mu"]) if "mu" in doc else None
            coefficients = vector_from_json(doc["coefficients"])
            blocks = [_integer(d) for d in _list(doc["blocks"])] if "blocks" in doc else None
        group = groupform.finite_group(cayley, names=names)
        if group.order != order:
            raise DimensionMismatch(f"declared order {order} does not match the Cayley table")
        rep = groupform.projective_rep(group, matrices, mu=mu)
        state = _input_state(doc, rep.dim, input_override)
        expected = groupform.assemble(rep, coefficients) @ state.amplitudes
        if blocks is not None:
            groupform.block_decomposition(rep, blocks)
        return Problem(
            kind="group",
            run=lambda: groupform.run_group_protocol(rep, coefficients, state),
            expected=expected,
            describe=f"kind: group  |G|={order}  dim={rep.dim}",
            blocks=rep.matrices,
        )
    if kind == "bqst":
        with _document_shape():
            dim = _integer(doc["dim"])
            unitary = matrix_from_json(doc["unitary"])
        if unitary.shape != (dim, dim):
            raise DimensionMismatch(f"unitary shape {unitary.shape} does not match dim {dim}")
        state = _input_state(doc, dim, input_override)
        expected = np.asarray(unitary, dtype=complex) @ state.amplitudes
        return Problem(
            kind="bqst",
            run=lambda: entcost.bqst_teleport(unitary, state)[0],
            expected=expected,
            describe=f"kind: bqst  dim={dim}",
        )
    raise MalformedProblem(f"unknown problem kind {kind!r}; expected wang, group, or bqst")


# --- run ----------------------------------------------------------------------

def cmd_run(args) -> int:
    problem = load_problem(args.file, args.input)
    threshold = 1.0 - args.tol
    branches = problem.run()
    fids = [float(abs(np.vdot(problem.expected, b.output.amplitudes))) for b in branches]
    min_fid = min(fids)
    ok = min_fid >= threshold
    first_transcript = locc.transcript_lines(branches[0].transcript)

    if args.json:
        doc = {
            "kind": problem.kind,
            "branches": [
                {
                    "outcomes": b.outcomes,
                    "probability": b.probability,
                    "fidelity": fid,
                }
                for b, fid in zip(branches, fids)
            ],
            "min_fidelity": min_fid,
            "threshold": threshold,
            "ok": ok,
            "transcript_first_branch": first_transcript,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(problem.describe)
        print(f"branches: {len(branches)}")
        for b, fid in zip(branches, fids):
            label = " ".join(f"{k}={v}" for k, v in b.outcomes.items())
            print(f"branch {label}  p={b.probability:.10f}  fidelity={fid:.12f}")
        print(f"min fidelity: {min_fid:.12f}  (threshold {threshold:.10f})")
        print("transcript of first branch:")
        for line in first_transcript:
            print(f"  {line}")
        print("result: OK" if ok else "result: FIDELITY FAILURE")
    return 0 if ok else 1


# --- trace ----------------------------------------------------------------------

def _phase_label(numerator: int, denominator: int) -> str:
    """exp(i*pi * numerator/denominator) as text, empty for phase 0."""
    frac = Fraction(numerator, denominator)
    if frac == 0:
        return ""
    if frac.denominator == 1:
        return f"exp({frac.numerator}i*pi)*"
    return f"exp({frac.numerator}i*pi/{frac.denominator})*"


def _cell_label(actual: np.ndarray, expected: np.ndarray, label: str) -> str:
    """Label the cell symbolically when it matches the expected vector exactly."""
    if np.abs(actual - expected).max() <= 1e-10:
        if np.abs(expected).max() <= 1e-10:
            return "."
        return label
    if np.abs(actual).max() <= 1e-10:
        return "."
    return "[" + " ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in actual) + "]"


def _aligned(rows) -> list[str]:
    """Rows of text cells as left-justified columns two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]


def cmd_trace(args) -> int:
    problem = load_problem(args.file, args.input)
    if problem.trace is None:
        raise UnsupportedProblem("trace supports wang problems only")
    partition, phases, state = problem.trace
    n = partition.n
    try:
        l, m = (int(x) for x in args.branch.split(","))
    except ValueError as exc:
        raise MalformedProblem(f"--branch must be 'l,m', got {args.branch!r}") from exc

    stages = wang.trace_branch(partition, phases, state, l, m)
    proj_psi = [p @ state.amplitudes for p in wang.projectors(partition)]
    c = phases.values
    root = f"sqrt({n})"

    print(f"trace: wang  dim={partition.dim}  blocks={n}  branch l={l}, m={m}")
    print(f"input |psi> = {_vec_text(state.amplitudes)}")

    # (title, rows a shown, expected(a, b) -> (vector, label)) per table
    tables = (
        (f"step 0: initial state |psi> (x) sum_k |k>|k>/{root}", range(n),
         lambda r, col: (state.amplitudes / math.sqrt(n) if r == col else np.zeros(partition.dim),
                         f"|psi>/{root}")),
        ("step 1: Alice applies the controlled shift P = sum_i P_i (x) X^i", range(n),
         lambda r, col: (proj_psi[(col - r) % n] / math.sqrt(n), f"P{(col - r) % n}|psi>/{root}")),
        (f"step 2: Alice measures a -> {l}; Bob applies X^{l}", [l],
         lambda r, col: (proj_psi[col], f"P{col}|psi>")),
        ("step 3: Bob applies the phase gate C = diag(c_i)", [l],
         lambda r, col: (c[col] * proj_psi[col], f"c{col}*P{col}|psi>")),
    )
    for stage, (title, rows, expected) in zip(stages, tables):
        print(f"\n{title}")
        grid = stage.state.amplitudes.reshape(partition.dim, n, n)
        table = [["a\\b"] + [str(col) for col in range(n)]] + [
            [str(r)] + [_cell_label(grid[:, r, col], *expected(r, col)) for col in range(n)]
            for r in rows
        ]
        for line in _aligned(table):
            print(f"  {line}")

    print(f"\nstep 4: Bob applies F and measures b -> {m}")
    expected4 = sum(
        np.exp(2j * np.pi * m * j / n) * c[j] * proj_psi[j] for j in range(n)
    )
    terms = []
    for j in range(n):
        if np.abs(proj_psi[j]).max() <= 1e-12:
            continue
        terms.append(f"{_phase_label(2 * m * j, n)}c{j}*P{j}|psi>")
    actual4 = stages[4].output.amplitudes
    label4 = " + ".join(terms) if terms else "0"
    print(f"  A register: {_cell_label(actual4, expected4, label4)}")
    print(f"  numeric: {_vec_text(actual4)}")

    print(f"\nstep 5: Alice applies the recovery R_{m}")
    final = stages[5].output.amplitudes
    expected5 = problem.expected
    print(f"  A register: {_cell_label(final, expected5, 'U|psi> = sum_i c_i A_i |psi>')}")
    print(f"  numeric: {_vec_text(final)}")
    fid = float(abs(np.vdot(expected5, final)))
    print(f"  fidelity vs direct application: {fid:.12f}")

    print("\ntranscript:")
    for line in locc.transcript_lines(stages[-1].transcript):
        print(f"  {line}")
    return 0


def _vec_text(vec: np.ndarray) -> str:
    return "[" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in vec) + "]"


# --- cost ----------------------------------------------------------------------

def render_cost_table(rows) -> str:
    """Aligned-column text table for a sequence of CostReports."""
    header = (
        "protocol", "schmidt_rank", "params", "ebits",
        "bits A->B", "bits B->A", "verdict",
    )
    body = [
        (
            r.protocol,
            str(r.schmidt_rank),
            str(r.controlled_parameters),
            f"{r.ebits:g}",
            f"{r.bits_alice_to_bob:g}",
            f"{r.bits_bob_to_alice:g}",
            r.verdict,
        )
        for r in rows
    ]
    return "\n".join(_aligned([header, *body]))


def cmd_cost(args) -> int:
    problem = load_problem(args.file)
    if problem.blocks is None:
        raise UnsupportedProblem("cost supports wang and group problems only")
    blocks = problem.blocks
    comparison = entcost.compare_costs(blocks, problem.expected.size, protocol=problem.kind)
    n = len(blocks)
    rank = comparison.rows[0].controlled_parameters   # operator_rank(blocks)
    verdicts = [entcost.feasibility_test(rank, d) for d in range(1, n + 1)]
    if args.json:
        doc = {
            "rows": [dataclasses.asdict(r) for r in comparison.rows],
            "wang_saves": comparison.wang_saves,
            "feasibility": [
                {
                    "d": d,
                    "feasible": v.feasible,
                    "operator_rank": v.operator_rank,
                    "certificate": v.certificate,
                    "maximal_entanglement_required": v.maximal_entanglement_required,
                }
                for d, v in zip(range(1, n + 1), verdicts)
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(render_cost_table(comparison.rows))
        saves = "yes" if comparison.wang_saves else "no"
        print(f"strict ebit saving over bqst: {saves}")
        print("\nfeasibility by resource Schmidt rank d:")
        for d, v in zip(range(1, n + 1), verdicts):
            status = "feasible" if v.feasible else "infeasible"
            print(f"  d={d}: {status} -- {v.certificate}")
        print(f"maximal entanglement required: {verdicts[0].maximal_entanglement_required}")
    return 0


# --- gen -------------------------------------------------------------------------

def _seed(text: str) -> int:
    """numpy seeds are non-negative; argparse reports a bad one with exit 2."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"a seed is a non-negative integer, got {seed}")
    return seed


def _tolerance(text: str) -> float:
    """A fidelity tolerance in [0, 1): outside it 1 - tol fails every run or passes it."""
    tol = float(text)
    if not 0 <= tol < 1:
        raise argparse.ArgumentTypeError(f"a tolerance lies in [0, 1), got {text}")
    return tol


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    partition = wang.random_partition(args.dim, args.blocks, rng)
    phases = wang.random_phases(partition.n, rng)
    doc = {
        "kind": "wang",
        "dim": partition.dim,
        "blocks": [matrix_to_json(b) for b in partition.blocks],
        "phases": vector_to_json(phases.values),
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


# --- entry -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qremote",
        description="Run and audit remote-implementation protocols from JSON problem files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run all measurement branches and report fidelities")
    run.add_argument("file")
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument("--input", default=None, help="input state as JSON [re,im] pairs")
    run.add_argument("--tol", type=_tolerance, default=FIDELITY_TOL,
                     help="fidelity failure threshold is 1 - tol")
    run.set_defaults(func=cmd_run)

    trace = sub.add_parser("trace", help="step-by-step state tables for one branch")
    trace.add_argument("file")
    trace.add_argument("--branch", default="0,0", help="measurement outcomes 'l,m'")
    trace.add_argument("--input", default=None, help="input state as JSON [re,im] pairs")
    trace.set_defaults(func=cmd_trace)

    cost = sub.add_parser("cost", help="entanglement cost table and feasibility verdicts")
    cost.add_argument("file")
    cost.add_argument("--json", action="store_true", help="machine-readable output")
    cost.set_defaults(func=cmd_cost)

    gen = sub.add_parser("gen", help="generate a random wang problem file")
    gen.add_argument("--seed", type=_seed, required=True)
    gen.add_argument("--dim", type=int, default=4)
    gen.add_argument("--blocks", type=int, default=3)
    gen.add_argument("--out", default=None, help="write to a file instead of stdout")
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QRemoteError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
