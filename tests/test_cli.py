"""CLI contract: JSON problem files, exit codes, trace tables, cost output,
and deterministic generation."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qremote
from qremote import entcost, errors, groupform, locc, qcore, wang
from qremote.cli import load_problem, main, matrix_to_json, vector_to_json

from util import random_block_diagonal_unitary


def write_problem(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def diagonal_wang_doc(n, phases):
    blocks = [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]
    return {
        "kind": "wang",
        "dim": n,
        "blocks": [matrix_to_json(b) for b in blocks],
        "phases": vector_to_json(phases),
    }


def test_run_diagonal_wang_problem(tmp_path, capsys):
    phases = np.array([1.0, np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 7)])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(3, phases))
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "branches: 9" in out
    assert "result: OK" in out


def test_run_json_output_parses(tmp_path, capsys):
    phases = np.array([1.0, 1j, -1.0])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(3, phases))
    assert main(["run", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["branches"]) == 9
    assert doc["min_fidelity"] >= 1 - 1e-9
    assert doc["branches"][0]["outcomes"] == {"l": 0, "m": 0}


def test_near_tolerance_phases_run(tmp_path, capsys):
    # |c_0| - 1 = 8e-10 is accepted, and the run compares against the exact
    # member c_0/|c_0|, so the combined operator is unitary
    doc = diagonal_wang_doc(2, np.array([1.0000000008, 1j]))
    assert doc["phases"][0] == [1.0000000008, 0.0]
    path = write_problem(tmp_path, "w.json", doc)
    assert main(["run", path]) == 0
    assert "result: OK" in capsys.readouterr().out


def test_a_partition_accepted_near_its_tolerance_runs(tmp_path, capsys):
    # A_1 = |1><1| + 9e-10 |0><1| overlaps A_0 = |0><0| by 9e-10, inside
    # NORM_TOL, so validation accepts it and stores the exact member; the
    # coupling gate, bounded from that member's eigenbasis, then passes too
    a0 = np.diag([1.0, 0.0])
    a1 = np.array([[0.0, 9e-10], [0.0, 1.0]])
    assert np.abs(a0.conj().T @ a1).max() == 9e-10
    doc = {
        "kind": "wang", "dim": 2,
        "blocks": [matrix_to_json(a0), matrix_to_json(a1)],
        "phases": vector_to_json(np.array([1.0, 1j])),
    }
    path = write_problem(tmp_path, "near.json", doc)
    assert main(["run", path]) == 0
    assert "result: OK" in capsys.readouterr().out


def test_near_unitary_group_matrices_run(tmp_path, capsys):
    # U(1) = diag(1 + 4.5e-10, -1 + 4.5e-10) passes validation (residual
    # 9e-10), and the run uses its polar factor Z, so the coupling is exact
    doc = {
        "kind": "group", "order": 2, "cayley": [[0, 1], [1, 0]],
        "matrices": [matrix_to_json(np.eye(2)), matrix_to_json(np.diag([1.00000000045, -0.99999999955]))],
        "coefficients": vector_to_json(np.array([1.0, 0.0])),
    }
    path = write_problem(tmp_path, "near.json", doc)
    assert main(["run", path]) == 0
    assert "result: OK" in capsys.readouterr().out


@pytest.mark.parametrize("u1, code, error", [
    # X mixes the two declared 1x1 blocks; Z keeps to them
    ([[[0, 0], [1, 0]], [[1, 0], [0, 0]]], 2,
     "error: NotBlockDiagonal: U(1) has weight 1.000e+00 outside the declared blocks\n"),
    ([[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], 0, ""),
])
def test_declared_blocks_are_checked_on_every_matrix(tmp_path, capsys, u1, code, error):
    doc = {
        "kind": "group", "order": 2, "cayley": [[0, 1], [1, 0]],
        "matrices": [matrix_to_json(np.eye(2)), u1],
        "coefficients": [[1, 0], [0, 0]], "blocks": [1, 1],
    }
    path = write_problem(tmp_path, "blocks.json", doc)
    assert main(["run", path]) == code
    captured = capsys.readouterr()
    assert captured.err == error
    assert ("result: OK" in captured.out) == (code == 0)


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "error: MalformedProblem:" in capsys.readouterr().err


def test_invalid_partition_diagnostic_names_invariant(tmp_path, capsys):
    doc = {
        "kind": "wang",
        "dim": 2,
        "blocks": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(2))],
    }
    path = write_problem(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2
    assert "OverlappingBlocks" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("input", [["NaN", 0.0], [0.0, 0.0], [0.0, 0.0]]),
    ("phases", [[1.0, 0.0], ["NaN", 0.0], [1.0, 0.0]]),
    ("input", [["Infinity", 0.0], [0.0, 0.0], [0.0, 0.0]]),
    ("blocks", [[[["NaN", 0.0]]]]),
    ("matrices", [[[[1.0, 0.0]]], [[["NaN", 0.0]]]]),
    ("mu", [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, "Infinity"]]]),
    ("coefficients", [["NaN", 0.0], [0.0, 0.0]]),
    ("unitary", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["NaN", 0.0]]]),
    ("--input", [["NaN", 0.0], [0.0, 0.0]]),
])
def test_non_finite_values_exit_2_as_nonfinite(tmp_path, capsys, field, value):
    # no finiteness pass in the CLI: the library names each field
    kind = {"matrices": "group", "mu": "group", "coefficients": "group",
            "unitary": "bqst", "--input": "bqst"}.get(field)
    doc = PROBLEM_DOCS[kind]() if kind else diagonal_wang_doc(3, np.ones(3))

    def literal(obj):
        # NaN and Infinity are the non-standard literals Python's json module reads
        return json.dumps(obj).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity")

    if field == "--input":
        commands = [["run", "--input", literal(value)]]   # cost takes no --input
    else:
        doc[field] = value
        commands = [["run"], ["cost"]]
    path = tmp_path / "nan.json"
    path.write_text(literal(doc))
    for command in commands:
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: NonFinite: ")


@pytest.mark.parametrize("field, value, name", [
    ("blocks", 1e308, "IncompleteBlocks"),
    ("input", [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0]], "NonFinite"),
])
def test_overflowing_values_exit_2_without_numpy_warnings(tmp_path, field, value, name):
    doc = diagonal_wang_doc(3, np.ones(3))
    if field == "blocks":
        doc["blocks"][0][0][0] = [value, 0.0]
    else:
        doc[field] = value
    path = write_problem(tmp_path, "big.json", doc)
    # a separate interpreter, so numpy's warnings reach stderr as a user sees them
    env = {**os.environ, "PYTHONPATH": str(Path(qremote.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "qremote", "run", path], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {name}:")
    assert "RuntimeWarning" not in proc.stderr


def test_importing_the_package_loads_neither_numpy_nor_a_module():
    # a fresh interpreter, so nothing this test process imported counts
    env = {**os.environ, "PYTHONPATH": str(Path(qremote.__file__).parents[1])}
    code = ("import sys, qremote; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy' or m.startswith('qremote.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("dim"),
    lambda doc: doc.update(blocks=5),
])
def test_schema_errors_exit_2_as_malformed_problem(tmp_path, capsys, edit):
    doc = diagonal_wang_doc(2, np.ones(2))
    edit(doc)
    path = write_problem(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2
    assert "MalformedProblem" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dim", "order"])
@pytest.mark.parametrize("value", [2.7, "2", True])
def test_non_integer_dimensions_exit_2_as_malformed_problem(tmp_path, capsys, key, value):
    if key == "dim":
        doc = diagonal_wang_doc(2, np.ones(2))
    else:
        rep = groupform.pauli_rep()
        doc = {
            "kind": "group",
            "order": 4,
            "cayley": rep.group.cayley.tolist(),
            "matrices": [matrix_to_json(m) for m in rep.matrices],
            "coefficients": vector_to_json(np.array([1.0, 0, 0, 0])),
        }
    doc[key] = value
    path = write_problem(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2
    assert "MalformedProblem" in capsys.readouterr().err


def z2_group_doc():
    rep = groupform.cyclic_character_rep(2)
    return {
        "kind": "group",
        "order": 2,
        "cayley": rep.group.cayley.tolist(),
        "matrices": [matrix_to_json(m) for m in rep.matrices],
        "coefficients": vector_to_json(np.array([1.0, 0.0])),
    }


PROBLEM_DOCS = {
    "wang": lambda: diagonal_wang_doc(2, np.ones(2)),
    "group": z2_group_doc,
    "bqst": lambda: {"kind": "bqst", "dim": 2, "unitary": matrix_to_json(np.eye(2))},
}


@pytest.mark.parametrize("kind, key, value, name", [
    ("group", "cayley", [[0, 1], [1, 0.5]], "MalformedProblem"),
    ("wang", "input", [["0.6", 0], [0.8, 0]], "MalformedProblem"),
    ("wang", "phases", [[True, False], [1.0, 0.0]], "MalformedProblem"),
    ("wang", "kind", "teleport", "MalformedProblem"),
    ("group", "cayley", [[0, 1], [1, 1]], "NotAGroup"),
    ("wang", "dim", 3, "DimensionMismatch"),
    ("group", "order", 3, "DimensionMismatch"),
    ("bqst", "dim", 3, "DimensionMismatch"),
    ("group", "names", "xy", "MalformedProblem"),
    ("group", "blocks", [0], "DimensionMismatch"),
    ("wang", "phases", [], "DimensionMismatch"),
    # a JSON object where a list belongs
    ("wang", "phases", {}, "MalformedProblem"),
    ("wang", "input", {}, "MalformedProblem"),
    ("wang", "blocks", {}, "MalformedProblem"),
    ("group", "coefficients", {}, "MalformedProblem"),
    ("group", "matrices", {}, "MalformedProblem"),
    ("group", "mu", {}, "MalformedProblem"),
    ("group", "cayley", {}, "MalformedProblem"),
    ("group", "blocks", {}, "MalformedProblem"),
    ("bqst", "unitary", [{}, {}], "MalformedProblem"),
    # U^dag U overflows: a numpy warning, an error here, before
    ("bqst", "unitary", [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]], "NonUnitary"),
])
def test_document_errors_exit_2_with_the_invariant_named(tmp_path, capsys, kind, key, value, name):
    doc = PROBLEM_DOCS[kind]()
    doc[key] = value
    path = write_problem(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2
    assert f"error: {name}:" in capsys.readouterr().err


BIG = 10 ** 400   # past the float range; a JSON integer has no bound
OVERSIZED = {
    # site: (problem kind, keys down to the entry or None for --input, the
    # entry, commands, error named); the Cayley table is an int64 array
    "blocks": ("wang", ("blocks", 0, 0, 0), [BIG, 0], ("run", "cost", "trace"), "NonFinite"),
    "phases": ("wang", ("phases", 1), [0, BIG], ("run",), "NonFinite"),
    "input": ("bqst", ("input",), [[BIG, 0], [0, 0]], ("run",), "NonFinite"),
    "--input": ("wang", None, [[0, 0], [0, -BIG]], ("run", "trace"), "NonFinite"),
    "matrices": ("group", ("matrices", 1, 0, 0), [BIG, 0], ("run", "cost"), "NonFinite"),
    "coefficients": ("group", ("coefficients", 0), [BIG, 0], ("run",), "NonFinite"),
    "unitary": ("bqst", ("unitary", 1, 1), [0, BIG], ("run",), "NonFinite"),
    "cayley": ("group", ("cayley", 1, 0), 2 ** 63, ("run", "cost"), "MalformedProblem"),
}


@pytest.mark.parametrize("site", sorted(OVERSIZED))
def test_an_integer_past_its_range_exits_2_with_its_error_named(tmp_path, capsys, site):
    kind, keys, entry, commands, name = OVERSIZED[site]
    doc, flags = PROBLEM_DOCS[kind](), []
    if keys is None:
        flags = ["--input", json.dumps(entry)]
    else:
        *outer, last = keys
        target = doc
        for key in outer:
            target = target[key]
        target[last] = entry
    path = write_problem(tmp_path, "big.json", doc)
    for command in commands:
        assert main([command, *flags, path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}:")


@pytest.mark.parametrize("argv, name", [
    (["trace", "{bqst}"], "UnsupportedProblem"),
    (["trace", "{wang}", "--branch", "1"], "MalformedProblem"),
    (["trace", "{wang}", "--branch", "a,b"], "MalformedProblem"),
    (["trace", "{wang}", "--branch", "2,0"], "DimensionMismatch"),
    (["run", "{not_utf8}"], "MalformedProblem"),
    (["run", "{wang}", "--input", "{{}}"], "MalformedProblem"),
])
def test_command_rejections_exit_2_with_the_class_named(tmp_path, capsys, argv, name):
    paths = {
        "bqst": write_problem(tmp_path, "bqst.json", PROBLEM_DOCS["bqst"]()),
        "wang": write_problem(tmp_path, "wang.json", PROBLEM_DOCS["wang"]()),
        "not_utf8": str(tmp_path / "latin1.json"),
    }
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "\xe9"}')   # Latin-1, not UTF-8
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert f"error: {name}:" in capsys.readouterr().err


def test_a_bare_value_error_is_not_reported_as_invalid_input(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("a library bug")

    monkeypatch.setattr(locc, "run_protocol", broken)
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(2, np.ones(2)))
    with pytest.raises(ValueError, match="a library bug"):
        main(["run", path])


def test_problem_meta_holds_what_the_commands_read(tmp_path):
    rep = groupform.pauli_rep()
    group = {
        "kind": "group",
        "order": 4,
        "cayley": rep.group.cayley.tolist(),
        "matrices": [matrix_to_json(m) for m in rep.matrices],
        "coefficients": vector_to_json(np.array([1.0, 0, 0, 0])),
        "blocks": [2],   # validated, not stored
    }
    problem = load_problem(write_problem(tmp_path, "wang.json", PROBLEM_DOCS["wang"]()))
    partition, phases = problem.trace
    state = problem.input
    assert problem.blocks is partition.blocks
    np.testing.assert_allclose(partition.blocks, [np.diag([1, 0]), np.diag([0, 1])], atol=1e-12)
    np.testing.assert_array_equal(phases.values, [1, 1])
    np.testing.assert_array_equal(state.amplitudes, [1, 0])

    problem = load_problem(write_problem(tmp_path, "group.json", group))
    assert problem.trace is None
    np.testing.assert_array_equal(problem.blocks, rep.matrices)

    problem = load_problem(write_problem(tmp_path, "bqst.json", PROBLEM_DOCS["bqst"]()))
    assert problem.blocks is None and problem.trace is None


@pytest.mark.parametrize("argv", [
    ["cost", "{path}", "--input", "[[1, 0], [0, 0]]"],   # cost ignores the input state
    ["gen", "--seed", "-1"],                             # numpy seeds are non-negative
    ["run", "{path}", "--tol=nan"],                      # a tolerance is finite
    ["run", "{path}", "--tol=inf"],
    ["run", "{path}", "--tol=-inf"],
    ["run", "{path}", "--tol", "1"],                     # and lies in [1e-12, 1)
    ["run", "{path}", "--tol", "5"],
    ["run", "{path}", "--tol", "-1"],
    ["run", "{path}", "--tol", "0"],                     # exact runs miss 1 by rounding
    ["run", "{path}", "--tol", "9e-13"],                 # below the 1e-12 floor
])
def test_argument_errors_exit_2(tmp_path, argv):
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(2, np.ones(2)))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(path=path) for arg in argv])
    assert exc.value.code == 2


@pytest.mark.parametrize("field, value, name", [
    ("input", [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], "NotNormalized"),
    ("phases", [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]], "NonUnimodularCoefficient"),
])
def test_executor_validation_errors_are_named(tmp_path, capsys, field, value, name):
    doc = diagonal_wang_doc(3, np.ones(3))
    doc[field] = value
    path = write_problem(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2
    assert f"error: {name}:" in capsys.readouterr().err


def test_forced_trivial_factors_rejected(tmp_path, capsys):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    doc = {
        "kind": "group",
        "order": 4,
        "cayley": np.bitwise_xor(np.arange(4)[:, None], np.arange(4)[None, :]).tolist(),
        "matrices": [matrix_to_json(m) for m in (np.eye(2), x, z, x @ z)],
        "mu": matrix_to_json(np.ones((4, 4))),
        "coefficients": vector_to_json(np.array([1.0, 0, 0, 0])),
    }
    path = write_problem(tmp_path, "group.json", doc)
    assert main(["run", path]) == 2
    assert "NotARepresentation" in capsys.readouterr().err


def test_run_group_problem(tmp_path, capsys):
    rep = groupform.pauli_rep()
    c = np.zeros(4, dtype=complex)
    c[1] = c[2] = 1 / np.sqrt(2)
    doc = {
        "kind": "group",
        "order": 4,
        "cayley": rep.group.cayley.tolist(),
        "matrices": [matrix_to_json(m) for m in rep.matrices],
        "mu": matrix_to_json(rep.mu),
        "coefficients": vector_to_json(c),
    }
    path = write_problem(tmp_path, "group.json", doc)
    assert main(["run", path]) == 0
    assert "branches: 16" in capsys.readouterr().out


def test_run_bqst_problem(tmp_path, capsys):
    rng = np.random.default_rng(0)
    doc = {
        "kind": "bqst",
        "dim": 2,
        "unitary": matrix_to_json(qcore.random_unitary(2, rng)),
    }
    path = write_problem(tmp_path, "b.json", doc)
    assert main(["run", path]) == 0
    assert "branches: 16" in capsys.readouterr().out


def test_trace_prints_the_step4_phases(tmp_path, capsys):
    phases = np.array([1.0, np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 7)])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(3, phases))
    assert main(["trace", path, "--branch", "1,2", "--input",
                 json.dumps(vector_to_json(np.ones(3) / np.sqrt(3)))]) == 0
    out = capsys.readouterr().out
    assert "exp(4i*pi/3)*c1*P1|psi>" in out
    assert "exp(8i*pi/3)*c2*P2|psi>" in out
    assert "P0|psi>  P1|psi>  P2|psi>" in out
    assert "fidelity vs direct application: 1.000000000000" in out


def test_trace_single_block_identity_flow(tmp_path, capsys):
    doc = {
        "kind": "wang",
        "dim": 1,
        "blocks": [matrix_to_json(np.eye(1))],
        "phases": vector_to_json(np.array([1.0])),
    }
    path = write_problem(tmp_path, "one.json", doc)
    assert main(["trace", path, "--branch", "0,0"]) == 0
    out = capsys.readouterr().out
    assert "branch l=0, m=0" in out
    assert "fidelity vs direct application: 1.000000000000" in out


def test_trace_step2_row_matches_recomputation(tmp_path, capsys):
    rng = np.random.default_rng(1)
    phases = np.exp(2j * np.pi * rng.uniform(size=2))
    path = write_problem(tmp_path, "w2.json", diagonal_wang_doc(2, phases))
    l = 1
    amps = vector_to_json(np.array([0.6, 0.8]))
    assert main(["trace", path, "--branch", f"{l},0", "--input", json.dumps(amps)]) == 0
    out = capsys.readouterr().out
    # step-2 row is step-1 row l after the X^l correction: labels shift by l
    assert f"step 2: Alice measures a -> {l}; Bob applies X^{l}" in out
    assert "P0|psi>" in out and "P1|psi>" in out


def test_trace_runs_on_more_than_six_blocks(tmp_path, capsys):
    path = str(tmp_path / "wang7.json")
    assert main(["gen", "--seed", "1", "--dim", "8", "--blocks", "7", "--out", path]) == 0
    assert main(["trace", path, "--branch", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "trace: wang  dim=8  blocks=7  branch l=3, m=5" in out
    assert "fidelity vs direct application: 1.000000000000" in out


def test_trace_rejects_group_problems(tmp_path, capsys):
    rep = groupform.cyclic_character_rep(2)
    doc = {
        "kind": "group",
        "order": 2,
        "cayley": rep.group.cayley.tolist(),
        "matrices": [matrix_to_json(m) for m in rep.matrices],
        "mu": matrix_to_json(rep.mu),
        "coefficients": vector_to_json(np.array([1.0, 0.0])),
    }
    path = write_problem(tmp_path, "g.json", doc)
    assert main(["trace", path]) == 2
    assert "error: UnsupportedProblem:" in capsys.readouterr().err


def test_cost_diagonal_qubit(tmp_path, capsys):
    phases = np.array([1.0, 1j])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(2, phases))
    assert main(["cost", path]) == 0
    out = capsys.readouterr().out
    assert "wang" in out and "bqst" in out
    assert "d=1: infeasible" in out
    assert "d=2: feasible" in out
    assert "strict ebit saving over bqst: yes" in out
    assert "maximal entanglement required: unknown" in out


def test_cost_four_blocks_at_dim_four(tmp_path, capsys):
    rng = np.random.default_rng(2)
    p = wang.random_partition(4, 4, rng)
    doc = {
        "kind": "wang",
        "dim": 4,
        "blocks": [matrix_to_json(b) for b in p.blocks],
    }
    path = write_problem(tmp_path, "w4.json", doc)
    assert main(["cost", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    flags = {row["d"]: row["feasible"] for row in report["feasibility"]}
    assert flags == {1: False, 2: False, 3: False, 4: True}


def test_cost_single_block(tmp_path, capsys):
    doc = {"kind": "wang", "dim": 2, "blocks": [matrix_to_json(np.eye(2))]}
    path = write_problem(tmp_path, "w1.json", doc)
    assert main(["cost", path]) == 0
    assert "d=1: feasible" in capsys.readouterr().out


def test_cost_group_problem_counts_group_order(tmp_path, capsys):
    rep = groupform.pauli_rep()
    c = np.zeros(4, dtype=complex)
    c[0] = 1.0
    doc = {
        "kind": "group",
        "order": 4,
        "cayley": rep.group.cayley.tolist(),
        "matrices": [matrix_to_json(m) for m in rep.matrices],
        "mu": matrix_to_json(rep.mu),
        "coefficients": vector_to_json(c),
    }
    path = write_problem(tmp_path, "g.json", doc)
    assert main(["cost", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    group_row = report["rows"][0]
    # |G| = 4 controlled parameters on a 2-dim register: no saving over bqst
    assert group_row["protocol"] == "group"
    assert group_row["ebits"] == 2.0
    assert report["wang_saves"] is False
    flags = {row["d"]: row["feasible"] for row in report["feasibility"]}
    assert flags == {1: False, 2: False, 3: False, 4: True}


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_cost_computes_the_operator_rank_once(tmp_path, capsys, monkeypatch, flags):
    calls = []
    rank = entcost.operator_rank
    monkeypatch.setattr(entcost, "operator_rank", lambda blocks: calls.append(1) or rank(blocks))
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(5, np.ones(5)))
    assert main(["cost", path, *flags]) == 0
    assert len(calls) == 1


# two blocks spanning one operator: operator rank 1 below the block count 2
RANK_ONE_DOCS = {
    "group": {
        "kind": "group", "order": 2, "cayley": [[0, 1], [1, 0]],
        "matrices": [[[[1, 0]]], [[[-1, 0]]]], "coefficients": [[1, 0], [0, 0]],
    },
    "wang": {"kind": "wang", "dim": 1, "blocks": [[[[1, 0]]], [[[0, 0]]]]},
}


@pytest.mark.parametrize("kind", sorted(RANK_ONE_DOCS))
def test_cost_rows_are_judged_against_the_operator_rank(tmp_path, capsys, kind):
    path = write_problem(tmp_path, "r.json", RANK_ONE_DOCS[kind])
    assert main(["cost", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    feasible = {f["d"]: f["feasible"] for f in report["feasibility"]}
    assert {f["operator_rank"] for f in report["feasibility"]} == {1}
    judged = [row for row in report["rows"] if row["schmidt_rank"] in feasible]
    assert len(judged) == 2
    for row in judged:
        assert (row["verdict"] == "feasible") == feasible[row["schmidt_rank"]]
    assert [row["controlled_parameters"] for row in report["rows"]] == [1, 1]


def test_cost_rejects_bqst_problems(tmp_path, capsys):
    doc = {"kind": "bqst", "dim": 2, "unitary": matrix_to_json(np.eye(2))}
    path = write_problem(tmp_path, "b.json", doc)
    assert main(["cost", path]) == 2
    assert "error: UnsupportedProblem:" in capsys.readouterr().err


# cost builds the program run executes, so it rejects at load what run rejects
REJECTED_AT_LOAD = {
    # the target 0.6 + 0.4 = 1 is unitary, the mixer [[.6, .4], [.4, .6]] is not
    "NonUnitaryM": {
        "kind": "group", "order": 2, "cayley": [[0, 1], [1, 0]],
        "matrices": [[[[1, 0]]], [[[1, 0]]]], "coefficients": [[0.6, 0], [0.4, 0]],
    },
    "NonUnitary": {"kind": "bqst", "dim": 2, "unitary": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]},
}


@pytest.mark.parametrize("command", ["run", "cost"])
@pytest.mark.parametrize("name", sorted(REJECTED_AT_LOAD))
def test_cost_rejects_what_run_rejects(tmp_path, capsys, command, name):
    path = write_problem(tmp_path, "bad.json", REJECTED_AT_LOAD[name])
    assert main([command, path]) == 2
    assert f"error: {name}:" in capsys.readouterr().err


def test_run_assembles_a_group_target_once(tmp_path, capsys, monkeypatch):
    calls = []
    assemble = groupform.assemble
    monkeypatch.setattr(groupform, "assemble", lambda *args: calls.append(1) or assemble(*args))
    path = write_problem(tmp_path, "g.json", z2_group_doc())
    assert main(["run", path]) == 0
    assert len(calls) == 1


def test_gen_is_deterministic_and_valid(tmp_path, capsys):
    assert main(["gen", "--seed", "9", "--dim", "4", "--blocks", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "9", "--dim", "4", "--blocks", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second

    path = tmp_path / "gen.json"
    path.write_text(first)
    assert main(["run", str(path)]) == 0
    assert "result: OK" in capsys.readouterr().out


def peak_bytes(call):
    """call's result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [40, 120])
def test_an_oversized_bqst_layout_is_refused_before_it_is_allocated(tmp_path, capsys, dim):
    # the D^5 register, 1.6 GiB at D = 40, is past qcore.MAX_AMPLITUDES, and
    # it is refused before the D^3 shift and clock tables are built: 2 MiB
    # at D = 40, 55 MB at D = 120
    doc = {"kind": "bqst", "dim": dim, "unitary": matrix_to_json(np.eye(dim))}
    path = write_problem(tmp_path, "b.json", doc)
    code, peak = peak_bytes(lambda: main(["run", path]))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: UnsupportedProblem: register layout {(dim,) * 5} holds "
        f"{dim ** 5} amplitudes, beyond the ceiling of 67108864\n"
    )
    assert peak < 8 * 2**20


def test_an_oversized_gen_is_refused_before_it_is_allocated(capsys):
    code, peak = peak_bytes(lambda: main(["gen", "--seed", "1", "--dim", "10000", "--blocks", "2"]))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: UnsupportedProblem: a partition of 2 blocks at dim 10000 holds "
        "200000000 amplitudes, beyond the ceiling of 67108864\n"
    )
    assert peak < 8 * 2**20   # against 3.2 GB for the partition


def test_cost_reads_a_wang_file_past_the_bqst_run_ceiling(tmp_path, capsys):
    # cost builds a bqst program on the input register but never runs it,
    # so a D = 40 wang file, whose bqst run would be refused, still has rows
    assert main(["gen", "--seed", "3", "--dim", "40", "--blocks", "2",
                 "--out", str(tmp_path / "w.json")]) == 0
    assert main(["cost", str(tmp_path / "w.json")]) == 0
    assert "bqst" in capsys.readouterr().out


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    phases = np.array([1.0, np.exp(0.4j), np.exp(1.1j)])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(3, phases))
    assert main(["run", path]) == 0
    first = capsys.readouterr().out
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == first


def test_input_flag_overrides_initial_state(tmp_path, capsys):
    phases = np.array([1.0, 1j])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(2, phases))
    amps = vector_to_json(np.array([0.6, 0.8]))
    assert main(["run", path, "--input", json.dumps(amps)]) == 0
    assert "result: OK" in capsys.readouterr().out


def test_exact_runs_pass_at_the_tolerance_floor(tmp_path, capsys):
    # dihedral3 runs miss fidelity 1 by one rounding step, which --tol 0
    # reported as a failure; the floor 1e-12 passes them
    rep = groupform.dihedral3_rep()
    decomp = groupform.block_decomposition(rep, (1, 1, 2))
    rng = np.random.default_rng(12)
    for i in range(10):
        c = groupform.coefficients_from_unitary(random_block_diagonal_unitary(decomp, rng), decomp)
        doc = {
            "kind": "group",
            "order": 6,
            "cayley": rep.group.cayley.tolist(),
            "matrices": [matrix_to_json(m) for m in rep.matrices],
            "coefficients": vector_to_json(c),
        }
        path = write_problem(tmp_path, f"group{i}.json", doc)
        assert main(["run", path, "--tol", "1e-12"]) == 0
        assert "result: OK" in capsys.readouterr().out


def test_unreachable_threshold_exits_1(tmp_path, capsys, monkeypatch):
    # an expected operation the protocol does not implement forces the failure path
    monkeypatch.setattr(wang, "assemble", lambda p, phases: np.array([[0, 1], [1, 0]]))
    phases = np.array([1.0, 1j])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(2, phases))
    assert main(["run", path]) == 1
    assert "result: FIDELITY FAILURE" in capsys.readouterr().out


# --- golden snapshots ---------------------------------------------------------------
# Exact stdout of run, trace and cost on fixed problems, stored under
# tests/golden/. They pin the reports byte for byte, so a refactor of the
# protocol code cannot change what the CLI prints.

GOLDEN = Path(__file__).parent / "golden"
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def golden_problems(tmp_path):
    wang_path = write_problem(tmp_path, "wang.json", diagonal_wang_doc(
        3, np.array([1.0, np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 7)])))
    rep = groupform.pauli_rep()
    c = np.zeros(4, dtype=complex)
    c[1] = c[2] = 1 / np.sqrt(2)
    group_path = write_problem(tmp_path, "group.json", {
        "kind": "group",
        "order": 4,
        "cayley": rep.group.cayley.tolist(),
        "matrices": [matrix_to_json(m) for m in rep.matrices],
        "mu": matrix_to_json(rep.mu),
        "coefficients": vector_to_json(c),
    })
    bqst_path = write_problem(tmp_path, "bqst.json", {
        "kind": "bqst", "dim": 2, "unitary": matrix_to_json(HADAMARD),
    })
    trace_input = json.dumps(vector_to_json(np.ones(3) / np.sqrt(3)))
    return {
        "run_wang.txt": ["run", wang_path],
        "run_wang_json.txt": ["run", wang_path, "--json"],
        "run_group.txt": ["run", group_path],
        "run_bqst.txt": ["run", bqst_path],
        "trace_wang.txt": ["trace", wang_path, "--branch", "1,2", "--input", trace_input],
        "cost_wang.txt": ["cost", wang_path],
        "cost_wang_json.txt": ["cost", wang_path, "--json"],
    }


@pytest.mark.parametrize("name", [
    "run_wang.txt", "run_wang_json.txt", "run_group.txt", "run_bqst.txt",
    "trace_wang.txt", "cost_wang.txt", "cost_wang_json.txt",
])
def test_report_matches_golden_snapshot(name, tmp_path, capsys):
    argv = golden_problems(tmp_path)[name]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


# --- mutated problem documents ---------------------------------------------------

QREMOTE_ERRORS = {c.__name__ for c in vars(errors).values()
                  if isinstance(c, type) and issubclass(c, errors.QRemoteError)}
# JSON values that break a valid leaf: wrong types, bad sizes and indices,
# integers and floats past the float range, non-finite literals, containers
FUZZ_VALUES = ("x", None, True, False, 0, -1, 2.5, 10 ** 400, 1e308, -1e308,
               math.nan, math.inf, [], {}, [[1, 0]], [[[0, 0]]])


def fuzz_documents():
    """Valid wang, group and bqst documents as JSON text, each with its
    optional keys."""
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    wang_doc = diagonal_wang_doc(2, np.array([1.0, 1j]))
    wang_doc["input"] = vector_to_json(hadamard[0])
    group_doc = z2_group_doc()
    group_doc.update(names=["e", "g"], mu=matrix_to_json(np.ones((2, 2))), blocks=[1, 1])
    bqst_doc = {"kind": "bqst", "dim": 2, "unitary": matrix_to_json(hadamard),
                "input": vector_to_json(np.array([0.6, 0.8j]))}
    return [json.dumps(doc) for doc in (wang_doc, group_doc, bqst_doc)]


def leaf_paths(node, path=()):
    """Key paths to every value of a document that is not a list or object."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from leaf_paths(child, (*path, key))


FUZZ_DOCUMENTS = fuzz_documents()


@st.composite
def mutated_documents(draw):
    """One of the valid documents with one or two leaves replaced."""
    doc = json.loads(draw(st.sampled_from(FUZZ_DOCUMENTS)))
    for path in draw(st.lists(st.sampled_from(list(leaf_paths(doc))),
                              min_size=1, max_size=2, unique=True)):
        *outer, last = path
        node = doc
        for key in outer:
            node = node[key]
        node[last] = draw(st.sampled_from(FUZZ_VALUES))
    return doc


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents())
def test_a_mutated_document_exits_cleanly_or_names_its_error(tmp_path_factory, doc):
    # every exit is a report (0), a failed check (1) or one named error (2):
    # never a traceback or a numpy warning
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    for command in (["run"], ["cost"], ["trace", "--branch", "0,0"]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([*command, str(path)])
        assert code in (0, 1, 2), (command, doc)
        lines = err.getvalue().splitlines()
        assert code == 2 or not lines, (command, doc, lines)
        if lines:
            assert len(lines) == 1, (command, doc, lines)
            match = re.match(r"error: (\w+): ", lines[0])
            assert match and match[1] in QREMOTE_ERRORS, (command, doc, lines)

