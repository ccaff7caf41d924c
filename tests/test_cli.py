"""CLI contract: JSON problem files, exit codes, trace tables, cost output,
and deterministic generation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qremote
from qremote import entcost, groupform, qcore, wang
from qremote.cli import load_problem, main, matrix_to_json, vector_to_json


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
])
def test_non_finite_values_exit_2_as_nonfinite(tmp_path, capsys, field, value):
    doc = diagonal_wang_doc(3, np.ones(3))
    doc[field] = value
    path = tmp_path / "nan.json"
    # NaN and Infinity are the non-standard literals Python's json module reads
    path.write_text(json.dumps(doc).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    assert main(["run", str(path)]) == 2
    assert "NonFinite" in capsys.readouterr().err


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
])
def test_document_errors_exit_2_with_the_invariant_named(tmp_path, capsys, kind, key, value, name):
    doc = PROBLEM_DOCS[kind]()
    doc[key] = value
    path = write_problem(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2
    assert f"error: {name}:" in capsys.readouterr().err


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

    monkeypatch.setattr(wang, "run_wang", broken)
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
    partition, phases, state = problem.trace
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
    ["run", "{path}", "--tol", "1"],                     # and lies in [0, 1)
    ["run", "{path}", "--tol", "5"],
    ["run", "{path}", "--tol", "-1"],
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
