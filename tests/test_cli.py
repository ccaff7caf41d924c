"""CLI contract: JSON problem files, exit codes, trace tables, cost output,
and deterministic generation."""

import json
from pathlib import Path

import numpy as np
import pytest

from qremote import groupform, qcore, wang
from qremote.cli import main, matrix_to_json, vector_to_json


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


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


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
])
def test_non_finite_values_exit_2_as_nonfinite(tmp_path, capsys, field, value):
    doc = diagonal_wang_doc(3, np.ones(3))
    doc[field] = value
    path = tmp_path / "nan.json"
    # NaN and Infinity are the non-standard literals Python's json module reads
    path.write_text(json.dumps(doc).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    assert main(["run", str(path)]) == 2
    assert "NonFinite" in capsys.readouterr().err


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


def test_cost_rejects_bqst_problems(tmp_path, capsys):
    doc = {"kind": "bqst", "dim": 2, "unitary": matrix_to_json(np.eye(2))}
    path = write_problem(tmp_path, "b.json", doc)
    assert main(["cost", path]) == 2


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


def test_unreachable_threshold_exits_1(tmp_path, capsys):
    # --tol below 0 pushes the threshold above 1, forcing the failure path
    phases = np.array([1.0, 1j])
    path = write_problem(tmp_path, "w.json", diagonal_wang_doc(2, phases))
    assert main(["run", path, "--tol", "-1"]) == 1
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
