"""Smoke test of the benchmark itself, at a tiny size and with a fixed seed.

Usage, from the root of a source checkout (about a minute on 2 CPUs):

    python3 perfbench/smoke.py

It checks that
  1. input generation is deterministic: one seed gives identical inputs and
     identical problem files, another seed gives different ones;
  2. a deliberately perturbed oracle vector is counted as a failure and its
     time never lands among the successful samples;
  3. every metric that BENCHMARK.json names is emitted with its unit, for
     every workload, in the timed and in the traced run;
  4. per-layer counts repeat exactly across two traced runs of one seed;
  5. run.py prints the result line with exactly the contract's keys, and
     fails without printing one where the qremote sources are missing.
Exits 0 when all hold and 1 otherwise.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import workloads as wl

SEED = 20240517
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class SmokeFailure(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SmokeFailure(message)


def perturbed(vec: np.ndarray) -> np.ndarray:
    """The oracle vector moved by 1e-3 in one amplitude, renormalized."""
    out = vec.copy()
    out[0] += 1e-3
    return out / np.linalg.norm(out)


def tiny_workloads() -> dict:
    cli = wl.CliWorkload(run.SRC, run.HERE / "cli_child.py")
    cli.traced_cycles = 1
    return {
        "wang-ladder": wl.InProcessWorkload(
            (("wang-4x3", 2), ("wang-3x2", 2)), wl.make_wang_op,
            warmup=("wang-3x2",), traced_cycles=1,
        ),
        "group-bqst": wl.InProcessWorkload(
            (("group-cyclic-3", 1), ("group-pauli", 1), ("bqst-2", 1)),
            wl.make_group_op, warmup=("bqst-2",), traced_cycles=1,
        ),
        "cli-mix": cli,
    }


def args_for(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=SEED, seconds=0.0, trace=trace)


def test_generation_is_deterministic(scratch: Path) -> None:
    def inputs(seed):
        rng = np.random.default_rng(seed)
        w = wl.wang_input(8, 3, rng)
        g = wl.group_input("dihedral3", rng)
        b = wl.bqst_input(3, rng)
        return [*w.blocks, w.phases, w.psi, g.unitary, g.psi, b.unitary, b.psi]

    same = all(np.array_equal(a, b) for a, b in zip(inputs(SEED), inputs(SEED)))
    check(same, "one seed gave two different inputs")
    differ = any(not np.array_equal(a, b) for a, b in zip(inputs(SEED), inputs(SEED + 1)))
    check(differ, "two seeds gave the same inputs")

    files = []
    for name in ("a", "b", "c"):
        directory = scratch / name
        directory.mkdir()
        seed = SEED + (name == "c")
        wl.cli_calls(np.random.default_rng([seed, 0]), directory)
        files.append({p.name: p.read_bytes() for p in sorted(directory.iterdir())})
    check(files[0] == files[1], "one seed wrote two different problem files")
    check(files[0] != files[2], "two seeds wrote the same problem files")


def test_perturbed_oracle_is_a_failure() -> None:
    rng = np.random.default_rng(SEED)
    w = wl.wang_input(4, 3, rng)
    g = wl.group_input("pauli", rng)
    b = wl.bqst_input(2, rng)
    ops = [
        wl.wang_op("wang", w, w.expected),
        wl.wang_op("wang-perturbed", w, perturbed(w.expected)),
        wl.group_op("group", g, g.expected),
        wl.group_op("group-perturbed", g, perturbed(g.expected)),
        wl.bqst_op("bqst", b, b.expected),
        wl.bqst_op("bqst-perturbed", b, perturbed(b.expected)),
    ]
    samples: list = []
    run.run_ops(ops, samples)
    for s in samples:
        expect_ok = not s.kind.endswith("-perturbed")
        check(s.ok == expect_ok, f"{s.kind}: ok={s.ok}, expected {expect_ok}")

    def make(kind, rng):
        inp = wl.wang_input(4, 3, rng)
        bad = kind == "wang-bad"
        return wl.wang_op(kind, inp, perturbed(inp.expected) if bad else inp.expected)

    workload = wl.InProcessWorkload((("wang-good", 3), ("wang-bad", 1)), make,
                                    warmup=(), traced_cycles=1)
    workload.setup(SEED, run.OUT)
    samples, metrics, _ = run.timed_run(args_for("wang-ladder", 0), workload, min_ops=1)
    check([s.kind for s in samples if not s.ok] == ["wang-bad"],
          "the perturbed operation was not the one failure")
    check(metrics["success_ratio"][0] == 0.75, "success_ratio ignored the failure")
    good_ms = sorted(1e3 * s.seconds for s in samples if s.kind == "wang-good")
    check(metrics["latency_p50_ms"][0] == run.percentile(good_ms, 0.5),
          "the failed operation was timed as a success")
    good_s = statistics.median(s.seconds for s in samples if s.kind == "wang-good")
    check(math.isclose(metrics["ops_per_s"][0], 1 / good_s, rel_tol=1e-12),
          "ops_per_s counted the failure")
    check(math.isclose(metrics["branches_per_s"][0], 9 / good_s, rel_tol=1e-12),
          "branches_per_s counted the failure")


def test_metric_names_and_units() -> dict:
    expected = {
        0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
    }
    traced = {}
    for name, workload in tiny_workloads().items():
        workload.setup(SEED, _fresh(run.OUT / f"smoke-{name}"))
        _, metrics, _ = run.timed_run(args_for(name, 0), workload, min_ops=1)
        got = {k: unit for k, (_, unit) in metrics.items()}
        check(got == expected[0], f"{name}: timed metrics {sorted(got)} != BENCHMARK.json")
        samples, metrics, _ = run.traced_run(args_for(name, 1), workload)
        check(all(s.ok for s in samples), f"{name}: a traced operation failed")
        got = {k: unit for k, (_, unit) in metrics.items()}
        check(got == expected[1], f"{name}: traced metrics {sorted(got)} != BENCHMARK.json")
        traced[name] = metrics
        shutil.rmtree(run.OUT / f"smoke-{name}")
    return traced


def test_counts_repeat(first: dict) -> None:
    for name, workload in tiny_workloads().items():
        workload.setup(SEED, _fresh(run.OUT / f"smoke-{name}"))
        _, again, _ = run.traced_run(args_for(name, 1), workload)
        for metric, (value, unit) in first[name].items():
            if unit == "count":
                check(again[metric][0] == value,
                      f"{name}: {metric} {value} then {again[metric][0]}")
        shutil.rmtree(run.OUT / f"smoke-{name}")


def test_result_line_and_bare_directory(scratch: Path) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "group-bqst",
           "--seed", str(SEED), "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, "group-bqst failed")
    for metric in result["metrics"].values():
        check(set(metric) == {"value", "unit"}, f"metric keys {sorted(metric)}")

    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=180)
    check(proc.returncode != 0, "run.py succeeded without the qremote sources")
    check("correct" not in proc.stdout, "run.py printed a result without sources")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    scratch = _fresh(run.OUT / "smoke")
    try:
        test_generation_is_deterministic(scratch)
        print("ok: generation is deterministic")
        print("checking perturbed oracles; the 4 failures reported next are expected",
              flush=True)
        test_perturbed_oracle_is_a_failure()
        print("ok: a perturbed oracle vector is counted as a failure")
        traced = test_metric_names_and_units()
        print("ok: every metric is emitted with its unit")
        test_counts_repeat(traced)
        print("ok: per-layer counts repeat exactly")
        test_result_line_and_bare_directory(scratch)
        print("ok: result line keys; bare directory exits non-zero")
    except SmokeFailure as exc:
        print(f"FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
