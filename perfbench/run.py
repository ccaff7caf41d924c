"""qremote benchmark: certified-branch throughput, latency, memory and set-up.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {wang-ladder,group-bqst,cli-mix} \\
        --seed N --seconds S --trace {0,1}

The package is imported from `src/` of the checkout; without it the run
exits with code 2 and prints no result. Workloads, metrics and the
layer -> metric -> workload map are described in perfbench/README.md.

With `--trace 0` the run loops over whole cycles of its workload, one
operation in flight, until at least S seconds have passed and at least
MIN_OPS operations were made, and reports the end-to-end metrics. With
`--trace 1` it runs a fixed number of cycles, each operation twice, once
plain and once with the span tracer installed, and reports the per-layer
metrics; the fixed amount of work makes every count repeat exactly for a
given seed.

Every operation is checked against an independent oracle before it counts
as a success; a failed one is counted in `failed`, never timed as a success.
The last line of standard output is the JSON result. A record with the
machine facts, the per-kind sample counts and the metrics is also written to
.perfbench_out/ in the checkout.
"""

import os

# One BLAS/OpenMP thread for this process and every child it starts, so
# the load stays steady on a small shared machine. Set before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 100            # at least ten samples beyond p90
MAX_LOOP_S = 120.0       # a run stops here even short of MIN_OPS
SETUP_PROBES = 9         # fresh processes whose set-up time is the median
IMPORT_PROBES = 5        # fresh interpreters timing `import qremote`
PROBE_TIMEOUT_S = 120.0
MAX_REPORTED_ERRORS = 5


@dataclass(frozen=True)
class Sample:
    kind: str
    seconds: float
    ok: bool
    branches: int


def run_ops(ops, samples: list) -> None:
    """Run each operation, then check it; only checked results count as ok."""
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
            elapsed = time.perf_counter() - start
            branches = op.check(result)
            if op.collect is not None:
                op.collect()
            samples.append(Sample(op.kind, elapsed, True, branches))
        except Exception:  # the op boundary: record the failure, keep running
            elapsed = time.perf_counter() - start
            failures = sum(not s.ok for s in samples)
            if failures < MAX_REPORTED_ERRORS:
                print(f"operation {op.kind} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            samples.append(Sample(op.kind, elapsed, False, 0))
        result = None


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def probe_setup(args) -> float:
    """Seconds from spawning a fresh benchmark process to its first timed op.

    time.monotonic() is CLOCK_MONOTONIC on Linux, one clock for all
    processes, so the child can subtract the spawn time it is handed.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(lines[1])


def probe_import_ms(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import qremote; "
            "print(1e3 * (time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
                              check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def kind_summary(samples) -> dict:
    kinds: dict = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s)
    return {
        kind: {
            "ops": len(group),
            "failed": sum(not s.ok for s in group),
            "median_ms": 1e3 * statistics.median(s.seconds for s in group),
        }
        for kind, group in kinds.items()
    }


def median_throughput(samples, cycles: int) -> tuple[float, float]:
    """Operations and verified branches per second of a median cycle.

    Every cycle is the same mix of kinds, so a cycle's time is rebuilt from
    each kind's median latency times its count per cycle. A disturbed
    operation, or a whole disturbed cycle, then moves neither rate.
    """
    kinds: dict = {}
    for s in samples:
        if s.ok:
            kinds.setdefault(s.kind, []).append(s)
    ops = branches = busy = 0.0
    for group in kinds.values():
        per_cycle = len(group) / cycles
        ops += per_cycle
        branches += per_cycle * statistics.median(s.branches for s in group)
        busy += per_cycle * statistics.median(s.seconds for s in group)
    if busy == 0.0:
        return 0.0, 0.0
    return ops / busy, branches / busy


def timed_run(args, workload, min_ops=MIN_OPS) -> tuple[list, dict, dict]:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    samples: list = []
    setups: list = []
    probe_s = 0.0       # time in set-up probes, left out of the loop's length
    cycles = 0
    start = time.perf_counter()
    while True:
        run_ops(workload.cycle(cycles), samples)
        cycles += 1
        if cycles == 1:
            # Peak over set-up and the first cycle only: allocator state
            # drifts over later cycles, and their number depends on speed.
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start - probe_s
        # Set-up probes are spread over the run, between cycles, so their
        # median sees the same host as the operations do.
        due = SETUP_PROBES * min(1.0, elapsed / args.seconds) if args.seconds else 0
        while len(setups) < due:
            probe_start = time.perf_counter()
            setups.append(probe_setup(args))
            probe_s += time.perf_counter() - probe_start
        if elapsed >= args.seconds and len(samples) >= min_ops:
            break
        if elapsed >= MAX_LOOP_S:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args))

    ok_ms = sorted(1e3 * s.seconds for s in samples if s.ok)
    ops_per_s, branches_per_s = median_throughput(samples, cycles)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "branches_per_s": (branches_per_s, "1/s"),
        "latency_p50_ms": (percentile(ok_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(ok_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_ratio": (len(ok_ms) / len(samples), "ratio"),
    }
    extra = {
        "cycles": cycles,
        "loop_wall_s": elapsed,
        "setup_probes_s": setups,
        "latency_samples": len(ok_ms),
        "samples_beyond_p90": sum(x > metrics["latency_p90_ms"][0] for x in ok_ms),
    }
    return samples, metrics, extra


def traced_run(args, workload) -> tuple[list, dict, dict]:
    tracer = Tracer()
    plain: list = []
    traced: list = []
    for index in range(workload.traced_cycles):
        pairs = zip(workload.cycle(index), workload.cycle(index, tracer))
        for position, (plain_op, traced_op) in enumerate(pairs):
            # Each operation runs plain and traced back to back; which goes
            # first alternates, so warm caches favour neither side.
            runs = [(plain_op, plain), (traced_op, traced)]
            for op, samples in runs if position % 2 == 0 else reversed(runs):
                if samples is traced and workload.in_process:
                    tracer.install()
                try:
                    run_ops([op], samples)
                finally:
                    tracer.uninstall()
    import_ms = probe_import_ms(workloads.child_env(SRC))
    metrics = layer_metrics(
        tracer,
        sum(s.seconds for s in traced),
        sum(s.seconds for s in plain),
        import_ms,
    )
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    extra = {"cycles": workload.traced_cycles, "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return plain + traced, metrics, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wang-ladder", "group-bqst", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)   # spawn time on time.monotonic()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qremote" / "__init__.py").is_file():
        print(f"error: no qremote package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.by_name(SRC, HERE / "cli_child.py")[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.setup(args.seed, workdir)
        if args.setup_probe is not None:
            print("READY", time.monotonic() - args.setup_probe, flush=True)
            return 0
        run = traced_run if args.trace else timed_run
        samples, metrics, extra = run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not s.ok for s in samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": len(samples), "failed": failed,
        "failure_ratio": failed / len(samples),
        "kinds": kind_summary(samples), **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(record['environment'])}")
    print(f"# attempted={len(samples)} failed={failed} "
          f"failure_ratio={record['failure_ratio']} "
          + " ".join(f"{k}={v}" for k, v in extra.items()))
    for kind, info in record["kinds"].items():
        print(f"#   {kind}: {info}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
