"""Span tracer for the traced run, installed from outside the program.

`Tracer.install` replaces public functions of the qremote modules with
wrappers, by assigning module attributes. Code in `src/` calls across
modules through module attributes (`qcore.apply_local`, `wang.recovery` in
a lambda), and a module attribute is the module's global, so calls inside a
module are seen too. `uninstall` puts the originals back.

Each call becomes a span (name, start, end, parent) kept in memory; `dump`
writes them at the end. A function's self time is its span's duration minus
the durations of its direct child spans. There is no queue and no
concurrency in qremote (one caller, one call in flight), so no layer ever
waits and no waiting time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# module -> public functions wrapped in the traced run
TRACED = {
    "qcore": ("apply_local", "measure_computational", "is_unitary",
              "factor_state", "factor_overlap"),
    "locc": ("run_protocol",),
    "wang": ("validate_partition", "assemble", "recovery", "run_wang"),
    "groupform": ("finite_group", "projective_rep", "block_decomposition",
                  "coefficients_from_unitary", "z_gate", "mixer",
                  "run_group_protocol"),
    "entcost": ("operator_rank", "feasibility_test", "compare_costs",
                "bqst_teleport"),
    "cli": ("main", "load_problem", "cmd_run", "cmd_cost", "cmd_trace"),
}
LAYERS = ("cli", "wang", "groupform", "entcost", "locc", "qcore", "import")
RENDER = ("cli.cmd_run", "cli.cmd_cost", "cli.cmd_trace")


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.import_ms: list[float] = []   # import paid inside traced CLI calls
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"qremote.{module_name}")
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{module_name}.{name}", original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        spans, stack, count = self.spans, self._stack, self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (span_name, start, time.perf_counter(), parent)
                stack.pop()
            count(span_name, args, result)
            return result

        return traced

    def _count(self, span_name: str, args, result) -> None:
        if span_name == "qcore.measure_computational":
            state, target = args[0], args[1]
            self.counts["outcomes_enumerated"] += state.factor_dims[target]
            self.counts["outcomes_kept"] += len(result)
        elif span_name == "locc.run_protocol":
            self.counts["branches"] += len(result)

    def by_function(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[code[n], a, b, p] for n, a, b, p in self.spans],
            "counts": dict(self.counts),
            "import_ms": self.import_ms,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    def absorb(self, path) -> None:
        """Merge what a traced child process dumped."""
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        base = len(self.spans)
        names = doc["names"]
        self.spans.extend(
            (names[n], a, b, p + base if p >= 0 else -1) for n, a, b, p in doc["spans"]
        )
        self.counts.update(doc["counts"])
        self.import_ms.extend(doc["import_ms"])


def layer_metrics(tracer: Tracer, traced_op_s: float, untraced_op_s: float,
                  import_probe_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, name -> (value, unit)."""
    funcs = tracer.by_function()

    def calls(name):
        return float(funcs.get(name, (0, 0.0))[0])

    def self_ms(*names):
        return 1e3 * sum(funcs.get(n, (0, 0.0))[1] for n in names)

    out = {}
    for name in ("qcore.apply_local", "qcore.measure_computational",
                 "qcore.factor_state", "wang.recovery", "entcost.operator_rank"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("qcore.is_unitary", "groupform.z_gate", "groupform.mixer",
                 "entcost.feasibility_test"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("qcore.factor_overlap", "locc.run_protocol",
                 "wang.validate_partition", "wang.assemble", "wang.run_wang",
                 "groupform.projective_rep", "groupform.coefficients_from_unitary",
                 "groupform.run_group_protocol", "entcost.bqst_teleport",
                 "cli.load_problem"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out["cli.render.self_ms"] = (self_ms(*RENDER), "ms")

    enumerated = tracer.counts["outcomes_enumerated"]
    out["qcore.outcomes_enumerated"] = (float(enumerated), "count")
    out["qcore.outcomes_kept_ratio"] = (
        tracer.counts["outcomes_kept"] / enumerated if enumerated else 0.0, "ratio"
    )
    out["locc.branches"] = (float(tracer.counts["branches"]), "count")
    out["import.qremote_ms"] = (import_probe_ms, "ms")

    layer_ms = defaultdict(float)
    for name, (_, seconds) in funcs.items():
        layer_ms[name.split(".")[0]] += 1e3 * seconds
    layer_ms["import"] = sum(tracer.import_ms)
    traced_ms = 1e3 * traced_op_s
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_ms[layer] / traced_ms if traced_ms else 0.0, "ratio")
    out["trace_overhead_ratio"] = (
        traced_op_s / untraced_op_s if untraced_op_s else 0.0, "ratio"
    )
    return out
