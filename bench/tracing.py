"""Span tracing around the public entry points of each commensurate layer.

The tracer patches each function or method at the name its callers look
it up by (``cli`` imports ``evaluate`` and ``run_model_suite`` by name;
the engine finds group operations on the pair's class) and records one
span per call.  Spans are aggregated as they close rather than kept: per
span name a call count, total time and self time, and per
(grandparent, parent, name) path a call count.  A span's self time is
its duration minus the time its child spans cover, so the tree is
folded on the fly and memory stays flat across the millions of group
operations a deep run makes.

The tracer's own bookkeeping is charged to no span: each parent is
credited with the full wall time of its children's wrappers.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from weakref import WeakKeyDictionary


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.paths = defaultdict(int)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = [["<root>", 0.0]]
        self._patches = []

    def wrap(self, owner, attr: str, span: str, after=None) -> None:
        """Replace ``owner.attr`` with a traced version.

        ``after(args, result)`` runs once the call returns, outside every
        span, to record counts read from arguments or results.
        """
        original = vars(owner)[attr]
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            enter = perf_counter()
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                close(frame, perf_counter() - start, type(exc).__name__)
                stack[-1][1] += perf_counter() - enter
                raise
            close(frame, perf_counter() - start, None)
            if after is not None:
                after(args, result)
            stack[-1][1] += perf_counter() - enter
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _close(self, frame, duration: float, error) -> None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        grandparent = stack[-2][0] if len(stack) > 1 else None
        self.paths[(grandparent, stack[-1][0], name)] += 1
        if error is not None:
            self.errors[(name, error)] += 1

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def path_calls(self, parent=None, name=None, grandparent=None) -> int:
        """Calls summed over the paths matching every given component."""
        return sum(
            n for (g, p, s), n in self.paths.items()
            if (grandparent is None or g == grandparent)
            and (parent is None or p == parent)
            and (name is None or s == name)
        )


CORE_OPS = {
    "__mul__": "mul",
    "inverse": "inverse",
    "valuation": "valuation",
    "right_rep": "right_rep",
    "eq_at_depth": "eq_at_depth",
}
GROUP_OPS = ("mul", "inv", "in_level", "conj_depth")


def _node_count(node) -> int:
    """AST size: nodes are dataclasses whose children sit in base/factors/arg."""
    count, todo = 0, [node]
    while todo:
        node = todo.pop()
        count += 1
        for attr in ("base", "arg"):
            child = getattr(node, attr, None)
            if child is not None:
                todo.append(child)
        todo.extend(getattr(node, "factors", ()))
    return count


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the commensurate package."""
    from commensurate import bs12, cli, core, expr, finitemodel, integers, oracle, registry, sl2

    tracer.wrap(cli, "entry", "cli.entry")
    for attr in ("resolve_instance", "resolve_target"):
        tracer.wrap(cli, attr, f"registry.{attr}")
    tracer.wrap(cli, "evaluate", "expr.evaluate")

    def count_nodes(args, tree):
        tracer.counters["expr.nodes"] += _node_count(tree)

    tracer.wrap(expr, "parse_expression", "expr.parse", count_nodes)

    def count_report(args, report):
        tracer.counters["oracle.trials"] += report.trials
        tracer.counters["oracle.mismatches"] += len(report.mismatches)

    tracer.wrap(cli, "run_model_suite", "oracle.suite", count_report)
    tracer.wrap(oracle, "compare_engine", "oracle.compare")
    tracer.wrap(oracle, "enumerate_completion", "oracle.enumerate")
    for module in (cli, registry):
        tracer.wrap(module, "load_model", "finitemodel.load")
        tracer.wrap(module, "finite_model_pair", "finitemodel.load")

    tracer.wrap(core.CommensuratedPair, "embed", "core.embed")
    for attr, op in CORE_OPS.items():
        tracer.wrap(core.CompletionElement, attr, f"core.{op}")

    seen = WeakKeyDictionary()

    def count_conj_keys(args, result):
        pair, g, depth = args
        keys = seen.setdefault(pair, set())
        if (g, depth) not in keys:
            keys.add((g, depth))
            tracer.counters["finitemodel.conj_depth_distinct"] += 1

    for cls, layer in (
        (integers.IntegerChainPair, "integers"),
        (bs12.BS12Pair, "bs12"),
        (sl2.SL2Pair, "sl2"),
        (finitemodel.FiniteModelPair, "finitemodel"),
    ):
        for op in GROUP_OPS:
            hook = count_conj_keys if cls is finitemodel.FiniteModelPair and op == "conj_depth" else None
            tracer.wrap(cls, op, f"{layer}.{op}", hook)


def layer_metrics(tracer: Tracer, out_bytes: int, overhead_frac: float) -> dict:
    """Per-layer metric values (name -> (value, unit)) from a traced run."""
    ms = 1000.0
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time
    out = {}
    for op in ("mul", "inverse", "valuation", "right_rep", "eq_at_depth", "embed"):
        out[f"core.{op}_calls"] = (calls[f"core.{op}"], "count")
    for op in ("mul", "inverse", "valuation", "right_rep"):
        out[f"core.{op}_self_ms"] = (self_time[f"core.{op}"] * ms, "ms")
    out["core.precision_exhausted"] = (
        sum(n for (name, err), n in tracer.errors.items()
            if name.startswith("core.") and err == "PrecisionExhausted"),
        "count",
    )
    layers = ("integers", "bs12", "sl2", "finitemodel")
    ops = calls["core.mul"] + calls["core.inverse"]
    searches = sum(
        tracer.path_calls(parent=f"core.{op}", name=f"{layer}.conj_depth")
        for op in ("mul", "inverse") for layer in layers
    )
    out["core.conj_depth_per_op"] = (searches / ops if ops else 0.0, "count/op")
    scans = sum(
        tracer.path_calls(grandparent="core.valuation", parent="core.eq_at_depth",
                          name=f"{layer}.in_level")
        for layer in layers
    )
    vals = calls["core.valuation"]
    out["core.in_level_per_valuation"] = (scans / vals if vals else 0.0, "count/op")
    for layer in layers:
        for op in GROUP_OPS:
            out[f"{layer}.{op}_calls"] = (calls[f"{layer}.{op}"], "count")
            out[f"{layer}.{op}_ms"] = (total[f"{layer}.{op}"] * ms, "ms")
    conj = calls["finitemodel.conj_depth"]
    distinct = tracer.counters["finitemodel.conj_depth_distinct"]
    out["finitemodel.conj_depth_distinct_frac"] = (distinct / conj if conj else 0.0, "frac")
    out["finitemodel.load_ms"] = (total["finitemodel.load"] * ms, "ms")
    out["expr.parse_ms"] = (total["expr.parse"] * ms, "ms")
    out["expr.nodes"] = (tracer.counters["expr.nodes"], "count")
    out["expr.eval_self_ms"] = (self_time["expr.evaluate"] * ms, "ms")
    out["expr.exact_muls"] = (
        sum(tracer.path_calls(parent="expr.evaluate", name=f"{layer}.mul") for layer in layers),
        "count",
    )
    out["cli.self_ms"] = (self_time["cli.entry"] * ms, "ms")
    out["cli.out_bytes"] = (out_bytes, "bytes")
    out["registry.resolve_ms"] = (
        (self_time["registry.resolve_instance"] + self_time["registry.resolve_target"]) * ms,
        "ms",
    )
    out["oracle.suite_self_ms"] = (self_time["oracle.suite"] * ms, "ms")
    out["oracle.compare_ms"] = (self_time["oracle.compare"] * ms, "ms")
    out["oracle.enumerate_ms"] = (total["oracle.enumerate"] * ms, "ms")
    out["oracle.trials"] = (tracer.counters["oracle.trials"], "count")
    out["oracle.mismatches"] = (tracer.counters["oracle.mismatches"], "count")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out
