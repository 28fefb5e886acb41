"""Spans and counters around the library's layer boundaries.

``install`` replaces each traced function with a wrapper in every
namespace that holds it (the defining module, the modules that import
it by name, and the package), so calls are caught where their callers
look them up. The wrappers record nothing while no operation is open,
which keeps reference checks made between operations out of the trace.

A span is (name, start, end, parent, operation). Spans stay in memory,
in flat arrays, until the run ends; ``Tracer.layer_metrics`` then
derives inclusive and self times from them. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("graph", "schema", "frontend", "semantics", "control_flow", "tape", "executor", "pipeline")

# Functions timed as spans, by layer.
SPANS = {
    "pipeline": ("check_program", "execute_program", "make_executable"),
    "frontend": ("parse_text", "lex", "parse_program", "to_canonical", "render_program"),
    "semantics": ("classify", "check_alphabet", "check_labels", "link_is_declared_at"),
    "control_flow": (
        "add_stop_node",
        "build_back_arrows",
        "build_control",
        "check_reachability",
        "check_next_acyclic",
    ),
    "tape": ("parse_tape", "chain_text"),
    "executor": ("install_instructions", "initialize", "run", "step"),
    "graph": ("resolve", "eval_proposition", "apply_action", "normal_violation"),
    "schema": ("generate_sytr",),
}

# Inclusive span times reported as per-layer metrics: metric -> span name.
SPAN_METRICS = {
    "frontend.lex_ms": "frontend.lex",
    "frontend.parse_ms": "frontend.parse_program",
    "frontend.to_canonical_ms": "frontend.to_canonical",
    "frontend.render_ms": "frontend.render_program",
    "semantics.classify_ms": "semantics.classify",
    "semantics.check_alphabet_ms": "semantics.check_alphabet",
    "semantics.check_labels_ms": "semantics.check_labels",
    "semantics.link_ms": "semantics.link_is_declared_at",
    "control_flow.stop_node_ms": "control_flow.add_stop_node",
    "control_flow.back_arrows_ms": "control_flow.build_back_arrows",
    "control_flow.build_control_ms": "control_flow.build_control",
    "control_flow.reachability_ms": "control_flow.check_reachability",
    "control_flow.next_acyclic_ms": "control_flow.check_next_acyclic",
    "pipeline.check_program_ms": "pipeline.check_program",
    "executor.install_ms": "executor.install_instructions",
    "executor.initialize_ms": "executor.initialize",
    "executor.run_ms": "executor.run",
    "tape.parse_tape_ms": "tape.parse_tape",
    "tape.chain_text_ms": "tape.chain_text",
    "graph.resolve_ms": "graph.resolve",
    "graph.eval_proposition_ms": "graph.eval_proposition",
    "graph.apply_action_ms": "graph.apply_action",
    "graph.normal_violation_ms": "graph.normal_violation",
    "schema.generate_ms": "schema.generate_sytr",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._stack.clear()

    def _span(self, name: str, fn, on_result=None, on_error=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = clock()
                stack.pop()
                if on_error is not None:
                    on_error()
                raise
            ends[index] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                on_result(result)
            return result

        return wrapper

    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` in every wordtree namespace holding it."""
        for module_name in ("wordtree",) + tuple(f"wordtree.{m}" for m in LAYERS):
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    # -- installation -----------------------------------------------

    def install(self) -> None:
        counts = self.counts

        def add(key, amount=1):
            counts[key] += amount

        on_result = {
            "frontend.lex": lambda tokens: add("frontend.tokens", len(tokens)),
            "frontend.parse_program": lambda tree: add("frontend.tree_nodes", tree.graph.node_count),
            "semantics.check_alphabet": lambda _: add("semantics.check_calls"),
            "semantics.check_labels": lambda _: add("semantics.check_calls"),
            "control_flow.build_back_arrows": lambda n: add("control_flow.control_arrows", n),
            "control_flow.build_control": lambda c: add("control_flow.control_arrows", sum(c.values())),
            "tape.chain_text": lambda text: (
                add("tape.chain_text_calls"),
                add("tape.cells_rendered", text.count(" ") + 1),
            ),
            "executor.run": self._count_run,
            "graph.resolve": lambda _: add("graph.resolve_calls"),
            "schema.generate_sytr": lambda tree: add("schema.tree_nodes", tree.graph.node_count),
        }
        on_error = {"frontend.parse_text": lambda: add("frontend.errors")}
        for layer, functions in SPANS.items():
            module = importlib.import_module(f"wordtree.{layer}")
            for function in functions:
                name = f"{layer}.{function}"
                original = getattr(module, function)
                wrapper = self._span(name, original, on_result.get(name), on_error.get(name))
                self._replace(original, wrapper)

        from wordtree.graph import LabeledGraph

        def scanned(full):
            def count(pairs):
                counts["graph.arrows_scanned"] += len(pairs)
                if full:
                    counts["graph.full_scans"] += 1

            return count

        for method, full in (("arrows", True), ("out_arrows", False), ("in_arrows", False)):
            original = getattr(LabeledGraph, method)
            self._restore.append((LabeledGraph, method, original))
            setattr(LabeledGraph, method, self._counter(original, scanned(full)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _count_run(self, result) -> None:
        self.counts["executor.steps"] += result.steps
        self.counts["executor.trace_entries"] += len(result.trace)
        self.counts["executor.trace_snapshot_bytes"] += sum(
            len(entry.tape) for entry in result.trace if entry.tape is not None
        )

    # -- analysis ---------------------------------------------------

    def span_times(self) -> tuple[list[float], list[float]]:
        """Per-span duration and self time, in seconds."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += durations[index]
        return durations, [d - c for d, c in zip(durations, covered)]

    def layer_metrics(self, op_lengths: dict[int, int], traced_op_s: float) -> dict[str, float]:
        """Per-layer metrics over every recorded operation.

        ``op_lengths`` maps an operation id to its tape length (for the
        executor's step-cost ratio); ``traced_op_s`` is the summed timed
        duration of the traced operations.
        """
        durations, selfs = self.span_times()
        inclusive: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        run_by_op: dict[int, float] = defaultdict(float)
        steps_by_op: dict[int, int] = defaultdict(int)
        run_id = self._name_ids.get("executor.run")
        step_id = self._name_ids.get("executor.step")
        for index, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            inclusive[name] += durations[index]
            layer_self[name.split(".", 1)[0]] += selfs[index]
            if name_id == run_id:
                run_by_op[self.span_op[index]] += durations[index]
            elif name_id == step_id:
                steps_by_op[self.span_op[index]] += 1

        c = self.counts
        ops = max(len(set(self.span_op)), 1)
        steps = c["executor.steps"]

        def per_step(key):
            return c[key] / steps if steps else 0.0

        metrics = {metric: inclusive[name] * 1e3 for metric, name in SPAN_METRICS.items()}
        front_s = inclusive["frontend.lex"] + inclusive["frontend.parse_program"]
        metrics.update(
            {
                "frontend.tokens": c["frontend.tokens"],
                "frontend.tokens_per_s": c["frontend.tokens"] / front_s if front_s else 0.0,
                "frontend.tree_nodes": c["frontend.tree_nodes"],
                "frontend.errors": c["frontend.errors"],
                "control_flow.control_arrows": c["control_flow.control_arrows"],
                "semantics.check_calls_per_op": c["semantics.check_calls"] / ops,
                "executor.steps": steps,
                "executor.step_us": inclusive["executor.run"] * 1e6 / steps if steps else 0.0,
                "executor.step_cost_ratio": _step_cost_ratio(run_by_op, steps_by_op, op_lengths),
                "executor.trace_entries": c["executor.trace_entries"],
                "executor.trace_snapshot_bytes": c["executor.trace_snapshot_bytes"],
                "graph.resolve_calls_per_step": per_step("graph.resolve_calls"),
                "graph.arrows_scanned_per_step": per_step("graph.arrows_scanned"),
                "graph.full_scans_per_step": per_step("graph.full_scans"),
                "tape.chain_text_calls_per_step": per_step("tape.chain_text_calls"),
                "tape.cells_rendered_per_step": per_step("tape.cells_rendered"),
                "schema.tree_nodes": c["schema.tree_nodes"],
            }
        )
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = layer_self[layer] * 1e3
        total_self = sum(layer_self.values())
        metrics["trace.self_coverage"] = total_self / traced_op_s if traced_op_s else 0.0
        metrics["trace.spans"] = len(self.span_name)
        return metrics

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for index, name_id in enumerate(self.span_name):
                out.write(
                    json.dumps(
                        {
                            "name": self.names[name_id],
                            "start": self.span_start[index],
                            "end": self.span_end[index],
                            "parent": self.span_parent[index],
                            "op": self.span_op[index],
                        }
                    )
                    + "\n"
                )


def _step_cost_ratio(run_by_op, steps_by_op, op_lengths) -> float:
    """Per-step time on the longest-tape quartile ÷ on the shortest quartile."""
    ops = sorted(
        (op for op in run_by_op if steps_by_op.get(op) and op in op_lengths),
        key=lambda op: op_lengths[op],
    )
    if len(ops) < 4:
        return 0.0
    quarter = len(ops) // 4

    def per_step(group):
        return sum(run_by_op[o] for o in group) / sum(steps_by_op[o] for o in group)

    return per_step(ops[-quarter:]) / per_step(ops[:quarter])

