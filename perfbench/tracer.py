"""Spans and counters around dualcast's layer functions, recorded from outside.

Tracer.install replaces each layer function in the dualcast module that calls
it (planner, recolor, nccode, flow) with a wrapper that records a span: name,
start, end, parent span and instance id. Nothing in the package changes, and
an untraced run installs nothing. Spans live in flat arrays in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name). A function imported by several modules is
# wrapped in each of them, under one span name.
LAYER_CALLS = (
    ("flow", "max_flow", "flow.max_flow"),
    ("recolor", "max_flow", "flow.max_flow"),
    ("nccode", "max_flow", "flow.max_flow"),
    ("recolor", "decompose_paths", "flow.decompose_paths"),
    ("nccode", "decompose_paths", "flow.decompose_paths"),
    ("planner", "build_augmented", "augment.build_augmented"),
    ("recolor", "build_augmented", "augment.build_augmented"),
    ("planner", "remove_edges", "netgraph.remove_edges"),
    ("recolor", "remove_edges", "netgraph.remove_edges"),
    ("planner", "check_feasibility", "planner.check_feasibility"),
    ("planner", "symmetric_pass", "recolor.symmetric_pass"),
    ("recolor", "single_pass", "recolor.single_pass"),
    ("recolor", "run_to_fixpoint", "recolor.run_to_fixpoint"),
    ("planner", "build_multicast_code", "nccode.build_multicast_code"),
    ("planner", "apply_code", "nccode.apply_code"),
)

# Per-layer metrics, in the order they are reported: (name, unit).
SPAN_METRICS = (
    ("flow.max_flow.calls", "count"),
    ("flow.max_flow.busy_s", "s"),
    ("flow.max_flow.value_sum", "count"),
    ("flow.max_flow.multi_sink_calls", "count"),
    ("flow.max_flow.multi_sink_busy_s", "s"),
    ("flow.decompose_paths.calls", "count"),
    ("flow.decompose_paths.busy_s", "s"),
    ("augment.build_augmented.calls", "count"),
    ("augment.build_augmented.busy_s", "s"),
    ("netgraph.remove_edges.calls", "count"),
    ("netgraph.remove_edges.busy_s", "s"),
    ("recolor.run_to_fixpoint.calls", "count"),
    ("recolor.run_to_fixpoint.busy_s", "s"),
    ("recolor.steps", "count"),
    ("recolor.single_pass.self_s", "s"),
    ("nccode.build_multicast_code.busy_s", "s"),
    ("nccode.build_multicast_code.self_s", "s"),
    ("nccode.rank_checks", "count"),
    ("nccode.accept_ratio", "ratio"),
    ("nccode.escalations", "count"),
    ("nccode.field_bits.max", "bits"),
    ("nccode.support_edges", "count"),
    ("nccode.apply_code.calls", "count"),
    ("nccode.apply_code.busy_s", "s"),
    ("planner.synthesize.self_s", "s"),
    ("planner.check_feasibility.busy_s", "s"),
    ("planner.verify_plan.busy_s", "s"),
    ("planner.verify_plan.self_s", "s"),
    ("planner.verify_plan.symbols", "count"),
    ("cli.network_from_dict.busy_s", "s"),
    ("cli.dump_plan.busy_s", "s"),
    ("cli.plan_from_dict.busy_s", "s"),
    ("cli.plan_bytes", "bytes"),
)


class Tracer:
    """Records spans and counters; one pass of a workload at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.instance = array("l")
        self._stack = [-1]
        self.current_instance = -1
        self.counters: Counter = Counter()
        self.pass_bounds: list[tuple[int, int]] = []
        self.pass_counters: list[Counter] = []
        self._pass_lo = 0
        self.multi_sink_spans: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        """fn with a span around each call; observe(args, kwargs, result, span) adds counts."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.instance.append(self.current_instance)
            self.end.append(0)
            self._stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result, i)
            return result

        return traced

    def _inside(self, name: str) -> bool:
        top = self._stack[-1]
        return top >= 0 and self.names[self.name[top]] == name

    def install(self, modules) -> None:
        """Wrap the layer functions where the dualcast modules import them.

        modules maps a module's short name ("flow", "planner", ...) to the module.
        """
        observers = {
            "flow.max_flow": self._observe_max_flow,
            "recolor.run_to_fixpoint": self._observe_fixpoint,
            "nccode.build_multicast_code": self._observe_code,
        }
        for module, attr, name in LAYER_CALLS:
            fn = getattr(modules[module], attr)
            setattr(modules[module], attr, self.wrap(fn, name, observers.get(name)))

        nccode = modules["nccode"]
        get_field = nccode.get_field
        mat_inv = nccode.GF.mat_inv

        def counted_get_field(*args, **kwargs):
            if self._inside("nccode.build_multicast_code"):
                self.counters["nccode.field_lookups"] += 1
            return get_field(*args, **kwargs)

        def counted_mat_inv(*args, **kwargs):
            self.counters["nccode.rank_checks"] += 1
            return mat_inv(*args, **kwargs)

        nccode.get_field = counted_get_field
        nccode.GF.mat_inv = counted_mat_inv

    def _observe_max_flow(self, args, kwargs, result, span) -> None:
        self.counters["flow.max_flow.value_sum"] += result.value
        sinks = args[2] if len(args) > 2 else kwargs["sinks"]
        if len(sinks) > 1:
            self.multi_sink_spans.add(span)

    def _observe_fixpoint(self, args, kwargs, result, span) -> None:
        self.counters["recolor.steps"] += len(result[1].steps)

    def _observe_code(self, args, kwargs, result, span) -> None:
        self.counters["nccode.builds"] += 1
        self.counters["nccode.codes"] += result.h0 > 0
        self.counters["nccode.support_edges"] += len(result.support)
        bits = self.counters["nccode.field_bits.max"]
        self.counters["nccode.field_bits.max"] = max(bits, result.field_bits)

    def begin_pass(self) -> None:
        self._pass_lo = len(self.start)
        self.counters = Counter()

    def end_pass(self) -> None:
        self.pass_bounds.append((self._pass_lo, len(self.start)))
        self.pass_counters.append(self.counters)

    # ------------------------------------------------------------------
    # Aggregation, once the traced passes are done.

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def check_nesting(self, own: array, root: str) -> list[str]:
        """Spans that break nesting: a negative self time, or a `root` span
        whose subtree's self times do not add up to its duration, in ns."""
        problems = [f"span {i} ({self.names[self.name[i]]}) has negative self time"
                    for i, t in enumerate(own) if t < 0][:5]
        subtree = array("q", own)
        for i in range(len(subtree) - 1, -1, -1):  # children come after parents
            p = self.parent[i]
            if p >= 0:
                subtree[p] += subtree[i]
        rid = self._ids.get(root)
        for i, nid in enumerate(self.name):
            if nid == rid and subtree[i] != self.end[i] - self.start[i]:
                problems.append(f"{root} span {i}: self times sum to {subtree[i]} ns, "
                                f"duration is {self.end[i] - self.start[i]} ns")
                break
        return problems

    def per_pass(self, own: array, speed) -> list[dict[str, float]]:
        """Calls, busy and self seconds per span name, and the counters, per pass.

        Times are at the reference speed: each span is scaled by speed.factor.
        """
        out = []
        for (lo, hi), counters in zip(self.pass_bounds, self.pass_counters):
            calls: Counter = Counter()
            busy: Counter = Counter()
            self_ns: Counter = Counter()
            multi_calls = multi_busy = 0
            for i in range(lo, hi):
                name = self.names[self.name[i]]
                factor = speed.factor((self.start[i] + self.end[i]) // 2)
                calls[name] += 1
                busy[name] += (self.end[i] - self.start[i]) * factor
                self_ns[name] += own[i] * factor
                if i in self.multi_sink_spans:
                    multi_calls += 1
                    multi_busy += (self.end[i] - self.start[i]) * factor
            row: dict[str, float] = {}
            for name in calls:
                row[f"{name}.calls"] = calls[name]
                row[f"{name}.busy_s"] = busy[name] / 1e9
                row[f"{name}.self_s"] = self_ns[name] / 1e9
            row["flow.max_flow.multi_sink_calls"] = multi_calls
            row["flow.max_flow.multi_sink_busy_s"] = multi_busy / 1e9
            row.update(counters)
            row["nccode.escalations"] = counters["nccode.field_lookups"] - counters["nccode.builds"]
            row["nccode.accept_ratio"] = (
                counters["nccode.codes"] / counters["nccode.rank_checks"]
                if counters["nccode.rank_checks"] else 0.0
            )
            out.append(row)
        return out

    def group_breakdown(self, group_of, speed) -> dict:
        """Per group (ladder rung, sweep kind, ...): |E| and median call times.

        group_of maps an instance id to (group, edge count). Times are at the
        reference speed.
        """
        wanted = {
            "api.check_feasibility": "check_ms",
            "planner.synthesize": "synthesize_ms",
            "planner.verify_plan": "verify_ms",
        }
        times: dict[str, dict[str, list[int]]] = {}
        flow_ns: Counter = Counter()
        flow_calls: Counter = Counter()
        edges: dict[str, int] = {}
        instances: dict[str, set[int]] = {}
        for i, nid in enumerate(self.name):
            inst = self.instance[i]
            group, n_edges = group_of(inst)
            edges[group] = max(edges.get(group, 0), n_edges)
            instances.setdefault(group, set()).add(inst)
            name = self.names[nid]
            took = speed.scale(self.start[i], self.end[i] - self.start[i])
            if name in wanted:
                times.setdefault(group, {}).setdefault(wanted[name], []).append(took)
            elif name == "flow.max_flow":
                flow_ns[group] += took
                flow_calls[group] += 1
        n_passes = max(1, len(self.pass_bounds))
        return {
            group: {
                "edges": edges[group],
                "instances_per_pass": len(instances[group]) / n_passes,
                **{k: statistics.median(v) / 1e6 for k, v in times.get(group, {}).items()},
                "max_flow_calls_per_pass": flow_calls[group] / n_passes,
                "max_flow_busy_s_per_pass": flow_ns[group] / 1e9 / n_passes,
            }
            for group in sorted(edges, key=lambda g: (edges[g], g))
        }

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: a header, then [name, start, end, parent, instance]."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "pass_bounds": self.pass_bounds,
                                  "fields": ["name", "start_ns", "end_ns", "parent", "instance"]}))
            out.write("\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.instance):
                out.write(json.dumps(row))
                out.write("\n")
