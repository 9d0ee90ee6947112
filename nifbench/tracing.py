"""Runtime spans around nifcheck's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper under every
name its callers look it up by (``nifcheck.cli.check_locality``,
``TraceIndex.ta_labels``, ...).  A wrapped call becomes a span: name, start,
end, parent span and the id of the (input, property) it serves.  Functions
called once per trace (``trace_of``, ``select_violation_seq``,
``model.step``) are not spans; each keeps one call count and one total time,
which is charged to the enclosing span as child time.  Counters are read
from returned objects.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

# CLI property name -> function that ``run_checks`` dispatches it to.
PROPERTY_FUNCTIONS = {
    "ta": "check_ta_static_security",
    "mayta": "check_ta_may_security",
    "mustta": "check_ta_must_security",
    "unwinding": "check_unwinding_security",
    "locality": "check_locality",
    "static": "_static_verdict",
    "lpurge": "check_lpurge_security",
    "isec": "check_i_security",
    "drm": "_drm_verdict",
    "theorem-mustunwind": "_theorem_verdict",
}

# Spans: (metric stem, function, modules whose global names callers use).
# A method is given as "Class.method" and patched on the class.
SPANS = (
    ("cli.run_checks", "run_checks", ("cli",)),
    ("formats.parse", "parse_document", ("cli",)),
    ("formats.parse", "parse_cap_config", ("cli",)),
    ("capability.build_pes", "build_pes", ("cli", "capability")),
    ("access.interpretation", "capability_drm_interpretation", ("cli",)),
    ("access.interpretation", "ac_complete_construct", ("cli",)),
    ("access.check_drm", "check_drm", ("cli",)),
    ("traceindex.build", "TraceIndex.__init__", ("traceindex",)),
    ("traceindex.ta_labels", "TraceIndex.ta_labels", ("traceindex",)),
    ("traceindex.unwinding_roots", "TraceIndex.unwinding_roots", ("traceindex",)),
    ("unwinding.partition", "unwinding_partition", ("unwinding",)),
    ("unwinding.ta_must_labels", "ta_must_labels", ("unwinding",)),
    ("unwinding.theorem", "check_theorem_mustunwind", ("cli",)),
    ("trees.check_f_security", "check_f_security", ("trees",)),
    ("trees.partition", "partition_by", ("trees", "unwinding", "checkers")),
)

# Counters read from returned objects, summed over a pass.
COUNTERS = (
    "capability.states",
    "traceindex.builds",
    "traceindex.nodes",
    "traceindex.labels_interned",
    "traceindex.closure_sweeps",
    "traceindex.rule_dlr",
    "traceindex.rule_wsc",
)

# Per-trace functions, same layout as SPANS.
TALLIES = (
    ("traceindex.trace_of", "TraceIndex.trace_of", ("traceindex",)),
    ("trees.select_violation", "select_violation_seq", ("trees", "checkers")),
    ("model.step", "step", ("model", "checkers", "trees")),
)


class Tracer:
    """Spans, per-trace tallies and counters of one worker process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.tallies: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[dict] = []
        self._groups = 0
        self._pass_start = 0
        self._checkers_props = set()

    # ---- installation -------------------------------------------------

    def install(self, nifcheck) -> None:
        modules = {
            name: getattr(nifcheck, name)
            for name in ("cli", "capability", "traceindex", "unwinding", "trees", "checkers", "model")
        }
        hooks = {
            "traceindex.build": self._count_build,
            "traceindex.ta_labels": self._count_labels,
            "traceindex.unwinding_roots": self._count_rules,
            "capability.build_pes": self._count_states,
        }
        for stem, target, where in SPANS:
            self._patch(modules, target, where, lambda fn, s=stem: self._span(s, fn, hooks.get(s)))
        for stem, target, where in TALLIES:
            self._patch(modules, target, where, lambda fn, s=stem: self._tally(s, fn))
        cli = modules["cli"]
        for prop, target in PROPERTY_FUNCTIONS.items():
            fn = getattr(cli, target)
            if fn.__module__ == "nifcheck.checkers":
                self._checkers_props.add(prop)
            setattr(cli, target, self._span("property." + prop, fn, group=True))

    @staticmethod
    def _patch(modules, target: str, where, make: Callable) -> None:
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(modules[where[0]], cls_name)
            setattr(cls, attr, make(getattr(cls, attr)))
            return
        wrapper = make(getattr(modules[where[0]], target))
        for name in where:
            setattr(modules[name], target, wrapper)

    def _span(self, stem: str, fn: Callable, hook: Optional[Callable] = None, group: bool = False):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if group or parent is None:
                self._groups += 1
                gid = self._groups
            else:
                gid = parent["group"]
            rec = {
                "name": stem,
                "id": len(spans),
                "parent": None if parent is None else parent["id"],
                "group": gid,
                "start": time.perf_counter(),
                "end": None,
                "child_s": 0.0,
            }
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent["child_s"] += rec["end"] - rec["start"]
            if hook is not None:
                hook(out, args)
            return out

        return wrapper

    def _tally(self, stem: str, fn: Callable):
        cell = self.tallies.setdefault(stem, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    stack[-1]["child_s"] += dt

        return wrapper

    # ---- counters read from returned objects --------------------------

    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _count_build(self, _out, args) -> None:
        idx = args[0]
        self._add("traceindex.builds", 1)
        self._add("traceindex.nodes", idx.n_nodes)

    def _count_labels(self, labels, args) -> None:
        idx = args[0]
        self._add("traceindex.labels_interned", int(labels.max()) if labels.size else 0)
        self._add("traceindex.label_slots", idx.n_nodes * idx.n_domains)

    def _count_rules(self, out, _args) -> None:
        counts = out[1]
        self._add("traceindex.closure_sweeps", counts["sweeps"])
        self._add("traceindex.rule_dlr", counts["dlr"])
        self._add("traceindex.rule_wsc", counts["wsc"])

    def _count_states(self, system, _args) -> None:
        self._add("capability.states", len(system.states))

    # ---- per-pass summary ---------------------------------------------

    def reset_pass(self) -> None:
        """Start a new pass: spans are kept, counts and tallies restart."""
        self._pass_start = len(self.spans)
        self.counters = {}
        for cell in self.tallies.values():
            cell[0], cell[1] = 0, 0.0

    def pass_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the spans, tallies and counters since
        ``reset_pass``."""
        spans = self.spans[self._pass_start:]
        total: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        checkers_self = 0.0
        for rec in spans:
            dur = rec["end"] - rec["start"]
            total[rec["name"]] = total.get(rec["name"], 0.0) + dur
            calls[rec["name"]] = calls.get(rec["name"], 0) + 1
            if rec["name"].startswith("property.") and rec["name"][9:] in self._checkers_props:
                checkers_self += dur - rec["child_s"]

        out = {stem + "_s": total.get(stem, 0.0) for stem, _, _ in SPANS}
        out["traceindex.ta_labels_calls"] = calls.get("traceindex.ta_labels", 0)
        out["checkers.self_s"] = checkers_self
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        slots = self.counters.get("traceindex.label_slots", 0)
        out["traceindex.intern_ratio"] = out["traceindex.labels_interned"] / slots if slots else 0.0
        for stem, (count, seconds) in self.tallies.items():
            out[stem + "_calls"] = count
            out[stem + "_s"] = seconds
        for prop in PROPERTY_FUNCTIONS:
            out[f"property.{prop}_s"] = total.get("property." + prop, 0.0)
        return out

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)
