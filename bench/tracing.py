"""Spans and counters around mapperbound's public functions.

`install()` wraps each function where its caller looks it up (modules import
the grid functions by name, so `mapperbound.cosheaf.thicken` and
`mapperbound.grid.thicken` are different bindings).  A span is
(name, start, end, parent index); spans stay in memory until `take()`.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter
from contextlib import contextmanager

# (module path, attribute, span name); a class attribute is "Class.method"
TARGETS = [
    ("mapperbound.grid", "closure", "grid.closure"),
    ("mapperbound.grid", "star", "grid.star"),
    ("mapperbound.ingest", "star", "grid.star"),
    ("mapperbound.cosheaf", "thicken", "grid.thicken"),
    ("mapperbound.assignment", "thicken", "grid.thicken"),
    ("mapperbound.oracle", "thicken", "grid.thicken"),
    ("mapperbound.cosheaf", "saturation_steps", "grid.saturation_steps"),
    ("mapperbound.cosheaf", "CosheafGraph.slice", "cosheaf.slice"),
    ("mapperbound.cosheaf", "CosheafGraph.saturation", "cosheaf.saturation"),
    ("mapperbound.cosheaf", "from_json_obj", "cosheaf.load"),
    ("mapperbound.cosheaf", "to_json", "cosheaf.dump"),
    ("mapperbound.ingest", "build", "ingest.build"),
    ("mapperbound.assignment", "validate_assignment", "assignment.validate"),
    ("mapperbound.assignment", "basis_loss", "assignment.basis_loss"),
    ("mapperbound.assignment", "loss_report", "assignment.loss_report"),
    ("mapperbound.oracle", "geometric_pi0", "oracle.pi0"),
    ("mapperbound.oracle", "exhaustive_interleaving", "oracle.exhaustive"),
    ("mapperbound.oracle", "full_loss", "oracle.full_loss"),
    ("mapperbound.cli", "cmd_ingest", "cli.ingest"),
    ("mapperbound.cli", "cmd_bound", "cli.bound"),
    ("mapperbound.cli", "cmd_check", "cli.check"),
    ("mapperbound.cli", "cmd_oracle", "cli.oracle"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self.slice_keys: set = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._graphs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = 0
        self.enabled = True

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        out = (self.spans, self.counters, len(self.slice_keys))
        self.spans, self.counters, self.slice_keys = [], Counter(), set()
        return out

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            self._open[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.spans[idx] = (name, t0, t1, self.spans[idx][3])
            if count is not None:
                count(self, out, args)
            return out

        return traced

    def graph_serial(self, graph) -> int:
        # ids of freed graphs are reused, so slices are keyed by a serial
        serial = self._graphs.get(graph)
        if serial is None:
            self._serials += 1
            serial = self._graphs[graph] = self._serials
        return serial


def _count_thicken(tr, out, args):
    tr.counters["grid.thicken.cells"] += len(out)


def _count_slice(tr, out, args):
    graph, center, radius = args[0], args[1], args[2]
    tr.slice_keys.add((tr.graph_serial(graph), center, radius))
    tr.counters["cosheaf.slice.members"] += len(out.member_indices())
    if tr._open["assignment.basis_loss"]:
        tr.counters["assignment.basis_loss.slices"] += 1


def _count_build(tr, out, args):
    tr.counters["ingest.nodes"] += out.graph.node_count()
    tr.counters["ingest.links"] += out.graph.link_count()


def _count_full_loss(tr, out, args):
    tr.counters["oracle.opens"] += out.opens


_COUNTS = {
    "grid.thicken": _count_thicken,
    "cosheaf.slice": _count_slice,
    "ingest.build": _count_build,
    "oracle.full_loss": _count_full_loss,
}


def install(tracer: Tracer) -> None:
    import importlib

    for module, attr, name in TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def summarize(spans, counters: Counter, distinct_slices: int) -> dict[str, float]:
    """Per-layer figures for one round: calls, inclusive and self seconds."""
    calls: Counter = Counter()
    total: Counter = Counter()
    child: Counter = Counter()
    for name, t0, t1, parent in spans:
        calls[name] += 1
        total[name] += t1 - t0
        if parent >= 0:
            child[spans[parent][0]] += t1 - t0
    self_s = {name: total[name] - child[name] for name in total}
    slices = calls["cosheaf.slice"]
    return {
        "grid.thicken.calls": calls["grid.thicken"],
        "grid.thicken.s": total["grid.thicken"],
        "grid.thicken.cells": counters["grid.thicken.cells"],
        "grid.star.calls": calls["grid.star"],
        "grid.closure.calls": calls["grid.closure"],
        "grid.saturation_steps.calls": calls["grid.saturation_steps"],
        "grid.saturation_steps.s": total["grid.saturation_steps"],
        "cosheaf.slice.calls": slices,
        "cosheaf.slice.distinct": distinct_slices,
        "cosheaf.slice.useful_ratio": distinct_slices / slices if slices else 1.0,
        "cosheaf.slice.self_s": self_s.get("cosheaf.slice", 0.0),
        "cosheaf.slice.members": counters["cosheaf.slice.members"],
        "cosheaf.saturation.calls": calls["cosheaf.saturation"],
        "cosheaf.load.s": total["cosheaf.load"],
        "cosheaf.dump.s": total["cosheaf.dump"],
        "ingest.build.s": total["ingest.build"],
        "ingest.nodes": counters["ingest.nodes"],
        "ingest.links": counters["ingest.links"],
        "assignment.validate.s": total["assignment.validate"],
        "assignment.basis_loss.self_s": self_s.get("assignment.basis_loss", 0.0),
        "assignment.basis_loss.slices": counters["assignment.basis_loss.slices"],
        "assignment.loss_report.self_s": self_s.get("assignment.loss_report", 0.0),
        "oracle.pi0.calls": calls["oracle.pi0"],
        "oracle.pi0.s": total["oracle.pi0"],
        "oracle.exhaustive.s": total["oracle.exhaustive"],
        "oracle.full_loss.s": total["oracle.full_loss"],
        "oracle.opens": counters["oracle.opens"],
        "cli.ingest.self_s": self_s.get("cli.ingest", 0.0),
        "cli.bound.self_s": self_s.get("cli.bound", 0.0),
        "cli.check.self_s": self_s.get("cli.check", 0.0),
        "cli.oracle.self_s": self_s.get("cli.oracle", 0.0),
    }
