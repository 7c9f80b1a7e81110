"""Span tracing installed from outside the program.

:class:`Tracer` wraps the public entry points of each serving layer with
timing wrappers for the duration of a ``with tracer.installed():`` block,
and restores the original attributes on exit.  Nothing under ``src/`` is
edited; a run without the block executes the unmodified code.

Each wrapped call records one span: its name, start, end, parent span, and
the request id when the call's first argument carries one.  Spans stay in
memory (:meth:`Tracer.write` dumps them as gzipped CSV at the end).  A
span's self time is its duration minus the durations of its direct
children, so the
self times of all spans sum to the time covered by root spans; the rest of
a traced replay is the explicit remainder.

Counts are taken at the same boundaries (calls per span name), plus plain
access counts for the two ``Replica`` properties the cluster rescans on
every step.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.serving import (AdmissionController, Autoscaler, BALANCERS,
                           ClusterGateway, ContinuousBatchScheduler,
                           DeltaZipEngine, DisaggregatedEngine,
                           IterationCostModel, PoolAutoscaler, PrefixCache,
                           Replica, ServingEngine, StreamingMetrics,
                           TenantGateway)
from repro.sim import EventQueue, SimKernel
from repro.telemetry import Telemetry

__all__ = ["Tracer", "SPAN_TARGETS", "SELF_TIME_METRIC"]

#: (class, method, span name) for every wrapped entry point
SPAN_TARGETS: List[Tuple[type, str, str]] = [
    (TenantGateway, "step", "tenancy.step"),
    (AdmissionController, "offer", "tenancy.offer"),
    (AdmissionController, "pop", "tenancy.pop"),
    (ClusterGateway, "step", "cluster.step"),
    (Autoscaler, "control", "cluster.autoscaler"),
    (DisaggregatedEngine, "step", "disagg.step"),
    (PoolAutoscaler, "control", "disagg.pool_autoscaler"),
    (ServingEngine, "step", "engine.step"),
    (DeltaZipEngine, "admit", "engine.admit"),
    (DeltaZipEngine, "retire", "engine.retire"),
    (ContinuousBatchScheduler, "schedule", "scheduler.schedule"),
    (IterationCostModel, "iteration_time", "costs.iteration_time"),
    (PrefixCache, "lookup", "prefix_cache.lookup"),
    (PrefixCache, "insert", "prefix_cache.insert"),
    (PrefixCache, "evict", "prefix_cache.evict"),
    (StreamingMetrics, "observe", "metrics.observe"),
    (ServingEngine, "build_result", "metrics.result"),
    (ClusterGateway, "result", "metrics.result"),
    (TenantGateway, "result", "metrics.result"),
    (Telemetry, "advance", "telemetry.advance"),
    (SimKernel, "emit", "sim.emit"),
    (EventQueue, "push", "sim.push"),
    (EventQueue, "pop", "sim.pop"),
] + [(cls, "choose", "balancer.choose")
     for cls in dict.fromkeys(BALANCERS.values())]

#: span name -> the per-layer self-time metric it is credited to.  Every
#: span name maps to exactly one metric, so these metrics plus the
#: remainder sum to the traced replay's host time.
SELF_TIME_METRIC: Dict[str, str] = {
    "tenancy.step": "tenancy.self_s",
    "tenancy.offer": "tenancy.self_s",
    "tenancy.pop": "tenancy.self_s",
    "cluster.step": "cluster.self_s",
    "cluster.autoscaler": "cluster.self_s",
    "balancer.choose": "balancer.self_s",
    "disagg.step": "disagg.self_s",
    "disagg.pool_autoscaler": "disagg.self_s",
    "engine.step": "engine.step_self_s",
    "engine.admit": "engine.admit_self_s",
    "engine.retire": "engine.retire_self_s",
    "scheduler.schedule": "scheduler.self_s",
    "costs.iteration_time": "costs.self_s",
    "prefix_cache.lookup": "prefix_cache.self_s",
    "prefix_cache.insert": "prefix_cache.self_s",
    "prefix_cache.evict": "prefix_cache.self_s",
    "metrics.observe": "metrics.self_s",
    "metrics.result": "metrics.result_s",
    "telemetry.advance": "telemetry.self_s",
    "sim.emit": "sim.self_s",
    "sim.push": "sim.self_s",
    "sim.pop": "sim.self_s",
}

#: (class, property) pairs whose reads are counted as ``cluster.replica_reads``
COUNTED_READS: List[Tuple[type, str]] = [(Replica, "clock"),
                                         (Replica, "unfinished")]


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self) -> None:
        self.names: List[str] = sorted(SELF_TIME_METRIC)
        self._code = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls: List[int] = [0] * n
        self.self_s: List[float] = [0.0] * n
        self.root_s = 0.0
        self.reads = 0
        self._open: List[int] = []
        self._child_s: List[float] = []
        self.clear_spans()

    def clear_spans(self) -> None:
        """Drop the recorded spans but keep the counts and self times."""
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("q")     # -1: the call carried no id
        self.span_start = array("d")
        self.span_end = array("d")

    # ------------------------------------------------------------------ #
    def _span(self, fn, name: str):
        code = self._code[name]
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.span_name)
            opened = tracer._open
            child_s = tracer._child_s
            tracer.span_name.append(code)
            tracer.span_parent.append(opened[-1] if opened else -1)
            rid = getattr(args[1], "request_id", None) \
                if len(args) > 1 else None
            tracer.span_request.append(-1 if rid is None else rid)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            opened.append(index)
            child_s.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                opened.pop()
                children = child_s.pop()
                duration = end - start
                tracer.span_start[index] = start
                tracer.span_end[index] = end
                tracer.calls[code] += 1
                tracer.self_s[code] += duration - children
                if child_s:
                    child_s[-1] += duration
                else:
                    tracer.root_s += duration

        return traced

    def _counted(self, prop: property) -> property:
        getter = prop.fget
        tracer = self

        def read(obj):
            tracer.reads += 1
            return getter(obj)

        return property(read, prop.fset, prop.fdel, prop.__doc__)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for cls, attr, name in SPAN_TARGETS:
                saved.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr, self._span(getattr(cls, attr), name))
            for cls, attr in COUNTED_READS:
                prop = cls.__dict__[attr]
                saved.append((cls, attr, prop))
                setattr(cls, attr, self._counted(prop))
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                if original is None:
                    delattr(cls, attr)
                else:
                    setattr(cls, attr, original)

    # ------------------------------------------------------------------ #
    def count(self, name: str) -> int:
        return self.calls[self._code[name]]

    def self_time(self, name: str) -> float:
        return self.self_s[self._code[name]]

    def durations(self, name: str) -> List[float]:
        """Inclusive durations (seconds) of every span called ``name``."""
        code = self._code[name]
        return [end - start for c, start, end in
                zip(self.span_name, self.span_start, self.span_end)
                if c == code]

    def self_time_metrics(self) -> Dict[str, float]:
        """Self time summed per layer metric (see :data:`SELF_TIME_METRIC`)."""
        out: Dict[str, float] = dict.fromkeys(
            sorted(set(SELF_TIME_METRIC.values())), 0.0)
        for name, metric in SELF_TIME_METRIC.items():
            out[metric] += self.self_time(name)
        return out

    def write(self, path) -> None:
        """Dump the recorded spans as gzipped CSV: id, parent, name,
        start, end, request id (empty when the call carried none)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span,parent,name,start_s,end_s,request_id\n")
            for i, (code, parent, start, end, rid) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start,
                    self.span_end, self.span_request)):
                out.write(f"{i},{parent},{self.names[code]},{start!r},"
                          f"{end!r},{'' if rid < 0 else rid}\n")
