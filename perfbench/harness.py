"""Replays, output checks, record digests and metrics for one workload.

A run of one workload at one seed works on ``n_traces`` sub-traces, each
generated from ``(seed, k)``.  Pooling the simulated metrics over several
independent sub-traces keeps them steady from seed to seed; each
sub-trace is replayed on a freshly built stack, so every replay starts
from the same state.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence

import numpy as np

from repro.serving.request import RequestRecord
from repro.workload import Trace

from .workloads import TPOT_LIMIT_S, Stack

__all__ = ["RECORD_FIELDS", "record_digest", "workload_digest", "sub_seed",
           "Checks", "SimTotals", "check_records", "percentile", "median",
           "ratio", "Properties"]

RECORD_FIELDS = tuple(f.name for f in fields(RequestRecord))


def sub_seed(seed: int, k: int) -> int:
    """The trace seed of sub-trace ``k`` of a run at ``seed``."""
    return seed * 1000 + k


def record_digest(records: Sequence[RequestRecord]) -> str:
    """sha256 over every field of every record, in request-id order.
    Floats are written with ``repr``, so equal digests mean bit-identical
    records."""
    h = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.request_id):
        h.update(repr(tuple(getattr(record, f) for f in RECORD_FIELDS))
                 .encode())
        h.update(b"\n")
    return h.hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) \
        if len(values) else 0.0


@dataclass
class Checks:
    """Output-check failures of one run, counted against requests."""

    failed_ids: set = field(default_factory=set)
    messages: List[str] = field(default_factory=list)
    run_failed: bool = False

    def fail(self, message: str, scope: str, ids=()) -> None:
        """Record a failed check; ``ids`` are the failed request ids within
        ``scope`` (one sub-trace: ids repeat across sub-traces)."""
        self.messages.append(f"{scope}: {message}")
        self.failed_ids.update((scope, rid) for rid in ids)

    def fail_run(self, message: str) -> None:
        """A mismatch that invalidates every output of the run."""
        self.messages.append(message)
        self.run_failed = True

    def n_failed(self, attempted: int) -> int:
        return attempted if self.run_failed else \
            min(attempted, len(self.failed_ids))


def check_records(trace: Trace, records: Sequence[RequestRecord],
                  checks: Checks, scope: str) -> None:
    """Every submitted id ends with exactly one terminal record, and each
    record is internally consistent."""
    submitted = {r.request_id: r for r in trace}
    seen: Dict[int, int] = {}
    for record in records:
        seen[record.request_id] = seen.get(record.request_id, 0) + 1
    missing = [rid for rid in submitted if rid not in seen]
    repeated = [rid for rid, n in seen.items() if n != 1]
    unknown = [rid for rid in seen if rid not in submitted]
    if missing:
        checks.fail(f"{len(missing)} requests without a terminal record",
                    scope, missing)
    if repeated:
        checks.fail(f"{len(repeated)} requests with more than one terminal "
                    f"record", scope, repeated)
    if unknown:
        checks.fail(f"{len(unknown)} records for unknown ids", scope)
    bad = []
    for record in records:
        request = submitted.get(record.request_id)
        if request is None:
            continue
        served = record.tokens_served
        ok = (record.model_id == request.model_id
              and record.arrival_s == request.arrival_s
              and record.prompt_tokens == request.prompt_tokens
              and record.output_tokens == request.output_tokens
              and record.finish_s >= record.arrival_s
              and 0 <= served <= record.output_tokens)
        if record.status == "finished":
            ok = ok and served == record.output_tokens and \
                record.first_token_s is not None and \
                record.arrival_s <= record.first_token_s <= record.finish_s
        elif record.status not in ("shed", "rejected"):
            ok = False       # the workloads schedule no cancels/deadlines
        if not ok:
            bad.append(record.request_id)
    if bad:
        checks.fail(f"{len(bad)} inconsistent records", scope, bad)


@dataclass
class SimTotals:
    """Simulated user-facing numbers pooled over a run's sub-traces."""

    submitted: int = 0
    finished: int = 0
    slo_met: int = 0
    sim_seconds: float = 0.0
    ttft_s: List[float] = field(default_factory=list)
    tpot_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)

    def add(self, trace: Trace, records: Sequence[RequestRecord],
            stack: Stack) -> None:
        self.submitted += len(trace)
        self.sim_seconds += max(r.finish_s for r in records) - \
            min(r.arrival_s for r in records)
        for record in records:
            if record.status != "finished":
                continue              # shed/rejected: no token, SLO missed
            self.finished += 1
            ttft = record.first_token_s - record.arrival_s
            self.ttft_s.append(ttft)
            self.queue_wait_s.append(record.queue_wait_s)
            tpot = None
            if record.output_tokens > 1:
                tpot = (record.finish_s - record.first_token_s) / \
                    (record.output_tokens - 1)
                self.tpot_s.append(tpot)
            if ttft <= stack.ttft_limit_s(record.tenant_id) and \
                    (tpot is None or tpot <= TPOT_LIMIT_S):
                self.slo_met += 1

    def metrics(self) -> Dict[str, float]:
        return {
            "sim_ttft_p50_s": percentile(self.ttft_s, 50),
            "sim_ttft_p99_s": percentile(self.ttft_s, 99),
            "sim_tpot_p50_s": percentile(self.tpot_s, 50),
            "sim_tpot_p99_s": percentile(self.tpot_s, 99),
            "sim_goodput_rps": ratio(self.finished, self.sim_seconds),
            "sim_slo_attainment": ratio(self.slo_met, self.submitted),
        }


@dataclass
class Properties:
    """The input properties a later optimisation may depend on, pooled over
    a run's sub-traces: prefix-cache share of prompt tokens, active serving
    units, batch size, admission deferral and shedding, and preemptions."""

    prompt_tokens: int = 0
    hit_tokens: int = 0
    iterations: int = 0
    batched: int = 0
    preemptions: int = 0
    offered: int = 0
    deferred: int = 0
    dropped: int = 0
    unit_means: List[float] = field(default_factory=list)
    unit_max: float = 0.0

    def add(self, stack: Stack, trace: Trace,
            records: Sequence[RequestRecord]) -> None:
        for stats in (e.stats for e in stack.engines()):
            self.hit_tokens += stats.prefix_hit_tokens
            self.iterations += stats.iterations
            self.batched += stats.batched_requests
            self.preemptions += stats.preemptions
        self.prompt_tokens += sum(r.prompt_tokens for r in trace)
        if stack.controller is not None:
            for s in stack.controller.stats.values():
                self.offered += s.offered
                self.deferred += s.deferred
                self.dropped += s.shed + s.rejected
        mean, peak = _active_units(stack, max(r.finish_s for r in records))
        self.unit_means.append(mean)
        self.unit_max = max(self.unit_max, peak)

    def report(self) -> Dict[str, float]:
        return {
            "prefix_token_share": ratio(self.hit_tokens, self.prompt_tokens),
            "mean_active_units": statistics.fmean(self.unit_means),
            "max_active_units": self.unit_max,
            "mean_batch": ratio(self.batched, self.iterations),
            "deferred_share": ratio(self.deferred, self.offered),
            "shed_share": ratio(self.dropped, self.offered),
            "preemptions": float(self.preemptions),
        }


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def _active_units(stack: Stack, end_s: float) -> "tuple[float, float]":
    """Mean and maximum active replicas (cluster) or workers (disagg)."""
    if stack.autoscaler is not None:
        # one sample per controller check, i.e. evenly spaced in sim time
        counts = [s.n_replicas for s in stack.autoscaler.history] or \
            [stack.autoscaler.config.min_replicas]
        return statistics.fmean(counts), float(max(counts))
    if stack.pool_autoscaler is None:
        return 1.0, 1.0
    # time-weighted worker count, replayed from the pool actions
    workers = dict(stack.initial_workers)
    weighted, last_t = 0.0, 0.0
    peak = sum(workers.values())
    for sample in stack.pool_autoscaler.history:
        weighted += sum(workers.values()) * (sample.clock_s - last_t)
        last_t = sample.clock_s
        workers[sample.role] = sample.n_workers
        peak = max(peak, sum(workers.values()))
    weighted += sum(workers.values()) * max(0.0, end_s - last_t)
    return (weighted / end_s if end_s > 0 else 0.0), float(peak)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def workload_digest(sub_digests: Sequence[str]) -> str:
    """One digest for a run: sha256 over its sub-trace digests in order."""
    return hashlib.sha256("".join(sub_digests).encode()).hexdigest()
