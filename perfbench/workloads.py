"""The benchmark's three workloads: a trace generator and a serving stack
each.

Every workload is *open loop*: the seed (``--seed``) generates traces of
requests with fixed arrival times (``n_traces`` independent sub-traces per
run), and the stack replays each as if its requests arrived live.  A slow
stack never receives less load; its queues grow instead.  The stack sees
only the generated requests.

Each workload is a different stack shape, so that every serving layer does
most of its work in one workload and little or none in another:

* ``variants-bursty`` -- the bare engine hot path.
* ``fleet-tenants`` -- cluster routing, tenancy admission, streaming
  metrics and telemetry.
* ``sessions-disagg`` -- the prefix cache, KV-transfer pricing and the
  disaggregated engine.

``scale`` multiplies the simulated trace length; the benchmark's own tests
run the same stacks on short traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (LLAMA_7B, Autoscaler, ClusterGateway, EngineConfig,
                           ModelManager, PoolAutoscaler, PoolScalingPolicy,
                           RecordPolicy, SchedulerConfig, ServingGateway,
                           Tenant, TenantGateway, create_engine)
from repro.serving.request import RequestRecord, synthesized_abort_record
from repro.serving.tenancy import AdmissionDecision
from repro.telemetry import Telemetry
from repro.workload import (LengthSampler, TenantWorkload, Trace,
                            azure_like_trace, multi_tenant_trace,
                            session_trace)

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Workload", "Stack",
           "TPOT_LIMIT_S", "DEFAULT_TTFT_LIMIT_S"]

#: the seed whose record digests are archived in ``digests.json``
DEFAULT_SEED = 1

#: SLO used by ``sim_slo_attainment``: a request meets it when its TTFT is
#: within its limit and its time per output token is at most this
TPOT_LIMIT_S = 0.05
#: TTFT limit where no tenant SLO class applies (the ``interactive`` class)
DEFAULT_TTFT_LIMIT_S = 10.0

DELTA_RATIO = 8.0


def a800_node() -> GPUNode:
    return GPUNode(node_from_name("a800", 1))


def _delta_manager(model_ids: List[str]) -> ModelManager:
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in model_ids:
        mgr.register_delta(model_id, "base", DELTA_RATIO)
    return mgr


class Stack:
    """One built serving stack plus what the benchmark reads from it.

    ``outer`` is the gateway the trace is replayed on.  Terminal records
    are collected through a completion listener on ``collect_on`` (the
    innermost gateway that sees every served request), so collection works
    under ``RecordPolicy.DROP`` too.  Requests dropped by admission never
    reach that gateway; their terminal records are synthesized from the
    admission controller's decisions, exactly as a request handle would
    report them.  ``autoscaler`` (cluster) or ``pool_autoscaler`` plus
    ``initial_workers`` (disagg) let the benchmark report how many serving
    units were active.
    """

    def __init__(self, outer, collect_on, engines: Callable[[], list],
                 tenants: Sequence[Tenant] = (),
                 telemetry: Optional[Telemetry] = None,
                 autoscaler: Optional[Autoscaler] = None,
                 pool_autoscaler: Optional[PoolAutoscaler] = None,
                 initial_workers: Optional[Dict[str, int]] = None):
        self.outer = outer
        self.engines = engines
        self.tenants = {t.tenant_id: t for t in tenants}
        self.telemetry = telemetry
        self.autoscaler = autoscaler
        self.pool_autoscaler = pool_autoscaler
        self.initial_workers = initial_workers or {}
        self.controller = getattr(outer, "controller", None)
        self.records: List[RequestRecord] = []
        collect_on.add_completion_listener(self.records.append)

    def replay(self, trace: Trace) -> float:
        """Replay ``trace`` from a fresh timeline; returns host seconds."""
        self.records.clear()
        start = time.perf_counter()
        self.outer.replay(trace)
        return time.perf_counter() - start

    def terminal_records(self, trace: Trace) -> List[RequestRecord]:
        """Every terminal record of the last replay: served ones, plus one
        ``shed``/``rejected`` record per request admission dropped."""
        records = list(self.records)
        if self.controller is not None:
            dropped = {AdmissionDecision.SHED: "shed",
                       AdmissionDecision.REJECTED: "rejected"}
            decisions = self.controller.decisions
            for request in trace:
                status = dropped.get(decisions.get(request.request_id))
                if status is not None:
                    records.append(synthesized_abort_record(
                        request, request.arrival_s, status))
        return records

    def ttft_limit_s(self, tenant_id: Optional[str]) -> float:
        tenant = self.tenants.get(tenant_id) if tenant_id else None
        return tenant.slo_s if tenant is not None else DEFAULT_TTFT_LIMIT_S


@dataclass(frozen=True)
class Workload:
    """A named trace generator plus the stack that replays it."""

    name: str
    #: why the workload is in the benchmark (one line, as in BENCHMARK.json)
    why: str
    make_trace: Callable[[int, float], Trace]
    build: Callable[[Trace], Stack]
    #: independent sub-traces per run (see ``harness.sub_seed``)
    n_traces: int = 6


# --------------------------------------------------------------------- #
# variants-bursty
# --------------------------------------------------------------------- #
def _bursty_trace(seed: int, scale: float = 1.0) -> Trace:
    # 32 LLAMA-7B delta variants, log-normal popularity, gamma bursts with
    # cv=4 at ~10 req/s: deep burst queues, delta churn and preemption
    return azure_like_trace(32, rate=10.0, duration_s=90.0 * scale,
                            seed=seed, burst_cv=4.0)


def _bursty_stack(trace: Trace) -> Stack:
    engine = create_engine(
        "deltazip", _delta_manager(trace.model_ids), a800_node(),
        scheduler_config=SchedulerConfig(max_batch_requests=32,
                                         max_concurrent_deltas=8),
        engine_config=EngineConfig(tp_degree=1,
                                   record_policy=RecordPolicy.KEEP_ALL))
    gateway = ServingGateway(engine)
    return Stack(gateway, gateway, engines=lambda: [engine])


# --------------------------------------------------------------------- #
# fleet-tenants
# --------------------------------------------------------------------- #
FLEET_TENANTS = (
    Tenant("t0", rate_tokens_per_s=6000.0),
    Tenant("t1", slo_class="interactive", weight=2.0),
    Tenant("t2"),
    Tenant("t3", slo_class="batch"),
)


def _fleet_trace(seed: int, scale: float = 1.0) -> Trace:
    return multi_tenant_trace(
        [TenantWorkload("t0", rate=30.0, n_models=8, distribution="zipf"),
         TenantWorkload("t1", rate=6.0),
         TenantWorkload("t2", rate=6.0, cv=3.0),
         TenantWorkload("t3", rate=6.0)],
        duration_s=30.0 * scale, seed=seed)


def _fleet_stack(trace: Trace) -> Stack:
    mgr = _delta_manager(trace.model_ids)
    scheduler = SchedulerConfig(max_batch_requests=32,
                                max_concurrent_deltas=8)
    config = EngineConfig(tp_degree=1, record_policy=RecordPolicy.DROP)

    def factory(node):
        return create_engine("deltazip", mgr, node,
                             scheduler_config=scheduler,
                             engine_config=config)

    autoscaler = Autoscaler(min_replicas=4, max_replicas=8)
    cluster = ClusterGateway(
        engine_factory=factory,
        cluster=Cluster.from_name("a800", n_nodes=8, gpus_per_node=1),
        n_replicas=4, balancer="lineage", autoscaler=autoscaler)
    telemetry = Telemetry(interval_s=5.0)
    gateway = TenantGateway(cluster, tenants=FLEET_TENANTS, policy="vtc",
                            shed=True, telemetry=telemetry)
    return Stack(gateway, cluster,
                 engines=lambda: [r.engine for r in
                                  cluster.retired + cluster.replicas],
                 tenants=FLEET_TENANTS, telemetry=telemetry,
                 autoscaler=autoscaler)


# --------------------------------------------------------------------- #
# sessions-disagg
# --------------------------------------------------------------------- #
def _sessions_trace(seed: int, scale: float = 1.0) -> Trace:
    return session_trace(
        16, rate=1.5, duration_s=150.0 * scale, seed=seed, mean_turns=4.0,
        shared_prefix_tokens=512,
        length_sampler=LengthSampler(prompt_log_mean=5.0, output_mean=120.0))


def _sessions_stack(trace: Trace) -> Stack:
    scaling = PoolScalingPolicy(max_workers=4)
    scaler = PoolAutoscaler(prefill=scaling, decode=scaling)
    engine = create_engine(
        "disagg", _delta_manager(trace.model_ids), a800_node(),
        scheduler_config=SchedulerConfig(max_batch_requests=16,
                                         max_concurrent_deltas=4),
        engine_config=EngineConfig(tp_degree=1, prefix_cache=True),
        prefill_workers=2, decode_workers=2, pool_autoscaler=scaler)
    gateway = ServingGateway(engine)
    return Stack(gateway, gateway, engines=lambda: [engine],
                 pool_autoscaler=scaler,
                 initial_workers={"prefill": 2, "decode": 2})


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("variants-bursty",
             "bare engine hot path: bursty skewed traffic over 32 deltas, "
             "deep queues, delta churn and preemption; no cluster, "
             "tenancy, prefix cache or telemetry",
             _bursty_trace, _bursty_stack, n_traces=10),
    Workload("fleet-tenants",
             "cluster routing, autoscaling, VTC admission with shedding, "
             "streaming metrics and telemetry over small per-replica "
             "batches; no prefix cache or disagg",
             _fleet_trace, _fleet_stack, n_traces=4),
    Workload("sessions-disagg",
             "multi-turn sessions on disaggregated prefill/decode pools: "
             "prefix-cache hits and evictions, priced KV transfers and "
             "pool autoscaling",
             _sessions_trace, _sessions_stack),
)}
