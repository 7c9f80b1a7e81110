"""Untimed fidelity digest sweep over every engine and every wrapper.

One short fixed trace (multi-turn sessions from two tenants) is replayed on

* every registered engine behind a :class:`ServingGateway`;
* a two-replica :class:`ClusterGateway` under each registered balancer;
* a :class:`TenantGateway` over a cluster with FCFS and with VTC admission,
  and once more with VTC through ``submit()`` and request handles instead
  of trace replay.

Each configuration's record digest is archived in ``digests.json``; a
refactor that keeps behaviour keeps every digest.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable, Dict, List

from repro.hardware import Cluster
from repro.serving import (BALANCERS, ENGINES, ClusterGateway, EngineConfig,
                           LLAMA_7B, ModelManager, SchedulerConfig,
                           ServingGateway, Tenant, TenantGateway,
                           create_engine)
from repro.serving.request import RequestRecord
from repro.workload import LengthSampler, Trace, session_trace

from .harness import Checks, check_records, record_digest
from .workloads import DELTA_RATIO, Stack, a800_node

__all__ = ["sweep_trace", "SWEEP", "run_sweep"]

SWEEP_TENANTS = (Tenant("a", rate_tokens_per_s=1500.0, ttft_slo_s=3.0),
                 Tenant("b", slo_class="interactive", weight=2.0))


def sweep_trace() -> Trace:
    trace = session_trace(8, rate=2.0, duration_s=40.0, seed=7,
                          shared_prefix_tokens=128,
                          length_sampler=LengthSampler(prompt_log_mean=4.5,
                                                       output_mean=64.0))
    # two tenants, split by conversation
    trace.requests = [dataclasses.replace(
        r, tenant_id="ab"[int(r.conversation_id[5:]) % 2])
        for r in trace.requests]
    return trace


def _manager(engine_name: str, trace: Trace) -> ModelManager:
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for model_id in trace.model_ids:
        ENGINES[engine_name].register_variant(mgr, model_id, "base",
                                              DELTA_RATIO)
    return mgr


_SCHEDULER = SchedulerConfig(max_batch_requests=4, max_concurrent_deltas=2)
_ENGINE_KWARGS: Dict[str, dict] = {
    "disagg": {"prefill_workers": 1, "decode_workers": 1},
    "sharded": {"tp_degree": 2, "n_nodes": 2},
}


def _engine_stack(name: str, trace: Trace) -> Stack:
    engine = create_engine(name, _manager(name, trace), a800_node(),
                           scheduler_config=_SCHEDULER,
                           engine_config=EngineConfig(tp_degree=1),
                           **_ENGINE_KWARGS.get(name, {}))
    gateway = ServingGateway(engine)
    return Stack(gateway, gateway, engines=lambda: [engine])


def _cluster(trace: Trace, balancer: str) -> ClusterGateway:
    mgr = _manager("deltazip", trace)

    def factory(node):
        return create_engine("deltazip", mgr, node,
                             scheduler_config=_SCHEDULER,
                             engine_config=EngineConfig(tp_degree=1))

    return ClusterGateway(engine_factory=factory,
                          cluster=Cluster.from_name("a800", n_nodes=2,
                                                    gpus_per_node=1),
                          n_replicas=2, balancer=balancer)


def _cluster_stack(balancer: str, trace: Trace) -> Stack:
    cluster = _cluster(trace, balancer)
    return Stack(cluster, cluster, engines=lambda: [])


def _tenancy_stack(policy: str, trace: Trace) -> Stack:
    cluster = _cluster(trace, "least-outstanding")
    gateway = TenantGateway(cluster, tenants=SWEEP_TENANTS, policy=policy,
                            shed=True)
    return Stack(gateway, cluster, engines=lambda: [],
                 tenants=SWEEP_TENANTS)


def _handle_records(trace: Trace) -> List[RequestRecord]:
    """VTC tenancy driven through ``submit()``; records come from the
    returned request handles, shed ones included."""
    gateway = TenantGateway(_cluster(trace, "least-outstanding"),
                            tenants=SWEEP_TENANTS, policy="vtc", shed=True)
    handles = [gateway.submit(r.model_id, r.prompt_tokens, r.output_tokens,
                              arrival_s=r.arrival_s, tenant_id=r.tenant_id,
                              conversation_id=r.conversation_id)
               for r in trace]
    gateway.run_until_drained()
    return [h.record() for h in handles]


#: label -> stack builder for every replayed configuration
SWEEP: Dict[str, Callable[[Trace], Stack]] = {
    **{f"engine:{name}": partial(_engine_stack, name)
       for name in sorted(ENGINES)},
    **{f"cluster:{balancer}": partial(_cluster_stack, balancer)
       for balancer in sorted(BALANCERS)},
    **{f"tenancy:{policy}": partial(_tenancy_stack, policy)
       for policy in ("fcfs", "vtc")},
}


def run_sweep(checks: Checks) -> Dict[str, str]:
    """Replay the sweep trace on every configuration; returns label ->
    record digest.  A failed conservation check fails the whole run."""
    trace = sweep_trace()
    results = {}
    for label, build in SWEEP.items():
        stack = build(trace)
        stack.replay(trace)
        results[label] = stack.terminal_records(trace)
    results["tenancy:vtc-handles"] = _handle_records(trace)
    sweep_checks = Checks()
    digests = {}
    for label, records in results.items():
        check_records(trace, records, sweep_checks, f"sweep {label}")
        digests[label] = record_digest(records)
    for message in sweep_checks.messages:
        checks.fail_run(message)
    return digests
