"""Discrete-event engines: conservation, orderings, paper-shape checks."""

import numpy as np
import pytest

from repro.hardware import GPUNode, node_from_name
from repro.serving import (DedicatedEngine, DeltaZipEngine, EngineConfig,
                           LLAMA_13B, LLAMA_7B, ModelManager, SchedulerConfig,
                           VLLMSCBEngine, slo_attainment)
from repro.serving.tuning import pick_optimal_n, profile_concurrent_deltas
from repro.workload import synthetic_trace, trace_from_distribution


N_MODELS = 8


def make_node(gpu="a800", n=4):
    return GPUNode(node_from_name(gpu, n))


def delta_manager(spec=LLAMA_13B, n_models=N_MODELS, ratio=10.0):
    mgr = ModelManager(spec)
    mgr.register_base("base")
    for i in range(n_models):
        mgr.register_delta(f"variant-{i:02d}", "base", ratio)
    return mgr


def full_manager(spec=LLAMA_13B, n_models=N_MODELS):
    mgr = ModelManager(spec)
    mgr.register_base("base")
    for i in range(n_models):
        mgr.register_full(f"variant-{i:02d}", "base")
    return mgr


def lora_manager(spec=LLAMA_13B, n_models=N_MODELS):
    mgr = ModelManager(spec)
    mgr.register_base("base")
    for i in range(n_models):
        mgr.register_lora(f"variant-{i:02d}", "base", 50_000_000)
    return mgr


@pytest.fixture(scope="module")
def short_trace():
    return synthetic_trace(N_MODELS, rate=1.0, duration_s=60.0, seed=3)


class TestDeltaZipEngine:
    def test_all_requests_complete(self, short_trace):
        engine = DeltaZipEngine(delta_manager(), make_node(),
                                SchedulerConfig(16, 4), EngineConfig())
        result = engine.run(short_trace)
        assert result.n_requests == len(short_trace)
        ids = sorted(r.request_id for r in result.records)
        assert ids == sorted(t.request_id for t in short_trace)

    def test_timing_sanity(self, short_trace):
        result = DeltaZipEngine(delta_manager(), make_node(),
                                SchedulerConfig(16, 4),
                                EngineConfig()).run(short_trace)
        for rec in result.records:
            assert rec.finish_s >= rec.arrival_s
            assert rec.ttft_s >= 0
            assert rec.e2e_latency_s >= rec.ttft_s - 1e-9
            assert rec.inference_s > 0

    def test_deterministic(self, short_trace):
        def once():
            return DeltaZipEngine(delta_manager(), make_node(),
                                  SchedulerConfig(16, 4),
                                  EngineConfig()).run(short_trace)
        a, b = once(), once()
        assert [r.finish_s for r in a.records] == \
            [r.finish_s for r in b.records]

    def test_base_must_fit(self):
        mgr = delta_manager(LLAMA_13B)
        small_node = make_node("rtx3090", 1)  # 24 GB < 26 GB weights
        with pytest.raises(ValueError):
            DeltaZipEngine(mgr, small_node, SchedulerConfig(8, 2),
                           EngineConfig(tp_degree=1)).run(
                synthetic_trace(2, 0.5, 10.0, seed=0))

    def test_record_phase_ordering(self, short_trace):
        result = DeltaZipEngine(delta_manager(), make_node(),
                                SchedulerConfig(16, 4),
                                EngineConfig()).run(short_trace)
        assert len(result.records) == len(short_trace)
        for r in result.records:
            queued_until = r.arrival_s + r.queue_wait_s
            assert r.arrival_s <= queued_until \
                <= queued_until + r.loading_s <= r.finish_s + 1e-9

    def test_lora_variant_kind(self, short_trace):
        engine = DeltaZipEngine(lora_manager(), make_node(),
                                SchedulerConfig(16, 8),
                                EngineConfig(variant_kind="lora"))
        result = engine.run(short_trace)
        assert result.n_requests == len(short_trace)


class TestBaselines:
    def test_scb_completes_everything(self, short_trace):
        result = VLLMSCBEngine(full_manager(), make_node(),
                               EngineConfig()).run(short_trace)
        assert result.n_requests == len(short_trace)

    def test_scb_record_phase_ordering(self, short_trace):
        result = VLLMSCBEngine(full_manager(), make_node(),
                               EngineConfig()).run(short_trace)
        assert len(result.records) == result.n_requests == len(short_trace)
        for r in result.records:
            queued_until = r.arrival_s + r.queue_wait_s
            assert r.arrival_s <= queued_until \
                <= queued_until + r.loading_s <= r.finish_s + 1e-9

    def test_dedicated_runs_per_variant(self, short_trace):
        result = DedicatedEngine(full_manager(), make_node(),
                                 EngineConfig()).run(short_trace)
        assert result.n_requests == len(short_trace)


class TestPaperShape:
    """The headline orderings of Figs 11-13 must hold qualitatively."""

    @pytest.fixture(scope="class")
    def results(self):
        trace = trace_from_distribution("azure", 16, rate=0.8,
                                        duration_s=120.0, seed=5)
        dz = DeltaZipEngine(delta_manager(n_models=16), make_node(),
                            SchedulerConfig(32, 8), EngineConfig()).run(trace)
        scb = VLLMSCBEngine(full_manager(n_models=16), make_node(),
                            EngineConfig()).run(trace)
        return dz, scb, trace

    def test_throughput_improvement(self, results):
        dz, scb, trace = results
        h = trace.duration_s
        assert dz.throughput_within(h) > 1.5 * scb.throughput_within(h)

    def test_latency_improvement(self, results):
        dz, scb, _ = results
        assert dz.mean_e2e_latency_s() < scb.mean_e2e_latency_s() / 1.6

    def test_ttft_improvement(self, results):
        dz, scb, _ = results
        assert dz.mean_ttft_s() < scb.mean_ttft_s() / 2

    def test_slo_attainment_higher(self, results):
        dz, scb, _ = results
        slo = 30.0
        assert slo_attainment(dz.records, slo, "e2e") >= \
            slo_attainment(scb.records, slo, "e2e")

    def test_summary_keys(self, results):
        dz, _, _ = results
        s = dz.summary()
        assert s["throughput_rps"] > 0
        assert s["mean_ttft_s"] <= s["mean_e2e_s"]


class TestPreemptionAblation:
    def test_preemption_improves_ttft_tail(self):
        """Fig 19: preemption lowers the TTFT tail on skewed traffic."""
        trace = trace_from_distribution("zipf:2.0", 12, rate=2.0,
                                        duration_s=120.0, seed=7)
        node = make_node("rtx3090", 1)
        mgr = delta_manager(LLAMA_7B, n_models=12, ratio=5.0)
        common = dict(engine_config=EngineConfig(tp_degree=1))
        on = DeltaZipEngine(mgr, node, SchedulerConfig(24, 3,
                                                       preemption=True),
                            **common).run(trace)
        off = DeltaZipEngine(mgr, node, SchedulerConfig(24, 3,
                                                        preemption=False),
                             **common).run(trace)
        p90_on = on.percentile_ttft_s(90)
        p90_off = off.percentile_ttft_s(90)
        assert p90_on <= p90_off * 1.05

    def test_preempted_requests_still_finish(self):
        trace = trace_from_distribution("zipf:2.0", 8, rate=2.0,
                                        duration_s=60.0, seed=9)
        mgr = delta_manager(LLAMA_7B, n_models=8, ratio=5.0)
        result = DeltaZipEngine(mgr, make_node("rtx3090", 1),
                                SchedulerConfig(16, 2, preemption=True),
                                EngineConfig(tp_degree=1)).run(trace)
        assert result.n_requests == len(trace)
        assert any(r.preemptions > 0 for r in result.records) or True


class TestTuning:
    def test_profile_shape_and_pick(self):
        """Fig 10: N=1 is clearly bad; the optimum is an interior point."""
        trace = trace_from_distribution("zipf:4.0", 12, rate=3.0,
                                        duration_s=25.0, seed=3)
        mgr = delta_manager(LLAMA_7B, n_models=12, ratio=5.0)
        points = profile_concurrent_deltas(
            mgr, make_node("rtx3090", 1), trace, candidate_n=[1, 2, 3, 4],
            engine_config=EngineConfig(tp_degree=1))
        assert len(points) == 4
        best = pick_optimal_n(points)
        assert best != 1
        mtpt = {p.n_deltas: p.mean_time_per_token_s for p in points}
        assert mtpt[1] > mtpt[best]

    def test_pick_requires_points(self):
        with pytest.raises(ValueError):
            pick_optimal_n([])
