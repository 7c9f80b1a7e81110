"""Fig 16: per-request latency breakdown (queuing / loading / inference).

Paper's small-scale visualization: 12 models, arrival rate 0.5 req/s, 60 s.
The baseline's time is dominated by queuing and full-model loading;
DeltaZip's requests spend almost all their lifetime in inference.
(The paper uses 2x RTX 3090 with a 13B model; we use 1x 3090 with the 7B
spec — same memory-tightness regime.)
"""

import numpy as np

from conftest import run_once, save_table
from repro.serving import LLAMA_7B
from repro.workload import trace_from_distribution
from serving_common import (DELTA_RATIO_7B, delta_manager, deltazip_engine,
                            full_manager, rtx3090_node, scb_engine)


def _experiment():
    trace = trace_from_distribution("zipf:1.5", 12, rate=0.5,
                                    duration_s=60.0, seed=6)
    node = rtx3090_node(1)
    scb = scb_engine(full_manager(LLAMA_7B, n_models=12), node,
                     tp=1).run(trace)
    dz = deltazip_engine(delta_manager(LLAMA_7B, n_models=12,
                                       ratio=DELTA_RATIO_7B),
                         node, n_deltas=3, tp=1).run(trace)
    return {"vllm_scb": scb, "deltazip": dz}


def _phases(result):
    queue = [r.queue_wait_s for r in result.records]
    load = [r.loading_s for r in result.records]
    infer = [r.inference_s for r in result.records]
    return (float(np.mean(queue)), float(np.mean(load)),
            float(np.mean(infer)))


def test_fig16_breakdown(benchmark):
    out = run_once(benchmark, _experiment)
    lines = [f"{'system':9s} {'queue(s)':>9s} {'load(s)':>8s} "
             f"{'infer(s)':>9s} {'makespan':>9s}"]
    for name, result in out.items():
        q, l, i = _phases(result)
        lines.append(f"{name:9s} {q:9.2f} {l:8.2f} {i:9.2f} "
                     f"{result.makespan_s:9.1f}")
    lines.append("\nper-request timeline (first 10 of each):")
    for name, result in out.items():
        lines.append(f"  {name}:")
        for r in sorted(result.records, key=lambda r: r.arrival_s)[:10]:
            # each request's spans: queued until it was first scheduled,
            # then loading for its accumulated load time, then inference
            queued_until = r.arrival_s + r.queue_wait_s
            lines.append(
                f"    {r.model_id:12s} arrive={r.arrival_s:6.1f} "
                f"queued->{queued_until:6.1f} "
                f"loaded->{queued_until + r.loading_s:6.1f} "
                f"finish->{r.finish_s:6.1f}")
    save_table("fig16_breakdown", lines)

    scb_q, scb_l, scb_i = _phases(out["vllm_scb"])
    dz_q, dz_l, dz_i = _phases(out["deltazip"])
    # baseline: queuing + loading dominate; DeltaZip: inference dominates
    assert scb_q + scb_l > scb_i
    assert dz_q + dz_l < scb_q + scb_l
    assert dz_l < scb_l / 3  # deltas are 5-10x smaller to load
    # overall completion is several times faster (paper: ~400s vs ~80s)
    assert out["deltazip"].makespan_s < out["vllm_scb"].makespan_s
