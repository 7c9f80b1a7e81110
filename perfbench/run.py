"""The repository's benchmark: three serving-stack workloads, end-to-end
host and simulated metrics, and a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload variants-bursty --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` replays the workload untraced for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` replays it once untraced and once
with span wrappers installed, runs the fidelity sweep, and prints the
per-layer metrics.  Every run checks its outputs (one terminal record per
request, record consistency, bit-identical repeat and traced replays, the
archived digests at the default seed) and exits non-zero when a check
fails.  ``--workload all`` runs every workload in both modes, each in its
own process.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ARCHIVE = Path(__file__).resolve().parent / "digests.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    sys.exit(f"perfbench: repro imported from {repro.__file__}, not from "
             f"{ROOT / 'src'}")

from perfbench.fidelity import run_sweep  # noqa: E402
from perfbench.harness import (Checks, Properties, SimTotals,  # noqa: E402
                               check_records, median, percentile, ratio,
                               record_digest, sub_seed, workload_digest)
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: end-to-end metric -> unit (``--trace 0``)
END_TO_END_UNITS = {
    "host_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p99_s": "s",
    "sim_tpot_p50_s": "s",
    "sim_tpot_p99_s": "s",
    "sim_goodput_rps": "req/s",
    "sim_slo_attainment": "ratio",
}

#: per-layer metric -> unit (``--trace 1``)
PER_LAYER_UNITS = {
    "sim.events": "count", "sim.self_s": "s",
    "engine.steps": "count", "engine.iterations": "count",
    "engine.useful_step_ratio": "ratio", "engine.step_self_s": "s",
    "engine.step_p50_us": "us", "engine.step_p99_us": "us",
    "engine.mean_batch": "req", "engine.mean_deltas_per_batch": "count",
    "engine.admit_self_s": "s", "engine.retire_self_s": "s",
    "engine.swap_ins": "count", "engine.preemptions": "count",
    "engine.blocked_admissions": "count",
    "scheduler.calls": "count", "scheduler.self_s": "s",
    "scheduler.sim_queue_wait_p50_s": "s",
    "scheduler.sim_queue_wait_p99_s": "s",
    "costs.calls": "count", "costs.self_s": "s", "costs.sim_load_s": "s",
    "prefix_cache.lookups": "count", "prefix_cache.hits": "count",
    "prefix_cache.hit_rate": "ratio", "prefix_cache.hit_tokens": "tokens",
    "prefix_cache.evictions": "count", "prefix_cache.self_s": "s",
    "cluster.steps": "count", "cluster.self_s": "s",
    "cluster.replica_reads": "count",
    "cluster.replica_reads_per_step": "ratio",
    "balancer.calls": "count", "balancer.self_s": "s",
    "autoscaler.actions": "count", "cluster.mean_replicas": "replicas",
    "tenancy.offered": "count", "tenancy.admitted": "count",
    "tenancy.deferred": "count", "tenancy.shed": "count",
    "tenancy.rejected": "count", "tenancy.admit_ratio": "ratio",
    "tenancy.self_s": "s",
    "disagg.self_s": "s", "kv_transfer.count": "count",
    "kv_transfer.bytes": "bytes", "kv_transfer.sim_s": "s",
    "pool_autoscaler.actions": "count",
    "metrics.observes": "count", "metrics.self_s": "s",
    "metrics.result_s": "s",
    "telemetry.advances": "count", "telemetry.spans": "count",
    "telemetry.self_s": "s",
    "workload.gen_s": "s", "workload.requests": "count",
    "workload.prefix_token_share": "ratio",
    "workload.mean_active_units": "count",
    "workload.max_active_units": "count",
    "workload.mean_batch": "req",
    "workload.deferred_share": "ratio", "workload.shed_share": "ratio",
    "workload.preemptions": "count",
    "trace.replay_s": "s", "trace.remainder_s": "s",
    "trace.overhead_ratio": "ratio",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_archive(name: str, seed: int, scale: float, digest: str,
                  sweep: dict, checks: Checks) -> None:
    archive = json.loads(ARCHIVE.read_text(encoding="utf-8"))
    for label, got in sweep.items():
        want = archive["sweep"].get(label)
        if want != got:
            checks.fail_run(f"fidelity sweep {label}: digest {got} != "
                            f"archived {want}")
    if seed == DEFAULT_SEED and scale == 1.0:
        want = archive["workloads"].get(name)
        if want != digest:
            checks.fail_run(f"{name} seed {seed}: digest {digest} != "
                            f"archived {want}")


def set_up(workload, seed: int, scale: float, k: int):
    """Generate sub-trace ``k`` and build its stack; returns both plus the
    host seconds of the generation and of the whole set-up."""
    start = time.perf_counter()
    trace = workload.make_trace(sub_seed(seed, k), scale)
    generated = time.perf_counter()
    stack = workload.build(trace)
    return trace, stack, generated - start, time.perf_counter() - start


class Replay(NamedTuple):
    """One replay of one sub-trace."""

    k: int                  # sub-trace index
    trace: object
    stack: object
    records: list
    digest: str
    setup_s: float          # generating the trace and building the stack
    replay_s: float         # the replay itself


def replays(workload, seed: int, scale: float, checks: Checks,
            seconds: float = 0.0) -> Iterator[Replay]:
    """Replay the sub-traces round-robin, each on a freshly generated trace
    and stack, until every sub-trace ran once and the next replay would
    not finish within ``seconds``.

    The first replay of each sub-trace is checked and fixes its digest;
    every later replay must reproduce that digest."""
    deadline = time.perf_counter() + seconds
    digests: list = []
    last: dict = {}                     # sub-trace -> its last round's time
    i = 0
    while i < workload.n_traces or \
            time.perf_counter() + last[i % workload.n_traces] < deadline:
        k = i % workload.n_traces
        start = time.perf_counter()
        # free the previous replay's stack first, so every replay starts
        # from the same heap and peak memory reflects one replay
        gc.collect()
        trace, stack, _, setup_s = set_up(workload, seed, scale, k)
        wall = stack.replay(trace)
        last[k] = time.perf_counter() - start
        records = stack.terminal_records(trace)
        digest = record_digest(records)
        if i < workload.n_traces:
            check_records(trace, records, checks, f"trace {k}")
            digests.append(digest)
        elif digest != digests[k]:
            checks.fail("a repeat replay diverged", f"trace {k}",
                        [r.request_id for r in trace])
        yield Replay(k, trace, stack, records, digest, setup_s, wall)
        del trace, stack, records
        i += 1


class FirstPass:
    """What the first replay of every sub-trace contributes to a run: the
    traces, their record digests, the simulated totals and the workload
    properties."""

    def __init__(self) -> None:
        self.traces: list = []
        self.digests: list = []
        self.sim = SimTotals()
        self.props = Properties()

    def add(self, run: Replay) -> None:
        self.traces.append(run.trace)
        self.digests.append(run.digest)
        self.sim.add(run.trace, run.records, run.stack)
        self.props.add(run.stack, run.trace, run.records)


def run_untraced(workload, seed, seconds, scale, checks):
    """host_rps is the requests of one pass over the sub-traces divided by
    the pass's host time, each sub-trace timed at its fastest replay: a
    busy host only ever slows a replay down, so the fastest of several is
    the steadiest estimate of the program's own speed."""
    first = FirstPass()
    setup_s = []
    fastest: dict = {}
    for i, run in enumerate(replays(workload, seed, scale, checks,
                                    seconds)):
        setup_s.append(run.setup_s)
        fastest[run.k] = min(run.replay_s, fastest.get(run.k, run.replay_s))
        if i < workload.n_traces:
            first.add(run)
        del run                          # collectable before the next one
    metrics = {
        "host_rps": sum(len(t) for t in first.traces)
        / sum(fastest.values()),
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics.update(first.sim.metrics())
    log(f"{workload.name}: {len(setup_s)} replays of "
        f"{workload.n_traces} sub-traces; simulated percentiles over "
        f"n={len(first.sim.ttft_s)} finished requests (TTFT) and "
        f"n={len(first.sim.tpot_s)} (TPOT)")
    for key, value in first.props.report().items():
        log(f"  property {key} = {value:.6g}")
    return first, metrics


def run_traced(workload, seed, scale, checks, spans_path):
    first = FirstPass()
    untraced_s = 0.0
    for run in replays(workload, seed, scale, checks):
        first.add(run)
        untraced_s += run.replay_s
    tracer = Tracer()
    stacks, gen_s, step_us = [], [], []
    traced_s = 0.0
    for k in range(workload.n_traces):
        gc.collect()
        trace, stack, gen, _ = set_up(workload, seed, scale, k)
        gen_s.append(gen)
        stacks.append(stack)
        with tracer.installed():
            traced_s += stack.replay(trace)
        if record_digest(stack.terminal_records(trace)) != first.digests[k]:
            checks.fail("traced replay records differ from the untraced "
                        "replay", f"trace {k}", [r.request_id for r in trace])
        step_us.extend(d * 1e6 for d in tracer.durations("engine.step"))
        if k == 0:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(spans_path)
        tracer.clear_spans()
    metrics = layer_metrics(tracer, stacks, first, step_us)
    metrics["workload.gen_s"] = median(gen_s)
    metrics["trace.replay_s"] = traced_s
    metrics["trace.remainder_s"] = traced_s - tracer.root_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    attributed = sum(tracer.self_time_metrics().values())
    if abs(attributed + metrics["trace.remainder_s"] - traced_s) > \
            1e-6 * traced_s:
        checks.fail_run("per-layer self times plus the remainder do not "
                        "sum to the traced replay time")
    return first, metrics


def layer_metrics(tracer: Tracer, stacks, first: FirstPass,
                  step_us) -> dict:
    """Per-layer metrics of the traced replays: the tracer's self times and
    call counts, plus counters read from the engines' ``EngineStats`` and
    the admission controller (summed over the sub-traces)."""
    stats = [e.stats for s in stacks for e in s.engines()]
    admission = [a for s in stacks if s.controller is not None
                 for a in s.controller.stats.values()]

    def engines(attr):
        return sum(getattr(s, attr) for s in stats)

    def admitted(attr):
        return sum(getattr(a, attr) for a in admission)

    iterations = engines("iterations")
    props = first.props.report()
    clustered = stacks[0].autoscaler is not None
    m = tracer.self_time_metrics()
    m.update({
        "sim.events": tracer.count("sim.emit") + tracer.count("sim.push"),
        "engine.steps": tracer.count("engine.step"),
        "engine.iterations": iterations,
        "engine.useful_step_ratio": ratio(iterations,
                                          tracer.count("engine.step")),
        "engine.step_p50_us": percentile(step_us, 50),
        "engine.step_p99_us": percentile(step_us, 99),
        "engine.mean_batch": ratio(engines("batched_requests"), iterations),
        "engine.mean_deltas_per_batch": ratio(engines("batched_deltas"),
                                              iterations),
        "engine.swap_ins": engines("swap_ins"),
        "engine.preemptions": engines("preemptions"),
        "engine.blocked_admissions": engines("blocked_admissions"),
        "scheduler.calls": tracer.count("scheduler.schedule"),
        "scheduler.sim_queue_wait_p50_s": percentile(
            first.sim.queue_wait_s, 50),
        "scheduler.sim_queue_wait_p99_s": percentile(
            first.sim.queue_wait_s, 99),
        "costs.calls": tracer.count("costs.iteration_time"),
        "costs.sim_load_s": engines("total_load_s"),
        "prefix_cache.lookups": engines("prefix_lookups"),
        "prefix_cache.hits": engines("prefix_hits"),
        "prefix_cache.hit_rate": ratio(engines("prefix_hits"),
                                       engines("prefix_lookups")),
        "prefix_cache.hit_tokens": engines("prefix_hit_tokens"),
        "prefix_cache.evictions": engines("prefix_evictions"),
        "cluster.steps": tracer.count("cluster.step"),
        "cluster.replica_reads": tracer.reads,
        "cluster.replica_reads_per_step": ratio(
            tracer.reads, tracer.count("cluster.step")),
        "balancer.calls": tracer.count("balancer.choose"),
        "autoscaler.actions": sum(
            1 for s in stacks if s.autoscaler is not None
            for sample in s.autoscaler.history if sample.action),
        "cluster.mean_replicas": props["mean_active_units"]
        if clustered else 0.0,
        "tenancy.offered": admitted("offered"),
        "tenancy.admitted": admitted("admitted"),
        "tenancy.deferred": admitted("deferred"),
        "tenancy.shed": admitted("shed"),
        "tenancy.rejected": admitted("rejected"),
        "tenancy.admit_ratio": ratio(admitted("admitted")
                                     + admitted("deferred"),
                                     admitted("offered")),
        "kv_transfer.count": engines("kv_transfers"),
        "kv_transfer.bytes": engines("kv_transfer_bytes"),
        "kv_transfer.sim_s": engines("kv_transfer_s"),
        "pool_autoscaler.actions": sum(
            len(s.pool_autoscaler.history) for s in stacks
            if s.pool_autoscaler is not None),
        "metrics.observes": tracer.count("metrics.observe"),
        "telemetry.advances": tracer.count("telemetry.advance"),
        "telemetry.spans": sum(s.telemetry.spans.n_closed for s in stacks
                               if s.telemetry is not None),
        "workload.requests": sum(len(t) for t in first.traces),
    })
    m.update({f"workload.{key}": value for key, value in props.items()})
    return m


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    checks = Checks()
    spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.csv.gz"
    if args.trace:
        first, metrics = run_traced(workload, args.seed, args.scale, checks,
                                    spans_path)
        units = PER_LAYER_UNITS
    else:
        first, metrics = run_untraced(workload, args.seed, args.seconds,
                                      args.scale, checks)
        units = END_TO_END_UNITS
    # the fidelity sweep is untimed; it runs with the traced run, which
    # keeps the timed runs within their window
    sweep = run_sweep(checks) if args.trace else {}
    digest = workload_digest(first.digests)
    if args.print_digests:
        print(json.dumps({"workload": workload.name, "digest": digest,
                          "sweep": sweep}, indent=2))
    check_archive(workload.name, args.seed, args.scale, digest, sweep,
                  checks)
    attempted = sum(len(t) for t in first.traces)
    failed = checks.n_failed(attempted)
    if not args.trace:
        metrics["failed_frac"] = failed / attempted
    for message in checks.messages:
        log(f"CHECK FAILED: {message}")
    log(f"{workload.name} seed {args.seed}: digest {digest}")
    for key in units:
        log(f"  {key:34s} {metrics[key]:>16.6g} {units[key]}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    result = {"correct": not checks.messages, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", str(args.scale)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                merged["correct"] = False
            if not trace:
                merged["attempted"] += result.get("attempted", 0)
                merged["failed"] += result.get("failed", 0)
            for key, value in result.get("metrics", {}).items():
                merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="host seconds of timed replays (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the simulated trace length")
    parser.add_argument("--print-digests", action="store_true",
                        help="print this run's digests as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
