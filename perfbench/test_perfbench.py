"""Tests of the benchmark itself, on short traces of every workload.

Each workload runs once untraced and once traced, each in its own
process exactly as the benchmark is invoked.  The tests check that the
metric names and units match ``BENCHMARK.json`` and the documented sets,
that the record digest repeats from run to run, that tracing leaves the
records identical, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SCALE = "0.05"
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

WORKLOAD_NAMES = ("variants-bursty", "fleet-tenants", "sessions-disagg")

END_TO_END = ("host_rps", "setup_s", "peak_rss_mb", "failed_frac",
              "sim_ttft_p50_s", "sim_ttft_p99_s", "sim_tpot_p50_s",
              "sim_tpot_p99_s", "sim_goodput_rps", "sim_slo_attainment")

#: counts that must repeat exactly between runs at one seed
NAMED_COUNTS = ("engine.iterations", "engine.steps", "sim.events",
                "cluster.replica_reads", "prefix_cache.hits",
                "tenancy.shed")


def _command(workload: str, trace: int, seed: int = 3):
    return [sys.executable, str(RUN), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            "--scale", SCALE, "--print-digests"]


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (returncode, digest JSON, result, stderr);
    the six runs share the machine's cores."""
    procs = {(w, t): subprocess.Popen(_command(w, t), cwd=ROOT,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
             for w in WORKLOAD_NAMES for t in (0, 1)}
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        lines = stdout.strip().splitlines()
        out[key] = (proc.returncode, json.loads("\n".join(lines[:-1])),
                    json.loads(lines[-1]), stderr)
    return out


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_the_benchmark():
    from perfbench import run
    from perfbench.workloads import WORKLOADS
    assert tuple(run.END_TO_END_UNITS) == END_TO_END
    declared = _declared()
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    for metric in declared["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(runs, workload):
    declared = _declared()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, _, result, stderr = runs[(workload, trace)]
        assert code == 0, stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in declared[kind]}
    # the human report names all ten end-to-end metrics
    report = runs[(workload, 0)][3]
    for name in END_TO_END:
        assert name in report


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_digest_is_stable_and_tracing_leaves_records_identical(runs,
                                                               workload):
    # the traced run replays untraced first and fails its own check if
    # the traced replay's records differ; both runs must agree on the
    # untraced digest, which repeats across processes
    _, untraced, _, _ = runs[(workload, 0)]
    code, traced, result, stderr = runs[(workload, 1)]
    assert code == 0 and result["correct"], stderr
    assert untraced["digest"] == traced["digest"]


def test_named_counts_repeat_exactly():
    first = subprocess.run(_command("fleet-tenants", 1), cwd=ROOT,
                           capture_output=True, text=True, timeout=300)
    second = subprocess.run(_command("fleet-tenants", 1), cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    a = json.loads(first.stdout.strip().splitlines()[-1])["metrics"]
    b = json.loads(second.stdout.strip().splitlines()[-1])["metrics"]
    for name in NAMED_COUNTS:
        assert a[name] == b[name], name


def test_tracer_restores_every_wrapped_attribute():
    from perfbench.tracer import COUNTED_READS, SPAN_TARGETS, Tracer
    targets = [(cls, attr) for cls, attr, _ in SPAN_TARGETS] + \
        list(COUNTED_READS)
    before = {(cls, attr): cls.__dict__.get(attr) for cls, attr in targets}
    with Tracer().installed():
        for cls, attr in targets:
            assert cls.__dict__.get(attr) is not before[(cls, attr)]
    for cls, attr in targets:
        assert cls.__dict__.get(attr) is before[(cls, attr)]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "variants-bursty", "--seed", "1", "--seconds",
                           "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
