"""Smoke tests of the benchmark at small sizes.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, SpanIndex, Tracer, self_times_ns  # noqa: E402

SMALL = {
    "sample-stream": workloads.SampleStream(m=3, count=20),
    "pair-stats": workloads.PairStats(steps=6, count=4096, batch_size=1024),
    "dense-oracle": workloads.DenseOracle(steps=4, count=40),
    "exact-chains": workloads.ExactChains(orbit_m=4, orbit_pairs=4096, orbit_checked=64,
                                          census_m=3, chain_m=4, full_m=2, f3_m=3, f3_t=2),
}


def run_pass(wl, tmp_path, seed=3):
    env = workloads.prepare(wl, seed, str(tmp_path))
    return env, wl.run(env)


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(0, None, "root", 0, 100),
             Span(1, 0, "a", 10, 30), Span(2, 0, "b", 20, 50),  # overlap: 10..50
             Span(3, 0, "c", 90, 120),                          # clipped to 90..100
             Span(4, 1, "leaf", 12, 18)]
    selfs = self_times_ns(spans)
    assert selfs == {0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}


def test_patch_traces_every_binding_and_uninstall_restores(tmp_path):
    from kerdock3 import pauli, sampler

    original = pauli.transvection_matrix
    tracer = Tracer()
    tracer.patch(pauli, "transvection_matrix", "pauli.transvection_matrix")
    tracer.patch(sampler, "compose", "sampler.compose")
    try:
        assert sampler.transvection_matrix is pauli.transvection_matrix is not original
        wl = SMALL["sample-stream"]
        env, _ = run_pass(wl, tmp_path)
        config = sampler.SamplerConfig(m=3, seed=1, count=1, steps=4)
        sampler.sample_at(config, 0, env.ctx)
    finally:
        tracer.uninstall()
    assert sampler.transvection_matrix is pauli.transvection_matrix is original
    ix = SpanIndex(tracer.spans)
    compose = [s for s in tracer.spans if s.name == "sampler.compose"]
    assert len(compose) == 21
    assert len(ix.direct(compose[-1], "pauli.transvection_matrix")) == 4


@pytest.mark.parametrize("name", list(SMALL))
def test_workload_pass_is_checked_without_failures(name, tmp_path):
    wl = SMALL[name]
    env, out = run_pass(wl, tmp_path)
    checks = workloads.Checks()
    wl.check(env, out, checks)
    assert checks.attempted > 0
    assert checks.failed_count == 0, dict(checks.failed)


def test_corrupted_sample_stream_is_counted_as_failed(tmp_path):
    wl = SMALL["sample-stream"]
    env, out = run_pass(wl, tmp_path)
    lines = Path(out.path).read_text().splitlines()
    record = json.loads(lines[5])
    record["composed"][0] = record["composed"][1]  # two equal rows: singular
    lines[5] = json.dumps(record, sort_keys=True)
    Path(out.path).write_text("\n".join(lines) + "\n")
    with open(out.path) as fh:
        out.records = workloads.sampler.read_jsonl(fh, wl.m)
    checks = workloads.Checks()
    wl.check(env, out, checks)
    assert checks.failed == {"composed-symplectic": 1}


def test_digest_mismatch_and_bad_statistics_are_counted(tmp_path, monkeypatch):
    wl = SMALL["pair-stats"]
    env, out = run_pass(wl, tmp_path)
    monkeypatch.setattr(workloads, "pinned_digest", lambda name, key, seed: "0" * 64)
    out.probes[0].tv_to_uniform = 1.0
    checks = workloads.Checks()
    wl.check(env, out, checks)
    assert checks.failed_count == 2
    assert checks.failed["pinned-sha256"] == 1


def test_pinned_digests_match_the_default_sizes():
    pins = json.loads(workloads.DIGESTS_PATH.read_text())
    defaults = workloads.default_workloads()
    for name in ("sample-stream", "pair-stats"):
        assert list(pins[name]) == [defaults[name].pin_key()]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    checks = workloads.Checks()
    trace = tmp_path / "trace.jsonl.gz"
    metrics, detail = layers.traced_run(SMALL, "dense-oracle", 3, str(tmp_path),
                                        str(trace), checks)
    assert checks.failed_count == 0, dict(checks.failed)
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert metrics["markov.q_empirical_calls"] > 2
    assert metrics["sampler.stats_hist_bins"] == 2 * 4 ** 4
    assert metrics["pauli.walk_bytes_per_step"] == 17
    with gzip.open(trace, "rt") as fh:
        header, *spans = fh.read().splitlines()
    assert json.loads(header)["fields"][-1] == "self_ns"
    assert len(spans) == detail["spans"]


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pair-stats",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
