"""The traced run: per-layer metrics from spans around kerdock3's calls.

A traced run of any workload

1. times one untraced pass of that workload, for the tracing overhead;
2. installs the tracer on the public functions of every layer and runs
   set-up, one pass and the checks of all four workloads, the named one
   first, each under a top-level span ``bench.<workload>.<phase>``;
3. reruns ``pair-stats`` and ``sample-stream`` untraced at threads=1 and
   threads=2, checks that their outputs are byte-identical and records
   the thread efficiency (speed-up over threads=1, divided by 2);
4. times each check of ``kerdock3 verify --m 2``;
5. writes every span to ``.bench_out/trace-<workload>-seed<seed>.jsonl.gz``.

Each per-layer metric is taken from the workload where its layer does
most of the work, so a metric means the same on every workload's traced
run.  Byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from kerdock3 import cli, gf2m, graph, kerdock, markov, pauli, sampler, unitary
from tracing import Span, SpanIndex, Tracer
from workloads import Checks, prepare

VERIFY_CHECKS = ("field-dual-bases", "census-closed-form", "chain-closed-forms",
                 "chain-stationary-exact", "full-chain-lumping", "unitary-generators",
                 "unitary-psl", "unitary-samples", "pair-statistics",
                 "kerdock-frame-potential")

PER_LAYER_UNITS = {
    "gf2m.table_build_s": "s",
    "gf2m.table_bytes": "bytes",
    "pauli.walk_kernel_s": "s",
    "pauli.walk_vertex_steps_per_s": "1/s",
    "pauli.walk_bytes_per_step": "bytes",
    "pauli.transvection_matrix_us": "us",
    "kerdock.psl_to_symplectic_us": "us",
    "kerdock.sample_psl_vec_s": "s",
    "sampler.compose_us": "us",
    "sampler.draw_us": "us",
    "sampler.to_json_line_us": "us",
    "sampler.stats_hist_bins": "count",
    "sampler.pair_stats_thread_eff": "ratio",
    "sampler.sample_stream_thread_eff": "ratio",
    "graph.orbit_invariant_vec_s": "s",
    "graph.census_s": "s",
    "markov.q_empirical_s": "s",
    "markov.q_empirical_calls": "count",
    "markov.full_chain_s": "s",
    "markov.lump_chain_s": "s",
    "unitary.collision_frame_potential_3_s": "s",
    "unitary.sample_unitary_us": "us",
    "unitary.frame_potential_estimate_s": "s",
    "unitary.conjugation_check_s": "s",
    **{f"cli.verify_check_s.{name}": "s" for name in VERIFY_CHECKS},
    "trace.overhead_s": "s",
}


def install(tracer: Tracer) -> None:
    """Trace the public functions the workloads reach, layer by layer."""
    built: Dict[int, np.ndarray] = {}

    def table_bytes(args, kwargs, table):
        # a table seen before came from the cache: nothing was built
        if id(table) in built:
            return 0
        built[id(table)] = table
        return table.nbytes

    def size_of_first(args, kwargs, result):
        return int(np.size(result[0]))

    def bins(args, kwargs, hists):
        return sum(int(h.size) for h in hists)

    ctx_cls, sample_cls = gf2m.FieldContext, sampler.DesignSample
    for owner, attr, name, items in [
        (ctx_cls, "__init__", "gf2m.FieldContext", None),
        (ctx_cls, "np_table", "gf2m.FieldContext.np_table", table_bytes),
        (pauli, "transvection_matrix", "pauli.transvection_matrix", None),
        (pauli, "transvection_apply_vec", "pauli.transvection_apply_vec", size_of_first),
        (kerdock, "psl_to_symplectic", "kerdock.psl_to_symplectic", None),
        (kerdock, "sample_psl_vec", "kerdock.sample_psl_vec", size_of_first),
        (graph, "orbit_invariant", "graph.orbit_invariant", None),
        (graph, "orbit_invariant_vec", "graph.orbit_invariant_vec",
         lambda a, k, r: int(np.size(r))),
        (graph, "census", "graph.census", None),
        (markov, "q_empirical", "markov.q_empirical", None),
        (markov, "q1_closed_form", "markov.q1_closed_form", None),
        (markov, "full_chain", "markov.full_chain", None),
        (markov, "lump_chain", "markov.lump_chain", None),
        (markov, "spectral_report", "markov.spectral_report", None),
        (sampler, "sample_at", "sampler.sample_at", None),
        (sampler, "compose", "sampler.compose", None),
        (sample_cls, "to_json_line", "sampler.DesignSample.to_json_line", None),
        (sampler, "write_jsonl", "sampler.write_jsonl", lambda a, k, r: r),
        (sampler, "read_jsonl", "sampler.read_jsonl", lambda a, k, r: len(r)),
        (sampler, "pair_statistics_stream", "sampler.pair_statistics_stream",
         lambda a, k, r: r.samples),
        # private, but the only place the per-batch histograms are visible
        (sampler, "_stats_batch", "sampler._stats_batch", bins),
        (unitary, "sample_unitary", "unitary.sample_unitary", None),
        (unitary, "frame_potential_estimate", "unitary.frame_potential_estimate",
         lambda a, k, r: len(a[0])),
        (unitary, "estimator_margin", "unitary.estimator_margin", None),
        (unitary, "collision_frame_potential_3", "unitary.collision_frame_potential_3", None),
        (unitary, "conjugation_check", "unitary.conjugation_check", None),
        (cli, "main", "cli.main", None),
    ]:
        tracer.patch(owner, attr, name, items)


def verify_probe(tracer: Tracer, seed: int, workdir: str, checks: Checks) -> None:
    """``kerdock3 verify --m 2`` with a span around each check."""
    original = cli._verify_checks

    def timed_checks(args):
        return [(name, tracer.wrap(f"cli.verify_check.{name}", fn))
                for name, fn in original(args)]

    cli._verify_checks = timed_checks
    try:
        with tracer.span("bench.verify") as span:
            rc = cli.main(["verify", "--m", "2", "--seed", str(seed),
                           "--out", os.path.join(workdir, "verify.txt")])
    finally:
        cli._verify_checks = original
    checks.check("verify-m2-passes", rc == 0)
    ran = {s.name for s in tracer.spans if s.parent == span.id}
    for name in VERIFY_CHECKS:
        checks.check(f"verify-check-ran:{name}", f"cli.verify_check.{name}" in ran)


def thread_probe(workloads: Dict, seed: int, workdir: str,
                 checks: Checks) -> Dict[str, float]:
    """Rerun two workloads at threads=1 and 2; outputs must be identical."""
    metrics = {}
    for name, metric in (("pair-stats", "sampler.pair_stats_thread_eff"),
                         ("sample-stream", "sampler.sample_stream_thread_eff")):
        seconds, digests = {}, {}
        for threads in (1, 2):
            wl = replace(workloads[name], threads=threads)
            env = prepare(wl, seed, workdir)
            t0 = time.perf_counter()
            out = wl.run(env)
            seconds[threads] = time.perf_counter() - t0
            digests[threads] = wl.digest(env, out)
        checks.check(f"thread-invariance:{name}", digests[1] == digests[2])
        metrics[metric] = seconds[1] / seconds[2] / 2
    return metrics


def walk_bytes_per_step(wl) -> float:
    """Bytes of one walk-kernel call per vertex-step at the workload's
    batch shape: argument and result arrays plus the table entries it
    gathers (two ``mul`` and one ``trace`` per vertex-step)."""
    ctx = gf2m.FieldContext(wl.m)
    n = ctx.order
    rng = np.random.default_rng(0)
    h1, h2, a, b = (rng.integers(0, n, size=wl.batch_size).astype(np.uint16)
                    for _ in range(4))
    out_a, out_b = pauli.transvection_apply_vec(ctx, h1, h2, a, b)
    moved = sum(x.nbytes for x in (h1, h2, a, b, out_a, out_b))
    gathered = 2 * ctx.np_table("mul").itemsize + ctx.np_table("trace").itemsize
    return moved / wl.batch_size + gathered


def _total(spans: List[Span]) -> float:
    return sum(s.seconds for s in spans)


def _mean_us(spans: List[Span]) -> float:
    if not spans:
        raise ValueError("no spans to average")
    return 1e6 * _total(spans) / len(spans)


def derive(ix: SpanIndex) -> Dict[str, float]:
    """Per-layer metrics from the spans of the four traced workloads."""
    m: Dict[str, float] = {}
    builds = [s for s in ix.under(ix.root("bench.exact-chains.setup"),
                                  "gf2m.FieldContext.np_table") if s.items]
    m["gf2m.table_build_s"] = _total(builds)
    m["gf2m.table_bytes"] = sum(s.items for s in builds)

    ps = ix.root("bench.pair-stats.pass")
    walk = ix.under(ps, "pauli.transvection_apply_vec")
    m["pauli.walk_kernel_s"] = _total(walk)
    m["pauli.walk_vertex_steps_per_s"] = sum(s.items for s in walk) / _total(walk)
    m["kerdock.sample_psl_vec_s"] = _total(ix.under(ps, "kerdock.sample_psl_vec"))
    m["sampler.stats_hist_bins"] = ix.under(ps, "sampler._stats_batch")[0].items

    ss = ix.root("bench.sample-stream.pass")
    m["pauli.transvection_matrix_us"] = _mean_us(ix.under(ss, "pauli.transvection_matrix"))
    m["kerdock.psl_to_symplectic_us"] = _mean_us(ix.under(ss, "kerdock.psl_to_symplectic"))
    m["sampler.compose_us"] = _mean_us(ix.under(ss, "sampler.compose"))
    draws = [s.seconds - _total(ix.direct(s, "sampler.compose"))
             for s in ix.under(ss, "sampler.sample_at")]
    m["sampler.draw_us"] = 1e6 * sum(draws) / len(draws)
    m["sampler.to_json_line_us"] = _mean_us(
        ix.under(ss, "sampler.DesignSample.to_json_line"))

    ex = ix.root("bench.exact-chains.pass")
    m["graph.orbit_invariant_vec_s"] = _total(ix.direct(ex, "graph.orbit_invariant_vec"))
    m["graph.census_s"] = _total(ix.direct(ex, "graph.census"))
    m["markov.q_empirical_s"] = _total(ix.direct(ex, "markov.q_empirical"))
    m["markov.full_chain_s"] = _total(ix.direct(ex, "markov.full_chain"))
    m["markov.lump_chain_s"] = _total(ix.direct(ex, "markov.lump_chain"))
    f3 = ix.direct(ex, "unitary.collision_frame_potential_3")
    m["unitary.collision_frame_potential_3_s"] = _total(f3)
    m["markov.q_empirical_calls"] = len(ix.under(f3[0], "markov.q_empirical"))

    do = ix.root("bench.dense-oracle.pass")
    m["unitary.sample_unitary_us"] = _mean_us(ix.under(do, "unitary.sample_unitary"))
    m["unitary.frame_potential_estimate_s"] = _total(
        ix.under(do, "unitary.frame_potential_estimate"))
    m["unitary.conjugation_check_s"] = _total(
        ix.under(ix.root("bench.dense-oracle.check"), "unitary.conjugation_check"))

    verify = ix.root("bench.verify")
    for name in VERIFY_CHECKS:
        m[f"cli.verify_check_s.{name}"] = _total(
            ix.direct(verify, f"cli.verify_check.{name}"))
    return m


def traced_run(workloads: Dict, name: str, seed: int, workdir: str, trace_path: str,
               checks: Checks) -> Tuple[Dict[str, float], Dict]:
    """Every per-layer metric, and a summary for the run record."""
    main = workloads[name]
    env = prepare(main, seed, workdir)
    t0 = time.perf_counter()
    out = main.run(env)
    untraced_s = time.perf_counter() - t0
    main.check(env, out, checks)

    tracer = Tracer()
    install(tracer)
    try:
        for wl in [main] + [w for w in workloads.values() if w is not main]:
            with tracer.span(f"bench.{wl.name}.setup"):
                state = wl.setup()
            env = prepare(wl, seed, workdir, state)
            with tracer.span(f"bench.{wl.name}.pass"):
                out = wl.run(env)
            with tracer.span(f"bench.{wl.name}.check"):
                wl.check(env, out, checks)
    finally:
        tracer.uninstall()

    verify_probe(tracer, seed, workdir, checks)
    ix = SpanIndex(tracer.spans)
    metrics = derive(ix)
    metrics.update(thread_probe(workloads, seed, workdir, checks))
    metrics["pauli.walk_bytes_per_step"] = walk_bytes_per_step(workloads["pair-stats"])
    traced_s = ix.root(f"bench.{name}.pass").seconds
    metrics["trace.overhead_s"] = traced_s - untraced_s
    spans = tracer.write(trace_path)
    return metrics, {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                     "spans": spans, "trace_file": trace_path}

