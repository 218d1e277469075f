"""The benchmark's four workloads and their output checks.

Each workload is a frozen dataclass whose fields fix its sizes:

- ``setup()`` builds what the timed section needs from the program:
  ``FieldContext`` objects and their lookup tables.  In a fresh
  interpreter, import plus ``setup()`` is what ``setup_s`` times.
- ``inputs(seed)`` makes the seeded inputs (untimed).
- ``run(env)`` is one pass of the timed section.
- ``check(env, out, checks)`` checks a pass's outputs (untimed).
- ``digest(env, out)`` is the sha256 of the pass's artifact, compared
  with ``digests.json`` when that file pins one for these sizes and seed.

Why these four: each ROADMAP optimisation acts on one module, so each
module has a workload where it does most of the work and one where it
does little.  ``sample-stream`` is the scalar per-sample path at m = 6,
where ``compose`` dominates; ``pair-stats`` is the vectorized
transvection walk (criterion 10c shape), which never calls ``compose``;
``dense-oracle`` is criterion 10d at reduced S, the scalar sampler at
m = 2 plus dense unitaries; ``exact-chains`` samples nothing and builds
the exact orbit chains, where the N x N field tables and the repeated
chain builds of the third frame potential cost most.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import ClassVar, Dict, Optional

import numpy as np

from kerdock3 import cli, gf2m, graph, markov, sampler, unitary
from kerdock3.graph import PauliPair
from kerdock3.pauli import PauliIndex

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
TABLES = ("mul", "div", "trace")
CHAINS = ("edges", "nonedges")
# criterion 10c probes: a commuting and an anticommuting pair at m = 2
PAIR_PROBES = (((0x1, 0x0), (0x2, 0x0)), ((0x1, 0x0), (0x0, 0x2)))


class Checks:
    """Output checks of one run: how many were attempted, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed[name] += 1

    @property
    def failed_count(self) -> int:
        return sum(self.failed.values())


def prepare(wl, seed: int, workdir: str, state: Optional[Dict] = None) -> SimpleNamespace:
    """Set-up state (made here unless given) plus seeded inputs, as the
    timed section sees them."""
    state = wl.setup() if state is None else state
    return SimpleNamespace(seed=seed, workdir=workdir, **state, **wl.inputs(seed))


def pinned_digest(name: str, key: str, seed: int) -> Optional[str]:
    with open(DIGESTS_PATH) as fh:
        pins = json.load(fh)
    return pins.get(name, {}).get(key, {}).get(str(seed))


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_pinned(wl, env, out, checks: Checks) -> None:
    """Compare the pass's digest with ``digests.json`` if that pins one."""
    want = pinned_digest(wl.name, wl.pin_key(), env.seed)
    if want is not None:
        checks.check("pinned-sha256", wl.digest(env, out) == want)


@dataclass(frozen=True)
class SampleStream:
    """``kerdock3 sample`` into a JSONL file, then ``read_jsonl`` of it."""

    name: ClassVar[str] = "sample-stream"
    m: int = 6
    epsilon: float = 0.01
    count: int = 2000
    threads: int = 1

    @property
    def samples(self) -> int:
        return self.count

    def provenance(self) -> Dict:
        return {"m": self.m, "steps": sampler.steps_for_epsilon(self.m, self.epsilon),
                "epsilon": self.epsilon, "count": self.count, "batch_size": None,
                "threads": self.threads}

    def pin_key(self) -> str:
        return f"m={self.m} epsilon={self.epsilon!r} count={self.count}"

    def setup(self) -> Dict:
        return {"ctx": gf2m.FieldContext(self.m)}

    def inputs(self, seed: int) -> Dict:
        return {}

    def run(self, env):
        path = os.path.join(env.workdir, f"samples-{self.threads}.jsonl")
        rc = cli.main(["sample", "--m", str(self.m), "--epsilon", repr(self.epsilon),
                       "--threads", str(self.threads), "--seed", str(env.seed),
                       "--count", str(self.count), "--out", path])
        with open(path) as fh:
            records = sampler.read_jsonl(fh, self.m)
        return SimpleNamespace(rc=rc, path=path, records=records)

    def digest(self, env, out) -> str:
        return _sha256_file(out.path)

    def check(self, env, out, checks: Checks) -> None:
        checks.check("cli-exit-code", out.rc == 0)
        checks.check("record-count", len(out.records) == self.count)
        with open(out.path) as fh:
            lines = fh.read().splitlines()
        for i, (index, s) in enumerate(out.records):
            checks.check("composed-symplectic", s.composed.is_symplectic())
            checks.check("read-back-round-trip",
                         index == i and i < len(lines) and s.to_json_line(index) == lines[i])
        check_pinned(self, env, out, checks)


@dataclass(frozen=True)
class PairStats:
    """``pair_statistics_stream`` with the criterion 10c probes."""

    name: ClassVar[str] = "pair-stats"
    m: int = 2
    steps: int = 56
    count: int = 1 << 20
    batch_size: int = 1 << 17
    threads: int = 1

    @property
    def samples(self) -> int:
        return self.count

    def provenance(self) -> Dict:
        return {"m": self.m, "steps": self.steps, "count": self.count,
                "batch_size": self.batch_size, "threads": self.threads}

    def pin_key(self) -> str:
        return f"m={self.m} steps={self.steps} count={self.count} batch={self.batch_size}"

    def setup(self) -> Dict:
        ctx = gf2m.FieldContext(self.m)
        for name in TABLES:
            ctx.np_table(name)
        return {"ctx": ctx}

    def inputs(self, seed: int) -> Dict:
        return {"config": sampler.SamplerConfig(m=self.m, seed=seed, count=self.count,
                                                steps=self.steps)}

    def run(self, env):
        return sampler.pair_statistics_stream(env.config, PAIR_PROBES, threads=self.threads,
                                              batch_size=self.batch_size)

    def digest(self, env, out) -> str:
        return hashlib.sha256(out.to_json().encode()).hexdigest()

    def check(self, env, out, checks: Checks) -> None:
        checks.check("probe-classes", sorted(p.class_name for p in out.probes)
                     == ["anticommuting_pairs", "commuting_pairs"])
        for p in out.probes:
            checks.check("sample-count", p.samples == self.count)
            checks.check(f"tv-within-4-sigma:{p.class_name}",
                         p.tv_to_uniform <= 0.05 + p.four_sigma())
        check_pinned(self, env, out, checks)


@dataclass(frozen=True)
class DenseOracle:
    """Criterion 10d at reduced S: samples, dense unitaries, F_3 estimate."""

    name: ClassVar[str] = "dense-oracle"
    m: int = 2
    steps: int = 56
    count: int = 2000
    conjugation_checked: int = 4

    @property
    def samples(self) -> int:
        return self.count

    def provenance(self) -> Dict:
        return {"m": self.m, "steps": self.steps, "count": self.count,
                "batch_size": None, "threads": 1}

    def setup(self) -> Dict:
        return {"ctx": gf2m.FieldContext(self.m)}

    def inputs(self, seed: int) -> Dict:
        return {"config": sampler.SamplerConfig(m=self.m, seed=seed, count=self.count,
                                                steps=self.steps)}

    def run(self, env):
        samples = list(sampler.sample_stream(env.config))
        unitaries = [unitary.sample_unitary(env.ctx, s) for s in samples]
        fhat, sigma = unitary.frame_potential_estimate(unitaries, 3)
        margin = unitary.estimator_margin(self.m, self.steps, self.count, sigma, env.ctx)
        return SimpleNamespace(samples=samples, unitaries=unitaries, fhat=fhat,
                               sigma=sigma, margin=margin)

    def check(self, env, out, checks: Checks) -> None:
        checks.check("sample-count", len(out.unitaries) == self.count)
        checks.check("f3-within-10d-bound", 6.0 - 1e-6 <= out.fhat <= 6.0 + out.margin)
        for s, u in list(zip(out.samples, out.unitaries))[:self.conjugation_checked]:
            try:
                unitary.conjugation_check(env.ctx, u, s.composed)
                ok = True
            except unitary.ConjugationFailure:
                ok = False
            checks.check("conjugation-check", ok)


@dataclass(frozen=True)
class ExactChains:
    """Orbit keys, census, exact chains, lumping, spectra and exact F_3."""

    name: ClassVar[str] = "exact-chains"
    orbit_m: int = 10
    orbit_pairs: int = 1 << 20
    orbit_checked: int = 2048
    census_m: int = 6
    chain_m: int = 8
    full_m: int = 3
    f3_m: int = 5
    f3_t: int = 5

    @property
    def samples(self) -> int:
        """Seeded random pairs classified per pass."""
        return self.orbit_pairs

    def provenance(self) -> Dict:
        return {"m": {"orbit": self.orbit_m, "census": self.census_m, "chain": self.chain_m,
                      "full_chain": self.full_m, "f3": self.f3_m},
                "steps": self.f3_t, "count": self.orbit_pairs, "batch_size": None,
                "threads": 1}

    def setup(self) -> Dict:
        ms = {self.orbit_m, self.census_m, self.chain_m, self.full_m, self.f3_m}
        ctxs = {m: gf2m.FieldContext(m) for m in sorted(ms)}
        for ctx in ctxs.values():
            for name in TABLES:
                ctx.np_table(name)
        return {"ctxs": ctxs}

    def inputs(self, seed: int) -> Dict:
        rng = np.random.default_rng(seed)
        n = 1 << self.orbit_m
        nsq = n * n
        v = rng.integers(1, nsq, size=self.orbit_pairs)
        w = (v - 1 + rng.integers(1, nsq - 1, size=self.orbit_pairs)) % (nsq - 1) + 1
        parts = (v & (n - 1), v >> self.orbit_m, w & (n - 1), w >> self.orbit_m)
        return {"pairs": tuple(x.astype(np.uint16) for x in parts),
                "orbit_subsample": rng.integers(0, self.orbit_pairs, size=self.orbit_checked)}

    def run(self, env):
        c = env.ctxs
        keys = graph.orbit_invariant_vec(c[self.orbit_m], *env.pairs)
        report = graph.census(c[self.census_m])
        chains = {ch: markov.q_empirical(c[self.chain_m], ch) for ch in CHAINS}
        lumped = {ch: markov.lump_chain(c[self.full_m], markov.full_chain(c[self.full_m], ch))
                  for ch in CHAINS}
        spectra = {ch: markov.spectral_report(chains[ch]) for ch in CHAINS}
        f3 = unitary.collision_frame_potential_3(c[self.f3_m], self.f3_t)
        return SimpleNamespace(keys=keys, census=report, chains=chains, lumped=lumped,
                               spectra=spectra, f3=f3)

    def check(self, env, out, checks: Checks) -> None:
        c = env.ctxs
        checks.check("census-closed-form", out.census.matches_closed_form())
        closed, q1 = markov.q1_closed_form(c[self.chain_m]), out.chains["nonedges"]
        checks.check("nonedges-closed-form", closed.states == q1.states
                     and closed.denominator == q1.denominator
                     and np.array_equal(closed.numerators, q1.numerators))
        for ch in CHAINS:
            ref, got = markov.q_empirical(c[self.full_m], ch), out.lumped[ch]
            checks.check(f"lumped-equals-empirical:{ch}", ref.states == got.states
                         and ref.denominator == got.denominator
                         and np.array_equal(ref.numerators, got.numerators))
        checks.check("nonedges-lambda2-closed-form",
                     abs(out.spectra["nonedges"].lambda2
                         - markov.lambda_q1_closed(self.chain_m)) < 1e-9)
        checks.check("edges-lambda2-bound", out.spectra["edges"].lambda2
                     <= markov.lambda_q0_bound(self.chain_m) + 1e-9)
        checks.check("f3-at-least-haar", out.f3 >= 6.0 - 1e-9)
        a, b, cc, d = env.pairs
        ctx = c[self.orbit_m]
        for i in env.orbit_subsample:
            inv = graph.orbit_invariant(ctx, PauliPair(PauliIndex(int(a[i]), int(b[i])),
                                                       PauliIndex(int(cc[i]), int(d[i]))))
            checks.check("orbit-key-matches-scalar",
                         int(out.keys[i]) == int(inv.kind) * 65536 + inv.value)


def default_workloads() -> Dict[str, object]:
    return {wl.name: wl for wl in (SampleStream(), PairStats(), DenseOracle(), ExactChains())}
