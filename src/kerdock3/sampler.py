"""Sampling approximate-3-design elements at the binary-symplectic level.

One sample is: t independent uniform nonzero transvections, one uniform
PSL(2, 2^m) element, one uniform Pauli index (identity allowed), with

    composed = Z_{h_1} . Z_{h_2} ... Z_{h_t} . theta(psl)

as the collapsed symplectic action (right-action order: h_1 applies
first).  The Pauli factor acts trivially at the projective level but is
retained for unitary synthesis.  The step count t comes either from the
mixing-time bound at accuracy eps/N^3 or is given explicitly.

Reproducibility: sample i draws from the Philox substream keyed
(seed, i), so sequential and parallel generation produce byte-identical
streams.  Monte-Carlo statistics use their own substreams keyed
(seed, 2^64-1-batch) — descending from the top so they can never
collide with sample indices — making the statistics reports equally
reproducible and thread-count independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._workers import ordered_map
from .gf2m import FieldContext
from .graph import (EdgeKind, OrbitInvariant, PauliPair, anticommutation_matrix,
                    classify_pair, closed_form_counts, orbit_counts, orbit_invariant_vec,
                    pair_code, pair_split, state_name, state_obj)
from .kerdock import PslElement, psl_to_symplectic, sample_psl, sample_psl_vec
from .markov import mixing_time_bound
from .pauli import (PauliIndex, SymplecticMatrix, Transvection,
                    apply_symplectic, transvection_apply_vec,
                    transvection_matrix, vertex_code, vertex_split)

__all__ = [
    "SamplerConfig",
    "DesignSample",
    "steps_for_epsilon",
    "compose",
    "sample",
    "sample_at",
    "sample_stream",
    "write_jsonl",
    "read_jsonl",
    "ProbeStatistics",
    "PairStatistics",
    "pair_statistics",
    "pair_statistics_stream",
    "mc_sigma",
    "class_size",
]

Probe = Union[PauliIndex, PauliPair]

# a pair probe histograms N^4 image codes: 2^24 bins (128 MiB of int64) at m = 6
MAX_PAIR_BINS = 1 << 24


@dataclass(frozen=True)
class SamplerConfig:
    """Exactly one of epsilon / steps fixes the walk length."""

    m: int
    seed: int
    count: int
    epsilon: Optional[float] = None
    steps: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.epsilon is None) == (self.steps is None):
            raise ValueError("set exactly one of epsilon and steps")
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.steps is not None and self.steps < 0:
            raise ValueError("steps must be non-negative")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.count < 0:
            raise ValueError("count must be non-negative")

    def resolved_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        return steps_for_epsilon(self.m, self.epsilon)


def steps_for_epsilon(m: int, eps: float) -> int:
    """Walk length for a target accuracy: the mixing bound at eps/N^3."""
    return mixing_time_bound(m, eps / (1 << m) ** 3)


@dataclass(frozen=True)
class DesignSample:
    transvections: Tuple[Transvection, ...]
    psl: PslElement
    pauli: PauliIndex
    composed: SymplecticMatrix

    def to_json_line(self, index: int) -> str:
        m = self.composed.m
        width = (2 * m + 3) // 4
        return json.dumps({
            "index": index,
            "transvections": [[format(h.h1, "#x"), format(h.h2, "#x")]
                              for h in self.transvections],
            "psl": [format(x, "#x") for x in self.psl],
            "pauli": [format(self.pauli.a, "#x"), format(self.pauli.b, "#x")],
            "composed": [format(row, f"#0{width + 2}x") for row in self.composed.rows],
        }, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str, m: int) -> Tuple[int, "DesignSample"]:
        """(index, sample) of one line; refuses a ``composed`` row wider than
        2m bits, a transvection, ``psl`` or ``pauli`` entry outside [0, N)
        and a zero transvection, naming the field."""
        obj = json.loads(line)
        rows = [int(r, 16) for r in obj["composed"]]
        for i, row in enumerate(rows):
            if not 0 <= row < 1 << (2 * m):
                raise ValueError(f"composed row {i} = {row:#x} is wider than 2m = {2 * m} bits")
        n = 1 << m
        # n is a power of two, so an OR of entries lies in [0, n) iff every
        # entry does (a negative entry makes it negative)
        transvections = []
        for i, (x, y) in enumerate(obj["transvections"]):
            h = Transvection(int(x, 16), int(y, 16))
            if not 0 < h.h1 | h.h2 < n:
                raise ValueError(f"transvection {i} = [{x}, {y}] must be a nonzero "
                                 f"pair of field elements in [0, {n})")
            transvections.append(h)
        psl = PslElement(*(int(x, 16) for x in obj["psl"]))
        pauli = PauliIndex(*(int(x, 16) for x in obj["pauli"]))
        for name, joined in (("psl", psl.alpha | psl.beta | psl.gamma | psl.delta),
                             ("pauli", pauli.a | pauli.b)):
            if not 0 <= joined < n:
                raise ValueError(f"{name} = {obj[name]} has an entry outside [0, {n})")
        sample = cls(transvections=tuple(transvections), psl=psl, pauli=pauli,
                     composed=SymplecticMatrix(m, rows))
        return int(obj["index"]), sample


def compose(ctx: FieldContext, transvections: Sequence[Transvection],
            psl: PslElement) -> SymplecticMatrix:
    """Z_{h_1} ... Z_{h_t} theta(psl); h_1 acts first on row vectors."""
    out = SymplecticMatrix.identity(ctx.m)
    for h in transvections:
        out = out @ transvection_matrix(ctx, h)
    return out @ psl_to_symplectic(ctx, psl)


def _draw(ctx: FieldContext, steps: int, rng: np.random.Generator
          ) -> Tuple[Tuple[Transvection, ...], PslElement, PauliIndex]:
    """The frozen draw order: transvections, then PSL (two draws), then Pauli."""
    n = ctx.order
    h1, h2 = vertex_split(ctx.m, rng.integers(1, n * n, size=steps))
    transvections = tuple(map(Transvection, h1.tolist(), h2.tolist()))
    psl = sample_psl(ctx, rng)
    return transvections, psl, PauliIndex(*vertex_split(ctx.m, rng.integers(0, n * n)))


def sample(config: SamplerConfig, rng: np.random.Generator,
           ctx: Optional[FieldContext] = None) -> DesignSample:
    """One design sample from the given stream."""
    ctx = _config_ctx(config, ctx)
    transvections, psl, pauli = _draw(ctx, config.resolved_steps(), rng)
    return DesignSample(transvections=transvections, psl=psl, pauli=pauli,
                        composed=compose(ctx, transvections, psl))


def _config_ctx(config: SamplerConfig, ctx: Optional[FieldContext]) -> FieldContext:
    """``ctx``, or the default field of degree ``config.m``; refuses another degree."""
    if ctx is None:
        return FieldContext(config.m)
    if ctx.m != config.m:
        raise ValueError(f"field context has m={ctx.m}, the config has m={config.m}")
    return ctx


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index],
                                                             dtype=np.uint64)))


def sample_at(config: SamplerConfig, index: int,
              ctx: Optional[FieldContext] = None) -> DesignSample:
    """Sample ``index`` of the stream, from the Philox substream (seed, index)."""
    return sample(config, _substream(config.seed, index), ctx)


def sample_stream(config: SamplerConfig, threads: int = 1) -> Iterator[DesignSample]:
    """The ``count`` samples, in index order, identical for any thread count."""
    ctx = FieldContext(config.m)
    yield from ordered_map(lambda i: sample_at(config, i, ctx), range(config.count), threads)


def write_jsonl(samples: Iterator[DesignSample], fh) -> int:
    count = 0
    for i, s in enumerate(samples):
        fh.write(s.to_json_line(i) + "\n")
        count += 1
    return count


def read_jsonl(fh, m: int) -> List[Tuple[int, DesignSample]]:
    return [DesignSample.from_json_line(line, m) for line in fh if line.strip()]


# --- Monte Carlo pair statistics ---


def class_size(ctx: FieldContext, probe: Probe) -> Tuple[str, int]:
    """(class name, class cardinality) for a probe vertex or pair; refuses an
    element outside [0, N), a zero vertex, or (``classify_pair``) a pair
    with a zero or repeated entry."""
    counts = closed_form_counts(ctx.m)
    vertex = isinstance(probe, PauliIndex) or (len(probe) == 2 and isinstance(probe[0], int))
    if not all(0 <= x < ctx.order for v in ([probe] if vertex else probe) for x in v):
        raise ValueError(f"field elements must lie in [0, {ctx.order})")
    if vertex:
        if tuple(probe) == (0, 0):
            raise ValueError("a vertex probe must be a nonzero Pauli index")
        return "vertices", counts["vertices"]
    if classify_pair(ctx, probe) == EdgeKind.NON_EDGE:
        return "anticommuting_pairs", counts["non_edges"]
    return "commuting_pairs", counts["directed_edges"]


def mc_sigma(k: int, samples: int) -> float:
    """Scale of the Monte-Carlo fluctuation of empirical TV to uniform
    over a class of k outcomes: 0.5 sqrt(k / samples)."""
    return 0.5 * (k / samples) ** 0.5


@dataclass
class ProbeStatistics:
    probe: Probe
    class_name: str
    class_size: int
    samples: int
    tv_to_uniform: float
    orbit_histogram: Optional[Dict[OrbitInvariant, int]] = None

    def four_sigma(self) -> float:
        return 4.0 * mc_sigma(self.class_size, self.samples)


@dataclass
class PairStatistics:
    m: int
    steps: int
    samples: int
    probes: List[ProbeStatistics]

    def to_json(self) -> str:
        return json.dumps({
            "m": self.m,
            "steps": self.steps,
            "samples": self.samples,
            "probes": [{
                "probe": state_obj(p.probe),
                "class": p.class_name,
                "class_size": p.class_size,
                "tv_to_uniform": p.tv_to_uniform,
                "four_sigma": p.four_sigma(),
                "orbit_histogram": None if p.orbit_histogram is None else {
                    state_name(inv): c for inv, c in sorted(p.orbit_histogram.items())},
            } for p in self.probes],
        }, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["probe,class,class_size,samples,tv_to_uniform,four_sigma"]
        for p in self.probes:
            lines.append(f"{state_name(p.probe)},{p.class_name},{p.class_size},"
                         f"{p.samples},{p.tv_to_uniform!r},{p.four_sigma()!r}")
        return "\n".join(lines) + "\n"


def _normalize_probes(ctx: FieldContext, probes: Sequence[Probe]) -> List[Probe]:
    """Probes as PauliIndex / PauliPair, each checked by ``class_size``; at
    least one pair, and every pair histogram (N^4 bins) within MAX_PAIR_BINS."""
    out: List[Probe] = []
    for probe in probes:
        if isinstance(probe[0], int):
            out.append(PauliIndex(*probe))
        else:
            out.append(PauliPair(PauliIndex(*probe[0]), PauliIndex(*probe[1])))
        try:
            class_size(ctx, out[-1])
        except ValueError as exc:
            raise ValueError(f"probe {state_name(out[-1])}: {exc}") from None
    if not any(isinstance(p, PauliPair) for p in out):
        raise ValueError("probes must include at least one pair")
    if 1 << (4 * ctx.m) > MAX_PAIR_BINS:
        raise ValueError(f"a pair probe at m={ctx.m} needs 2^{4 * ctx.m} histogram bins; "
                         f"the cap is {MAX_PAIR_BINS} (m <= 6)")
    return out


def pair_statistics(ctx: FieldContext, samples: Sequence[DesignSample],
                    probes: Sequence[Probe]) -> PairStatistics:
    """Exact (per-sample) statistics for explicit sample lists."""
    probes = _normalize_probes(ctx, probes)
    if not samples:
        raise ValueError("pair statistics need at least one sample")
    m = ctx.m
    for s in samples:
        if s.composed.m != m:
            raise ValueError(f"a sample of degree m = {s.composed.m} in the field of "
                             f"degree m = {m}")
    counts = _zero_counts(ctx, probes)
    for s in samples:
        f = s.composed
        for i, probe in enumerate(probes):
            if isinstance(probe, PauliIndex):
                counts[i][vertex_code(m, *apply_symplectic(ctx, f, probe)) - 1] += 1
            else:
                v, w = (vertex_code(m, *apply_symplectic(ctx, f, x)) for x in probe)
                counts[i][pair_code(m, v, w)] += 1
    lengths = {len(s.transvections) for s in samples}
    steps = lengths.pop() if len(lengths) == 1 else None
    return _statistics_from_counts(ctx, probes, counts, len(samples), steps=steps)


def _zero_counts(ctx: FieldContext, probes: List[Probe]) -> List[np.ndarray]:
    """Empty histograms: N^2 - 1 vertex codes per vertex probe, N^4 pair
    codes v * N^2 + w per pair probe."""
    n = ctx.order
    return [np.zeros((n * n - 1) if isinstance(p, PauliIndex) else n ** 4, dtype=np.int64)
            for p in probes]


def _statistics_from_counts(ctx: FieldContext, probes: List[Probe],
                            counts: List[np.ndarray], total: int,
                            steps: Optional[int]) -> PairStatistics:
    stats = []
    for probe, hist in zip(probes, counts):
        name, k = class_size(ctx, probe)
        if isinstance(probe, PauliIndex):
            member = hist
        else:
            anti = anticommutation_matrix(ctx)
            mask = anti if name == "anticommuting_pairs" else ~anti
            mask[0, :] = mask[:, 0] = False
            np.fill_diagonal(mask, False)
            member = hist[mask.ravel()]
            if int(member.sum()) != total:
                raise AssertionError("probe images escaped their pair class")
        tv = 0.5 * float(np.abs(member / total - 1.0 / k).sum())
        orbit_hist = None
        if isinstance(probe, PauliPair):
            codes = np.flatnonzero(hist)
            v, w = pair_split(ctx.m, codes)
            keys = orbit_invariant_vec(ctx, *vertex_split(ctx.m, v),
                                       *vertex_split(ctx.m, w))
            orbit_hist = orbit_counts(keys, hist[codes])
        stats.append(ProbeStatistics(probe=probe, class_name=name, class_size=k,
                                     samples=total, tv_to_uniform=tv,
                                     orbit_histogram=orbit_hist))
    return PairStatistics(m=ctx.m, steps=steps if steps is not None else -1,
                          samples=total, probes=stats)


def _stats_batch(ctx: FieldContext, config: SamplerConfig, probes: List[Probe],
                 batch_index: int, batch_size: int, steps: int) -> List[np.ndarray]:
    """Histogram contribution of one statistics batch (own substream).

    The distinct probe vertices walk together as rows of one (V, batch)
    array, so each step is a single kernel call with that step's
    transvections broadcast across the rows.
    """
    n, m = ctx.order, ctx.m
    rng = _substream(config.seed, 2 ** 64 - 1 - batch_index)
    ks = rng.integers(1, n * n, size=(steps, batch_size), dtype=np.uint32)
    alpha, beta, gamma, delta = sample_psl_vec(ctx, rng, batch_size)
    verts = list(dict.fromkeys(
        v for p in probes for v in ([p] if isinstance(p, PauliIndex) else p)))
    row = {v: i for i, v in enumerate(verts)}
    a = np.array([[v.a] for v in verts], dtype=np.uint16)
    b = np.array([[v.b] for v in verts], dtype=np.uint16)
    for k in ks:
        a, b = transvection_apply_vec(ctx, *vertex_split(m, k), a, b)
    # the PSL image (a, b) g; a, b become logs, freeing the fields early
    log, exp = ctx.np_table("log"), ctx.np_table("exp")
    a, b = log[a], log[b]
    images = vertex_code(m, (exp[a + log[alpha]] ^ exp[b + log[gamma]]).astype(np.int64),
                         exp[a + log[beta]] ^ exp[b + log[delta]])
    out = []
    for probe in probes:
        if isinstance(probe, PauliIndex):
            out.append(np.bincount(images[row[probe]] - 1, minlength=n * n - 1))
        else:
            v, w = (images[row[x]] for x in probe)
            out.append(np.bincount(pair_code(m, v, w), minlength=n ** 4))
    return out


def pair_statistics_stream(config: SamplerConfig, probes: Sequence[Probe],
                           threads: int = 1, batch_size: int = 1 << 17,
                           ctx: Optional[FieldContext] = None) -> PairStatistics:
    """Monte-Carlo image statistics at scale, without materializing samples.

    Tracks only the probe images through the vectorized transvection and
    PSL kernels; the Pauli factor is never drawn here since it acts
    trivially on indices.  The walk runs in ``ctx`` (default: the default
    field of degree ``config.m``).  For a fixed ``batch_size`` the result
    is byte-identical for any ``threads`` value, because batch j always
    consumes the substream (seed, 2^64-1-j) and the merge is an ordered
    running sum, so memory does not grow with the number of batches.
    """
    ctx = _config_ctx(config, ctx)
    probes = _normalize_probes(ctx, probes)
    if config.count < 1:
        raise ValueError(f"pair statistics need count >= 1, got {config.count}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    steps = config.resolved_steps()
    counts = _zero_counts(ctx, probes)

    def batch(lo: int) -> List[np.ndarray]:
        return _stats_batch(ctx, config, probes, lo // batch_size,
                            min(batch_size, config.count - lo), steps)

    for part in ordered_map(batch, range(0, config.count, batch_size), threads):
        for total, hist in zip(counts, part):
            total += hist
    return _statistics_from_counts(ctx, probes, counts, config.count, steps)
