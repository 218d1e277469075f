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
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from operator import index
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._workers import ordered_map
from .gf2m import MAX_M, MIN_M, FieldContext, checked_int
from .graph import (CENSUS_MAX_M, EdgeKind, OrbitInvariant, PauliPair, chain_mask,
                    classify_pair, closed_form_counts, orbit_counts,
                    orbit_invariant_vec, pair_code, pair_split, state_name, state_obj)
from .kerdock import PslElement, _check_det, psl_to_symplectic, sample_psl, sample_psl_vec
from .markov import _checked_eps, mixing_time_bound
from .pauli import (PauliIndex, SymplecticMatrix, Transvection,
                    apply_symplectic, transvection_matrix, transvection_product,
                    vertex_code, vertex_split, walk_pairs)

__all__ = [
    "SamplerConfig",
    "DesignSample",
    "steps_for_epsilon",
    "compose",
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


@dataclass(frozen=True)
class SamplerConfig:
    """Exactly one of epsilon / steps fixes the walk length, resolved once
    when the config is made (``dataclasses.replace`` makes a new one)."""

    m: int
    seed: int
    count: int
    epsilon: Optional[float] = None
    steps: Optional[int] = None
    _steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.epsilon is None) == (self.steps is None):
            raise ValueError("set exactly one of epsilon and steps")
        steps = (checked_int("steps", self.steps, 0) if self.epsilon is None
                 else steps_for_epsilon(self.m, self.epsilon))
        checked_int("m", self.m, MIN_M, MAX_M)
        checked_int("seed", self.seed, 0, 2 ** 64 - 1)
        checked_int("count", self.count, 0)
        object.__setattr__(self, "_steps", steps)

    def resolved_steps(self) -> int:
        return self._steps


def steps_for_epsilon(m: int, eps: float) -> int:
    """Walk length for a target accuracy: the mixing bound at eps/N^3,
    with N^3 = 8^m.  Refuses an m that no ``FieldContext`` accepts before
    it reaches 8^m, and an eps that is no number in (0, 1), which the bound
    cannot see: eps/N^3 is inside (0, 1) for every eps up to N^3."""
    m = checked_int("m", m, MIN_M, MAX_M)
    return mixing_time_bound(m, _checked_eps(eps) / 8 ** m)


# Transvection of an (h1, h2) pair, built without the NamedTuple's
# Python-level __new__, a large share of drawing or reading t steps
_transvection = partial(tuple.__new__, Transvection)
_RECORD_FIELDS = frozenset(("composed", "index", "pauli", "psl", "transvections"))


@dataclass(frozen=True)
class DesignSample:
    transvections: Tuple[Transvection, ...]
    psl: PslElement
    pauli: PauliIndex
    composed: SymplecticMatrix

    def to_json_line(self, index: int) -> str:
        """One JSONL record, formatted directly: the bytes of ``json.dumps``
        with ``sort_keys=True`` (keys in sorted order, ", " and ": "
        separators), since every value is an int or a list of hex strings."""
        row = '"%%#0%dx"' % ((2 * self.composed.m + 3) // 4 + 2)
        return ('{"composed": [%s], "index": %d, "pauli": ["%#x", "%#x"], '
                '"psl": ["%#x", "%#x", "%#x", "%#x"], "transvections": [%s]}' % (
                    ", ".join(map(row.__mod__, self.composed.rows)), index, *self.pauli,
                    *self.psl, ", ".join(map('["%#x", "%#x"]'.__mod__, self.transvections))))

    @classmethod
    def from_json_line(cls, line: str, m: int) -> Tuple[int, "DesignSample"]:
        """(index, sample) of one line, in the default field of degree m (the
        field ``sample_at`` writes in); refuses an m that no ``FieldContext``
        accepts and, naming the field, a missing field, an ``index`` other
        than an int >= 0, an entry other than a hex string, a transvection
        other than a pair, a ``composed`` row over 2m bits, an entry outside
        [0, N), a zero transvection, a ``psl`` or ``pauli`` list of the wrong
        length and a ``psl`` of determinant other than 1."""
        m = checked_int("m", m, MIN_M, MAX_M)
        obj = json.loads(line)
        if missing := _RECORD_FIELDS.difference(obj):
            raise ValueError(f"record has no {', '.join(sorted(missing))}")
        if type(obj["index"]) is not int or obj["index"] < 0:  # refuses true and 5.0
            raise ValueError(f"index = {obj['index']!r} must be a non-negative integer")
        rows = _hex_entries(obj, "composed")
        try:
            composed = SymplecticMatrix(m, rows)
        except ValueError as exc:
            raise ValueError(f"composed {exc}") from None
        ctx = _default_field(m)
        raw = obj["transvections"]
        try:
            transvections = tuple([_transvection((int(x, 16), int(y, 16))) for x, y in raw])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"transvections must be pairs of hex strings: {exc}") from None
        ctx.nonzero_pairs("transvection", transvections, raw)
        for name, size in (("psl", 4), ("pauli", 2)):
            if not isinstance(obj[name], list) or len(obj[name]) != size:
                raise ValueError(f"{name} = {obj[name]} must be a list of {size} entries")
        psl = PslElement(*ctx.field_entries("psl =", _hex_entries(obj, "psl"), obj["psl"]))
        pauli = PauliIndex(*ctx.field_entries("pauli =", _hex_entries(obj, "pauli"), obj["pauli"]))
        try:
            _check_det(ctx, psl)
        except ValueError as exc:
            raise ValueError(f"psl = {obj['psl']}: {exc}") from None
        return obj["index"], cls(transvections, psl, pauli, composed)


def _hex_entries(obj: dict, name: str) -> List[int]:
    """The ints of the hex strings in the list field ``name`` of a record."""
    try:
        return [int(x, 16) for x in obj[name]]
    except (TypeError, ValueError):
        raise ValueError(f"{name} = {obj[name]} must be a list of hex strings") from None


def compose(ctx: FieldContext, transvections: Sequence[Transvection],
            psl: PslElement) -> SymplecticMatrix:
    """Z_{h_1} ... Z_{h_t} theta(psl); h_1 acts first on row vectors.  Each
    row of the identity walks through all t transvections in one pass."""
    walk = transvection_product(SymplecticMatrix.identity(ctx.m),
                                [transvection_matrix(ctx, h) for h in transvections])
    return walk @ psl_to_symplectic(ctx, psl)


def _draw(ctx: FieldContext, steps: int, rng: np.random.Generator
          ) -> Tuple[Tuple[Transvection, ...], PslElement, PauliIndex]:
    """The frozen draw order: transvections, then PSL (two draws), then Pauli."""
    n = ctx.order
    h1, h2 = vertex_split(ctx.m, rng.integers(1, n * n, size=steps))
    transvections = tuple(map(_transvection, zip(h1.tolist(), h2.tolist())))
    psl = sample_psl(ctx, rng)
    return transvections, psl, PauliIndex(*vertex_split(ctx.m, rng.integers(0, n * n)))


def _config_ctx(config: SamplerConfig, ctx: Optional[FieldContext]) -> FieldContext:
    """``ctx``, or the default field of degree ``config.m``; refuses another degree."""
    if ctx is None:
        return _default_field(config.m)
    if ctx.m != config.m:
        raise ValueError(f"field context has m={ctx.m}, the config has m={config.m}")
    return ctx


@lru_cache(maxsize=None)
def _default_field(m: int) -> FieldContext:
    """The default field of degree m, built once per process: the field of
    ``sample_at`` without a ``ctx``, of ``sample_stream`` and of
    every line ``from_json_line`` reads."""
    return FieldContext(m)


@lru_cache(maxsize=None)
def _philox_key_type() -> type:
    """The seed sequence ``_substream`` hands to Philox: the key [seed, index]
    itself, since ``Philox(key=...)`` first builds ``SeedSequence(None)``,
    which reads OS entropy only to be overwritten by the key.  Defined on
    first use, because numpy imports ``numpy.random`` lazily and that import
    costs about 5 ms of start-up."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        __slots__ = ("seed", "index")

        def __init__(self, seed: int, index: int):
            self.seed, self.index = seed, index

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is 2 uint64 words; {n_words} words "
                                 f"of {np.dtype(dtype)} were asked for")
            return np.array([self.seed, self.index], dtype=np.uint64)

    return PhiloxKey


def _substream(seed: int, index: int) -> np.random.Generator:
    """The generator of ``Philox(key=[seed, index])``, in the same state."""
    return np.random.Generator(np.random.Philox(_philox_key_type()(seed, index)))


def sample_at(config: SamplerConfig, index: int,
              ctx: Optional[FieldContext] = None) -> DesignSample:
    """Sample ``index`` of the stream, from the Philox substream (seed, index)."""
    ctx = _config_ctx(config, ctx)
    transvections, psl, pauli = _draw(ctx, config.resolved_steps(),
                                      _substream(config.seed, index))
    return DesignSample(transvections=transvections, psl=psl, pauli=pauli,
                        composed=compose(ctx, transvections, psl))


def sample_stream(config: SamplerConfig, threads: int = 1) -> Iterator[DesignSample]:
    """The ``count`` samples, in index order, identical for any thread count."""
    ctx = _default_field(config.m)
    yield from ordered_map(lambda i: sample_at(config, i, ctx), range(config.count), threads)


def write_jsonl(samples: Iterator[DesignSample], fh) -> int:
    count = 0
    for i, s in enumerate(samples):
        fh.write(s.to_json_line(i) + "\n")
        count += 1
    return count


def read_jsonl(fh, m: int) -> List[Tuple[int, DesignSample]]:
    m = checked_int("m", m, MIN_M, MAX_M)
    return [DesignSample.from_json_line(line, m) for line in fh if line.strip()]


# --- Monte Carlo pair statistics ---


def class_size(ctx: FieldContext, probe: Probe) -> Tuple[str, int]:
    """(class name, class cardinality) for a probe vertex or pair; refuses a
    vertex that is no nonzero pair of field elements, and (``classify_pair``)
    a pair with a zero or repeated entry or one outside [0, N)."""
    counts = closed_form_counts(ctx.m)
    if isinstance(probe[0], (int, np.integer)):
        ctx.nonzero_pair("vertex probe", probe)
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


def _normalize_probes(ctx: FieldContext, probes: Sequence[Probe]) -> List[Probe]:
    """Probes as PauliIndex / PauliPair, each checked by ``class_size``; at
    least one pair, and m <= CENSUS_MAX_M, the cap of ``chain_mask``: a
    pair histogram has N^4 bins, 2^24 (128 MiB of int64) at m = 6."""
    out: List[Probe] = []
    for probe in probes:
        # numpy integers are read as ints, as in pack_index
        if isinstance(probe[0], (int, np.integer)):
            out.append(PauliIndex(index(probe[0]), index(probe[1])))
        else:
            out.append(PauliPair(*(PauliIndex(index(x), index(y)) for x, y in probe)))
        try:
            class_size(ctx, out[-1])
        except ValueError as exc:
            raise ValueError(f"probe {state_name(out[-1])}: {exc}") from None
    if not any(isinstance(p, PauliPair) for p in out):
        raise ValueError("probes must include at least one pair")
    if ctx.m > CENSUS_MAX_M:
        raise ValueError(f"a pair probe at m={ctx.m} needs 2^{4 * ctx.m} histogram bins; "
                         f"pair probes are capped at m = {CENSUS_MAX_M}")
    return out


def pair_statistics(ctx: FieldContext, samples: Sequence[DesignSample],
                    probes: Sequence[Probe]) -> PairStatistics:
    """Exact (per-sample) statistics for explicit sample lists: the list
    route beside ``pair_statistics_stream``."""
    probes = _normalize_probes(ctx, probes)
    if not samples:
        raise ValueError("pair statistics need at least one sample")
    m = ctx.m
    for s in samples:
        if s.composed.m != m:
            raise ValueError(f"a sample of degree m = {s.composed.m} in the field of "
                             f"degree m = {m}")
    counts = _probe_histograms(m, probes, lambda verts: np.array(
        [[vertex_code(m, *apply_symplectic(ctx, s.composed, x)) for s in samples]
         for x in verts]))
    lengths = {len(s.transvections) for s in samples}
    steps = lengths.pop() if len(lengths) == 1 else None
    return _statistics_from_counts(ctx, probes, counts, len(samples), steps=steps)


def _probe_histograms(m: int, probes: List[Probe], images) -> List[np.ndarray]:
    """The histogram of each probe's image codes, a vertex probe being a
    probe of one vertex: the vertex code v of its image (N^2 bins, bin 0
    empty), and the pair code v * N^2 + w of a pair probe's images (N^4
    bins).  ``images`` maps the list of distinct probe vertices to the
    (V, S) int64 vertex codes of their images in S samples."""
    parts = [(p,) if isinstance(p, PauliIndex) else p for p in probes]
    verts = list(dict.fromkeys(x for part in parts for x in part))
    image = dict(zip(verts, images(verts)))
    return [np.bincount(reduce(partial(pair_code, m), map(image.get, part), 0),
                        minlength=1 << (2 * m * len(part))) for part in parts]


def _statistics_from_counts(ctx: FieldContext, probes: List[Probe],
                            counts: List[np.ndarray], total: int,
                            steps: Optional[int]) -> PairStatistics:
    stats = []
    masks = {}  # each chain's flat (N^4,) mask, built at most once per call
    for probe, hist in zip(probes, counts):
        name, k = class_size(ctx, probe)
        member, orbit_hist = hist[1:], None  # a vertex probe's class: codes 1..N^2-1
        if isinstance(probe, PauliPair):
            chain = "nonedges" if name == "anticommuting_pairs" else "edges"
            if chain not in masks:
                masks[chain] = chain_mask(ctx, chain).ravel()
            member = hist[masks[chain]]
            if int(member.sum()) != total:
                raise AssertionError("probe images escaped their pair class")
            codes = np.flatnonzero(hist)
            v, w = pair_split(ctx.m, codes)
            keys = orbit_invariant_vec(ctx, *vertex_split(ctx.m, v),
                                       *vertex_split(ctx.m, w))
            orbit_hist = orbit_counts(keys, hist[codes])
        tv = 0.5 * float(np.abs(member / total - 1.0 / k).sum())
        stats.append(ProbeStatistics(probe=probe, class_name=name, class_size=k,
                                     samples=total, tv_to_uniform=tv,
                                     orbit_histogram=orbit_hist))
    return PairStatistics(m=ctx.m, steps=steps if steps is not None else -1,
                          samples=total, probes=stats)


def _stats_batch(ctx: FieldContext, config: SamplerConfig, probes: List[Probe],
                 batch_index: int, batch_size: int, steps: int) -> List[np.ndarray]:
    """Histogram contribution of one statistics batch (own substream).

    The distinct probe vertices walk together as one (V, batch) array of
    field pairs through ``walk_pairs``, with each step's transvection
    codes k = h1 | h2 << m, one per lane, drawn when the walk takes that
    step, so the batch holds one step's codes at a time.  Row by row the
    draws consume the substream as one (steps, batch) draw would.  After
    the last step ``sample_psl_vec`` draws the PSL elements, and the
    image (a, b) g is four ``mul_vec`` products over the same broadcast.
    """
    n, m = ctx.order, ctx.m
    rng = _substream(config.seed, 2 ** 64 - 1 - batch_index)

    def images(verts: List[PauliIndex]) -> np.ndarray:
        codes = (rng.integers(1, n * n, size=batch_size, dtype=np.uint32)
                 for _ in range(steps))
        a, b = walk_pairs(ctx, codes, [[v.a] for v in verts], [[v.b] for v in verts])
        alpha, beta, gamma, delta = sample_psl_vec(ctx, rng, batch_size)
        return vertex_code(m, (ctx.mul_vec(a, alpha) ^ ctx.mul_vec(b, gamma)).astype(np.int64),
                           ctx.mul_vec(a, beta) ^ ctx.mul_vec(b, delta))

    return _probe_histograms(m, probes, images)


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
    count = checked_int("count", config.count, 1)
    batch_size = checked_int("batch_size", batch_size, 1)
    steps = config.resolved_steps()

    def batch(lo: int) -> List[np.ndarray]:
        return _stats_batch(ctx, config, probes, lo // batch_size,
                            min(batch_size, count - lo), steps)

    parts = ordered_map(batch, range(0, count, batch_size), threads)
    counts = next(parts)  # the running sum starts from the first batch
    for part in parts:
        for total, hist in zip(counts, part):
            total += hist
    return _statistics_from_counts(ctx, probes, counts, count, steps)
