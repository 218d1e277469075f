"""Design sampler: deterministic streams, JSONL, Monte-Carlo statistics."""

import dataclasses
import hashlib
import io
import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerdock3.gf2m import FieldContext, f2_mat_mul
from kerdock3 import pauli, sampler
from kerdock3.graph import (EdgeKind, PauliPair, census, chain_mask, orbit_invariant,
                            srg_check)
from kerdock3.kerdock import PslElement, psl_to_symplectic, sample_psl_vec
from kerdock3.markov import full_chain, mixing_time_bound, q_empirical
from kerdock3.pauli import (PauliIndex, SymplecticMatrix, apply_symplectic,
                            transvection_matrix)
from kerdock3.sampler import (DesignSample, PairStatistics, SamplerConfig,
                              _draw, _normalize_probes, _stats_batch,
                              _substream, class_size, compose, mc_sigma,
                              pair_statistics,
                              pair_statistics_stream, read_jsonl,
                              sample_at, sample_stream, steps_for_epsilon,
                              write_jsonl)

COMMUTING_PROBE = ((0x1, 0x0), (0x2, 0x0))  # det 0 -> type 1
# anticommuting needs Tr(det) = 1: Tr(alpha) = 1 at m = 2, Tr(1) = 1 at m = 3
ANTI_PROBE_M2 = ((0x1, 0x0), (0x0, 0x2))
ANTI_PROBE_M3 = ((0x1, 0x0), (0x0, 0x1))


def test_config_validation():
    SamplerConfig(m=2, seed=0, count=1, epsilon=0.5)
    SamplerConfig(m=2, seed=0, count=0, steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(m=2, seed=0, count=1)
    with pytest.raises(ValueError):
        SamplerConfig(m=2, seed=0, count=1, epsilon=0.5, steps=3)
    with pytest.raises(ValueError):
        SamplerConfig(m=2, seed=0, count=1, epsilon=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(m=2, seed=0, count=1, epsilon=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(m=2, seed=0, count=1, steps=-1)
    with pytest.raises(ValueError):
        SamplerConfig(m=2, seed=2 ** 64, count=1, steps=1)
    with pytest.raises(ValueError):
        SamplerConfig(m=2, seed=0, count=-1, steps=1)


def test_resolved_steps_frozen_values():
    assert steps_for_epsilon(2, 0.05) == 56
    assert steps_for_epsilon(2, 0.01) == 63
    assert steps_for_epsilon(3, 0.01) == 54
    assert steps_for_epsilon(3, 0.1) == 48
    assert SamplerConfig(m=2, seed=0, count=1, epsilon=0.05).resolved_steps() == 56
    assert SamplerConfig(m=2, seed=0, count=1, steps=7).resolved_steps() == 7


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, 30.0, -0.01, float("nan"), "0.5", None, 1j])
def test_steps_for_epsilon_refuses_eps_outside_the_unit_interval(eps):
    """eps outside (0, 1) is refused by name (eps = 1.5 used to give 42
    steps and eps = 30 gave 29, since the bound only sees eps/N^3), alike
    by the mixing bound, steps_for_epsilon and SamplerConfig, and so is an
    eps that is no number (a string, None or a complex was a bare TypeError)."""
    calls = [lambda: steps_for_epsilon(2, eps), lambda: mixing_time_bound(2, eps)]
    if eps is not None:  # SamplerConfig reads epsilon=None as "not set"
        calls.append(lambda: SamplerConfig(m=2, seed=0, count=1, epsilon=eps))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"eps = {eps!r} must be in (0, 1)")):
            call()


def test_walk_length_is_resolved_once_per_config(monkeypatch):
    """A config fixes its walk length when it is made: a 50-sample stream
    calls steps_for_epsilon once, not once per sample, and replace makes a
    new config that resolves it again."""
    calls = []
    original = sampler.steps_for_epsilon
    monkeypatch.setattr(sampler, "steps_for_epsilon",
                        lambda m, eps: calls.append(eps) or original(m, eps))
    config = SamplerConfig(m=2, seed=3, count=50, epsilon=0.05)
    assert {len(s.transvections) for s in sample_stream(config)} == {56}
    assert calls == [0.05]
    assert dataclasses.replace(config, epsilon=0.01).resolved_steps() == 63
    assert calls == [0.05, 0.01]


def test_compose_equals_sequential_product():
    ctx = FieldContext(3)
    config = SamplerConfig(m=3, seed=11, count=1, steps=9)
    s = sample_at(config, 0)
    acc = SymplecticMatrix.identity(3)
    for h in s.transvections:
        acc = acc @ transvection_matrix(ctx, h)
    from kerdock3.kerdock import psl_to_symplectic
    acc = acc @ psl_to_symplectic(ctx, s.psl)
    assert acc == s.composed
    assert s.composed.is_symplectic()


@pytest.mark.parametrize("m", [2, 6, 8])
def test_compose_equals_a_full_product_fold(m):
    """compose (one row update per transvection) equals the fold of full
    f2_mat_mul products over 200 draws at the sampler's walk length."""
    ctx = FieldContext(m)
    steps = steps_for_epsilon(m, 0.01)
    for i in range(200):
        transvections, psl, _ = _draw(ctx, steps, _substream(43, i))
        rows = SymplecticMatrix.identity(m).rows
        for h in transvections:
            rows = f2_mat_mul(rows, transvection_matrix(ctx, h).rows)
        rows = f2_mat_mul(rows, psl_to_symplectic(ctx, psl).rows)
        assert compose(ctx, transvections, psl).rows == rows

def test_identity_hook():
    """steps=0 draws no transvection, and no transvection plus the identity
    PSL element composes to the identity."""
    ctx = FieldContext(2)
    config = SamplerConfig(m=2, seed=5, count=1, steps=0)
    s = sample_at(config, 0, ctx)  # the substream (5, 0)
    assert s.transvections == ()
    assert compose(ctx, (), PslElement(1, 0, 0, 1)) == SymplecticMatrix.identity(2)


def test_stream_is_deterministic_and_indexed():
    config = SamplerConfig(m=3, seed=123, count=40, epsilon=0.1)
    once = [s.to_json_line(i) for i, s in enumerate(sample_stream(config))]
    twice = [s.to_json_line(i) for i, s in enumerate(sample_stream(config))]
    assert once == twice
    for i in (0, 7, 39):
        assert sample_at(config, i).to_json_line(i) == once[i]


@pytest.mark.parametrize("threads", [2, 4])
def test_stream_thread_invariance(threads):
    config = SamplerConfig(m=2, seed=99, count=200, steps=10)
    serial = [s.to_json_line(i) for i, s in enumerate(sample_stream(config, 1))]
    parallel = [s.to_json_line(i)
                for i, s in enumerate(sample_stream(config, threads))]
    assert serial == parallel


def test_stream_starts_at_most_threads_samples_ahead(monkeypatch):
    """A consumer that stops after one sample has started at most
    ``threads`` of them; an executor that submits every index up front
    keeps drawing the rest in the background."""
    import kerdock3.sampler as sampler_module

    started = []
    original = sampler_module.sample_at

    def counting(config, index, ctx=None):
        started.append(index)
        return original(config, index, ctx)

    monkeypatch.setattr(sampler_module, "sample_at", counting)
    config = SamplerConfig(m=2, seed=4, count=5000, steps=10)
    stream = sample_stream(config, 2)
    try:
        first = next(stream)
        time.sleep(0.2)
        assert len(started) <= 2
    finally:
        stream.close()
    assert first.to_json_line(0) == original(config, 0).to_json_line(0)


def test_different_seeds_differ():
    a = sample_at(SamplerConfig(m=3, seed=1, count=1, steps=20), 0)
    b = sample_at(SamplerConfig(m=3, seed=2, count=1, steps=20), 0)
    assert a.to_json_line(0) != b.to_json_line(0)


def test_jsonl_round_trip():
    config = SamplerConfig(m=3, seed=77, count=25, steps=12)
    buf = io.StringIO()
    n = write_jsonl(sample_stream(config), buf)
    assert n == 25
    buf.seek(0)
    rows = read_jsonl(buf, 3)
    assert [i for i, _ in rows] == list(range(25))
    for i, s in rows:
        assert s == sample_at(config, i)
    # byte-identical on a second pass
    buf2 = io.StringIO()
    write_jsonl(sample_stream(config), buf2)
    assert buf2.getvalue() == buf.getvalue()


@pytest.mark.parametrize("rows, shown", [((1 << 4, 2, 4, 8), "0x10"),
                                         ((-1, 2, 4, 8), "-0x1")],
                         ids=["bit-2m", "negative"])
def test_json_line_refuses_a_row_wider_than_2m(rows, shown):
    """A ``composed`` row with a bit at position >= 2m, or a negative one,
    is refused where it is read, not later as a bare IndexError."""
    line = sample_at(SamplerConfig(m=2, seed=0, count=1, steps=1), 0).to_json_line(0)
    obj = json.loads(line)
    obj["composed"] = [format(r, "#x") for r in rows]
    with pytest.raises(ValueError, match=f"composed row 0 = {shown} is wider than 2m = 4"):
        DesignSample.from_json_line(json.dumps(obj), 2)
    with pytest.raises(ValueError, match="composed row 0"):
        read_jsonl(io.StringIO(line + "\n" + json.dumps(obj) + "\n"), 2)


def test_jsonl_readers_refuse_an_m_that_is_no_field_degree():
    """m goes through checked_int: "3" used to fail as a row count "2m =
    33", 3.0 as a bare TypeError and True was read as m = 1."""
    line = sample_at(SamplerConfig(m=3, seed=0, count=1, steps=2), 0).to_json_line(0)
    for m in ("3", 3.0, True):
        message = re.escape(f"m = {m!r} must be an int in [2, 16]")
        with pytest.raises(ValueError, match=message):
            read_jsonl(io.StringIO(line + "\n"), m)
        with pytest.raises(ValueError, match=message):
            DesignSample.from_json_line(line, m)


@pytest.mark.parametrize("field, entry, message", [
    ("transvections", ["0x4", "0x0"], r"transvection 0 = \['0x4', '0x0'\] must be a nonzero"),
    ("transvections", ["0x0", "0x4"], r"transvection 0 = \['0x0', '0x4'\] must be a nonzero"),
    ("transvections", ["-0x1", "0x1"], r"transvection 0 = \['-0x1', '0x1'\] must be a nonzero"),
    ("transvections", ["0x0", "0x0"], r"transvection 0 = \['0x0', '0x0'\] must be a nonzero"),
    ("psl", ["0x1", "0x0", "0x4", "0x1"], r"psl = \['0x1', '0x0', '0x4', '0x1'\] has an entry"),
    ("pauli", ["0x0", "0x4"], r"pauli = \['0x0', '0x4'\] has an entry outside \[0, 4\)"),
    ("pauli", ["-0x1", "0x0"], r"pauli = \['-0x1', '0x0'\] has an entry outside"),
    ("psl", ["0x1", "0x0", "0x1"], r"psl = \['0x1', '0x0', '0x1'\] must be a list of 4"),
    ("psl", ["0x1"] * 5, r"psl = \['0x1', .*\] must be a list of 4 entries"),
    ("psl", "0x1", r"psl = 0x1 must be a list of 4 entries"),
    ("pauli", ["0x1"], r"pauli = \['0x1'\] must be a list of 2 entries"),
    ("pauli", ["0x1", "0x0", "0x0"], r"pauli = \[.*\] must be a list of 2 entries"),
    ("psl", ["0x1", "0x1", "0x0", "0x0"], r"psl = \[.*\]: determinant 0 != 1"),
    ("psl", ["0x2", "0x0", "0x0", "0x2"], r"psl = \[.*\]: determinant 3 != 1"),
], ids=["h1-4", "h2-4", "h1-negative", "h-zero", "psl-4", "pauli-4", "pauli-negative",
        "psl-3-entries", "psl-5-entries", "psl-string", "pauli-1-entry",
        "pauli-3-entries", "psl-det-0", "psl-det-3"])
def test_json_line_refuses_entries_outside_the_field(field, entry, message):
    """A transvection, psl or pauli entry outside [0, N), a zero
    transvection, a psl or pauli list of the wrong length, or a psl of
    determinant other than 1 is refused where it is read, naming the
    field (a wrong length used to raise TypeError, and a determinant
    other than 1 went through)."""
    line = sample_at(SamplerConfig(m=2, seed=0, count=1, steps=1), 0).to_json_line(0)
    obj = json.loads(line)
    obj[field] = [entry] if field == "transvections" else entry
    with pytest.raises(ValueError, match=message):
        DesignSample.from_json_line(json.dumps(obj), 2)
    with pytest.raises(ValueError, match=message):
        read_jsonl(io.StringIO(line + "\n" + json.dumps(obj) + "\n"), 2)


@pytest.mark.parametrize("field, value, message", [
    ("index", 5.7, r"index = 5\.7 must be a non-negative integer"),
    ("index", 5.0, r"index = 5\.0 must be a non-negative integer"),
    ("index", "5", r"index = '5' must be a non-negative integer"),
    ("index", True, r"index = True must be a non-negative integer"),
    ("index", -4, r"index = -4 must be a non-negative integer"),
    ("index", None, r"record has no index$"),
    ("psl", None, r"record has no psl$"),
    ("composed", None, r"record has no composed$"),
    ("transvections", None, r"record has no transvections$"),
    ("composed", [1, 2, 4, 8], r"composed = \[1, 2, 4, 8\] must be a list of hex strings"),
    ("composed", ["0x1", "0xz", "0x4", "0x8"], r"composed = .* must be a list of hex strings"),
    ("transvections", [["0x1", "0x2", "0x3"]],
     r"transvections must be pairs of hex strings: too many values"),
    ("transvections", [["0x1"]], r"transvections must be pairs of hex strings"),
    ("transvections", [[1, 2]], r"transvections must be pairs of hex strings"),
    ("psl", [1, 0, 0, 1], r"psl = \[1, 0, 0, 1\] must be a list of hex strings"),
    ("pauli", ["0x1", 3], r"pauli = \['0x1', 3\] must be a list of hex strings"),
], ids=["index-float", "index-float-integral", "index-string", "index-bool",
        "index-negative", "index-missing", "psl-missing", "composed-missing",
        "transvections-missing", "composed-ints", "composed-bad-hex",
        "transvection-3-entries", "transvection-1-entry", "transvection-ints", "psl-ints",
        "pauli-int"])
def test_json_line_refuses_malformed_fields(field, value, message):
    """A missing field (``None`` here stands for deleting it), an index
    other than a non-negative JSON integer, a list entry other than a hex
    string and a transvection other than a pair are refused with a
    ValueError naming the field (an index of 5.7 used to read as 5, a
    missing field raised KeyError, ints raised TypeError and a 3-entry
    transvection a bare unpacking error)."""
    line = sample_at(SamplerConfig(m=2, seed=0, count=1, steps=1), 0).to_json_line(0)
    obj = json.loads(line)
    if value is None:
        del obj[field]
    else:
        obj[field] = value
    with pytest.raises(ValueError, match=message):
        DesignSample.from_json_line(json.dumps(obj), 2)
    with pytest.raises(ValueError, match=message):
        read_jsonl(io.StringIO(line + "\n" + json.dumps(obj) + "\n"), 2)


def test_sample_at_without_ctx_builds_the_field_once(monkeypatch):
    """``sample_at`` without a ``ctx`` reads the cached default field, as
    ``sample_stream`` does: 50 calls build at most one FieldContext (each
    call used to build its own), and each sample equals the one drawn in
    an explicit field."""
    config = SamplerConfig(m=6, seed=11, count=50, steps=4)
    ctx = FieldContext(6)
    built = []
    original = FieldContext.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FieldContext, "__init__", counting)
    drawn = [sample_at(config, i) for i in range(config.count)]
    assert len(built) <= 1
    assert drawn == [sample_at(config, i, ctx) for i in range(config.count)]
    assert list(sample_stream(config)) == drawn
    assert len(built) <= 1


def _json_line_reference(s: DesignSample, index: int) -> str:
    """The record as json.dumps(sort_keys=True) writes it."""
    width = (2 * s.composed.m + 3) // 4
    return json.dumps({
        "index": index,
        "transvections": [[hex(h.h1), hex(h.h2)] for h in s.transvections],
        "psl": [hex(x) for x in s.psl],
        "pauli": [hex(s.pauli.a), hex(s.pauli.b)],
        "composed": [format(row, f"#0{width + 2}x") for row in s.composed.rows],
    }, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.integers(0, 6), st.integers(0, 2 ** 64 - 1),
       st.integers(0, 2 ** 40))
def test_json_line_is_the_sorted_json_dumps_record(m, steps, seed, index):
    """to_json_line, formatted directly, writes the bytes of json.dumps with
    sort_keys=True, for random samples with zero steps included, and
    reads back to the same sample."""
    s = sample_at(SamplerConfig(m=m, seed=seed, count=1, steps=steps), index)
    line = s.to_json_line(index)
    assert line == _json_line_reference(s, index)
    assert DesignSample.from_json_line(line, m) == (index, s)


def test_draw_is_deterministic_nonzero_and_reaches_every_transvection():
    """The sampler's one transvection draw: the same substream repeats
    exactly, no transvection is zero, and all 63 appear at m = 3."""
    ctx = FieldContext(3)
    draws = [_draw(ctx, 8, _substream(31, i)) for i in range(100)]
    assert draws == [_draw(ctx, 8, _substream(31, i)) for i in range(100)]
    hs = [h for transvections, _, _ in draws for h in transvections]
    assert len(hs) == 800
    assert all(h != (0, 0) for h in hs)
    assert len(set(hs)) == 63


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
@pytest.mark.parametrize("index", [0, 2 ** 64 - 1])
def test_substream_is_the_philox_of_its_key(seed, index):
    """_substream(seed, index), built without reading OS entropy, is in the
    state of Philox(key=[seed, index]) and draws the same numbers."""
    rng = _substream(seed, index)
    ref = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    state = rng.bit_generator.state
    assert state["state"]["key"].tolist() == [seed, index]
    assert repr(state) == repr(ref.bit_generator.state)
    assert np.array_equal(rng.integers(0, 2 ** 63, size=64), ref.integers(0, 2 ** 63, size=64))


@pytest.mark.parametrize("n_words, dtype", [(1, np.uint64), (4, np.uint64), (2, np.uint32),
                                            (4, np.uint32)])
def test_substream_key_refuses_any_other_state_request(n_words, dtype):
    key = _substream(3, 5).bit_generator.seed_seq
    assert key.generate_state(2, np.uint64).tolist() == [3, 5]
    with pytest.raises(ValueError, match="2 uint64 words"):
        key.generate_state(n_words, dtype)


def test_json_line_schema():
    config = SamplerConfig(m=3, seed=4, count=1, steps=3)
    line = sample_at(config, 0).to_json_line(0)
    obj = json.loads(line)
    assert set(obj) == {"composed", "index", "pauli", "psl", "transvections"}
    assert len(obj["transvections"]) == 3
    assert len(obj["psl"]) == 4
    assert len(obj["composed"]) == 6
    assert all(r.startswith("0x") for r in obj["composed"])
    # keys serialized in sorted order
    assert line.index('"composed"') < line.index('"index"') < line.index('"pauli"')


def test_class_sizes_and_sigma():
    ctx = FieldContext(2)
    assert class_size(ctx, PauliIndex(1, 0)) == ("vertices", 15)
    assert class_size(ctx, PauliPair(PauliIndex(1, 0), PauliIndex(2, 0))) == \
        ("commuting_pairs", 90)
    assert class_size(ctx, PauliPair(PauliIndex(1, 0), PauliIndex(0, 2))) == \
        ("anticommuting_pairs", 120)
    ctx3 = FieldContext(3)
    assert class_size(ctx3, PauliIndex(1, 0)) == ("vertices", 63)
    assert class_size(ctx3, PauliPair(PauliIndex(1, 0), PauliIndex(2, 0))) == \
        ("commuting_pairs", 1890)
    assert class_size(ctx3, PauliPair(PauliIndex(1, 0), PauliIndex(0, 1))) == \
        ("anticommuting_pairs", 2016)
    assert mc_sigma(90, 9000) == 0.5 * (90 / 9000) ** 0.5


def test_exact_pair_statistics_small_run():
    ctx = FieldContext(2)
    config = SamplerConfig(m=2, seed=31, count=4000, steps=56)
    samples = list(sample_stream(config))
    stats = pair_statistics(ctx, samples,
                            [(1, 0), COMMUTING_PROBE, ANTI_PROBE_M2])
    assert stats.m == 2 and stats.steps == 56 and stats.samples == 4000
    by_class = {p.class_name: p for p in stats.probes}
    assert set(by_class) == {"vertices", "commuting_pairs",
                             "anticommuting_pairs"}
    for p in stats.probes:
        assert 0.0 <= p.tv_to_uniform <= 1.0
        assert p.tv_to_uniform <= p.four_sigma() + 0.01
    hist = by_class["commuting_pairs"].orbit_histogram
    assert sum(hist.values()) == 4000
    assert all(inv.kind in (EdgeKind.TYPE1, EdgeKind.TYPE2) for inv in hist)


def test_stats_batch_matches_scalar_replay():
    """The vectorized kernel equals a per-sample symplectic-matrix replay."""
    ctx = FieldContext(2)
    n = ctx.order
    steps, batch = 4, 300
    config = SamplerConfig(m=2, seed=2718, count=batch, steps=steps)
    probes = [PauliPair(PauliIndex(1, 0), PauliIndex(2, 0))]
    (hist,) = _stats_batch(ctx, config, probes, 0, batch, steps)

    rng = _substream(2718, 2 ** 64 - 1 - 0)
    ks = rng.integers(1, n * n, size=(steps, batch), dtype=np.uint32)
    alpha, beta, gamma, delta = sample_psl_vec(ctx, rng, batch)
    from kerdock3.kerdock import psl_to_symplectic
    expected = np.zeros(n ** 4, dtype=np.int64)
    for i in range(batch):
        f = SymplecticMatrix.identity(2)
        for t in range(steps):
            k = int(ks[t, i])
            f = f @ transvection_matrix(ctx, (k & (n - 1), k >> 2))
        g = PslElement(int(alpha[i]), int(beta[i]), int(gamma[i]), int(delta[i]))
        f = f @ psl_to_symplectic(ctx, g)
        iv = apply_symplectic(ctx, f, probes[0][0])
        iw = apply_symplectic(ctx, f, probes[0][1])
        pv = iv.a | (iv.b << 2)
        pw = iw.a | (iw.b << 2)
        expected[pv * n * n + pw] += 1
    assert np.array_equal(hist, expected)


def test_stream_statistics_thread_and_run_invariance():
    config = SamplerConfig(m=2, seed=52, count=10_000, steps=8)
    probes = [(1, 0), COMMUTING_PROBE, ANTI_PROBE_M2]
    a = pair_statistics_stream(config, probes, threads=1, batch_size=4096)
    b = pair_statistics_stream(config, probes, threads=4, batch_size=4096)
    c = pair_statistics_stream(config, probes, threads=1, batch_size=4096)
    assert a.to_json() == b.to_json() == c.to_json()


# sha256 of the report, pinned from the table-lookup walk kernel: any
# refactor of the walk must reproduce these reports byte for byte.
# Each run has a vertex probe and both pair kinds, and an uneven last batch.
GOLDEN_REPORTS = [
    (2, 7, 1000, 384, ANTI_PROBE_M2,
     "19f4dc00b3e9f92dfb1533a272ae18e1c9517e3ec2b72c93400c9e8ff00a4a91"),
    (3, 5, 700, 256, ANTI_PROBE_M3,
     "0d6eb883cf0b090ad99eb18b6ef9803fd65c171ad348f4e69d59f61e874ae012"),
    (5, 4, 500, 192, ANTI_PROBE_M3,  # Tr(1) = 1 for odd m
     "aa52389338b2879e9c264e3f7b0f08c5e92da0efedccfd271ae85f40c6e89ccb"),
]


@pytest.mark.parametrize("m,steps,count,batch,anti,digest", GOLDEN_REPORTS)
def test_stream_statistics_golden_report(m, steps, count, batch, anti, digest):
    config = SamplerConfig(m=m, seed=20201031, count=count, steps=steps)
    stats = pair_statistics_stream(config, [(0x3, 0x1), COMMUTING_PROBE, anti],
                                   batch_size=batch)
    assert [p.class_name for p in stats.probes] == \
        ["vertices", "commuting_pairs", "anticommuting_pairs"]
    assert hashlib.sha256(stats.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("m", [7, 8])
def test_pair_statistics_refuse_oversized_histograms(m):
    """m >= 7 pair probes need over 2^24 bins: refused before any allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="histogram bins"):
            pair_statistics_stream(SamplerConfig(m=m, seed=0, count=2, steps=1),
                                   [COMMUTING_PROBE])
        with pytest.raises(ValueError, match="histogram bins"):
            pair_statistics(FieldContext(m), [], [(1, 0), COMMUTING_PROBE])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert len(_normalize_probes(FieldContext(6), [COMMUTING_PROBE])) == 1  # m = 6 is at the cap


@pytest.mark.parametrize("threads", [1, 2])
def test_stream_statistics_memory_does_not_grow_with_batches(threads):
    """128 batches of 2 at m = 4 are summed as they arrive; holding every
    batch's histograms peaked at about 65 MiB."""
    config = SamplerConfig(m=4, seed=3, count=256, steps=2)
    tracemalloc.start()
    try:
        stats = pair_statistics_stream(config, [(0x3, 0x1), COMMUTING_PROBE],
                                       threads=threads, batch_size=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [p.samples for p in stats.probes] == [256, 256]
    assert peak < 8 << 20


# sha256 of the report below, pinned when the mask was built per probe
STATS_DIGEST = "510ffdeefc533bff77af3af32b7305f147530ccc9cb93dc3a10a4a52ad74f510"


def test_statistics_build_each_chain_mask_once(monkeypatch):
    """Two commuting probes share one edge mask."""
    built = []

    def counting(ctx, chain):
        built.append(chain)
        return chain_mask(ctx, chain)

    monkeypatch.setattr(sampler, "chain_mask", counting)
    config = SamplerConfig(m=3, seed=5, count=400, steps=3)
    stats = pair_statistics_stream(
        config, [COMMUTING_PROBE, ANTI_PROBE_M3, ((0x1, 0x0), (0x3, 0x0))], batch_size=128)
    assert sorted(built) == ["edges", "nonedges"]
    assert hashlib.sha256(stats.to_json().encode()).hexdigest() == STATS_DIGEST


def test_kernels_build_no_dense_field_tables(monkeypatch):
    """Census, grid, chains and stream statistics read only O(N) tables."""
    requested = set()
    original = FieldContext.np_table

    def recording(self, name):
        requested.add(name)
        return original(self, name)

    monkeypatch.setattr(FieldContext, "np_table", recording)
    ctx = FieldContext(3)
    census(ctx)
    srg_check(ctx)
    for chain in ("edges", "nonedges"):
        q_empirical(ctx, chain)
        full_chain(ctx, chain)
    pair_statistics_stream(SamplerConfig(m=3, seed=1, count=300, steps=3),
                           [(0x3, 0x1), COMMUTING_PROBE, ANTI_PROBE_M3], batch_size=128)
    assert "mul" not in ctx._np_cache and "div" not in ctx._np_cache
    assert not requested & {"mul", "div"}
    assert {"log", "exp", "dual"} <= requested


class _WalkDone(Exception):
    """Raised by the recorder below once the walk's last step is seen."""


@pytest.mark.parametrize("m", range(2, 7))
def test_stream_statistics_walk_runs_in_uint8_at_small_m(monkeypatch, m):
    """At m = 2..6 every walk step of pair_statistics_stream hands the
    kernel uint8 rows and uint8 transvection halves, so a change cannot
    silently widen the walk back to uint16.  The kernel is recorded where
    walk_pairs calls it, in pauli; the recorder stops the run after the
    last step: the pair histogram at m = 6 has 2^24 bins."""
    steps, seen = 3, []
    original = pauli.transvection_apply_vec

    def recording(ctx, h1, h2, a, b):
        seen.append(tuple(x.dtype for x in (h1, h2, a, b)))
        if len(seen) == steps:
            raise _WalkDone
        return original(ctx, h1, h2, a, b)

    monkeypatch.setattr(pauli, "transvection_apply_vec", recording)
    with pytest.raises(_WalkDone):
        pair_statistics_stream(SamplerConfig(m=m, seed=0, count=64, steps=steps),
                               [(0x3, 0x1), COMMUTING_PROBE], batch_size=64)
    assert seen == [(np.dtype(np.uint8),) * 4] * steps


@pytest.mark.parametrize("m", range(2, 7))
def test_halves_walk_equals_a_field_pair_walk(monkeypatch, m):
    """The walk of _stats_batch on halves (a, |b|) ends at the same field
    images as a reference walk on field pairs (a, b), which draws the same
    step codes and applies Z_h through products and the trace:
    (a, b) += Tr(a h2 + b h1) (h1, h2).  The reference draws all codes as
    one (steps, batch) array, so this also pins that the walk's row-by-row
    draws consume the substream as that one draw does.  The images are
    recorded where walk_pairs returns them, and the run stops there."""
    ctx, steps, batch = FieldContext(m), 7, 256
    n = ctx.order
    config = SamplerConfig(m=m, seed=31 + m, count=batch, steps=steps)
    probes = _normalize_probes(ctx, [(0x3, 0x1), COMMUTING_PROBE, ((0x1, 0x0), (0x0, 0x1))])
    seen = []

    def recording(ctx, codes, a, b):
        seen.append(original(ctx, codes, a, b))
        raise _WalkDone

    original = sampler.walk_pairs
    monkeypatch.setattr(sampler, "walk_pairs", recording)
    with pytest.raises(_WalkDone):
        _stats_batch(ctx, config, probes, 0, batch, steps)
    (got_a, got_b), = seen

    ks = _substream(config.seed, 2 ** 64 - 1).integers(1, n * n, size=(steps, batch),
                                                       dtype=np.uint32)
    verts = [PauliIndex(3, 1), PauliIndex(1, 0), PauliIndex(2, 0), PauliIndex(0, 1)]
    a = np.array([[v.a] for v in verts], dtype=np.int64)
    b = np.array([[v.b] for v in verts], dtype=np.int64)
    trace = np.array([ctx.trace(x) for x in range(n)])
    for k in ks.astype(np.int64):
        h1, h2 = k & (n - 1), k >> m
        t = trace[ctx.mul_vec(a, h2) ^ ctx.mul_vec(b, h1)] == 1
        a, b = np.where(t, a ^ h1, a), np.where(t, b ^ h2, b)
    assert got_a.shape == got_b.shape == (len(verts), batch)
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)


def test_stats_batch_holds_one_step_of_codes():
    """One statistics batch at the criterion 10c shape (m = 2, 56 steps,
    2^17 lanes) stays under 12 MiB of traced memory: the walk draws each
    step's codes when it takes that step.  Holding all (56, 2^17) uint32
    codes at once peaked at 36.75 MiB."""
    ctx = FieldContext(2)
    config = SamplerConfig(m=2, seed=0, count=1 << 17, steps=56)
    probes = _normalize_probes(ctx, [COMMUTING_PROBE, ANTI_PROBE_M2])
    tracemalloc.start()
    try:
        _stats_batch(ctx, config, probes, 0, 1 << 17, 56)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


def test_stream_statistics_walk_in_the_given_field():
    """((1, 0), (0, 2)) anticommutes under poly 0xD (Tr(2) = 1) and
    commutes under the default 0xB (Tr(2) = 0)."""
    config = SamplerConfig(m=3, seed=2, count=3000, steps=4)
    probe = ((0x1, 0x0), (0x0, 0x2))
    in_d = pair_statistics_stream(config, [probe], batch_size=1024,
                                  ctx=FieldContext(3, 0xD))
    in_b = pair_statistics_stream(config, [probe], batch_size=1024)
    assert in_d.probes[0].class_name == "anticommuting_pairs"
    assert in_b.probes[0].class_name == "commuting_pairs"
    explicit_b = pair_statistics_stream(config, [probe], batch_size=1024,
                                        ctx=FieldContext(3, 0xB))
    assert explicit_b.to_json() == in_b.to_json()


def test_field_context_must_match_config_degree():
    config = SamplerConfig(m=3, seed=0, count=10, steps=2)
    with pytest.raises(ValueError, match="m=2"):
        pair_statistics_stream(config, [COMMUTING_PROBE], ctx=FieldContext(2))
    with pytest.raises(ValueError, match="m=4"):
        sample_at(config, 0, ctx=FieldContext(4))
    with pytest.raises(ValueError):
        sample_at(config, 0, FieldContext(2))


def test_stream_statistics_requires_a_pair_probe():
    config = SamplerConfig(m=2, seed=1, count=10, steps=1)
    with pytest.raises(ValueError):
        pair_statistics_stream(config, [(1, 0)])


def test_statistics_read_numpy_integer_probes_as_ints():
    """numpy integer entries, in a vertex or a pair probe, give the report
    of the same probes as Python ints."""
    u16 = np.uint16
    config = SamplerConfig(m=2, seed=7, count=300, steps=3)
    want = pair_statistics_stream(config, [(1, 0), COMMUTING_PROBE]).to_json()
    probes = [(u16(1), u16(0)), ((np.int64(1), u16(0)), (u16(2), np.int8(0)))]
    vertex, pair = _normalize_probes(FieldContext(2), probes)
    assert (vertex, pair) == (PauliIndex(1, 0), PauliPair(PauliIndex(1, 0), PauliIndex(2, 0)))
    assert {type(x) for x in (*vertex, *pair[0], *pair[1])} == {int}
    assert pair_statistics_stream(config, probes).to_json() == want
    samples = list(sample_stream(config))
    assert pair_statistics(FieldContext(2), samples, probes).to_json() == \
        pair_statistics(FieldContext(2), samples, [(1, 0), COMMUTING_PROBE]).to_json()


def _refuse_batches(monkeypatch):
    import kerdock3.sampler as sampler_module

    def never(*args, **kwargs):
        raise AssertionError("a batch ran before the arguments were checked")

    monkeypatch.setattr(sampler_module, "_stats_batch", never)


@pytest.mark.parametrize("bad,name", [
    ((0x0, 0x0), "vertex:0x0,0x0"),
    ((0x4, 0x1), "vertex:0x4,0x1"),
    ((-1, 0x1), "vertex:-0x1,0x1"),
    (((0x1, 0x0), (0x1, 0x0)), "pair:0x1,0x0;0x1,0x0"),
    (((0x0, 0x0), (0x1, 0x0)), "pair:0x0,0x0;0x1,0x0"),
    (((0x1, 0x0), (0x0, 0x4)), "pair:0x1,0x0;0x0,0x4"),
])
def test_statistics_refuse_a_bad_probe_before_any_batch(bad, name, monkeypatch):
    """A zero vertex, a repeated pair entry or an element outside [0, N)
    is named and refused before the walk, by both entry points."""
    _refuse_batches(monkeypatch)
    config = SamplerConfig(m=2, seed=1, count=1 << 18, steps=2)
    with pytest.raises(ValueError, match=re.escape(f"probe {name}:")):
        pair_statistics_stream(config, [COMMUTING_PROBE, bad])
    samples = [sample_at(config, 0)]
    with pytest.raises(ValueError, match=re.escape(f"probe {name}:")):
        pair_statistics(FieldContext(2), samples, [COMMUTING_PROBE, bad])


def test_statistics_refuse_empty_runs(monkeypatch):
    """count = 0, no samples, or a batch size below 1 are refused up front;
    they gave NaN TV (and a ZeroDivisionError in to_json), an assertion
    about escaped probe images, or a bare range() error."""
    _refuse_batches(monkeypatch)
    with pytest.raises(ValueError, match="count = 0 must be an int >= 1"):
        pair_statistics_stream(SamplerConfig(m=2, seed=1, count=0, steps=2),
                               [COMMUTING_PROBE])
    with pytest.raises(ValueError, match="at least one sample"):
        pair_statistics(FieldContext(2), [], [COMMUTING_PROBE])
    config = SamplerConfig(m=2, seed=1, count=10, steps=2)
    for batch_size in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            pair_statistics_stream(config, [COMMUTING_PROBE], batch_size=batch_size)


def test_pair_statistics_refuse_samples_of_another_degree():
    """Samples drawn at m = 3 in the m = 2 field are named and refused; they
    ended in a bare IndexError from the dual-coordinate lookup."""
    config = SamplerConfig(m=3, seed=1, count=5, steps=2)
    samples = [sample_at(config, i) for i in range(5)]
    with pytest.raises(ValueError, match="degree m = 3 in the field of degree m = 2"):
        pair_statistics(FieldContext(2), samples, [COMMUTING_PROBE])
    assert pair_statistics(FieldContext(3), samples, [COMMUTING_PROBE]).samples == 5


@pytest.mark.parametrize("m,probe,chain", [
    (2, COMMUTING_PROBE, "edges"),
    (2, ANTI_PROBE_M2, "nonedges"),
    (3, COMMUTING_PROBE, "edges"),
])
def test_orbit_histogram_follows_chain_law(m, probe, chain):
    """After t steps the probe orbit distribution is e_start Q^t exactly."""
    ctx = FieldContext(m)
    steps, count = 2, 200_000
    config = SamplerConfig(m=m, seed=1000 + m, count=count, steps=steps)
    stats = pair_statistics_stream(config, [probe], threads=2)
    (pstat,) = [p for p in stats.probes if p.orbit_histogram is not None]
    tm = q_empirical(ctx, chain)
    start = np.zeros(len(tm.states))
    pair = PauliPair(PauliIndex(*probe[0]), PauliIndex(*probe[1]))
    start[tm.states.index(orbit_invariant(ctx, pair))] = 1.0
    law = start @ np.linalg.matrix_power(tm.probs, steps)
    for state, expected_p in zip(tm.states, law):
        got = pstat.orbit_histogram.get(state, 0) / count
        sigma = max((expected_p * (1 - expected_p) / count) ** 0.5, 1e-9)
        assert abs(got - expected_p) < 6 * sigma + 1e-9, (state, got, expected_p)


def test_exact_and_stream_statistics_agree_in_distribution():
    """Two independent estimators of the same TV statistic, loose tolerance."""
    ctx = FieldContext(2)
    count, steps = 20_000, 6
    config = SamplerConfig(m=2, seed=9090, count=count, steps=steps)
    exact = pair_statistics(ctx, list(sample_stream(config)),
                            [COMMUTING_PROBE])
    stream = pair_statistics_stream(config, [COMMUTING_PROBE],
                                    batch_size=1 << 13)
    (pe,) = exact.probes
    (ps,) = stream.probes
    # different substreams, same law: TVs agree to a few sigma
    assert abs(pe.tv_to_uniform - ps.tv_to_uniform) < 6 * mc_sigma(90, count)


def test_statistics_json_and_csv_shape():
    config = SamplerConfig(m=2, seed=3, count=5000, steps=5)
    stats = pair_statistics_stream(config, [COMMUTING_PROBE, (1, 0)])
    obj = json.loads(stats.to_json())
    assert obj["m"] == 2 and obj["samples"] == 5000 and obj["steps"] == 5
    assert len(obj["probes"]) == 2
    names = {p["class"] for p in obj["probes"]}
    assert names == {"commuting_pairs", "vertices"}
