"""Commutation graph: pair classes, censuses, orbits, strong regularity."""

import hashlib
import inspect
import json
import re
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerdock3 import cli
from kerdock3.gf2m import FieldContext
from kerdock3.graph import (CENSUS_MAX_M, CHAINS, ORBIT_KEY_SPACE, CensusReport,
                            EdgeKind, OrbitInvariant, PauliPair,
                            census, chain_mask, chain_states, classify_pair,
                            closed_form_counts, determinant_keys,
                            orbit_counts, orbit_invariant,
                            orbit_invariant_vec, orbit_key, orbit_representative, orbit_states, pair_code,
                            pair_split, parse_census, srg_check,
                            srg_parameters, state_name, state_obj)
from kerdock3.kerdock import pair_action, sample_psl_vec
from kerdock3.pauli import (PauliIndex, symplectic_inner, vertex_code,
                            vertex_split)


def test_classification_matches_definitions():
    for m in (2, 3):
        ctx = FieldContext(m)
        n = ctx.order
        for va in range(1, n * n):
            for vb in range(1, n * n):
                if va == vb:
                    continue
                p = PauliIndex(va & (n - 1), va >> m)
                q = PauliIndex(vb & (n - 1), vb >> m)
                kind = classify_pair(ctx, (p, q))
                det = ctx.mul(p.a, q.b) ^ ctx.mul(p.b, q.a)
                if symplectic_inner(ctx, p, q) == 1:
                    assert kind == EdgeKind.NON_EDGE
                elif det == 0:
                    assert kind == EdgeKind.TYPE1
                else:
                    assert kind == EdgeKind.TYPE2
                    assert ctx.trace(det) == 0


def test_anchor_examples_m3():
    """Hand-worked pair classes at m=3: (alpha,0;1,alpha^k) family.

    det = alpha^(k+1); the pair commutes iff Tr(det) = 0; among commuting
    pairs, det = 0 marks a shared maximal abelian subgroup (type 1).
    """
    ctx = FieldContext(3)
    alpha = ctx.alpha_power(1)
    a2, a3, a4 = (ctx.alpha_power(k) for k in (2, 3, 4))
    e1 = PauliPair(PauliIndex(alpha, 0), PauliIndex(1, a2))  # det a^3, Tr 1
    e2 = PauliPair(PauliIndex(alpha, 0), PauliIndex(1, a3))  # det a^4, Tr 0
    e3 = PauliPair(PauliIndex(alpha, 0), PauliIndex(1, alpha))  # det a^2
    e4 = PauliPair(PauliIndex(alpha, 0), PauliIndex(1, 0))  # det 0
    assert classify_pair(ctx, e1) == EdgeKind.NON_EDGE
    assert orbit_invariant(ctx, e1) == OrbitInvariant(EdgeKind.NON_EDGE, a3)
    assert classify_pair(ctx, e2) == EdgeKind.TYPE2
    assert orbit_invariant(ctx, e2) == OrbitInvariant(EdgeKind.TYPE2, a4)
    assert classify_pair(ctx, e3) == EdgeKind.TYPE2
    assert orbit_invariant(ctx, e3) == OrbitInvariant(EdgeKind.TYPE2, a2)
    assert classify_pair(ctx, e4) == EdgeKind.TYPE1
    assert orbit_invariant(ctx, e4) == OrbitInvariant(EdgeKind.TYPE1, alpha)


def test_m3_invariant_value_sets():
    """Trace classes at m=3 split the invariant values by edge kind."""
    ctx = FieldContext(3)
    tr0 = {x for x in range(1, 8) if ctx.trace(x) == 0}
    tr1 = {x for x in range(1, 8) if ctx.trace(x) == 1}
    assert {s.value for s in orbit_states(ctx, EdgeKind.NON_EDGE)} == tr1
    assert {s.value for s in orbit_states(ctx, EdgeKind.TYPE2)} == tr0
    assert {s.value for s in orbit_states(ctx, EdgeKind.TYPE1)} == (tr0 | tr1) - {1}


def test_srg_parameters_and_check():
    assert srg_parameters(2) == (15, 6, 1, 3)
    assert srg_parameters(3) == (63, 30, 13, 15)
    for m in (1, 0, -1):
        with pytest.raises(ValueError, match=f"m = {m} must be an int >= 2"):
            srg_parameters(m)
    for m in (2, 3, 5):
        assert srg_check(FieldContext(m)) == srg_parameters(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_census_matches_closed_forms(m):
    ctx = FieldContext(m)
    report = census(ctx)
    assert report.exhaustive
    assert report.matches_closed_form(), report.to_text()
    n = 1 << m
    nsq = n * n
    closed = closed_form_counts(m)
    assert closed["vertices"] == nsq - 1
    assert closed["directed_edges"] == (nsq - 1) * (nsq - 4) // 2
    assert closed["type1_edges"] == (nsq - 1) * (n - 2)
    assert closed["type2_edges"] == n * (nsq - 1) * (n - 2) // 2
    assert closed["non_edges"] == (nsq - 1) * nsq // 2
    assert report.enumerated["directed_edges"] == closed["directed_edges"]
    assert report.enumerated["non_edges"] == closed["non_edges"]


@pytest.mark.parametrize("m", [2, 3])
def test_census_orbit_sizes_match_the_scalar_invariant_per_pair(m):
    """The per-pair route: ``orbit_invariant`` of every ordered pair of
    distinct nonzero vertices, counted per orbit."""
    ctx = FieldContext(m)
    verts = [PauliIndex(a, b) for b in ctx.elements() for a in ctx.elements() if a or b]
    expected = Counter(orbit_invariant(ctx, PauliPair(v, w))
                       for v in verts for w in verts if v != w)
    assert census(ctx).orbit_sizes == dict(expected)


# sha256 of census(FieldContext(m)).to_json(), pinned from the per-pair
# classification; at m = 6 the first vertices span 8 chunks
CENSUS_DIGESTS = [
    (5, "276da371fa64a9d485981c95a6ad72f08ce14faf0a3f6a8bb173e81a8754efd7"),
    (6, "7bda79d8cdc5d9d154d570c7d1d047547d52759e9db712e5c9e4276d56cf3236"),
]


@pytest.mark.parametrize("m,digest", CENSUS_DIGESTS)
def test_census_golden_json(m, digest):
    report = census(FieldContext(m))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("m", [2, 3, 4])
def test_orbit_counts_and_sizes(m):
    ctx = FieldContext(m)
    n = 1 << m
    report = census(ctx)
    by_kind = {}
    for (kind, value), size in report.orbit_sizes.items():
        by_kind.setdefault(kind, []).append(size)
    assert len(by_kind[EdgeKind.NON_EDGE]) == n // 2
    assert set(by_kind[EdgeKind.NON_EDGE]) == {(n * n - 1) * n}
    assert len(by_kind[EdgeKind.TYPE2]) == (n - 2) // 2
    assert set(by_kind[EdgeKind.TYPE2]) == {(n * n - 1) * n}
    assert len(by_kind[EdgeKind.TYPE1]) == n - 2
    assert set(by_kind[EdgeKind.TYPE1]) == {n * n - 1}


@pytest.mark.parametrize("m", [3, 4])
def test_orbit_invariant_preserved_under_psl(m):
    """10^5 random group actions never change the invariant."""
    ctx = FieldContext(m)
    n = ctx.order
    count = 100_000
    rng = np.random.default_rng(2024 + m)
    va = rng.integers(1, n * n, size=count)
    vb = rng.integers(1, n * n, size=count)
    vb = np.where(vb == va, vb % (n * n - 1) + 1, vb)  # distinct, nonzero
    a = (va & (n - 1)).astype(np.uint16)
    b = (va >> m).astype(np.uint16)
    c = (vb & (n - 1)).astype(np.uint16)
    d = (vb >> m).astype(np.uint16)
    before = orbit_invariant_vec(ctx, a, b, c, d)
    alpha, beta, gamma, delta = sample_psl_vec(ctx, rng, count)
    mul = np.array([[ctx.mul(x, z) for z in range(n)] for x in range(n)], dtype=np.uint16)
    a2 = mul[a, alpha] ^ mul[b, gamma]
    b2 = mul[a, beta] ^ mul[b, delta]
    c2 = mul[c, alpha] ^ mul[d, gamma]
    d2 = mul[c, beta] ^ mul[d, delta]
    after = orbit_invariant_vec(ctx, a2, b2, c2, d2)
    assert (before == after).all()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_orbit_invariant_vec_zero_second_vertex(m):
    """Lanes outside distinct nonzero pairs: a zero second vertex keys as
    (TYPE1, 0) for every first vertex, zero included."""
    ctx = FieldContext(m)
    n = ctx.order
    v = np.arange(n * n)
    a, b = (v & (n - 1)).astype(np.uint16), (v >> m).astype(np.uint16)
    zero = np.zeros_like(a)
    keys = orbit_invariant_vec(ctx, a, b, zero, zero)
    assert (keys == int(EdgeKind.TYPE1) * 65536).all()
    # a zero first vertex, and a repeated one: (TYPE1, 0) and (TYPE1, 1),
    # keys of no chain state, which transvection_counts relies on
    assert (orbit_invariant_vec(ctx, zero, zero, a, b) == orbit_key(EdgeKind.TYPE1, 0)).all()
    assert (orbit_invariant_vec(ctx, a[1:], b[1:], a[1:], b[1:])
            == orbit_key(EdgeKind.TYPE1, 1)).all()


def test_orbit_invariant_scalar_vs_vector():
    ctx = FieldContext(3)
    rng = np.random.default_rng(8)
    for _ in range(300):
        va, vb = rng.integers(1, 64, size=2)
        if va == vb:
            continue
        p = PauliIndex(int(va) & 7, int(va) >> 3)
        q = PauliIndex(int(vb) & 7, int(vb) >> 3)
        inv = orbit_invariant(ctx, (p, q))
        key = orbit_invariant_vec(
            ctx, np.array([p.a], dtype=np.uint16), np.array([p.b], dtype=np.uint16),
            np.array([q.a], dtype=np.uint16), np.array([q.b], dtype=np.uint16))[0]
        assert int(key) == int(inv.kind) * 65536 + inv.value


@pytest.mark.parametrize("pair", [((-1, 0), (0, 1)), ((5, 0), (0, 1)),
                                  ((1, 0), (0, 4)), ((1, 0), (-2, 1))])
def test_pair_entries_outside_the_field_are_refused(pair):
    """At m = 2 the scalar pair path refuses an entry outside [0, 4)
    (orbit_invariant of ((-1, 0), (0, 1)) used to be NON_EDGE:0x3 and
    ((5, 0), (0, 1)) to end in an IndexError)."""
    ctx = FieldContext(2)
    pair = PauliPair(PauliIndex(*pair[0]), PauliIndex(*pair[1]))
    for call in (orbit_invariant, classify_pair):
        with pytest.raises(ValueError, match=re.escape(f"pair {tuple(map(tuple, pair))} has")):
            call(ctx, pair)


@pytest.mark.parametrize("inv", [OrbitInvariant(EdgeKind.TYPE1, 9),
                                 OrbitInvariant(EdgeKind.TYPE1, -2),
                                 OrbitInvariant(EdgeKind.TYPE2, 6),
                                 OrbitInvariant(EdgeKind.NON_EDGE, 7)])
def test_orbit_representative_refuses_values_outside_the_field(inv):
    """At m = 2 an orbit value outside [0, 4) is refused (TYPE1 with
    value 9 used to return a pair holding the entry 9)."""
    with pytest.raises(ValueError, match=f"orbit value {inv.value} is outside"):
        orbit_representative(FieldContext(2), inv)


@pytest.mark.parametrize("inv, message", [
    (OrbitInvariant(EdgeKind.NON_EDGE, 0x1), "NON_EDGE determinant must be nonzero with trace 1"),
    (OrbitInvariant(EdgeKind.NON_EDGE, 0x0), "NON_EDGE determinant must be nonzero with trace 1"),
    (OrbitInvariant(EdgeKind.TYPE2, 0x0), "TYPE2 determinant must be nonzero with trace 0"),
    (OrbitInvariant(EdgeKind.TYPE2, 0x2), "TYPE2 determinant must be nonzero with trace 0"),
    (OrbitInvariant(3, 0x1), "orbit kind 3 is no EdgeKind"),
    (OrbitInvariant("TYPE1", 0x2), "orbit kind 'TYPE1' is no EdgeKind"),
    (OrbitInvariant(EdgeKind.TYPE1, 0x0), "type-1 ratio must avoid 0 and 1"),
    (OrbitInvariant(EdgeKind.TYPE1, 0x1), "type-1 ratio must avoid 0 and 1"),
], ids=["non-edge-trace-0", "non-edge-0", "type2-0", "type2-trace-1", "kind-3",
        "kind-name", "type1-ratio-0", "type1-ratio-1"])
def test_orbit_representative_refuses_values_outside_their_kind(inv, message):
    """At m = 2 (Tr 1 = 0, Tr 2 = 1) a determinant whose trace is not its
    kind's, a zero determinant, a kind that is no EdgeKind and a type-1
    ratio 0 or 1 (a zero or repeated vertex) are refused (kind 3 used to
    return a pair)."""
    with pytest.raises(ValueError, match=message):
        orbit_representative(FieldContext(2), inv)


def test_orbit_representative_round_trip():
    for m in (2, 3):
        ctx = FieldContext(m)
        for kind in EdgeKind:
            if kind == EdgeKind.NON_EDGE:
                states = orbit_states(ctx, kind)
            else:
                states = orbit_states(ctx, kind)
            for state in states:
                rep = orbit_representative(ctx, state)
                assert orbit_invariant(ctx, rep) == state


def test_census_text_and_json_round_trip():
    ctx = FieldContext(3)
    report = census(ctx)
    parsed = parse_census(report.to_text())
    assert parsed.m == report.m
    assert parsed.enumerated == report.enumerated
    assert parsed.closed_form == report.closed_form
    assert parsed.orbit_sizes == report.orbit_sizes
    obj = json.loads(report.to_json())
    assert obj["m"] == 3
    assert obj["enumerated"]["vertices"] == 63


@pytest.mark.parametrize("key", ["orbit_size.type3.0x1", "orbit_size.edges",
                                 "orbit_size.type1.0x1.0x2", "census.m"],
                         ids=["unknown-kind", "two-parts", "four-parts", "unknown-prefix"])
def test_parse_census_refuses_an_unrecognized_key(key):
    """An orbit_size key of an unknown kind or with the wrong number of
    dotted parts is refused by name, as any other unknown key is (they
    used to end in a bare KeyError or a failed unpacking)."""
    text = census(FieldContext(2)).to_text() + f"{key} = 5\n"
    with pytest.raises(ValueError, match=re.escape(f"unrecognized census key: {key}")):
        parse_census(text)


NON_EDGE_2 = OrbitInvariant(EdgeKind.NON_EDGE, 2)


@pytest.mark.parametrize("off", [
    lambda r: replace(r, enumerated={**r.enumerated, "non_edges": 121}),
    lambda r: replace(r, orbit_sizes={k: v for k, v in r.orbit_sizes.items()
                                      if k != NON_EDGE_2}),
    lambda r: replace(r, orbit_sizes={**r.orbit_sizes, NON_EDGE_2: 61}),
], ids=["count", "orbit-number", "orbit-size"])
def test_census_report_off_its_closed_form_does_not_match(off):
    """An enumerated count, the number of orbits of one kind (one of the two
    m = 2 non-edge orbits dropped) or one orbit's size off its closed
    form each make matches_closed_form False."""
    report = census(FieldContext(2))
    assert report.matches_closed_form()
    assert not off(report).matches_closed_form()


def test_census_threads_equivalent():
    ctx = FieldContext(4)
    assert census(ctx, threads=1).to_text() == census(ctx, threads=4).to_text()


def test_census_cap_enforced():
    ctx = FieldContext(8)
    report = census(ctx)  # closed-form only beyond the cap
    assert not report.exhaustive
    assert report.enumerated is None
    assert not report.matches_closed_form()  # nothing enumerated to match
    assert report.closed_form["vertices"] == 65535
    assert CENSUS_MAX_M == 6


def test_classify_vec_matches_scalar():
    ctx = FieldContext(2)
    n = 4
    va = np.repeat(np.arange(1, 16), 15).astype(np.uint16)
    vb = np.tile(np.arange(1, 16), 15).astype(np.uint16)
    keep = va != vb
    va, vb = va[keep], vb[keep]
    keys = orbit_invariant_vec(ctx, (va & 3).astype(np.uint16),
                               (va >> 2).astype(np.uint16),
                               (vb & 3).astype(np.uint16),
                               (vb >> 2).astype(np.uint16))
    for i in range(len(va)):
        p = PauliIndex(int(va[i]) & 3, int(va[i]) >> 2)
        q = PauliIndex(int(vb[i]) & 3, int(vb[i]) >> 2)
        assert int(keys[i]) >> 16 == int(classify_pair(ctx, (p, q)))
        assert int(keys[i]) & 0xFFFF == orbit_invariant(ctx, (p, q)).value


@lru_cache(maxsize=None)
def _field(m):
    return FieldContext(m)


@st.composite
def _pairs(draw):
    """(ctx, pairs): distinct nonzero vertex pairs at a random m in 2..16;
    about half the second vertices are a scalar multiple of the first,
    so type-1 lanes (det = 0) appear at every m."""
    m = draw(st.integers(2, 16))
    ctx, elem = _field(m), st.integers(0, (1 << m) - 1)
    vertex = st.tuples(elem, elem).filter(lambda v: v != (0, 0))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(vertex)
        if draw(st.booleans()):
            lam = draw(st.integers(2, ctx.order - 1))
            second = (ctx.mul(a, lam), ctx.mul(b, lam))
        else:
            second = draw(vertex.filter(lambda v: v != (a, b)))
        pairs.append(PauliPair(PauliIndex(a, b), PauliIndex(*second)))
    return ctx, pairs


@settings(max_examples=80, deadline=None)
@given(_pairs())
def test_orbit_invariant_vec_matches_scalar_any_m(case):
    """The log/exp kernel equals the scalar route for m in 2..16, builds no
    N x N table, and gives (TYPE1, 0) for a zero first or second vertex and
    (TYPE1, 1) for a repeated vertex."""
    ctx, pairs = case
    a, b, c, d = (np.array(x, dtype=np.uint16)
                  for x in zip(*[(p[0].a, p[0].b, p[1].a, p[1].b) for p in pairs]))
    keys = orbit_invariant_vec(ctx, a, b, c, d)
    for key, pair in zip(keys.tolist(), pairs):
        inv = orbit_invariant(ctx, pair)
        assert key == int(inv.kind) * 65536 + inv.value
    zero = np.zeros_like(c)
    keys = orbit_invariant_vec(ctx, a, b, zero, zero)
    assert (keys >> 16 == EdgeKind.TYPE1).all() and (keys & 0xFFFF == 0).all()
    assert (orbit_invariant_vec(ctx, zero, zero, c, d) == orbit_key(EdgeKind.TYPE1, 0)).all()
    assert (orbit_invariant_vec(ctx, a, b, a, b) == orbit_key(EdgeKind.TYPE1, 1)).all()
    assert "mul" not in ctx._np_cache and "div" not in ctx._np_cache


@pytest.mark.parametrize("m", [2, 3, 4])
def test_chain_masks_match_symplectic_inner(m):
    ctx = FieldContext(m)
    nsq = ctx.order ** 2
    masks = [chain_mask(ctx, chain) for chain in CHAINS]
    for inner, mask in enumerate(masks):
        assert mask.shape == (nsq, nsq) and mask.dtype == bool
        assert (mask == mask.T).all()
        assert not mask[0].any() and not mask[:, 0].any() and not mask.diagonal().any()
        for v in range(1, nsq):
            for w in range(1, nsq):
                want = v != w and symplectic_inner(ctx, vertex_split(m, v),
                                                   vertex_split(m, w)) == inner
                assert mask[v, w] == want
    assert not (masks[0] & masks[1]).any()
    assert "mul" not in ctx._np_cache
    with pytest.raises(ValueError, match="capped"):
        chain_mask(FieldContext(CENSUS_MAX_M + 1), "edges")
    for refuse in (chain_mask, chain_states):
        with pytest.raises(ValueError, match="'edgs'"):
            refuse(ctx, "edgs")


def test_state_name_and_obj():
    vertex = PauliIndex(0x3, 0x1)
    pair = PauliPair(PauliIndex(0x1, 0x0), PauliIndex(0x0, 0x2))
    inv = OrbitInvariant(EdgeKind.TYPE2, 0x6)
    assert [state_name(s) for s in (vertex, pair, inv)] == \
        ["vertex:0x3,0x1", "pair:0x1,0x0;0x0,0x2", "TYPE2:0x6"]
    assert state_obj(vertex) == ["0x3", "0x1"]
    assert state_obj(pair) == [["0x1", "0x0"], ["0x0", "0x2"]]
    assert state_obj(inv) == {"kind": "TYPE2", "value": "0x6"}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.tuples(*[st.integers(0, (1 << m) - 1)] * 4),
                         min_size=1, max_size=8))))
@example((16, [(0xFFFF,) * 4]))
def test_vertex_and_pair_codes_round_trip(case):
    """Ints stay Python ints, arrays decode to uint8 at m <= 8 and to
    uint16 at m = 9..16; vertex codes of either are uint32."""
    m, quads = case
    for a, b, c, d in quads:
        v, w = vertex_code(m, a, b), vertex_code(m, c, d)
        assert type(v) is int and v == a + (b << m) < 1 << (2 * m)
        assert vertex_split(m, v) == (a, b)
        assert all(type(x) is int for x in vertex_split(m, v))
        code = pair_code(m, v, w)
        assert type(code) is int and code == v * 4 ** m + w
        assert pair_split(m, code) == (v, w)
    field = np.uint8 if m <= 8 else np.uint16
    a, b, c, d = (np.array(x, dtype=field) for x in zip(*quads))
    v, w = vertex_code(m, a, b), vertex_code(m, c, d)
    assert v.dtype == vertex_code(m, a.astype(np.uint16), b).dtype == np.uint32
    assert v.tolist() == [vertex_code(m, *q[:2]) for q in quads]
    for x, want in zip(vertex_split(m, v), (a, b)):
        assert x.dtype == field and np.array_equal(x, want)
    code = pair_code(m, v, w)
    assert code.tolist() == [pair_code(m, x, y) for x, y in zip(v.tolist(), w.tolist())]
    assert [x.tolist() for x in pair_split(m, code)] == [v.tolist(), w.tolist()]
    assert vertex_code(m, a, b.astype(np.int64)).dtype == np.int64


@pytest.mark.parametrize("m", [2, 3])
def test_orbit_counts_matches_scalar_invariants(m):
    """Unweighted and weighted per-orbit counts over all ordered distinct
    nonzero pairs equal a brute-force count of the scalar invariants."""
    ctx = FieldContext(m)
    codes = range(1, ctx.order ** 2)
    pairs = [(v, w) for v in codes for w in codes if v != w]
    weights = np.random.default_rng(m).integers(0, 1000, size=len(pairs))
    want, want_weighted = {}, {}
    for (v, w), weight in zip(pairs, weights.tolist()):
        inv = orbit_invariant(ctx, PauliPair(PauliIndex(*vertex_split(m, v)),
                                             PauliIndex(*vertex_split(m, w))))
        want[inv] = want.get(inv, 0) + 1
        if weight:
            want_weighted[inv] = want_weighted.get(inv, 0) + weight
    v, w = (np.array(x, dtype=np.uint32) for x in zip(*pairs))
    keys = orbit_invariant_vec(ctx, *vertex_split(m, v), *vertex_split(m, w))
    assert keys.dtype == np.uint32 and int(keys.max()) < ORBIT_KEY_SPACE
    got = orbit_counts(keys)
    assert got == want and list(got) == sorted(want)
    assert all(type(c) is int for c in got.values())
    assert orbit_counts(keys, weights) == want_weighted


@pytest.mark.parametrize("m", [2, 3, 4])
def test_determinant_keys_match_scalar_invariants(m):
    """A pair with determinant det != 0 has orbit key determinant_keys[det]."""
    ctx = FieldContext(m)
    keys = determinant_keys(ctx)
    assert keys.dtype == np.uint32 and keys.shape == (ctx.order,)
    assert orbit_key(EdgeKind.TYPE2, 5) == (2 << 16) + 5
    for det in ctx.nonzero():
        inv = orbit_invariant(ctx, PauliPair(PauliIndex(1, 0), PauliIndex(0, det)))
        assert inv.value == det
        assert int(keys[det]) == orbit_key(inv.kind, inv.value)


def test_trace_readers_in_graph():
    """In graph.py only determinant_keys (the orbit a nonzero determinant
    names) and chain_mask (the chain of a pair) read the trace table, and
    only the scalar reference orbit_invariant reads ctx.trace: every other
    orbit rule goes through determinant_keys.  Among the checks of
    ``kerdock3 verify`` (cli._verify_checks) only field-dual-bases, a
    check of the field itself, reads ctx.trace; the others ask graph."""
    path = Path(__file__).resolve().parents[1] / "src" / "kerdock3" / "graph.py"
    owner, table, scalar = "<module>", set(), set()
    for line in path.read_text().splitlines():
        if line.startswith("def "):
            owner = line[4:line.index("(")]
        if 'np_table("trace")' in line:
            table.add(owner)
        if "ctx.trace(" in line:
            scalar.add(owner)
    assert table == {"determinant_keys", "chain_mask"}
    assert scalar == {"orbit_invariant"}
    body = inspect.getsource(cli._verify_checks)
    check, readers = None, set()
    for line in body.splitlines():
        named = re.search(r'@check\("([^"]+)"\)', line)
        check = named.group(1) if named else check
        if "ctx.trace(" in line:
            readers.add(check)
    assert check == "kerdock-frame-potential"  # every check was seen
    assert readers == {"field-dual-bases"}


def test_orbit_key_encoding_has_one_owner():
    """The orbit key's bit layout appears in graph.py alone; every other
    module goes through orbit_key, orbit_invariant_vec, determinant_keys
    or orbit_counts."""
    src = Path(__file__).resolve().parents[1] / "src" / "kerdock3"
    layout = re.compile(r"<<\s*16\b|>>\s*16\b|65536|0xFFFF", re.IGNORECASE)
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(src.glob("*.py")) if path.name != "graph.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if layout.search(line)]
    assert not offenders, offenders
