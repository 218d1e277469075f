"""Orbit chains: closed forms, block structure, spectra, exact lumping."""

import inspect
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kerdock3 import markov
from kerdock3.gf2m import FieldContext
from kerdock3.graph import (CHAINS, EdgeKind, PauliPair, chain_states, orbit_invariant,
                            orbit_representative, orbit_states, state_name)
from kerdock3.kerdock import pair_action, sample_psl
from kerdock3.markov import (EMPIRICAL_MAX_M, FULL_CHAIN_MAX_M, TransitionMatrix,
                             closed_form_failures, extract_r, full_chain, lambda_q0_bound, lambda_q1_closed,
                             lump_chain, mixing_time_bound,
                             mixing_time_report, parse_csv_probs,
                             q0_closed_form, q1_closed_form, q_empirical,
                             spectral_report,
                             stationary_check, stationary_weights,
                             transvection_counts, tv_curve, tv_curve_exact)
from kerdock3.pauli import apply_transvection, vertex_split
from kerdock3.sampler import SamplerConfig, steps_for_epsilon


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_nonedge_chain_equals_closed_form(m):
    """Enumerated non-edge chain == closed form, numerator by numerator."""
    ctx = FieldContext(m)
    emp = q_empirical(ctx, "nonedges")
    closed = q1_closed_form(ctx)
    assert emp.states == closed.states
    assert emp.denominator == closed.denominator
    assert np.array_equal(emp.numerators, closed.numerators)


@pytest.mark.parametrize("m", range(2, EMPIRICAL_MAX_M + 1))
def test_edge_chain_block_structure(m):
    """The enumerated edge chain is q0_closed_form, Q0's block matrix; R's
    entries are 4 times a count of three trace bits, its rows sum to 6N
    and its columns to 3N."""
    ctx = FieldContext(m)
    tm = q_empirical(ctx, "edges")
    assert tm == q0_closed_form(ctx)
    n, m1 = 1 << m, (1 << m) - 2
    assert [s.kind for s in tm.states] == [EdgeKind.TYPE1] * m1 + [EdgeKind.TYPE2] * (m1 // 2)
    r = extract_r(tm)
    assert np.array_equal(tm.numerators[:m1, :m1], (n * n - 4) * np.eye(m1, dtype=np.int64))
    assert np.array_equal(tm.numerators[:m1, m1:], n * r.T)
    assert np.array_equal(tm.numerators[m1:, m1:],
                          (n * n - 4) * np.eye(m1 // 2, dtype=np.int64) + 6 * n)
    assert set(np.unique(r).tolist()) <= {0, 4, 8, 12}
    assert (r.sum(axis=1) == 6 * n).all()
    assert (r.sum(axis=0) == 3 * n).all()


def test_edge_chain_checks_refuse_states_of_another_field():
    """m = 3 edge states over the m = 4 denominator are Q0 in neither field."""
    states = q_empirical(FieldContext(3), "edges").states
    den = 4 * (16 * 16 - 1)
    tm = TransitionMatrix(states=states, numerators=den * np.eye(len(states)),
                          denominator=den)
    for m in (3, 4):
        assert closed_form_failures(FieldContext(m), tm) == ["closed-form"]


@pytest.mark.parametrize("m, poly", [(4, 0x19), (8, 0x12B)])
def test_q0_closed_form_under_other_polynomials(m, poly):
    """The states and R follow the field's polynomial; the equality holds."""
    ctx = FieldContext(m, poly)
    assert ctx.poly != FieldContext(m).poly
    assert q0_closed_form(ctx) == q_empirical(ctx, "edges")


@pytest.mark.parametrize("m", [2, 3, 4])
def test_enumerated_chains_fail_no_closed_form(m):
    ctx = FieldContext(m)
    for chain in CHAINS:
        assert closed_form_failures(ctx, q_empirical(ctx, chain)) == []


def test_closed_form_failures_name_every_failed_form_in_order():
    """Each chain has one form: an m = 2 edge chain whose type-2 state
    jumps to one type-1 state fails Q0, and a lazy non-edge chain fails
    Q1.  The chain is read off the first state."""
    ctx = FieldContext(2)
    edges = TransitionMatrix(states=q_empirical(ctx, "edges").states,
                             numerators=[[60, 0, 0], [0, 60, 0], [60, 0, 0]],
                             denominator=60)
    assert closed_form_failures(ctx, edges) == ["closed-form"]
    lazy = TransitionMatrix(states=q1_closed_form(ctx).states,
                            numerators=60 * np.eye(2, dtype=np.int64), denominator=60)
    assert closed_form_failures(ctx, lazy) == ["closed-form"]


def test_chain_checks_and_state_json_have_one_owner():
    """cli.py names neither closed form: ``kerdock3 chain`` and ``verify``
    reach them through closed_form_failures alone, so both check the
    same forms.  markov.py parses no chain state: from_json
    reads each through graph.state_from_obj, beside the state_obj that
    writes it."""
    src = Path(markov.__file__).parent
    cli_text = (src / "cli.py").read_text()
    checks = ("q1_closed_form", "q0_closed_form")
    assert [name for name in checks if name in cli_text] == []
    assert "closed_form_failures(" in cli_text
    markov_text = (src / "markov.py").read_text()
    assert re.findall(r"EdgeKind\[|int\([^()]*, 16\)", markov_text) == []
    assert "state_from_obj(" in inspect.getsource(TransitionMatrix.from_json)


def test_r_anchor_m2():
    ctx = FieldContext(2)
    r = extract_r(q_empirical(ctx, "edges"))
    assert np.array_equal(r, np.array([[12, 12]]))


def test_r_anchor_m3_is_constant_block():
    ctx = FieldContext(3)
    r = extract_r(q_empirical(ctx, "edges"))
    assert r.shape == (3, 6)
    assert np.array_equal(r, 8 * np.ones((3, 6), dtype=np.int64))


def test_m4_type2_alpha_row_counts():
    """Raw transvection counts from the type-2 alpha orbit to type-1 orbits."""
    ctx = FieldContext(4)
    states, counts = transvection_counts(ctx, "edges")
    alpha = ctx.alpha_power(1)
    (row_idx,) = [i for i, s in enumerate(states)
                  if s.kind == EdgeKind.TYPE2 and s.value == alpha]
    type1_cols = [i for i, s in enumerate(states) if s.kind == EdgeKind.TYPE1]
    row = counts[row_idx, type1_cols]
    assert row.tolist() == [1, 2, 1, 1, 3, 2, 2, 2, 2, 3, 1, 1, 2, 1]
    # not a constant block at m=4, unlike m=3
    r = extract_r(q_empirical(ctx, "edges"))
    assert len(set(r.ravel().tolist())) > 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("chain", ["edges", "nonedges"])
def test_counts_match_scalar_brute_force(m, chain):
    """Each count is the number of transvections whose image, made by the
    scalar apply_transvection and classified by the scalar orbit_invariant,
    lies in the column's orbit."""
    ctx = FieldContext(m)
    states, counts = transvection_counts(ctx, chain)
    col_of = {s: j for j, s in enumerate(states)}
    want = np.zeros((len(states), len(states)), dtype=np.int64)
    for row, s in enumerate(states):
        p, q = orbit_representative(ctx, s)
        for h in range(1, ctx.order ** 2):
            h = vertex_split(m, h)
            image = PauliPair(apply_transvection(ctx, h, p), apply_transvection(ctx, h, q))
            want[row, col_of[orbit_invariant(ctx, image)]] += 1
    assert counts.dtype == np.int64
    assert np.array_equal(counts, want)


def test_counts_are_representative_independent():
    """Any member of each orbit, here a random SL(2) image of the default
    representative, gives the whole count matrix unchanged."""
    rng = np.random.default_rng(2)
    for m in (3, 4, 5):
        ctx = FieldContext(m)
        for chain in ("edges", "nonedges"):
            states, base = transvection_counts(ctx, chain)
            defaults = [orbit_representative(ctx, s) for s in states]
            reps = []
            for p, q in defaults:
                g = sample_psl(ctx, rng)
                reps.append(PauliPair(pair_action(ctx, g, p), pair_action(ctx, g, q)))
            assert reps != defaults
            _, alt = transvection_counts(ctx, chain, representatives=reps)
            assert np.array_equal(alt, base), (m, chain)


def test_counts_refuse_a_representative_of_another_chain():
    ctx = FieldContext(3)
    non_edge = orbit_representative(ctx, orbit_states(ctx, EdgeKind.NON_EDGE)[0])
    type1 = orbit_representative(ctx, orbit_states(ctx, EdgeKind.TYPE1)[0])
    for chain, rep in (("edges", non_edge), ("nonedges", type1)):
        reps = [orbit_representative(ctx, s) for s in transvection_counts(ctx, chain)[0]]
        reps[1] = rep
        with pytest.raises(ValueError, match=rf"{re.escape(state_name(rep))} \(row 1\) "
                                             rf"is not in the '{chain}' chain"):
            transvection_counts(ctx, chain, representatives=reps)
    # pairs that are no distinct nonzero pair belong to no chain
    for rep in (((1, 0), (0, 0)), ((0, 0), (1, 0)), ((3, 1), (3, 1))):
        with pytest.raises(ValueError, match="is not in the 'edges' chain"):
            transvection_counts(ctx, "edges", representatives=[rep])
    # an entry outside the field is refused by the field's own check, by
    # representative and row, before any table read
    reps = [orbit_representative(ctx, s) for s in transvection_counts(ctx, "edges")[0]]
    for rep in (((1, 0), (9, 0)), ((1, -1), (2, 0))):
        reps[2] = rep
        with pytest.raises(ValueError, match=rf"representative {re.escape(state_name(rep))} "
                                             rf"\(row 2\) has an entry outside \[0, 8\)"):
            transvection_counts(ctx, "edges", representatives=reps)


@pytest.mark.parametrize("m", range(2, EMPIRICAL_MAX_M + 1))
def test_stationary_and_w2_exact(m):
    """Both enumerated chains fix their stationary weights, and
    W2 = [1, .., 1, -2, .., -2] is a left eigenvector of q0_closed_form
    with numerator N^2 - 6N - 4."""
    ctx = FieldContext(m)
    for chain in ("edges", "nonedges"):
        tm = q_empirical(ctx, chain)
        assert stationary_check(tm)
    tm = q0_closed_form(ctx)
    n = 1 << m
    w2 = np.array([1 if s.kind == EdgeKind.TYPE1 else -2 for s in tm.states])
    assert np.array_equal(w2 @ tm.numerators, (n * n - 6 * n - 4) * w2)
    w = stationary_weights(tm)
    assert w.tolist() == [1] * (n - 2) + [n] * ((n - 2) // 2)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_q1_spectrum_flat(m):
    """Second eigenvalue (N^2-4)/(4(N^2-1)) with multiplicity N/2 - 1."""
    ctx = FieldContext(m)
    rep = spectral_report(q1_closed_form(ctx))
    n = 1 << m
    lam = (n * n - 4) / (4 * (n * n - 1))
    assert lam == lambda_q1_closed(m)
    assert abs(rep.eigenvalues[0].real - 1.0) < 1e-10
    tail = rep.eigenvalues[1:]
    assert len(tail) == n // 2 - 1
    assert (np.abs(tail - lam) < 1e-10).all()
    assert abs(rep.lambda2 - lam) < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_q0_lambda2_below_analytic_bound(m):
    ctx = FieldContext(m)
    rep = spectral_report(q_empirical(ctx, "edges"))
    n = 1 << m
    bound = (n * n - 4 + 3 * n * math.sqrt(2 * n)) / (4 * (n * n - 1))
    assert bound == pytest.approx(lambda_q0_bound(m), abs=1e-15)
    assert rep.lambda2 < bound


@pytest.mark.parametrize("m", [5, 6])
def test_q0_lambda_min_positive(m):
    ctx = FieldContext(m)
    rep = spectral_report(q_empirical(ctx, "edges"))
    assert rep.lambda_min > 0


@pytest.mark.parametrize("m", range(2, EMPIRICAL_MAX_M + 1))
def test_sigma_max_r_bound(m):
    """sigma_max(R) attains 3 sqrt(2) N, the bound behind lambda_q0_bound."""
    r = extract_r(q0_closed_form(FieldContext(m)))
    # constant row sums 6N and column sums 3N make the uniform vectors
    # exact singular vectors, so sigma_max = sqrt(6N * 3N) at every m
    sigma = float(np.linalg.svd(r.astype(float), compute_uv=False)[0])
    assert abs(sigma - 3 * math.sqrt(2) * (1 << m)) <= 1e-9


def test_mixing_time_bounds_frozen():
    assert mixing_time_bound(2, 0.01) == 46
    assert mixing_time_bound(3, 0.01) == 38
    rep = mixing_time_report(3, 0.01)
    assert rep["bound"] == 38
    assert rep["pi_star"] == pytest.approx(2.0 / 60.0)
    assert rep["delta"] == pytest.approx(1.0 - lambda_q0_bound(3))
    with pytest.raises(ValueError):
        mixing_time_bound(3, 0.0)
    with pytest.raises(ValueError):
        mixing_time_bound(3, 1.0)


@pytest.mark.parametrize("m", [-1, 0, 1, 17])
def test_mixing_time_bound_refuses_unsupported_degrees(m):
    """m outside [2, 16], where no field exists, is refused with a message
    naming m, before the logarithm (a math domain error at m = 1, a
    ZeroDivisionError at m = 0) or a step count at m = 17."""
    for call in (lambda: mixing_time_bound(m, 0.01), lambda: mixing_time_report(m, 0.01),
                 lambda: steps_for_epsilon(m, 0.01),
                 lambda: SamplerConfig(m=m, seed=0, count=1, epsilon=0.01).resolved_steps()):
        with pytest.raises(ValueError, match=re.escape(f"m = {m} must be an int in [2, 16]")):
            call()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("chain", ["edges", "nonedges"])
def test_full_chain_uniform_stationary_and_lumping(m, chain):
    ctx = FieldContext(m)
    full = full_chain(ctx, chain)
    # symmetric => doubly stochastic => uniform is exactly stationary
    assert np.array_equal(full.numerators, full.numerators.T)
    assert (full.numerators.sum(axis=1) == full.denominator).all()
    lumped = lump_chain(ctx, full)
    emp = q_empirical(ctx, chain)
    assert lumped.states == emp.states
    a = lumped.numerators * emp.denominator
    b = emp.numerators * lumped.denominator
    assert np.array_equal(a, b)


def test_lump_chain_refuses_a_chain_that_is_not_lumpable():
    """One pair that leaves its orbit while the rest of the orbit stays
    put sends unequal mass out of one orbit: no orbit chain exists."""
    ctx = FieldContext(2)
    full = full_chain(ctx, "edges")
    orbits = [orbit_invariant(ctx, pair) for pair in full.states]
    away = next(j for j, inv in enumerate(orbits) if inv != orbits[0])
    numerators = full.denominator * np.eye(len(orbits), dtype=np.int64)
    numerators[0] = 0
    numerators[0, away] = full.denominator
    with pytest.raises(ValueError, match=re.escape(f"not lumpable over orbit {orbits[0]}")):
        lump_chain(ctx, TransitionMatrix(full.states, numerators, full.denominator))


def test_lump_chain_refuses_a_pair_of_the_other_class():
    """A full edge chain whose last pair is a non-edge pair is refused, and
    the refusal names that pair."""
    ctx = FieldContext(2)
    full = full_chain(ctx, "edges")
    stray = full_chain(ctx, "nonedges").states[0]
    mixed = TransitionMatrix(full.states[:-1] + [stray], full.numerators, full.denominator)
    with pytest.raises(ValueError, match=re.escape(
            f"state {state_name(stray)} is not in the edges chain")):
        lump_chain(ctx, mixed)


def test_lump_chain_names_the_first_of_several_pairs_of_the_other_class():
    """Two non-edge pairs inside a full edge chain, neither of them last:
    the refusal names the one earlier in state order."""
    ctx = FieldContext(2)
    full = full_chain(ctx, "edges")
    strays = full_chain(ctx, "nonedges").states
    states = list(full.states)
    states[3], states[7] = strays[0], strays[1]
    with pytest.raises(ValueError, match=re.escape(
            f"state {state_name(strays[0])} is not in the edges chain")):
        lump_chain(ctx, TransitionMatrix(states, full.numerators, full.denominator))


def test_lump_chain_names_the_first_orbit_in_chain_order_that_is_not_lumpable():
    """Two orbits lose lumpability, through pairs in the middle of the
    state order: the refusal names the orbit first in ``chain_states``
    order, although its offending pair comes after the other's."""
    ctx = FieldContext(2)
    full = full_chain(ctx, "edges")
    first, later = chain_states(ctx, "edges")[:2]
    orbits = [orbit_invariant(ctx, pair) for pair in full.states]
    late_pair = next(j for j, inv in enumerate(orbits) if inv == later)
    first_pair = max(j for j, inv in enumerate(orbits[:-1]) if inv == first)
    assert late_pair < first_pair < len(orbits) - 1
    numerators = full.denominator * np.eye(len(orbits), dtype=np.int64)
    for j in (late_pair, first_pair):
        away = next(i for i, inv in enumerate(orbits) if inv != orbits[j])
        numerators[j] = 0
        numerators[j, away] = full.denominator
    with pytest.raises(ValueError, match=re.escape(f"not lumpable over orbit {first}")):
        lump_chain(ctx, TransitionMatrix(full.states, numerators, full.denominator))


def test_lump_chain_refuses_a_chain_with_an_empty_orbit():
    """The non-edge pairs of the second orbit alone, each held in place,
    leave the first orbit with no pair: refused with that orbit named,
    where there was an IndexError before."""
    ctx = FieldContext(2)
    full = full_chain(ctx, "nonedges")
    first, second = chain_states(ctx, "nonedges")
    kept = [pair for pair in full.states if orbit_invariant(ctx, pair) == second]
    sub = TransitionMatrix(kept, full.denominator * np.eye(len(kept), dtype=np.int64),
                           full.denominator)
    with pytest.raises(ValueError, match=re.escape(
            f"the full chain has no pair in orbit {first}")):
        lump_chain(ctx, sub)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("chain", CHAINS)
def test_lump_chain_does_not_depend_on_the_pair_order(m, chain):
    """States and numerators permuted together lump to the same chain."""
    ctx = FieldContext(m)
    full = full_chain(ctx, chain)
    perm = np.random.default_rng(m).permutation(len(full.states))
    shuffled = TransitionMatrix([full.states[i] for i in perm],
                                full.numerators[np.ix_(perm, perm)], full.denominator)
    del full
    assert lump_chain(ctx, shuffled) == q_empirical(ctx, chain)


def test_lump_chain_classifies_the_pairs_in_one_array_call(monkeypatch):
    """Only the first pair goes through the scalar orbit_invariant, to read
    the class; the rest are classified together."""
    ctx = FieldContext(2)
    full = full_chain(ctx, "edges")
    calls = []
    scalar = markov.orbit_invariant
    monkeypatch.setattr(markov, "orbit_invariant",
                        lambda *args: calls.append(args) or scalar(*args))
    assert lump_chain(ctx, full) == q_empirical(ctx, "edges")
    assert len(calls) <= 1


@pytest.mark.parametrize("chain", CHAINS)
def test_lump_chain_memory_at_m3(chain):
    """At m = 3 the full chain is a dense 30 MB matrix; lumping it reads
    only its nonzero entries and holds no copy of it (about 4.5 MB peak,
    against 7.7-8.0 MB for the column gathers it replaced)."""
    ctx = FieldContext(3)
    full = full_chain(ctx, chain)
    tracemalloc.start()
    try:
        lump_chain(ctx, full)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


@pytest.mark.parametrize("chain", CHAINS)
def test_closed_form_failures_refuse_a_full_pair_chain(chain):
    """Pair states carry no orbit kind; the chain must be lumped first."""
    ctx = FieldContext(2)
    full = full_chain(ctx, chain)
    with pytest.raises(ValueError, match=re.escape(
            f"state {state_name(full.states[0])} is no orbit invariant")):
        closed_form_failures(ctx, full)


def test_full_chain_refused_above_its_cap():
    """At m = 4 the edge chain would hold 32130^2 int64 numerators (8 GiB)."""
    with pytest.raises(ValueError, match=f"full chain capped at m = {FULL_CHAIN_MAX_M}"):
        full_chain(FieldContext(FULL_CHAIN_MAX_M + 1), "edges")


@pytest.mark.parametrize("chain", CHAINS)
def test_full_chain_json_round_trip(chain):
    """Pair states read back through graph.state_from_obj."""
    tm = full_chain(FieldContext(2), chain)
    back = TransitionMatrix.from_json(tm.to_json())
    assert back == tm
    assert isinstance(back.states[0], PauliPair)


def test_tv_curve_float_matches_exact():
    ctx = FieldContext(3)
    tm = q_empirical(ctx, "edges")
    start = np.zeros(len(tm.states))
    start[0] = 1.0
    floats = tv_curve(tm, start, 12)
    exacts = tv_curve_exact(tm, 0, 12)
    for f, e in zip(floats, exacts):
        assert abs(f - float(e)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tv_curve_stack_equals_per_start_curves(m):
    """One call over every point-mass start gives, bit for bit, the
    curves of one call per start."""
    ctx = FieldContext(m)
    for chain in ("edges", "nonedges"):
        tm = q_empirical(ctx, chain)
        starts = np.eye(len(tm.states))
        stacked = tv_curve(tm, starts, 25)
        assert stacked.shape == (len(tm.states), 26)
        for row, curve in zip(starts, stacked):
            assert np.array_equal(curve, tv_curve(tm, row, 25))


def test_tv_decay_ratio_bounded_by_lambda2():
    ctx = FieldContext(3)
    for chain in ("edges", "nonedges"):
        tm = q_empirical(ctx, chain)
        lam2 = spectral_report(tm).lambda2
        curve = tv_curve_exact(tm, 0, 30)
        for t in range(5, 30):
            if curve[t] == 0:
                continue
            ratio = curve[t + 1] / curve[t]
            assert float(ratio) <= lam2 + 1e-6


def test_tv_curve_rejects_bad_start():
    ctx = FieldContext(2)
    tm = q_empirical(ctx, "nonedges")
    with pytest.raises(ValueError):
        tv_curve(tm, [0.5, 0.6], 3)
    with pytest.raises(ValueError):
        tv_curve(tm, [1.0], 3)
    with pytest.raises(ValueError):
        tv_curve(tm, [[1.0, 0.0], [0.5, 0.6]], 3)
    # NaN passes both the sign and the sum test, so it is refused on its own
    nonedges3 = q_empirical(FieldContext(3), "nonedges")
    for bad in ([np.nan, 0.5, 0.25, 0.25], [[1.0, 0, 0, 0], [np.nan, 0.5, 0.25, 0.25]]):
        with pytest.raises(ValueError, match="probability vectors"):
            tv_curve(nonedges3, bad, 3)


def test_transition_matrix_json_round_trip():
    ctx = FieldContext(3)
    for chain in ("edges", "nonedges"):
        tm = q_empirical(ctx, chain)
        back = TransitionMatrix.from_json(tm.to_json())
        assert back.states == tm.states
        assert back.denominator == tm.denominator
        assert np.array_equal(back.numerators, tm.numerators)


def test_transition_matrix_equality_is_exact():
    """Equal means the same states, denominator and numerators; the
    generated dataclass __eq__ raised on the ndarray field instead."""
    tm = TransitionMatrix(states=["a", "b"], numerators=[[1, 1], [0, 2]], denominator=2)
    assert tm == TransitionMatrix(states=["a", "b"], numerators=[[1, 1], [0, 2]],
                                  denominator=2)
    assert tm != TransitionMatrix(states=["a", "b"], numerators=[[2, 2], [0, 4]],
                                  denominator=4)
    assert tm != TransitionMatrix(states=["b", "a"], numerators=[[1, 1], [0, 2]],
                                  denominator=2)
    assert tm != TransitionMatrix(states=["a", "b"], numerators=[[2, 0], [0, 2]],
                                  denominator=2)
    assert tm != "a"
    ctx = FieldContext(3)
    assert q_empirical(ctx, "nonedges") == q1_closed_form(ctx)
    assert q_empirical(ctx, "edges") != q_empirical(ctx, "nonedges")


def test_transition_matrix_csv_round_trip():
    ctx = FieldContext(3)
    tm = q_empirical(ctx, "edges")
    names, probs = parse_csv_probs(tm.to_csv())
    assert len(names) == len(tm.states)
    assert np.allclose(probs, tm.probs, atol=1e-15)


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(states=["a", "b"],
                         numerators=np.array([[1, 1], [2, 1]]), denominator=2)
    with pytest.raises(ValueError):
        TransitionMatrix(states=["a"], numerators=np.array([[-1]]),
                         denominator=-1)
    # two states need 2 x 2 numerators, whatever the rows sum to
    for numerators in ([[2, 0]], [[2]], [[1, 1, 0], [1, 0, 1]]):
        with pytest.raises(ValueError, match="numerator matrix shape does not match states"):
            TransitionMatrix(states=["a", "b"], numerators=numerators, denominator=2)


def test_closed_form_failures_refuse_states_out_of_block_order():
    """The m = 3 edge chain with its states reversed (type-2 block first)
    is the same chain relabelled, yet not Q0 in ``chain_states`` order."""
    ctx = FieldContext(3)
    tm = q_empirical(ctx, "edges")
    order = np.arange(len(tm.states))[::-1]
    reversed_tm = TransitionMatrix([tm.states[i] for i in order],
                                   tm.numerators[np.ix_(order, order)], tm.denominator)
    assert closed_form_failures(ctx, reversed_tm) == ["closed-form"]


def test_empirical_cap():
    ctx = FieldContext(9)
    with pytest.raises(ValueError):
        q_empirical(ctx, "edges")
    assert EMPIRICAL_MAX_M == 8


@pytest.mark.parametrize("m", [9, 16])
def test_q1_closed_form_cap(m):
    """Q1 has (N/2)^2 numerators (8 GiB per matrix at m = 16): refused
    above EMPIRICAL_MAX_M before anything is allocated."""
    ctx = FieldContext(m)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"capped at m = {EMPIRICAL_MAX_M}"):
            q1_closed_form(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m", [9, 16])
def test_q0_closed_form_cap(m):
    """Refused above EMPIRICAL_MAX_M, with q1_closed_form's wording,
    before anything is allocated."""
    ctx = FieldContext(m)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"the closed-form Q0 is capped at m = {EMPIRICAL_MAX_M}, "
                "as the orbit chains it is checked against are")):
            q0_closed_form(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bad_chain_name():
    ctx = FieldContext(2)
    with pytest.raises(ValueError):
        q_empirical(ctx, "loops")
    with pytest.raises(ValueError, match="'edgs'"):
        full_chain(ctx, "edgs")


def test_probability_rows_sum_to_one():
    ctx = FieldContext(4)
    for chain in ("edges", "nonedges"):
        tm = q_empirical(ctx, chain)
        assert (tm.numerators.sum(axis=1) == tm.denominator).all()
        assert np.allclose(tm.probs.sum(axis=1), 1.0, atol=1e-14)


def test_spectral_report_json():
    ctx = FieldContext(2)
    rep = spectral_report(q_empirical(ctx, "edges"))
    obj = json.loads(rep.to_json())
    assert obj["lambda2"] == pytest.approx(rep.lambda2)
    assert len(obj["eigenvalues_real"]) == 3


@pytest.mark.parametrize("start", [1.5, 0.0, "0", None])
def test_tv_curve_exact_refuses_a_start_that_is_no_int(start):
    """1.5 passed the range check and gave the curve of an all-zero start,
    1/2 at every step."""
    tm = q1_closed_form(FieldContext(3))
    message = f"start_index = {start!r} must be an int in [0, {len(tm.states) - 1}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        tv_curve_exact(tm, start, 2)
    assert tv_curve_exact(tm, np.int64(1), 2) == tv_curve_exact(tm, 1, 2)


def test_exact_curve_values_are_fractions():
    ctx = FieldContext(2)
    tm = q_empirical(ctx, "nonedges")
    curve = tv_curve_exact(tm, 0, 4)
    assert all(isinstance(v, Fraction) for v in curve)
    assert curve[0] == Fraction(1, 2)
