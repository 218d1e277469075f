"""Kerdock matrix set, subgroup labels, PSL(2, 2^m) symplectic embedding."""

import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerdock3.gf2m import FieldContext, f2_mat_mul
from kerdock3.kerdock import (INFINITY, PslElement, _psl_fill, classify_subgroup,
                              kerdock_matrix, mobius_action, pair_action, psl_elements,
                              psl_factors, psl_product, psl_to_symplectic,
                              sample_psl, sample_psl_vec, subgroup_members)
from kerdock3.pauli import (PauliIndex, SymplecticMatrix, apply_symplectic,
                            basis_change_matrix, omega_matrix, pack_index,
                            partial_hadamard_matrix, phase_matrix)


IDENTITY = PslElement(1, 0, 0, 1)


def _all_psl(ctx):
    return list(psl_elements(ctx))


def test_kerdock_set_properties():
    """Symmetric matrices, pairwise differences nonsingular, z=0 gives 0."""
    for m in (2, 3, 4):
        ctx = FieldContext(m)
        n = ctx.order
        mats = {z: kerdock_matrix(ctx, z) for z in range(n)}
        assert (mats[0] == 0).all()
        for z, pz in mats.items():
            assert (pz == pz.T).all()
        for z1 in range(n):
            for z2 in range(z1 + 1, n):
                diff = (mats[z1] + mats[z2]) % 2
                # nonsingular difference: full rank over GF(2)
                rows = tuple(int((diff[i] << np.arange(m)).sum())
                             for i in range(m))
                from kerdock3.gf2m import f2_mat_inv
                f2_mat_inv(rows, m)  # raises if singular


def test_kerdock_matrix_rowspace_slope():
    """The rowspace of [I | P_z] consists of pairs (a, b) with b = a z^2."""
    for m in (2, 3):
        ctx = FieldContext(m)
        for z in range(ctx.order):
            pz = kerdock_matrix(ctx, z)
            zz = ctx.mul(z, z)
            for a in range(1, ctx.order):
                bits = np.array([(a >> i) & 1 for i in range(m)])
                dual_b = int(((bits @ pz) % 2 << np.arange(m)).sum())
                b = ctx.dual_decode(dual_b)
                assert b == ctx.mul(a, zz)


def test_classify_subgroup_and_members():
    for m in (2, 3):
        ctx = FieldContext(m)
        n = ctx.order
        seen = {}
        for v in range(1, n * n):
            p = PauliIndex(v & (n - 1), v >> m)
            label = classify_subgroup(ctx, p)
            if p.a == 0:
                assert label is INFINITY
            else:
                assert label == ctx.div(p.b, p.a)
            seen.setdefault(label, set()).add(p)
        # N + 1 subgroup labels, each with N - 1 nonzero members, partitioning
        assert len(seen) == n + 1
        assert all(len(v) == n - 1 for v in seen.values())
        for label, members in seen.items():
            assert set(subgroup_members(ctx, label)) == members
        with pytest.raises(ValueError):
            classify_subgroup(ctx, (0, 0))


def test_psl_group_axioms_m2():
    ctx = FieldContext(2)
    gs = _all_psl(ctx)
    assert len(gs) == 60
    assert len(set(gs)) == 60
    assert IDENTITY in gs
    for g in gs:
        # det = 1 and char 2: (alpha beta; gamma delta)^-1 = (delta beta; gamma alpha)
        inverse = PslElement(g.delta, g.beta, g.gamma, g.alpha)
        assert inverse in gs
        assert psl_product(ctx, g, inverse) == IDENTITY
        assert psl_product(ctx, inverse, g) == IDENTITY
    # determinant one for every enumerated element
    for g in gs:
        det = ctx.mul(g.alpha, g.delta) ^ ctx.mul(g.beta, g.gamma)
        assert det == 1


def test_psl_elements_count_the_group_order():
    for m in (2, 3, 4):
        n = 1 << m
        assert len(_all_psl(FieldContext(m))) == (n + 1) * n * (n - 1)


def test_theta_is_homomorphism_m2():
    ctx = FieldContext(2)
    gs = _all_psl(ctx)
    theta = {g: psl_to_symplectic(ctx, g) for g in gs}
    for g1 in gs:
        for g2 in gs:
            assert theta[g1] @ theta[g2] == theta[psl_product(ctx, g1, g2)]


def test_theta_examples():
    for m in (2, 3):
        ctx = FieldContext(m)
        assert psl_to_symplectic(ctx, IDENTITY) == SymplecticMatrix.identity(m)
        # the swap element maps to the W-twisted block swap [[0, W], [W^-1, 0]]
        swap = PslElement(0, 1, 1, 0)
        rows = [int(r) << m for r in ctx.w_rows] + list(ctx.w_inv_rows)
        assert psl_to_symplectic(ctx, swap) == SymplecticMatrix(m, rows)


def test_mobius_covariance():
    """classify(p . theta(g)) = (beta + delta z) / (alpha + gamma z)."""
    for m in (2, 3):
        ctx = FieldContext(m)
        n = ctx.order
        gs = _all_psl(ctx) if m == 2 else \
            [sample_psl(ctx, np.random.default_rng(i)) for i in range(40)]
        for g in gs:
            f = psl_to_symplectic(ctx, g)
            for v in range(1, n * n):
                p = PauliIndex(v & (n - 1), v >> m)
                z = classify_subgroup(ctx, p)
                moved = apply_symplectic(ctx, f, p)
                assert classify_subgroup(ctx, moved) == mobius_action(ctx, g, z)


def test_pair_action_is_right_multiplication():
    for m in (2, 3):
        ctx = FieldContext(m)
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = sample_psl(ctx, rng)
            f = psl_to_symplectic(ctx, g)
            a, b = (int(x) for x in rng.integers(0, ctx.order, 2))
            want = PauliIndex(ctx.mul(a, g.alpha) ^ ctx.mul(b, g.gamma),
                              ctx.mul(a, g.beta) ^ ctx.mul(b, g.delta))
            assert pair_action(ctx, g, (a, b)) == want
            assert apply_symplectic(ctx, f, (a, b)) == want


def test_factorization_reconstructs_theta():
    builders = {
        "phase": phase_matrix,
        "basis": basis_change_matrix,
        "hadamard": lambda m: omega_matrix(m),
    }
    for m, count in ((2, None), (3, 60), (4, 40)):
        ctx = FieldContext(m)
        if count is None:
            gs = _all_psl(ctx)
        else:
            rng = np.random.default_rng(m)
            gs = [sample_psl(ctx, rng) for _ in range(count)]
            gs += [PslElement(z, ctx.inv(z), 0, ctx.inv(z))
                   for z in range(2, 6)]  # force gamma == 0 branch coverage
        for g in gs:
            det = ctx.mul(g.alpha, g.delta) ^ ctx.mul(g.beta, g.gamma)
            assert det == 1
            product = SymplecticMatrix.identity(ctx.m)
            for factor in psl_factors(ctx, g):
                product = product @ builders[factor[0]](ctx.m, *factor[1:])
            assert product == psl_to_symplectic(ctx, g)


def test_theta_image_is_symplectic():
    for m in (2, 3):
        ctx = FieldContext(m)
        for g in _all_psl(ctx):
            assert psl_to_symplectic(ctx, g).is_symplectic()


def test_sample_psl_uniform_coverage():
    ctx = FieldContext(2)
    rng = np.random.default_rng(99)
    counts = {}
    draws = 12000
    for _ in range(draws):
        g = sample_psl(ctx, rng)
        counts[g] = counts.get(g, 0) + 1
    assert len(counts) == 60
    expected = draws / 60
    for c in counts.values():
        assert abs(c - expected) < 6 * np.sqrt(expected)


def test_sample_psl_vec_valid_group_elements():
    ctx = FieldContext(3)
    rng = np.random.default_rng(1234)
    alpha, beta, gamma, delta = sample_psl_vec(ctx, rng, 5000)
    n = ctx.order
    mul = np.array([[ctx.mul(x, z) for z in range(n)] for x in range(n)], dtype=np.uint16)
    det = mul[alpha, delta] ^ mul[beta, gamma]
    assert (det == 1).all()
    # both branches appear
    assert (alpha == 0).any() and (alpha != 0).any()


@lru_cache(maxsize=None)
def _field(m):
    return FieldContext(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_sample_psl_vec_matches_scalar_fill_any_m(m, seed):
    """Lane by lane the log/exp draw is the scalar fill of the same (k, j)
    draws, with determinant 1, and no N x N table is built."""
    ctx = _field(m)
    n = ctx.order
    got = sample_psl_vec(ctx, np.random.default_rng(seed), 64)
    rng = np.random.default_rng(seed)
    k = rng.integers(1, n * n, size=64, dtype=np.uint32)
    j = rng.integers(0, n, size=64, dtype=np.uint16)
    for lane, g in enumerate(zip(*(x.tolist() for x in got))):
        assert g == _psl_fill(ctx, int(k[lane]), int(j[lane]))
        assert ctx.mul(g[0], g[3]) ^ ctx.mul(g[1], g[2]) == 1
    assert "mul" not in ctx._np_cache and "div" not in ctx._np_cache



@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_theta_is_homomorphism_any_m(m, seed):
    """theta(g1 g2) = theta(g1) theta(g2) for seeded uniform draws."""
    ctx = _field(m)
    rng = np.random.default_rng(seed)
    g1, g2 = sample_psl(ctx, rng), sample_psl(ctx, rng)
    assert psl_to_symplectic(ctx, psl_product(ctx, g1, g2)) == \
        psl_to_symplectic(ctx, g1) @ psl_to_symplectic(ctx, g2)

def test_invalid_psl_rejected():
    ctx = FieldContext(2)
    with pytest.raises(ValueError):
        psl_to_symplectic(ctx, PslElement(1, 1, 1, 1))  # det = 0
    with pytest.raises(ValueError):
        psl_factors(ctx, PslElement(0, 0, 0, 1))


@pytest.mark.parametrize("p", [(-1, 1), (1, -1), (0, 4), (5, 1), (0, 0)])
def test_classify_subgroup_refuses_entries_outside_the_field(p):
    """At m = 2 an entry outside [0, 4) or the zero index is refused
    ((-1, 1) used to give slope 2, (0, 4) INFINITY and (5, 1) an IndexError)."""
    with pytest.raises(ValueError, match=re.escape(f"Pauli index {p} must be a nonzero pair")):
        classify_subgroup(FieldContext(2), p)


@pytest.mark.parametrize("g", [PslElement(-3, 0, 0, 1), PslElement(5, 0, 0, 1),
                               PslElement(1, 0, 4, 1), PslElement(1, -1, 0, 1)])
def test_psl_entries_outside_the_field_are_refused(g):
    """At m = 2 an entry outside [0, 4) is refused, naming the element, before the
    determinant reads the tables ((-3, 0, 0, 1) used to pass as the
    identity through negative indexing, (5, 0, 0, 1) to end in an
    IndexError)."""
    ctx = FieldContext(2)
    for build in (psl_to_symplectic, psl_factors):
        with pytest.raises(ValueError, match="has an entry outside"):
            build(ctx, g)


@pytest.mark.parametrize("call, shown", [
    pytest.param(lambda ctx: kerdock_matrix(ctx, -1), "subgroup label -1", id="kerdock-z=-1"),
    pytest.param(lambda ctx: kerdock_matrix(ctx, 99), "subgroup label 99", id="kerdock-z=99"),
    pytest.param(lambda ctx: mobius_action(ctx, IDENTITY, -1), "subgroup label -1",
                 id="mobius-z=-1"),
    pytest.param(lambda ctx: mobius_action(ctx, IDENTITY, 99), "subgroup label 99",
                 id="mobius-z=99"),
    pytest.param(lambda ctx: mobius_action(ctx, PslElement(1, 0, -1, 1), INFINITY),
                 "PSL element (1, 0, -1, 1)", id="mobius-g-at-infinity"),
    pytest.param(lambda ctx: pair_action(ctx, IDENTITY, (-1, 0)),
                 "Pauli index (-1, 0)", id="pair-p=(-1,0)"),
    pytest.param(lambda ctx: pair_action(ctx, IDENTITY, (0, 99)),
                 "Pauli index (0, 99)", id="pair-p=(0,99)"),
    pytest.param(lambda ctx: pair_action(ctx, PslElement(1, 0, 0, 99), (1, 0)),
                 "PSL element (1, 0, 0, 99)", id="pair-g"),
])
def test_scalar_maps_refuse_entries_outside_the_field(call, shown):
    """At m = 3 a negative entry used to wrap through negative list
    indexing (kerdock_matrix(ctx, -1) was kerdock_matrix(ctx, 7), and
    mobius_action and pair_action returned 7), and 99 ended in a bare
    IndexError."""
    with pytest.raises(ValueError, match=re.escape(f"{shown} has an entry outside [0, 8)")):
        call(FieldContext(3))


@pytest.mark.parametrize("call, det, shown", [
    pytest.param(lambda ctx: mobius_action(ctx, PslElement(0, 0, 0, 0), 3), 0,
                 "(alpha=0, beta=0, gamma=0, delta=0)", id="mobius-zero-g"),
    pytest.param(lambda ctx: mobius_action(ctx, PslElement(1, 1, 1, 1), INFINITY), 0,
                 "(alpha=1, beta=1, gamma=1, delta=1)", id="mobius-g-at-infinity"),
    pytest.param(lambda ctx: pair_action(ctx, PslElement(1, 1, 1, 1), (1, 1)), 0,
                 "(alpha=1, beta=1, gamma=1, delta=1)", id="pair-g"),
    pytest.param(lambda ctx: psl_product(ctx, (1, 1, 1, 1), (2, 0, 0, 2)), 0,
                 "(1, 1, 1, 1)", id="product-g1"),
    pytest.param(lambda ctx: psl_product(ctx, IDENTITY, (2, 0, 0, 2)), 4,
                 "(2, 0, 0, 2)", id="product-g2"),
    pytest.param(lambda ctx: psl_to_symplectic(ctx, PslElement(2, 0, 0, 2)), 4,
                 "(alpha=2, beta=0, gamma=0, delta=2)", id="theta"),
    pytest.param(lambda ctx: psl_factors(ctx, PslElement(2, 0, 0, 2)), 4,
                 "(alpha=2, beta=0, gamma=0, delta=2)", id="factors"),
])
def test_field_side_maps_refuse_a_g_outside_sl2(call, det, shown):
    """At m = 3 mobius_action of the zero matrix used to return INFINITY,
    pair_action of (1, 1; 1, 1) the zero index (0, 0), and psl_product of
    (1, 1; 1, 1) and 2I the non-SL (2, 2; 2, 2); every map that reads g
    refuses it through the one determinant check, as theta does."""
    with pytest.raises(ValueError, match=re.escape(f"determinant {det} != 1, not an SL(2) "
                                                   f"element: ") + ".*" + re.escape(shown)):
        call(FieldContext(3))
