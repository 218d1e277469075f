"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test is self-contained and enforces its stated runtime budget.
Criterion 10 is split into labeled parts; the part asserting the
single-qubit Clifford third frame potential *as stated* (value 6) fails:
the computed value is 5, which equals the dimension-2 Haar value — that
group is an exact 3-design, so its excess over Haar is zero, not one.
The companion part pins the computed value. All other criteria pass.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from kerdock3.gf2m import FieldContext, f2_numpy_to_rows
from kerdock3.graph import (EdgeKind, census, orbit_invariant_vec, srg_check,
                            srg_parameters)
from kerdock3.kerdock import (PslElement, psl_elements, psl_to_symplectic,
                              sample_psl, sample_psl_vec)
from kerdock3.markov import (extract_r, full_chain, lambda_q0_bound,
                             lump_chain, mixing_time_bound,
                             q0_closed_form, q1_closed_form, q_empirical,
                             spectral_report, stationary_check,
                             transvection_counts, tv_curve_exact)
from kerdock3.pauli import (basis_change_matrix, partial_hadamard_matrix,
                            phase_matrix, transvection_matrix)
from kerdock3.sampler import (SamplerConfig, mc_sigma, pair_statistics_stream,
                              sample_stream, steps_for_epsilon)
from kerdock3.unitary import (basis_unitary, conjugation_check,
                              estimator_margin, frame_potential,
                              frame_potential_estimate, haar_frame_potential,
                              kerdock_unitaries, partial_hadamard_unitary,
                              phase_unitary, psl_unitary, sample_unitary,
                              single_qubit_clifford_group,
                              transvection_unitary)


class budget:
    """Context manager asserting the block stays under its time budget."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.limit, \
                f"runtime {elapsed:.1f}s exceeds budget {self.limit}s"
        return False


def test_criterion_01_field_matrices_and_trace_partition():
    with budget(1.0):
        ctx = FieldContext(3, poly=0xB)
        alpha = ctx.alpha_power(1)
        assert np.array_equal(ctx.mul_matrix(alpha),
                              np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]]))
        assert np.array_equal(ctx.w_matrix(),
                              np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
        tr0 = {0} | {ctx.alpha_power(i) for i in (1, 2, 4)}
        tr1 = {ctx.alpha_power(i) for i in (0, 3, 5, 6)}
        assert {x for x in range(8) if ctx.trace(x) == 0} == tr0
        assert {x for x in range(8) if ctx.trace(x) == 1} == tr1


def test_criterion_02_multiplication_matrix_relations_exhaustive():
    with budget(30.0):
        for m in (2, 3, 4, 5):
            ctx = FieldContext(m)
            n = ctx.order
            mats = np.stack([ctx.mul_matrix(x) for x in range(n)])
            w = ctx.w_matrix()
            mul = np.array([[ctx.mul(x, z) for z in range(n)] for x in range(n)])
            # (a) A_x A_z = A_z A_x = A_{xz} for all x, z
            prod = np.einsum("xij,zjk->xzik", mats, mats) % 2
            assert np.array_equal(prod, mats[mul])
            assert np.array_equal(prod, prod.transpose(1, 0, 2, 3))
            # (b) A_x + A_z = A_{x + z}
            xor = (mats[:, None] + mats[None, :]) % 2
            idx = np.arange(n)
            assert np.array_equal(xor, mats[idx[:, None] ^ idx[None, :]])
            # (c) A_z W = W A_z^T
            left = np.einsum("zij,jk->zik", mats, w) % 2
            right = np.einsum("ij,zkj->zik", w, mats) % 2
            assert np.array_equal(left, right)


def test_criterion_03_strongly_regular_graph_and_censuses():
    with budget(120.0):
        assert srg_check(FieldContext(2)) == srg_parameters(2) == (15, 6, 1, 3)
        assert srg_check(FieldContext(3)) == srg_parameters(3) == (63, 30, 13, 15)
        for m in (2, 3, 4, 5):
            ctx = FieldContext(m)
            n = 1 << m
            report = census(ctx)
            assert report.exhaustive and report.matches_closed_form()
            assert report.enumerated["directed_edges"] == \
                (n * n - 1) * (n * n - 4) // 2
            assert report.enumerated["type1_edges"] == (n * n - 1) * (n - 2)
            assert report.enumerated["type2_edges"] == \
                n * (n * n - 1) * (n - 2) // 2


def test_criterion_04_orbit_statistics_and_invariance():
    for m in (2, 3, 4):
        ctx = FieldContext(m)
        n = 1 << m
        sizes = census(ctx).orbit_sizes
        for kind, n_orbits, size in (
                (EdgeKind.NON_EDGE, n // 2, (n * n - 1) * n),
                (EdgeKind.TYPE2, (n - 2) // 2, (n * n - 1) * n),
                (EdgeKind.TYPE1, n - 2, n * n - 1)):
            match = [s for inv, s in sizes.items() if inv.kind == kind]
            assert len(match) == n_orbits
            assert set(match) == {size}
    for m in (3, 4):
        ctx = FieldContext(m)
        n = 1 << m
        count = 100_000
        rng = np.random.default_rng(404 + m)
        va = rng.integers(1, n * n, size=count)
        vb = rng.integers(1, n * n, size=count)
        vb = np.where(vb == va, vb % (n * n - 1) + 1, vb)  # distinct, nonzero
        a, b = (va & (n - 1)).astype(np.uint16), (va >> m).astype(np.uint16)
        c, d = (vb & (n - 1)).astype(np.uint16), (vb >> m).astype(np.uint16)
        before = orbit_invariant_vec(ctx, a, b, c, d)
        al, be, ga, de = sample_psl_vec(ctx, rng, count)
        mul = np.array([[ctx.mul(x, z) for z in range(n)] for x in range(n)],
                       dtype=np.uint16)
        after = orbit_invariant_vec(
            ctx, mul[a, al] ^ mul[b, ga], mul[a, be] ^ mul[b, de],
            mul[c, al] ^ mul[d, ga], mul[c, be] ^ mul[d, de])
        violations = int((before != after).sum())
        assert violations == 0


def test_criterion_05_transition_closed_forms():
    with budget(60.0):
        for m in (2, 3, 4, 5):
            ctx = FieldContext(m)
            emp = q_empirical(ctx, "nonedges")
            closed = q1_closed_form(ctx)
            assert emp.states == closed.states
            assert emp.denominator == closed.denominator
            assert np.array_equal(emp.numerators, closed.numerators)
            assert q_empirical(ctx, "edges") == q0_closed_form(ctx)
        ctx3 = FieldContext(3)
        assert np.array_equal(extract_r(q_empirical(ctx3, "edges")),
                              8 * np.ones((3, 6), dtype=np.int64))
        ctx4 = FieldContext(4)
        states, counts = transvection_counts(ctx4, "edges")
        alpha = ctx4.alpha_power(1)
        (row,) = [i for i, s in enumerate(states)
                  if s.kind == EdgeKind.TYPE2 and s.value == alpha]
        cols = [i for i, s in enumerate(states) if s.kind == EdgeKind.TYPE1]
        assert counts[row, cols].tolist() == \
            [1, 2, 1, 1, 3, 2, 2, 2, 2, 3, 1, 1, 2, 1]


def test_criterion_06_spectra():
    for m in (2, 3, 4, 5):
        ctx = FieldContext(m)
        n = 1 << m
        lam = (n * n - 4) / (4 * (n * n - 1))
        rep = spectral_report(q1_closed_form(ctx))
        tail = rep.eigenvalues[1:]
        assert len(tail) == n // 2 - 1
        assert (np.abs(tail - lam) < 1e-10).all()
        q0 = q_empirical(ctx, "edges")
        assert stationary_check(q0)
        assert stationary_check(q_empirical(ctx, "nonedges"))
        # W2 = [1, .., 1, -2, .., -2] is a left eigenvector of Q0
        w2 = np.array([1 if s.kind == EdgeKind.TYPE1 else -2 for s in q0.states])
        assert np.array_equal(w2 @ q0.numerators, (n * n - 6 * n - 4) * w2)
    for m in (2, 3, 4, 5, 6):
        ctx = FieldContext(m)
        rep = spectral_report(q_empirical(ctx, "edges"))
        assert rep.lambda2 < lambda_q0_bound(m)
        if m in (5, 6):
            assert rep.lambda_min > 0
    for m in (3, 4, 5):
        ctx = FieldContext(m)
        r = extract_r(q_empirical(ctx, "edges")).astype(float)
        # sigma_max(R) attains the bound 3 sqrt(2) N behind lambda_q0_bound
        sigma = float(np.linalg.svd(r, compute_uv=False)[0])
        assert abs(sigma - 3 * math.sqrt(2) * (1 << m)) <= 1e-9


def test_criterion_07_full_chain_stationarity_and_lumping():
    for m in (2, 3):
        ctx = FieldContext(m)
        for chain in ("edges", "nonedges"):
            full = full_chain(ctx, chain)
            # symmetric integer matrix with constant row sums: the uniform
            # distribution is exactly stationary
            assert np.array_equal(full.numerators, full.numerators.T)
            assert (full.numerators.sum(axis=1) == full.denominator).all()
            lumped = lump_chain(ctx, full)
            emp = q_empirical(ctx, chain)
            assert lumped.states == emp.states
            assert np.array_equal(lumped.numerators * emp.denominator,
                                  emp.numerators * lumped.denominator)


def test_criterion_08_convergence_within_mixing_bound():
    ctx = FieldContext(3)
    n3 = Fraction(8 ** 3)
    for eps, eps_exact in ((0.1, Fraction(1, 10)), (0.01, Fraction(1, 100))):
        t_bound = mixing_time_bound(3, eps)
        for chain in ("edges", "nonedges"):
            tm = q_empirical(ctx, chain)
            lam2 = spectral_report(tm).lambda2
            for start in range(len(tm.states)):
                curve = tv_curve_exact(tm, start, t_bound)
                assert curve[t_bound] < eps_exact / n3
                for t in range(t_bound):
                    if curve[t] == 0:
                        continue
                    assert float(curve[t + 1] / curve[t]) <= lam2 + 1e-6


def test_criterion_09_unitary_conjugation_oracle():
    with budget(60.0):
        m = 2
        ctx = FieldContext(m)
        tol = 1e-8
        for t in range(m + 1):
            conjugation_check(ctx, partial_hadamard_unitary(m, t),
                              partial_hadamard_matrix(m, t), tol=tol)
        for bits in product((0, 1), repeat=4):
            q = np.array(bits).reshape(2, 2)
            if (q[0, 0] * q[1, 1] + q[0, 1] * q[1, 0]) % 2 == 1:
                q = f2_numpy_to_rows(q)
                conjugation_check(ctx, basis_unitary(m, q),
                                  basis_change_matrix(m, q), tol=tol)
        for bits in product((0, 1), repeat=3):
            p = f2_numpy_to_rows([[bits[0], bits[2]], [bits[2], bits[1]]])
            conjugation_check(ctx, phase_unitary(m, p), phase_matrix(m, p),
                              tol=tol)
        for h in range(1, 16):
            hv = (h & 3, h >> 2)
            conjugation_check(ctx, transvection_unitary(ctx, hv),
                              transvection_matrix(ctx, hv), tol=tol)
        rng = np.random.default_rng(909)
        drawn = [sample_psl(ctx, rng) for _ in range(100)]
        branches = {g.gamma == 0 for g in drawn}
        if len(branches) < 2:  # force both branches regardless of the draw
            drawn += [PslElement(1, 0, 0, 1), PslElement(0, 1, 1, 0)]
        for g in drawn:
            conjugation_check(ctx, psl_unitary(ctx, g),
                              psl_to_symplectic(ctx, g), tol=tol)


def test_criterion_10a_kerdock_ensemble_is_exact_2_design():
    ctx = FieldContext(2)
    ens = kerdock_unitaries(ctx)
    assert len(ens) == 960  # 60 PSL x 16 Pauli
    assert abs(frame_potential(ens, 2) - 2.0) < 1e-8


def test_criterion_10b_single_qubit_clifford_f3_as_stated():
    """Stated value: F_3 = 6 within 1e-8.  This fails, and must fail:
    the 24-element single-qubit Clifford group is an exact 3-design, so
    its third frame potential equals the dimension-2 Haar value 5 (see
    the companion test below, which passes)."""
    group = single_qubit_clifford_group()
    f3 = frame_potential(group, 3)
    assert abs(f3 - 6.0) < 1e-8


def test_criterion_10b_single_qubit_clifford_f3_computed():
    group = single_qubit_clifford_group()
    assert len(group) == 24
    f3 = frame_potential(group, 3)
    assert abs(f3 - 5.0) < 1e-8
    assert abs(f3 - haar_frame_potential(2, 3)) < 1e-8
    assert abs(frame_potential(group, 2) - 2.0) < 1e-8


def test_criterion_10c_pair_statistics_at_scale():
    with budget(1200.0):
        t = steps_for_epsilon(2, 0.05)
        assert t == 56
        samples = 10_000_000
        config = SamplerConfig(m=2, seed=20260815, count=samples, steps=t)
        probes = [((0x1, 0x0), (0x2, 0x0)),  # commuting pair
                  ((0x1, 0x0), (0x0, 0x2))]  # anticommuting pair
        stats = pair_statistics_stream(config, probes, threads=4)
        by_class = {p.class_name: p for p in stats.probes}
        assert set(by_class) == {"commuting_pairs", "anticommuting_pairs"}
        for name, pstat in by_class.items():
            threshold = 0.05 + 4.0 * mc_sigma(pstat.class_size, samples)
            assert pstat.tv_to_uniform <= threshold, \
                (name, pstat.tv_to_uniform, threshold)


def test_criterion_10d_sampled_frame_potential():
    with budget(1200.0):
        t = steps_for_epsilon(2, 0.05)
        s_count = 10_000
        ctx = FieldContext(2)
        config = SamplerConfig(m=2, seed=31337, count=s_count, steps=t)
        unitaries = [sample_unitary(ctx, s) for s in sample_stream(config)]
        fhat, sigma_hat = frame_potential_estimate(unitaries, 3)
        delta = estimator_margin(2, t, s_count, sigma_hat, ctx)
        assert 6.0 - 1e-6 <= fhat <= 6.0 + delta, (fhat, delta, sigma_hat)


def test_criterion_11_byte_identical_reproducibility():
    config = SamplerConfig(m=3, seed=99, count=120, steps=10)
    runs = []
    for threads in (1, 3, 1):
        runs.append("\n".join(s.to_json_line(i) for i, s in
                              enumerate(sample_stream(config, threads))))
    assert runs[0] == runs[1] == runs[2]
    stat_conf = SamplerConfig(m=2, seed=5, count=30_000, steps=6)
    probes = [((0x1, 0x0), (0x2, 0x0))]
    reports = [pair_statistics_stream(stat_conf, probes, threads=k,
                                      batch_size=8192).to_json()
               for k in (1, 4, 1)]
    assert reports[0] == reports[1] == reports[2]
    ctx = FieldContext(3)
    assert census(ctx, threads=1).to_json() == census(ctx, threads=4).to_json()
