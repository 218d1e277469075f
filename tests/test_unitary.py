"""Dense-unitary oracle: explicit matrices tied back to the binary level."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerdock3.gf2m import FieldContext, f2_numpy_to_rows
from kerdock3.kerdock import (PslElement, psl_elements, psl_factors,
                              psl_to_symplectic, sample_psl)
from kerdock3.pauli import (PauliIndex, SymplecticMatrix, apply_symplectic,
                            basis_change_matrix, partial_hadamard_matrix,
                            phase_matrix, symplectic_inner,
                            transvection_matrix)
from kerdock3 import unitary
from kerdock3.markov import q_empirical, tv_curve, tv_curve_exact
from kerdock3.sampler import SamplerConfig, sample_at
from kerdock3.unitary import (DENSE_MAX_M, ConjugationFailure, basis_unitary,
                              collision_frame_potential_3, conjugation_check,
                              delta_frame_potential_3, estimator_margin,
                              frame_potential, frame_potential_estimate,
                              hadamard_unitary,
                              haar_frame_potential, hermitian_pauli,
                              kerdock_unitaries, partial_hadamard_unitary,
                              pauli_unitary, phase_unitary, psl_unitary,
                              sample_unitary, single_qubit_clifford_group,
                              transvection_unitary)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def assert_unitary(u):
    n = u.shape[0]
    assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_pauli_unitary_matches_kron_oracle(m):
    """D(a, b) = tensor of X^(a bit) Z^(dual(b) bit), high label bit first."""
    ctx = FieldContext(m)
    n = ctx.order
    for a in range(n):
        for b in range(n):
            d = ctx.dual_coords(b)
            expected = np.array([[1.0]], dtype=np.complex128)
            for j in reversed(range(m)):
                factor = np.linalg.matrix_power(X, (a >> j) & 1) @ \
                    np.linalg.matrix_power(Z, (d >> j) & 1)
                expected = np.kron(expected, factor)
            assert np.array_equal(pauli_unitary(ctx, (a, b)), expected)


def test_pauli_action_on_basis_states():
    ctx = FieldContext(3)
    d = pauli_unitary(ctx, (0b101, 0b011))
    dual = ctx.dual_coords(0b011)
    for v in range(8):
        col = d[:, v]
        (idx,) = np.nonzero(col)[0].tolist()
        assert idx == v ^ 0b101
        assert col[idx] == (-1.0) ** bin(v & dual).count("1")


@pytest.mark.parametrize("m", [2, 3])
def test_hermitian_pauli_algebra(m):
    ctx = FieldContext(m)
    n = ctx.order
    for a in range(n):
        for b in range(n):
            e = hermitian_pauli(ctx, (a, b))
            assert np.allclose(e, e.conj().T, atol=0)
            assert np.allclose(e @ e, np.eye(n), atol=0)
            if (a, b) != (0, 0):
                assert abs(np.trace(e)) < 1e-12


def test_pauli_commutation_signs():
    """D(x) D(y) = (-1)^<x,y> D(y) D(x) with the symplectic form."""
    for m in (2, 3):
        ctx = FieldContext(m)
        n = ctx.order
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, n * n, size=(60, 2))
        for vx, vy in pairs:
            x = PauliIndex(int(vx) & (n - 1), int(vx) >> m)
            y = PauliIndex(int(vy) & (n - 1), int(vy) >> m)
            dx, dy = pauli_unitary(ctx, x), pauli_unitary(ctx, y)
            sign = (-1.0) ** symplectic_inner(ctx, x, y)
            assert np.allclose(dx @ dy, sign * (dy @ dx), atol=1e-12)


def test_transvection_unitaries_realize_transvections_m2():
    ctx = FieldContext(2)
    for h in range(1, 16):
        hv = (h & 3, h >> 2)
        u = transvection_unitary(ctx, hv)
        assert_unitary(u)
        conjugation_check(ctx, u, transvection_matrix(ctx, hv))


def test_generator_conjugations_exhaustive_m2():
    ctx = FieldContext(2)
    m = 2
    # every invertible Q (GL(2, F2) has 6 elements)
    from itertools import product
    count_q = 0
    for bits in product((0, 1), repeat=4):
        q = np.array(bits).reshape(2, 2)
        if (q[0, 0] * q[1, 1] + q[0, 1] * q[1, 0]) % 2 == 1:
            q = f2_numpy_to_rows(q)
            conjugation_check(ctx, basis_unitary(m, q),
                              basis_change_matrix(m, q))
            count_q += 1
    assert count_q == 6
    # every symmetric P (8 of them)
    count_p = 0
    for bits in product((0, 1), repeat=3):
        p = f2_numpy_to_rows([[bits[0], bits[2]], [bits[2], bits[1]]])
        conjugation_check(ctx, phase_unitary(m, p), phase_matrix(m, p))
        count_p += 1
    assert count_p == 8
    # partial Hadamards
    for t in range(m + 1):
        conjugation_check(ctx, partial_hadamard_unitary(m, t),
                          partial_hadamard_matrix(m, t))


def test_generator_conjugations_spot_m3():
    ctx = FieldContext(3)
    rng = np.random.default_rng(17)
    for _ in range(4):
        while True:
            q = f2_numpy_to_rows(rng.integers(0, 2, size=(3, 3)))
            try:
                u = basis_unitary(3, q)
                break
            except ValueError:
                continue
        conjugation_check(ctx, u, basis_change_matrix(3, q))
        p = rng.integers(0, 2, size=(3, 3))
        p = f2_numpy_to_rows(p + p.T)
        conjugation_check(ctx, phase_unitary(3, p), phase_matrix(3, p))
    conjugation_check(ctx, hadamard_unitary(3), partial_hadamard_matrix(3, 3))


def test_basis_unitary_rejects_singular():
    with pytest.raises(ValueError):
        basis_unitary(2, (0b11, 0b11))


def test_phase_unitary_rejects_asymmetric():
    with pytest.raises(ValueError):
        phase_unitary(2, (0b11, 0b10))


def _basis_reference(m, q):
    """e_v -> e_{vQ} from the bit matrix Q: the numpy formula the packed-row
    builder replaced, kept here as its independent reference."""
    n = 1 << m
    v = np.arange(n)
    vbits = (v[:, None] >> np.arange(m)) & 1
    img = (((vbits @ q) % 2) << np.arange(m)).sum(axis=1)
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[img, v] = 1.0
    return mat


def _phase_reference(m, p):
    """diag(i^(v P v^T mod 4)) by einsum over the bit matrix P."""
    vbits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    return np.diag(1j ** (np.einsum("vi,ij,vj->v", vbits, p, vbits) % 4))


@st.composite
def _generator_blocks(draw):
    """(m, Q, P) as bit matrices: Q = perm . L . U invertible (every
    element of GL(m, 2) has this form), P symmetric."""
    m = draw(st.integers(2, 5))

    def bits():
        cells = draw(st.lists(st.integers(0, 1), min_size=m * m, max_size=m * m))
        return np.array(cells).reshape(m, m)

    eye = np.eye(m, dtype=int)
    perm = eye[draw(st.permutations(range(m)))]
    q = perm @ (np.tril(bits(), -1) + eye) @ (np.triu(bits(), 1) + eye) % 2
    upper = np.triu(bits())
    return m, q, (upper + np.triu(upper, 1).T) % 2


@settings(max_examples=60, deadline=None)
@given(_generator_blocks())
def test_packed_row_generators_match_bit_matrix_formulas(case):
    """Q and P given as packed rows give the unitaries of the numpy
    formulas and the symplectic blocks [[Q,0],[0,Q^-T]] and [[I,P],[0,I]]."""
    m, q, p = case
    q_rows, p_rows = f2_numpy_to_rows(q), f2_numpy_to_rows(p)
    assert np.array_equal(basis_unitary(m, q_rows), _basis_reference(m, q))
    assert np.array_equal(phase_unitary(m, p_rows), _phase_reference(m, p))
    f = basis_change_matrix(m, q_rows).to_numpy()
    assert np.array_equal(f[:m, :m], q)
    assert not f[:m, m:].any() and not f[m:, :m].any()
    assert np.array_equal(q @ f[m:, m:].T % 2, np.eye(m))
    eye, zero = np.eye(m, dtype=int), np.zeros((m, m), dtype=int)
    assert np.array_equal(phase_matrix(m, p_rows).to_numpy(),
                          np.block([[eye, p], [zero, eye]]))


@pytest.mark.parametrize("build", [basis_unitary, basis_change_matrix])
@pytest.mark.parametrize("q", [
    (0b11, 0b11),          # singular
    (0b01,),               # one row short
    (0b01, 0b10, 0b00),    # one row too many
    (0b101, 0b10),         # a bit at column m
])
def test_basis_generators_refuse_bad_rows(build, q):
    with pytest.raises(ValueError):
        build(2, q)


@pytest.mark.parametrize("build", [phase_unitary, phase_matrix])
@pytest.mark.parametrize("p", [
    (0b11, 0b00),          # asymmetric
    (0b01,),               # one row short
    (0b01, 0b10, 0b00),    # one row too many
    (0b101, 0b10),         # a bit at column m
])
def test_phase_generators_refuse_bad_rows(build, p):
    with pytest.raises(ValueError):
        build(2, p)


@pytest.mark.parametrize("kind, build, p", [
    ("transvection", transvection_unitary, (0, 0)),
    ("transvection", transvection_unitary, (-1, 0)),
    ("transvection", transvection_unitary, (4, 0)),
    ("pauli", pauli_unitary, (-1, 0)),
    ("pauli", pauli_unitary, (4, 0)),
    ("pauli", hermitian_pauli, (0, 4)),
])
def test_dense_paulis_and_transvections_refuse_entries_outside_the_field(kind, build, p):
    """At m = 2, (0, 0) as a transvection and an entry outside [0, 4) are
    refused with the message of the symplectic twin, transvection_matrix
    or pack_index, and nothing is cached under their keys ((-1, 0) used to
    be built as a copy of (3, 0), (0, 0) as (1 + i)/sqrt(2) I)."""
    ctx = FieldContext(2)
    message = (f"transvection {p} must be" if kind == "transvection"
               else f"Pauli index {p} has an entry outside")
    with pytest.raises(ValueError, match=re.escape(message)):
        build(ctx, p)
    assert (kind, 2, ctx.poly, *p) not in unitary._UNITARY_CACHE


def test_psl_unitaries_all_m2():
    ctx = FieldContext(2)
    elements = list(psl_elements(ctx))
    assert len(elements) == 60
    for g in elements:
        u = psl_unitary(ctx, g)
        assert_unitary(u)
        conjugation_check(ctx, u, psl_to_symplectic(ctx, g))


def test_psl_unitaries_random_m3_both_branches():
    ctx = FieldContext(3)
    rng = np.random.default_rng(23)
    seen_gamma0 = seen_gamma_nonzero = 0
    for _ in range(12):
        g = sample_psl(ctx, rng)
        if g.gamma == 0:
            seen_gamma0 += 1
        else:
            seen_gamma_nonzero += 1
        conjugation_check(ctx, psl_unitary(ctx, g), psl_to_symplectic(ctx, g))
    # force one of each branch regardless of the draw
    conjugation_check(ctx, psl_unitary(ctx, PslElement(1, 0, 0, 1)),
                      psl_to_symplectic(ctx, PslElement(1, 0, 0, 1)))
    g = PslElement(0, 1, 1, 0)
    conjugation_check(ctx, psl_unitary(ctx, g), psl_to_symplectic(ctx, g))
    assert seen_gamma_nonzero > 0


@pytest.mark.parametrize("m", [2, 3])
def test_sample_unitary_realizes_composed_matrix(m):
    config = SamplerConfig(m=m, seed=61, count=3, steps=5)
    ctx = FieldContext(m)
    for i in range(3):
        s = sample_at(config, i, ctx)
        u = sample_unitary(ctx, s)
        assert_unitary(u)
        conjugation_check(ctx, u, s.composed)



# sha256 over the bytes of consecutive sample_unitary outputs, pinned from
# the synthesis that rebuilt every generator at every step: the cached
# generators must reproduce each unitary byte for byte.
GOLDEN_SAMPLE_UNITARIES = [
    (2, 20201031, 40, 7,
     "c31e3853621de507fcc83bd3e186d49781523b728f0760a3f98455007f22a7ad"),
    (2, 11, 25, 0,
     "920c5b5aeba6d95c2ab30188d5f3d9a597ff56e36f02c0f62868d492da5aa508"),
    (3, 20201031, 20, 13,
     "84337066a84c66d29e58f7e33e969082b7070f5853b7eef9f725a6f45488692a"),
    (3, 5, 15, 1,
     "7228db7225f4cc94c5da9ef3deb539e9e4ef9a290b24467705d4bfe1d99919d4"),
    # the shape of the dense-oracle benchmark: m = 2, 56 steps, seed 0
    (2, 0, 16, 56,
     "5635883c1c1fb76e78ec26525f89eb6ae69f7ca1d22be4ff00fabdbe1f9c551a"),
]


@pytest.mark.parametrize("m,seed,count,steps,digest", GOLDEN_SAMPLE_UNITARIES)
def test_sample_unitary_golden_bytes(m, seed, count, steps, digest):
    ctx = FieldContext(m)
    config = SamplerConfig(m=m, seed=seed, count=count, steps=steps)
    h = hashlib.sha256()
    for i in range(count):
        h.update(sample_unitary(ctx, sample_at(config, i, ctx)).tobytes())
    assert h.hexdigest() == digest


def test_sample_unitary_reads_the_transvection_cache(monkeypatch):
    """sample_unitary looks each step up under transvection_unitary's key:
    from an empty cache it calls transvection_unitary once per distinct
    step, and on the same sample again not at all, with equal bytes."""
    ctx = FieldContext(2)
    s = sample_at(SamplerConfig(m=2, seed=9, count=1, steps=12), 0, ctx)
    monkeypatch.setattr(unitary, "_UNITARY_CACHE", {})
    calls = []

    def counting(ctx, h, build=unitary.transvection_unitary):
        calls.append(h)
        return build(ctx, h)

    monkeypatch.setattr(unitary, "transvection_unitary", counting)
    first = sample_unitary(ctx, s)
    assert len(set(s.transvections)) < len(s.transvections)  # a repeat is a hit
    assert sorted(calls) == sorted(set(s.transvections))
    calls.clear()
    again = sample_unitary(ctx, s)
    assert calls == []
    assert again.tobytes() == first.tobytes()


def test_cached_generators_are_read_only():
    ctx = FieldContext(3)
    for u in (pauli_unitary(ctx, (1, 2)), transvection_unitary(ctx, (3, 1)),
              hadamard_unitary(3), basis_unitary(3, ctx.w_inv_rows),
              phase_unitary(3, ctx.w_rows)):
        assert not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.0
    # products handed to callers are fresh, writable arrays
    s = sample_at(SamplerConfig(m=3, seed=1, count=1, steps=2), 0, ctx)
    for u in (hermitian_pauli(ctx, (1, 2)), psl_unitary(ctx, s.psl),
              sample_unitary(ctx, s)):
        assert u.flags.writeable


def test_psl_unitary_builds_each_factor_once(monkeypatch):
    """The 60 PSL unitaries at m = 2 build each distinct basis, phase and
    Hadamard factor exactly once, at most 2N + 1 of them."""
    ctx = FieldContext(2)
    monkeypatch.setattr(unitary, "_UNITARY_CACHE", {})
    built = []
    for name in ("_build_basis", "_build_phase", "_build_hadamard"):
        def counting(m, *rows, build=getattr(unitary, name), kind=name[7:]):
            built.append((kind, *rows))
            return build(m, *rows)
        monkeypatch.setattr(unitary, name, counting)
    elements = list(psl_elements(ctx))
    us = [psl_unitary(ctx, g) for g in elements]
    distinct = {f for g in elements for f in psl_factors(ctx, g)}
    assert sorted(built) == sorted(distinct)
    assert len(built) <= 2 * ctx.order + 1
    for g, u in zip(elements, us):
        assert np.array_equal(u, psl_unitary(ctx, g))
    assert len(built) == len(distinct)


def test_equal_field_contexts_share_one_cache_entry():
    cache = unitary._UNITARY_CACHE
    before = len(cache)
    u = pauli_unitary(FieldContext(3), (5, 6))
    built = len(cache)
    assert built - before <= 1
    assert pauli_unitary(FieldContext(3), (5, 6)) is u
    t = transvection_unitary(FieldContext(3), (2, 7))
    assert transvection_unitary(FieldContext(3, poly=0xB), (2, 7)) is t
    assert len(cache) - built <= 2  # the transvection and its Pauli monomial
    # another polynomial is another field, with its own entries
    other = pauli_unitary(FieldContext(3, poly=0xD), (5, 6))
    assert other is not u


@pytest.mark.parametrize("m", [DENSE_MAX_M + 1, 16])
def test_dense_synthesis_refused_above_cap(m):
    """m > DENSE_MAX_M is refused before anything is allocated."""
    ctx = FieldContext(m)
    s = sample_at(SamplerConfig(m=m, seed=0, count=1, steps=2), 0, ctx)
    calls = [lambda: sample_unitary(ctx, s),
             lambda: pauli_unitary(ctx, (1, 2)),
             lambda: hermitian_pauli(ctx, (1, 2)),
             lambda: transvection_unitary(ctx, (1, 2)),
             lambda: psl_unitary(ctx, s.psl),
             lambda: hadamard_unitary(m),
             lambda: partial_hadamard_unitary(m, 1),
             lambda: basis_unitary(m, tuple(1 << i for i in range(m))),
             lambda: phase_unitary(m, (0,) * m),
             lambda: kerdock_unitaries(ctx)]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match="DENSE_MAX_M"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not any(key[1] == m for key in unitary._UNITARY_CACHE)


def test_conjugation_check_raises_on_mismatch():
    ctx = FieldContext(2)
    with pytest.raises(ConjugationFailure):
        conjugation_check(ctx, hadamard_unitary(2),
                          SymplecticMatrix.identity(2))


def test_haar_frame_potential_table():
    assert haar_frame_potential(2, 1) == 1
    assert haar_frame_potential(2, 2) == 2
    assert haar_frame_potential(2, 3) == 5
    assert haar_frame_potential(4, 2) == 2
    assert haar_frame_potential(4, 3) == 6
    assert haar_frame_potential(4, 4) == 24
    assert haar_frame_potential(8, 3) == 6


def test_single_qubit_clifford_group_structure():
    group = single_qubit_clifford_group()
    assert len(group) == 24
    for u in group:
        assert_unitary(u)
    # pairwise distinct up to global phase
    vecs = np.stack([u.ravel() for u in group])
    gram = np.abs(vecs @ vecs.conj().T)
    off = gram - 2.0 * np.eye(24)
    assert off.max() < 2.0 - 1e-9


def test_single_qubit_clifford_frame_potentials():
    group = single_qubit_clifford_group()
    f2 = frame_potential(group, 2)
    f3 = frame_potential(group, 3)
    assert abs(f2 - haar_frame_potential(2, 2)) < 1e-9
    # an exact 3-design on one qubit: F_3 = Haar value 5, not 6
    assert abs(f3 - 5.0) < 1e-9
    assert abs(f3 - haar_frame_potential(2, 3)) < 1e-9


def test_kerdock_ensemble_m2_frame_potentials():
    ctx = FieldContext(2)
    ens = kerdock_unitaries(ctx)
    assert len(ens) == 960
    f2 = frame_potential(ens, 2)
    assert abs(f2 - 2.0) < 1e-8  # exact unitary 2-design
    f3 = frame_potential(ens, 3)
    assert abs(f3 - 9.0) < 1e-8
    assert abs(f3 - collision_frame_potential_3(ctx, 0)) < 1e-8


def test_kerdock_without_paulis_is_smaller():
    """The ensemble is the 60 PSL unitaries times the 16 Paulis."""
    ctx = FieldContext(2)
    assert len(kerdock_unitaries(ctx)) == 60 * 16


def test_collision_formula_anchors():
    ctx2 = FieldContext(2)
    assert collision_frame_potential_3(ctx2, 0) == pytest.approx(9.0, abs=1e-12)
    assert collision_frame_potential_3(ctx2, 1) == pytest.approx(6.12, abs=1e-12)
    ctx3 = FieldContext(3)
    assert collision_frame_potential_3(ctx3, 0) == pytest.approx(17.0, abs=1e-12)
    # monotone decay to the 3-design value 6
    prev = math.inf
    for t in range(0, 8):
        delta = delta_frame_potential_3(ctx2, t)
        assert -1e-12 < delta < prev + 1e-15
        prev = delta
    assert delta_frame_potential_3(ctx2, 56) < 1e-12


def test_collision_frame_potential_3_builds_each_chain_at_most_twice(monkeypatch):
    """One chain for its powers and one for its orbit sizes, never one
    per state (63 builds at m = 5); the value is pinned bit for bit."""
    built = []

    def counting(ctx, chain):
        built.append(chain)
        return q_empirical(ctx, chain)

    monkeypatch.setattr(unitary, "q_empirical", counting)
    assert collision_frame_potential_3(FieldContext(5), 5).hex() == "0x1.80011bcca4212p+2"
    assert sorted(set(built)) == ["edges", "nonedges"]
    assert max(built.count(chain) for chain in built) <= 2


def test_one_step_ensemble_matches_collision_formula():
    """Brute-force F_3 of the t=1 ensemble against the chain-based formula."""
    ctx = FieldContext(2)
    base = kerdock_unitaries(ctx)
    layers = [transvection_unitary(ctx, (h & 3, h >> 2)) for h in range(1, 16)]
    ens = [k @ t for k in base for t in layers]
    assert len(ens) == 14400
    f3 = frame_potential(ens, 3)
    assert abs(f3 - collision_frame_potential_3(ctx, 1)) < 1e-8


def test_frame_potential_estimate_consistency():
    ctx = FieldContext(2)
    ens = [psl_unitary(ctx, g) for g in psl_elements(ctx)]
    fhat, sigma = frame_potential_estimate(ens, 2)
    assert fhat == pytest.approx(frame_potential(ens, 2), abs=1e-10)
    assert sigma >= 0.0


def _random_unitaries(count, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return list(np.linalg.qr(z)[0])


def _one_block_estimate(unitaries, k):
    """frame_potential_estimate with the whole S x S Gram matrix at once."""
    vecs = np.stack([np.asarray(u, dtype=np.complex128).ravel() for u in unitaries])
    s = len(vecs)
    g = np.abs(vecs @ vecs.conj().T) ** (2 * k)
    fhat = float(g.sum()) / (s * s)
    var_h = float(((g.mean(axis=1) - fhat) ** 2).sum()) / max(s - 1, 1)
    return fhat, 2.0 * math.sqrt(var_h / s)


@pytest.mark.parametrize("s", [1, 2, 362, 363, 2000])
def test_blocked_estimate_matches_one_gram_block(s):
    """Gram blocks of _GRAM_CELLS // S rows give the one-block F_hat and
    sigma_hat: bit for bit while one block holds every row (S <= 362),
    within 1e-12 relative from S = 363, the first size with two blocks."""
    cells = unitary._GRAM_CELLS
    assert cells // 362 >= 362 and cells // 363 < 363
    us = _random_unitaries(s, 4, seed=s)
    for k in (1, 2, 3):
        got, want = frame_potential_estimate(us, k), _one_block_estimate(us, k)
        if s <= 362:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_frame_potential_estimate_memory_is_bounded():
    """8000 unitaries of 4 x 4 take 2 MB flattened; the Gram blocks add a
    fixed budget of about 3 MB instead of 1024 rows of 8000 columns (the
    fixed-row blocks peaked at 253 MiB)."""
    us = _random_unitaries(8000, 4, seed=1)
    tracemalloc.start()
    try:
        frame_potential_estimate(us, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize("call", [frame_potential, frame_potential_estimate])
@pytest.mark.parametrize("k, match", [
    (0, "k = 0 must be an int >= 1"),
    (-1, "k = -1 must be an int >= 1"),
    (1.5, "k = 1.5 must be an int >= 1"),
    (3.0, "k = 3.0 must be an int >= 1"),
    ("3", "k = '3' must be an int >= 1"),
])
def test_frame_potentials_refuse_a_bad_moment(call, k, match):
    """Unchecked, k = -1 on [X, Z] gave (inf, nan) with RuntimeWarnings
    and k = 1.5 gave 4.0."""
    with pytest.raises(ValueError, match=re.escape(match)):
        call([X, Z], k)


@pytest.mark.parametrize("call", [frame_potential, frame_potential_estimate])
def test_frame_potentials_refuse_an_empty_ensemble(call):
    with pytest.raises(ValueError, match="unitaries is empty"):
        call([], 3)
    with pytest.raises(ValueError, match="unitaries is empty"):
        call(iter([]), 3)


def test_frame_potentials_read_numpy_integer_moments():
    group = single_qubit_clifford_group()
    assert frame_potential_estimate(group, np.int64(3)) == frame_potential_estimate(group, 3)
    assert frame_potential(iter(group), np.uint8(2)) == frame_potential(group, 2)


def test_estimator_margin_composition():
    ctx = FieldContext(2)
    d1 = delta_frame_potential_3(ctx, 1)
    margin = estimator_margin(2, 1, 10_000, 0.01, ctx)
    assert margin == pytest.approx((4096.0 - 6.0) / 10_000 + d1 + 0.04)
    # at long t the excess term vanishes and cannot go negative
    tail = estimator_margin(2, 56, 10_000, 0.0, ctx)
    assert tail == pytest.approx((4096.0 - 6.0) / 10_000, abs=1e-12)


def _no_chain(*args):
    raise AssertionError("a chain was built")


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda tm: collision_frame_potential_3(FieldContext(2), -1),
                 "t = -1 must be an int >= 0", id="f3-t=-1"),
    pytest.param(lambda tm: collision_frame_potential_3(FieldContext(2), -2),
                 "t = -2 must be an int >= 0", id="f3-t=-2"),
    pytest.param(lambda tm: estimator_margin(2, -1, 1000, 0.0),
                 "t = -1 must be an int >= 0", id="margin-t=-1"),
    pytest.param(lambda tm: tv_curve_exact(tm, len(tm.states), 4),
                 "start_index", id="exact-start=k"),
    pytest.param(lambda tm: tv_curve_exact(tm, -1, 4), "start_index",
                 id="exact-start=-1"),
    pytest.param(lambda tm: tv_curve_exact(tm, 0, -1), "t_max", id="exact-t_max=-1"),
    pytest.param(lambda tm: tv_curve(tm, np.eye(len(tm.states)), -1), "t_max",
                 id="float-t_max=-1"),
    pytest.param(lambda tm: estimator_margin(3, 1, 1000, 0.0, FieldContext(2)),
                 "m=2, the margin is for m=3", id="margin-degrees"),
    pytest.param(lambda tm: estimator_margin(2, 1, 0, 0.0), "samples = 0 must be an int >= 1",
                 id="margin-samples=0"),
    pytest.param(lambda tm: estimator_margin(2, 1, -5, 0.0), "samples = -5 must be an int >= 1",
                 id="margin-samples=-5"),
])
def test_chain_propagators_refuse_bad_arguments(monkeypatch, call, match):
    """Unchecked, each case returns a wrong number (F_3(-1) = 81 at m = 2
    through an inverted chain, TV 1/2 at every step from a zero start,
    empty curves, a margin of mixed degrees or a negative margin from
    negative samples) or, for zero samples, a ZeroDivisionError; each must
    raise ValueError before any chain is built."""
    tm = q_empirical(FieldContext(2), "edges")
    monkeypatch.setattr(unitary, "q_empirical", _no_chain)
    with pytest.raises(ValueError, match=match):
        call(tm)


def test_psl_unitary_weighted_frame_potential_m3():
    """F_2 = 2 holds with Paulis folded in analytically at m=3.

    |tr(D_p U_g U)|^4 summed over the Pauli layer equals
    N^2 |fixed space of the conjugation action|... checked here only at
    the cheap level: the 0-step collision formula gives N^2 + 1.
    """
    ctx = FieldContext(3)
    assert collision_frame_potential_3(ctx, 0) == pytest.approx(17.0)
