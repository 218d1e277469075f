"""Pauli index pairs, symplectic matrices, generators, transvections."""

import inspect
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerdock3.gf2m import FieldContext, f2_mat_mul
from kerdock3.kerdock import psl_to_symplectic, sample_psl
from kerdock3.pauli import (PauliIndex, SymplecticMatrix, Transvection,
                            apply_symplectic, apply_transvection,
                            basis_change_matrix, commutes,
                            conjugate_transvection, omega_matrix, pack_index,
                            partial_hadamard_matrix, phase_matrix,
                            symplectic_inner,
                            transvection_apply_vec, transvection_matrix,
                            unpack_index, vertex_split)


def test_pack_unpack_round_trip():
    ctx = FieldContext(3)
    for a in range(8):
        for b in range(8):
            v = pack_index(ctx, (a, b))
            assert unpack_index(ctx, v) == PauliIndex(a, b)
    assert pack_index(ctx, (0, 0)) == 0


def test_symplectic_inner_symmetry_and_bilinearity():
    ctx = FieldContext(3)
    n = ctx.order
    for a in range(n):
        for b in range(n):
            p = (a, b)
            assert symplectic_inner(ctx, p, p) == 0
            for c in range(0, n, 3):
                for d in range(0, n, 3):
                    q = (c, d)
                    assert symplectic_inner(ctx, p, q) == \
                        symplectic_inner(ctx, q, p)
                    assert commutes(ctx, p, q) == (symplectic_inner(ctx, p, q) == 0)


def test_symplectic_inner_is_packed_form_value():
    """<p, q> equals the binary symplectic form on packed coordinates."""
    ctx = FieldContext(2)
    omega = omega_matrix(2)
    for pv in range(16):
        for qv in range(16):
            p = unpack_index(ctx, pv)
            q = unpack_index(ctx, qv)
            form = bin(pv & omega.apply(qv)).count("1") & 1
            assert symplectic_inner(ctx, p, q) == form


def test_symplectic_matrix_algebra():
    ctx = FieldContext(3)
    rng = np.random.default_rng(11)
    ident = SymplecticMatrix.identity(3)
    assert ident.is_symplectic()
    mats = [transvection_matrix(ctx, (int(k) & 7, int(k) >> 3))
            for k in rng.integers(1, 64, size=6)]
    f = ident
    for mat in mats:
        assert mat.is_symplectic()
        f = f @ mat
    assert f.is_symplectic()
    assert (f @ f.inverse()) == ident
    assert (f.inverse() @ f) == ident
    assert f.transpose().transpose() == f
    g = SymplecticMatrix.from_numpy(f.to_numpy())
    assert g == f
    # right-action composition order: apply(F) then apply(G) == apply(F @ G)
    v = 0b101101
    assert (mats[1] @ mats[2]).apply(v) == mats[2].apply(mats[1].apply(v))


def test_non_symplectic_detected():
    base = SymplecticMatrix.identity(2)
    # single bit in the upper-left block off-diagonal breaks A D^T + B C^T = I
    rows = list(base.rows)
    rows[0] ^= 1 << 1
    assert not SymplecticMatrix(2, rows).is_symplectic()
    # single bit in the upper-right block at (0, 0) is T_P with symmetric P
    rows = list(base.rows)
    rows[0] ^= 1 << 2
    assert SymplecticMatrix(2, rows).is_symplectic()
    # asymmetric single-bit upper-right block fails
    rows = list(base.rows)
    rows[0] ^= 1 << 3
    assert not SymplecticMatrix(2, rows).is_symplectic()


def test_generator_matrices_are_symplectic():
    for m in (2, 3):
        ctx = FieldContext(m)
        assert omega_matrix(m).is_symplectic()
        assert omega_matrix(m) == partial_hadamard_matrix(m, m)
        assert partial_hadamard_matrix(m, 0) == SymplecticMatrix.identity(m)
        for z in range(1, ctx.order):
            q = ctx.mul_matrix_rows(z)
            assert basis_change_matrix(m, q).is_symplectic()
        p = ctx.w_rows
        assert phase_matrix(m, p).is_symplectic()
        with pytest.raises(ValueError):
            phase_matrix(m, tuple(2 << i for i in range(m - 1)) + (0,))  # not symmetric


def test_omega_swaps_blocks():
    ctx = FieldContext(3)
    omega = omega_matrix(3)
    for a in range(8):
        for b in range(8):
            v = pack_index(ctx, (a, b))
            swapped = omega.apply(v)
            assert swapped == ((v >> 3) | ((v & 7) << 3))


def test_transvection_action_field_form():
    """Z_h: (a, b) -> (a, b) + Tr(a h2 + b h1) (h1, h2)."""
    for m in (2, 3):
        ctx = FieldContext(m)
        n = ctx.order
        for hk in range(1, n * n):
            h = Transvection(hk & (n - 1), hk >> m)
            mat = transvection_matrix(ctx, h)
            assert mat.is_symplectic()
            assert mat @ mat == SymplecticMatrix.identity(m)  # involution
            for pk in range(n * n):
                p = PauliIndex(pk & (n - 1), pk >> m)
                t = ctx.trace(ctx.mul(p.a, h.h2) ^ ctx.mul(p.b, h.h1))
                want = PauliIndex(p.a ^ (h.h1 * t), p.b ^ (h.h2 * t))
                assert apply_transvection(ctx, h, p) == want
                assert apply_symplectic(ctx, mat, p) == want
            # h itself is fixed; anything anticommuting with h moves by h
            assert apply_transvection(ctx, h, h) == PauliIndex(*h)



def test_transvection_matrix_is_a_plain_symplectic_matrix():
    """Every Z_h at m = 2, 3 has the rows of I + Omega h^T h (numpy
    reference), and equals and hashes like SymplecticMatrix(m, rows)."""
    for m in (2, 3):
        ctx = FieldContext(m)
        omega = omega_matrix(m).to_numpy().astype(int)
        for k in range(1, ctx.order ** 2):
            h = vertex_split(m, k)
            z = transvection_matrix(ctx, h)
            hv = pack_index(ctx, h)
            hbits = np.array([[(hv >> j) & 1 for j in range(2 * m)]])
            want = (np.eye(2 * m, dtype=int) + omega @ hbits.T @ hbits) % 2
            assert (z.to_numpy() == want).all()
            plain = SymplecticMatrix(m, z.rows)
            assert z == plain and plain == z
            assert hash(z) == hash(plain)
            assert len({z, plain}) == 1


@pytest.mark.parametrize("h", [(4, 0), (0, 4), (-1, 0), (0, -1), (0, 0)])
def test_transvection_matrix_refuses_entries_outside_the_field(h):
    """At m = 2, an entry outside [0, 4) or the zero pair is refused with a
    ValueError naming it (h1 = 4 used to give Z for (0, dual_decode(1)))."""
    with pytest.raises(ValueError, match=re.escape(f"transvection {h} must be a nonzero")):
        transvection_matrix(FieldContext(2), h)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_right_product_by_a_transvection_is_the_full_product(m, seed):
    """F @ Z_h, computed as the row update r -> r + <r, h> h, equals the
    full product f2_mat_mul(F, Z_h) for F a random product of PSL images
    and transvection matrices, and for F with arbitrary rows."""
    ctx = _field(m)
    n = ctx.order
    rng = np.random.default_rng(seed)
    f = SymplecticMatrix.identity(m)
    for use_psl in rng.integers(0, 2, size=5):
        f = f @ (psl_to_symplectic(ctx, sample_psl(ctx, rng)) if use_psl
                 else transvection_matrix(ctx, vertex_split(m, rng.integers(1, n * n))))
    arbitrary = SymplecticMatrix(m, rng.integers(0, 1 << 2 * m, size=2 * m).tolist())
    z = transvection_matrix(ctx, vertex_split(m, rng.integers(1, n * n)))
    for left in (f, arbitrary, SymplecticMatrix.identity(m)):
        out = left @ z
        assert type(out) is SymplecticMatrix
        assert out.rows == f2_mat_mul(left.rows, z.rows)
        assert (z @ left).rows == f2_mat_mul(z.rows, left.rows)


def test_right_product_by_a_transvection_refuses_other_operands():
    z = transvection_matrix(FieldContext(2), (1, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        SymplecticMatrix.identity(3) @ z
    with pytest.raises(ValueError, match="dimension mismatch"):
        z @ SymplecticMatrix.identity(3)
    for other in ((1, 2, 4, 8), 3, z.to_numpy().tolist()):
        with pytest.raises(TypeError):
            other @ z
    assert z.__rmatmul__(z.rows) is NotImplemented

def test_transvection_apply_vec_matches_scalar():
    ctx = FieldContext(4)
    n = ctx.order
    rng = np.random.default_rng(5)
    a = rng.integers(0, n, size=500).astype(np.uint16)
    b = rng.integers(0, n, size=500).astype(np.uint16)
    h1 = rng.integers(0, n, size=500).astype(np.uint16)
    h2 = rng.integers(0, n, size=500).astype(np.uint16)
    va, vb = transvection_apply_vec(ctx, h1, h2, a, b)
    for i in range(500):
        want = apply_transvection(ctx, (int(h1[i]), int(h2[i])),
                                  (int(a[i]), int(b[i])))
        assert (int(va[i]), int(vb[i])) == tuple(want)


@lru_cache(maxsize=None)
def _field(m):
    return FieldContext(m)


@st.composite
def _walk_case(draw):
    """(ctx, V x B vertex fields a, b, and B transvection fields h1, h2)."""
    m = draw(st.integers(2, 16))
    verts, batch = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    fields = st.integers(0, (1 << m) - 1)

    def array(*shape):
        flat = draw(st.lists(fields, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.uint16).reshape(shape)

    return _field(m), array(verts, batch), array(verts, batch), array(batch), array(batch)


def _assert_scalar_equal(ctx, h1, h2, a, b, va, vb):
    for (i, j), x in np.ndenumerate(va):
        want = apply_transvection(ctx, (int(h1[i, j]), int(h2[i, j])),
                                  (int(a[i, j]), int(b[i, j])))
        assert (int(x), int(vb[i, j])) == tuple(want)
    # the kernel reads only the O(N) dual table, never an N x N one
    assert "mul" not in ctx._np_cache and "trace" not in ctx._np_cache


@settings(max_examples=60, deadline=None)
@given(_walk_case())
def test_transvection_apply_vec_stacked_vertices(case):
    """(V, B) vertices against (B,) transvections, as in the statistics walk."""
    ctx, a, b, h1, h2 = case
    va, vb = transvection_apply_vec(ctx, h1, h2, a, b)
    assert va.shape == vb.shape == a.shape and va.dtype == vb.dtype == np.uint16
    hh1, hh2 = np.broadcast_to(h1, a.shape), np.broadcast_to(h2, a.shape)
    _assert_scalar_equal(ctx, hh1, hh2, a, b, va, vb)


@settings(max_examples=60, deadline=None)
@given(_walk_case())
def test_transvection_apply_vec_outer_broadcast(case):
    """h[None, :] against a[:, None]: every vertex under every transvection,
    as in the full chain."""
    ctx, a, b, h1, h2 = case
    a, b = a[:, 0], b[:, 0]
    va, vb = transvection_apply_vec(ctx, h1[None, :], h2[None, :], a[:, None], b[:, None])
    shape = (len(a), len(h1))
    assert va.shape == vb.shape == shape
    _assert_scalar_equal(ctx, np.broadcast_to(h1, shape), np.broadcast_to(h2, shape),
                         np.broadcast_to(a[:, None], shape),
                         np.broadcast_to(b[:, None], shape), va, vb)


def test_conjugate_transvection():
    """F^-1 Z_h F = Z_{hF}: transvections form one conjugacy class."""
    ctx = FieldContext(3)
    rng = np.random.default_rng(17)
    for _ in range(50):
        hk = int(rng.integers(1, 64))
        h = Transvection(hk & 7, hk >> 3)
        f = SymplecticMatrix.identity(3)
        for k in rng.integers(1, 64, size=4):
            f = f @ transvection_matrix(ctx, (int(k) & 7, int(k) >> 3))
        moved = conjugate_transvection(ctx, f, h)
        lhs = f.inverse() @ transvection_matrix(ctx, h) @ f
        assert lhs == transvection_matrix(ctx, moved)



@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_conjugate_transvection_any_m(m, seed):
    """F^-1 Z_h F = Z_{hF}, checked as Z_h F = F Z_{hF}, with F a random
    product of PSL images theta(g) and transvection matrices."""
    ctx = _field(m)
    n = ctx.order
    rng = np.random.default_rng(seed)
    f = SymplecticMatrix.identity(m)
    for use_psl in rng.integers(0, 2, size=5):
        f = f @ (psl_to_symplectic(ctx, sample_psl(ctx, rng)) if use_psl
                 else transvection_matrix(ctx, vertex_split(m, rng.integers(1, n * n))))
    h = vertex_split(m, rng.integers(1, n * n))
    moved = conjugate_transvection(ctx, f, h)
    assert transvection_matrix(ctx, h) @ f == f @ transvection_matrix(ctx, moved)


def test_inverse_block_formula():
    """Symplectic inverse = [[D^T, B^T], [C^T, A^T]] of blocks [[A,B],[C,D]],
    the numpy reference for Omega F^T Omega, at m = 2..8."""
    rng = np.random.default_rng(29)
    for m in range(2, 9):
        ctx = FieldContext(m)
        for _ in range(40):
            f = SymplecticMatrix.identity(m)
            for k in rng.integers(1, ctx.order ** 2, size=5):
                f = f @ transvection_matrix(ctx, vertex_split(m, int(k)))
            mat = f.to_numpy()
            a, b = mat[:m, :m], mat[:m, m:]
            c, d = mat[m:, :m], mat[m:, m:]
            inv = np.block([[d.T, b.T], [c.T, a.T]]) % 2
            assert (f.inverse().to_numpy() == inv).all()


def test_numpy_matrices_enter_through_from_numpy_alone():
    """GF(2) matrices pass between library functions as packed rows: under
    src/kerdock3, f2_numpy_to_rows appears only in gf2m.py, where it is
    defined, and in SymplecticMatrix.from_numpy (with its import)."""
    src = Path(__file__).resolve().parents[1] / "src" / "kerdock3"
    body, first = inspect.getsourcelines(SymplecticMatrix.from_numpy)
    allowed = set(range(first, first + len(body)))
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(src.glob("*.py")) if path.name != "gf2m.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "f2_numpy_to_rows" in line
                 and not (path.name == "pauli.py"
                          and (n in allowed or line.strip() == "f2_numpy_to_rows,"))]
    assert not offenders, offenders
