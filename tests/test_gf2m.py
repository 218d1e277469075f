"""Field layer: arithmetic, trace/dual machinery, multiplication matrices."""

import inspect
import re
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerdock3.gf2m import (DENSE_TABLE_MAX_M, MAX_M, MIN_M, FieldContext,
                           PRIMITIVE_POLYS, clmul, element_dtype, f2_mat_inv,
                           f2_mat_mul, f2_rows_to_numpy, parity, polymod)

# m=3, p(x) = x^3 + x + 1: frozen reference matrices for the degree-3 field
A_ALPHA_M3 = [[0, 1, 0], [0, 0, 1], [1, 1, 0]]
W_M3 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_m3_reference_matrices():
    ctx = FieldContext(3)
    assert ctx.poly == 0xB
    assert ctx.mul_matrix(ctx.alpha_power(1)).tolist() == A_ALPHA_M3
    assert ctx.w_matrix().tolist() == W_M3


def test_m3_trace_partition():
    ctx = FieldContext(3)
    zeros = {0} | {ctx.alpha_power(i) for i in (1, 2, 4)}
    ones = {1} | {ctx.alpha_power(i) for i in (3, 5, 6)}
    assert {x for x in range(8) if ctx.trace(x) == 0} == zeros
    assert {x for x in range(8) if ctx.trace(x) == 1} == ones


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_log_exp_round_trip(m):
    ctx = FieldContext(m)
    for x in range(1, ctx.order):
        assert ctx.alpha_power(ctx.log(x)) == x
    assert ctx.alpha_power(ctx.order - 1) == 1  # full multiplicative order


@pytest.mark.parametrize("m", [2, 3, 4])
def test_field_axioms_exhaustive(m):
    ctx = FieldContext(m)
    n = ctx.order
    for a in range(n):
        assert ctx.mul(a, 1) == a and ctx.mul(a, 0) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.div(1, a) == ctx.inv(a)
        assert ctx.sqrt(ctx.mul(a, a)) == a
        for b in range(n):
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in range(min(n, 8)):
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a ^ b, c) == ctx.mul(a, c) ^ ctx.mul(b, c)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_trace_properties(m):
    ctx = FieldContext(m)
    n = ctx.order
    for a in range(n):
        # trace is Frobenius-invariant and agrees with the slow definition
        assert ctx.trace(a) == ctx._trace_slow(a)
        assert ctx.trace(ctx.mul(a, a)) == ctx.trace(a)
        for b in range(n):
            assert ctx.trace(a ^ b) == ctx.trace(a) ^ ctx.trace(b)
    assert any(ctx.trace(a) for a in range(n))  # trace is onto


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dual_coordinates(m):
    ctx = FieldContext(m)
    n = ctx.order
    for a in range(n):
        assert ctx.dual_decode(ctx.dual_coords(a)) == a
        # defining identity of the dual basis: Tr(ab) = <[a], |b|>
        for b in range(n):
            assert ctx.trace(ctx.mul(a, b)) == parity(a & ctx.dual_coords(b))
            assert ctx.trace_product(a, b) == ctx.trace(ctx.mul(a, b))
    # dual coordinates are the W-image of standard coordinates
    w = ctx.w_matrix()
    for a in range(n):
        bits = np.array([(a >> i) & 1 for i in range(m)])
        packed = int(((bits @ w) % 2 << np.arange(m)).sum())
        assert packed == ctx.dual_coords(a)


def test_w_is_symmetric_hankel():
    for m in (2, 3, 4, 5):
        ctx = FieldContext(m)
        w = ctx.w_matrix()
        assert (w == w.T).all()
        for i in range(m):
            for j in range(m):
                assert w[i, j] == ctx.trace(ctx.mul(1 << i, 1 << j))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_mul_matrix_relations(m):
    """(a) A_z A_x = A_{zx};  (b) A_x + A_z = A_{x+z};  (c) A_z W = W A_z^T."""
    ctx = FieldContext(m)
    n = ctx.order
    mul = np.array([[ctx.mul(x, z) for z in range(n)] for x in range(n)], dtype=np.uint16)
    basis = np.array([1 << i for i in range(m)], dtype=np.uint16)
    # vectorized complete coverage of (a) and (b) over all field pairs
    bz = mul[basis[:, None], np.arange(n)[None, :]]           # rows of A_z
    for x in range(n):
        assert (mul[bz, x] == mul[basis[:, None], mul[np.arange(n), x]]).all()
        assert ((bz ^ mul[basis[:, None], x]) ==
                mul[basis[:, None], np.arange(n) ^ x]).all()
    # matrix-object route for a subsample (m <= 3 exhaustive)
    samples = range(n) if m <= 3 else list(range(0, n, max(1, n // 16)))
    for z in samples:
        az = ctx.mul_matrix(z)
        for x in samples:
            ax = ctx.mul_matrix(x)
            assert ((az @ ax) % 2 == ctx.mul_matrix(ctx.mul(z, x))).all()
            assert ((az + ax) % 2 == ctx.mul_matrix(z ^ x)).all()
    w = ctx.w_matrix()
    for z in range(n):
        az = ctx.mul_matrix(z)
        assert ((az @ w) % 2 == (w @ az.T) % 2).all()


def test_np_tables_match_scalar():
    ctx = FieldContext(4)
    n = ctx.order
    mul, div = ctx.np_table("mul"), ctx.np_table("div")
    assert mul.dtype == div.dtype == np.uint16  # the benchmark reads their itemsize
    tr, dual = ctx.np_table("trace"), ctx.np_table("dual")
    for a in range(n):
        assert tr[a] == ctx.trace(a) and dual[a] == ctx.dual_coords(a)
        for b in range(n):
            assert mul[a, b] == ctx.mul(a, b)
            if b:
                assert div[a, b] == ctx.div(a, b)


@pytest.mark.parametrize("m", [2, 4, 9])
def test_pow_of_zero_and_of_alpha(m):
    """0^0 = 1, 0^k = 0 for k > 0, 0^-1 refused; alpha^k = alpha_power(k)
    for negative exponents and exponents past the group order too."""
    ctx = FieldContext(m)
    n = ctx.order
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 1) == ctx.pow(0, n) == 0
    for k in (-1, -n):
        with pytest.raises(ValueError, match="0 has no negative power"):
            ctx.pow(0, k)
    alpha = ctx.alpha_power(1)
    for k in range(-2 * n, 2 * n):
        assert ctx.pow(alpha, k) == ctx.alpha_power(k)


def test_invalid_polynomials_rejected():
    with pytest.raises(ValueError):
        FieldContext(3, poly=0xF)       # x^3+x^2+x+1 = (x+1)(x^2+1), reducible
    with pytest.raises(ValueError):
        FieldContext(4, poly=0x1F)      # x^4+x^3+x^2+x+1 irreducible, not primitive
    with pytest.raises(ValueError):
        FieldContext(3, poly=0x13)      # degree mismatch
    with pytest.raises(ValueError):
        FieldContext(1)
    with pytest.raises(ValueError):
        FieldContext(17)
    # alternate primitive polynomial works and gives a valid field
    alt = FieldContext(3, poly=0xD)     # x^3 + x^2 + 1
    assert sorted(alt.alpha_power(i) for i in range(7)) == list(range(1, 8))


def test_even_polynomial_is_refused_for_its_factor_x():
    with pytest.raises(ValueError, match=re.escape("0xa is reducible: factor x (0x2)")):
        FieldContext(3, poly=0xA)       # x^3 + x = x (x + 1)^2


def test_np_table_refuses_an_unknown_name():
    with pytest.raises(ValueError, match=re.escape("unknown table 'sqrt'")):
        FieldContext(2).np_table("sqrt")


def test_packed_row_helpers():
    rows = (0b011, 0b110, 0b100)
    mat = f2_rows_to_numpy(rows, 3)
    assert mat.tolist() == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    ident = f2_mat_mul(rows, f2_mat_inv(rows, 3))
    assert ident == tuple(1 << i for i in range(3))
    singular = (0b011, 0b110, 0b101)  # rows sum to zero
    with pytest.raises(ValueError):
        f2_mat_inv(singular, 3)
    assert polymod(clmul(0b111, 0b10), 0b1011) == (0b1110 ^ 0b1011)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 16), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_f2_mat_mul_matches_bit_by_bit_product(m, width, seed):
    """f2_mat_mul, which walks only the set bits of each row of A, equals
    C[i][j] = XOR_k A[i][k] B[k][j] taken bit by bit, for a k x 2m matrix
    A and a 2m x width matrix B (zero rows of A included)."""
    rng = np.random.default_rng(seed)
    n = 2 * m
    a = [int(x) for x in rng.integers(0, 1 << n, size=int(rng.integers(1, 2 * n)))]
    a[0] = 0
    b = [int(x) for x in rng.integers(0, 1 << width, size=n)]
    want = tuple(
        sum((sum((ra >> k) & (b[k] >> j) & 1 for k in range(n)) & 1) << j
            for j in range(width))
        for ra in a)
    assert f2_mat_mul(a, b) == want
    assert f2_mat_mul(tuple(1 << k for k in range(n)), b) == tuple(b)


def test_primitive_poly_table_all_valid():
    for m, poly in PRIMITIVE_POLYS.items():
        ctx = FieldContext(m, poly=poly)
        assert ctx.alpha_power(ctx.order - 1) == 1


@lru_cache(maxsize=None)
def _field(m):
    return FieldContext(m)


@st.composite
def _operands(draw):
    """(ctx, x, y): equal-length arrays of field elements, zeros allowed."""
    m = draw(st.integers(2, 16))
    elems = st.lists(st.integers(0, (1 << m) - 1), min_size=8, max_size=8)
    return _field(m), np.array(draw(elems)), np.array(draw(elems))


@settings(max_examples=80, deadline=None)
@given(_operands())
def test_log_exp_contract(case):
    """exp[log x + log y] = xy, exp[log x - log y + N-1] = x/y for y != 0,
    zero operands without a branch, for random m in 2..16; and so do
    mul_vec and div_vec, which own that arithmetic for the kernels."""
    ctx, x, y = case
    n = ctx.order
    log, exp = ctx.np_table("log"), ctx.np_table("exp")
    assert log.dtype == np.int32 and log[0] == 2 * (n - 1) + 1
    assert exp.dtype == element_dtype(ctx.m)
    assert len(exp) == 4 * n and not exp[2 * (n - 1) + 1:].any()
    prod, quot = exp[log[x] + log[y]], exp[log[x] - log[y] + n - 1]
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        assert prod[i] == ctx.mul(xi, yi)
        if yi:
            assert quot[i] == ctx.div(xi, yi)
    # a zero operand lands in the zero tail
    nz = np.arange(1, n)
    assert not exp[log[0] + log].any() and not exp[log[0] - log[nz] + n - 1].any()
    # mul_vec / div_vec: lane by lane against scalar mul / div, zeros included
    prod, quot = ctx.mul_vec(x, y), ctx.div_vec(x, y)
    assert prod.dtype == quot.dtype == exp.dtype and prod.shape == quot.shape == x.shape
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        assert prod[i] == ctx.mul(xi, yi)
        if yi:
            assert quot[i] == ctx.div(xi, yi)
    # an (R, 1) column against the whole field (N,), as the chain grid
    # uses it: each row is the scalar product at every drawn y, and a
    # permutation of the field (all zeros for x = 0)
    grid, quots = ctx.mul_vec(x[:, None], np.arange(n)), ctx.div_vec(x[:, None], y)
    assert grid.shape == (len(x), n) and quots.shape == (len(x), len(y))
    for i, xi in enumerate(x.tolist()):
        assert grid[i, y].tolist() == [ctx.mul(xi, yi) for yi in y.tolist()]
        assert (np.sort(grid[i]) == (np.arange(n) if xi else 0)).all()
        for j, yj in enumerate(y.tolist()):
            if yj:
                assert quots[i, j] == ctx.div(xi, yj)
    # a Python-int operand on either side
    assert (ctx.mul_vec(1, y) == y).all() and not ctx.mul_vec(x, 0).any()
    for yi, q in zip(y.tolist(), ctx.div_vec(1, y).tolist()):
        if yi:
            assert q == ctx.inv(yi)
    assert ctx.div_vec(0, y[y != 0]).tolist() == [0] * int((y != 0).sum())
    assert "mul" not in ctx._np_cache and "div" not in ctx._np_cache


@st.composite
def _scalars(draw):
    """(ctx, a, b): two field elements, each zero about a third of the time."""
    m = draw(st.integers(2, 16))
    elem = st.one_of(st.just(0), st.integers(0, (1 << m) - 1), st.integers(1, (1 << m) - 1))
    return _field(m), draw(elem), draw(elem)


@settings(max_examples=200, deadline=None)
@given(_scalars())
def test_scalar_arithmetic_matches_polynomial_product(case):
    """Scalar mul is the carry-less product reduced mod the polynomial, and
    div and inv invert it, for random m in 2..16: an independent check of
    the sentinel tables the scalar and vector paths share."""
    ctx, a, b = case
    prod = polymod(clmul(a, b), ctx.poly)
    assert ctx.mul(a, b) == prod == ctx.mul(b, a)
    if b:
        assert polymod(clmul(b, ctx.inv(b)), ctx.poly) == 1
        assert ctx.div(prod, b) == a
        assert polymod(clmul(ctx.div(a, b), b), ctx.poly) == a
    else:
        with pytest.raises(ValueError):
            ctx.div(a, b)
        with pytest.raises(ValueError):
            ctx.inv(b)
        with pytest.raises(ValueError):
            ctx.log(b)


@pytest.mark.parametrize("m", range(MIN_M, MAX_M + 1))
def test_dual_inv_table_inverts_dual(m):
    """np_table("dual_inv") is the (N,) inverse of the 'dual' permutation,
    in element_dtype(m), and agrees with scalar dual_decode."""
    ctx = _field(m)
    dual, dual_inv = ctx.np_table("dual"), ctx.np_table("dual_inv")
    assert dual_inv.shape == (ctx.order,) and dual_inv.dtype == element_dtype(m)
    field = np.arange(ctx.order)
    assert np.array_equal(dual_inv[dual], field) and np.array_equal(dual[dual_inv], field)
    for d in np.random.default_rng(m).integers(0, ctx.order, size=50).tolist():
        assert int(dual_inv[d]) == ctx.dual_decode(d)


@pytest.mark.parametrize("m", [13, 16])
def test_dense_tables_refused_above_cap(m):
    """N x N 'mul'/'div' above m = 12 raise before allocating anything."""
    ctx = _field(m)
    tracemalloc.start()
    try:
        for name in ("mul", "div"):
            with pytest.raises(ValueError, match=f"capped at m = {DENSE_TABLE_MAX_M}"):
                ctx.np_table(name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "mul" not in ctx._np_cache and "div" not in ctx._np_cache


def test_log_exp_tables_are_read_by_mul_vec_and_div_vec_alone():
    """GF(2^m) array arithmetic has one owner: under src/kerdock3,
    np_table("log") and np_table("exp") appear only in the bodies of
    FieldContext.mul_vec and div_vec in gf2m.py."""
    src = Path(__file__).resolve().parents[1] / "src" / "kerdock3"
    allowed = set()
    for method in (FieldContext.mul_vec, FieldContext.div_vec):
        body, first = inspect.getsourcelines(method)
        allowed |= set(range(first, first + len(body)))
    read = re.compile(r"""np_table\(\s*["'](log|exp)["']""")
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(src.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if read.search(line) and not (path.name == "gf2m.py" and n in allowed)]
    assert not offenders, offenders


def test_field_range_check_lives_in_the_field_entry_owners_alone():
    """"Is this a field element?" has one owner: under src/kerdock3, a range
    comparison over an OR of entries (``0 <= a | b < N``, ``0 < h1 | h2 <
    N``, ``0 <= reduce(or_, xs) < N``) and an OR of ``index`` coercions
    appear only in the bodies of FieldContext.field_entries, nonzero_pair
    and nonzero_pairs in gf2m.py.  A single-value check such as
    ``orbit_representative``'s ``0 <= v < N`` is not an OR and may stay."""
    src = Path(__file__).resolve().parents[1] / "src" / "kerdock3"
    allowed = set()
    for method in (FieldContext.field_entries, FieldContext.nonzero_pair,
                   FieldContext.nonzero_pairs):
        body, first = inspect.getsourcelines(method)
        allowed |= set(range(first, first + len(body)))
    idiom = re.compile(r"\b0 <=? [^<]*(\||\bor_\b)[^<]*<|\bindex\([^)]*\) \| ")
    found = [(path.name, n, line.strip())
             for path in sorted(src.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if idiom.search(line)]
    offenders = [f"{name}:{n}: {line}" for name, n, line in found
                 if not (name == "gf2m.py" and n in allowed)]
    assert not offenders, offenders
    assert len(found) == 3  # one check in each owner
