"""Pauli index pairs, symplectic matrices, generators, transvections."""

import inspect
import json
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerdock3 import pauli
from kerdock3.gf2m import FieldContext, element_dtype, f2_mat_mul, parity
from kerdock3.graph import pair_determinant
from kerdock3.kerdock import (PslElement, classify_subgroup, psl_to_symplectic, sample_psl,
                              subgroup_members)
from kerdock3.pauli import (PauliIndex, SymplecticMatrix, Transvection,
                            apply_symplectic, apply_transvection,
                            basis_change_matrix, commutes,
                            conjugate_transvection, omega_matrix, pack_halves,
                            pack_index, partial_hadamard_matrix, phase_matrix,
                            symplectic_inner,
                            transvection_apply_vec, transvection_matrix,
                            transvection_product, unpack_halves, unpack_index,
                            vertex_split)
from kerdock3.sampler import (DesignSample, SamplerConfig, class_size, compose,
                              sample_at)
from kerdock3.unitary import DENSE_MAX_M, pauli_unitary


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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([np.uint16, np.uint32]))
def test_numpy_integer_entries_act_as_python_ints(m, seed, dtype):
    """pack_index and transvection_matrix give the same result for numpy
    integer entries as for Python ints (uint16 entries used to overflow
    in a | dual(b) << m above m = 8)."""
    ctx = _field(m)
    n = ctx.order
    h = vertex_split(m, int(np.random.default_rng(seed).integers(1, n * n)))
    wide = tuple(dtype(x) for x in h)
    assert pack_index(ctx, wide) == pack_index(ctx, h)
    assert type(pack_index(ctx, wide)) is int
    assert transvection_matrix(ctx, wide) == transvection_matrix(ctx, h)


@pytest.mark.parametrize("p", [(4, 0), (0, 4), (-1, 0), (0, -1)])
def test_pauli_index_entries_outside_the_field_are_refused(p):
    """At m = 2, pack_index refuses an entry outside [0, 4), and so every
    action that packs one does ((4, 0) and (0, -1) used to act as (0, 3),
    and (0, 4) and (-1, 0) to end in an IndexError)."""
    ctx = FieldContext(2)
    ident = SymplecticMatrix.identity(2)
    for call in (lambda: pack_index(ctx, p), lambda: apply_symplectic(ctx, ident, p),
                 lambda: conjugate_transvection(ctx, ident, p)):
        with pytest.raises(ValueError, match=re.escape(f"Pauli index {p} has an entry")):
            call()


@pytest.mark.parametrize("call, shown", [
    (lambda ctx: symplectic_inner(ctx, (-1, 0), (0, 1)), "Pauli index (-1, 0)"),
    (lambda ctx: symplectic_inner(ctx, (5, 0), (0, 1)), "Pauli index (5, 0)"),
    (lambda ctx: apply_transvection(ctx, (1, 0), (-1, 1)), "Pauli index (-1, 1)"),
    (lambda ctx: subgroup_members(ctx, -1), "subgroup label -1"),
    (lambda ctx: subgroup_members(ctx, 5), "subgroup label 5"),
], ids=["inner-negative", "inner-wide", "transvection-negative", "label-negative",
        "label-wide"])
def test_scalar_helpers_refuse_entries_outside_the_field(call, shown):
    """At m = 2 the scalar helpers refuse an entry outside [0, 4) (the
    negative ones used to index lists from the end: the inner product
    read 1, Z_(1, 0) left (-1, 1) as it was, slope -1 gave the members of
    slope 3; the entry 5 ended in a bare IndexError)."""
    with pytest.raises(ValueError, match=re.escape(f"{shown} has an entry outside [0, 4)")):
        call(FieldContext(2))


@lru_cache(maxsize=None)
def _json_record(m):
    """A valid one-step JSONL record of degree m, as a dict."""
    return json.loads(sample_at(SamplerConfig(m=m, seed=0, count=1, steps=1), 0,
                                _field(m)).to_json_line(0))


def _refusal(call):
    """The message of the ValueError ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _entries(draw):
    """(m, four entries): m in 2..16, each entry in [-N, 2N), inside [0, N)
    three times in four, and a Python int, numpy int64 or numpy uint32."""
    m = draw(st.integers(2, 16))
    n = 1 << m
    out = []
    for _ in range(4):
        x = draw(st.integers(0, n - 1) if draw(st.integers(0, 3))
                 else st.one_of(st.integers(-n, -1), st.integers(n, 2 * n - 1)))
        kind = draw(st.sampled_from([int, np.int64, np.uint32]))
        out.append(np.int64(x) if kind is np.uint32 and x < 0 else kind(x))
    return m, tuple(out)


@settings(max_examples=80, deadline=None)
@given(_entries())
def test_field_entry_owners_refuse_exactly_the_entries_outside_the_field(case):
    """Every entry point refuses an entry outside [0, N) with the message of
    FieldContext.field_entries or nonzero_pair, and nothing else for that
    reason: a Pauli index iff an entry is outside, a transvection or a
    vertex probe iff moreover it is (0, 0), a subgroup label iff it is
    outside, and a PSL element or a pair otherwise only for its
    determinant or its zero or repeated entries; the inner product and
    the transvection action of two pairs only for an entry outside."""
    m, (a, b, c, d) = case
    ctx = _field(m)
    n = ctx.order
    entry, pair = (f"has an entry outside [0, {n})",
                   f"must be a nonzero pair of field elements in [0, {n})")
    two_out = not (0 <= a < n and 0 <= b < n)
    four_out = two_out or not (0 <= c < n and 0 <= d < n)
    zero = a == 0 and b == 0

    def json_line(field, value):
        obj = dict(_json_record(m))
        hexed = [hex(int(x)) for x in value]
        obj[field] = [hexed] if field == "transvections" else hexed
        return lambda: DesignSample.from_json_line(json.dumps(obj), m)

    calls = [(lambda: pack_index(ctx, (a, b)), two_out, entry),
             (json_line("pauli", (a, b)), two_out, entry),
             (lambda: transvection_matrix(ctx, (a, b)), two_out or zero, pair),
             (lambda: class_size(ctx, (a, b)), two_out or zero, pair),
             (lambda: classify_subgroup(ctx, (a, b)), two_out or zero, pair),
             (json_line("transvections", (a, b)), two_out or zero, pair)]
    if m <= DENSE_MAX_M:  # a dense unitary, and a list of N - 1 members, stay small
        calls += [(lambda: pauli_unitary(ctx, (a, b)), two_out, entry),
                  (lambda: subgroup_members(ctx, a), not 0 <= a < n, entry)]
    for call, refused, message in calls:
        got = _refusal(call)
        assert (got is not None) == refused, got
        assert got is None or message in got
    for call in (lambda: psl_to_symplectic(ctx, PslElement(a, b, c, d)),
                 lambda: pair_determinant(ctx, ((a, b), (c, d))),
                 json_line("psl", (a, b, c, d)),
                 lambda: symplectic_inner(ctx, (a, b), (c, d)),
                 lambda: commutes(ctx, (a, b), (c, d)),
                 lambda: apply_transvection(ctx, (a, b), (c, d))):
        got = _refusal(call)
        assert (got is not None and entry in got) == four_out, got


@pytest.mark.parametrize("call", [
    lambda ctx: pack_index(ctx, (np.uint16(1), -1)),
    lambda ctx: transvection_matrix(ctx, (np.uint16(1), -1)),
    lambda ctx: psl_to_symplectic(ctx, PslElement(np.uint16(1), -1, 0, 1)),
    lambda ctx: pair_determinant(ctx, ((np.uint16(1), -1), (1, 0))),
], ids=["pack_index", "transvection_matrix", "psl_to_symplectic", "pair_determinant"])
def test_numpy_entry_beside_a_negative_int_is_refused_with_value_error(call):
    """At m = 2, a numpy unsigned entry next to a negative Python int is
    refused with the range check's ValueError (the OR of the raw entries
    used to end in OverflowError: Python integer -1 out of bounds)."""
    with pytest.raises(ValueError, match=re.escape("[0, 4)")):
        call(FieldContext(2))


def _z_from_definition(ctx, h):
    """Rows of I + Omega h^T h, from the numpy bits of pack_index(h)."""
    m = ctx.m
    hv = pack_index(ctx, h)
    hbits = np.array([[(hv >> j) & 1 for j in range(2 * m)]], dtype=np.int64)
    omega = omega_matrix(m).to_numpy().astype(np.int64)
    return SymplecticMatrix.from_numpy(np.eye(2 * m, dtype=np.int64)
                                       + omega @ hbits.T @ hbits).rows


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.integers(0, 80), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_transvection_product_is_a_fold_of_full_products(m, steps, arbitrary, seed):
    """transvection_product(F, Z_1..Z_t), which walks the 2m rows of F as
    lanes of one int, and compose equal the fold of full f2_mat_mul
    products by I + Omega h^T h, for t in 0..80 and F arbitrary rows or a
    random symplectic matrix: a PSL image times a partial Hadamard and
    three transvections."""
    ctx = _field(m)
    n = ctx.order
    rng = np.random.default_rng(seed)
    hs = [Transvection(*vertex_split(m, int(k))) for k in rng.integers(1, n * n, size=steps)]
    if arbitrary:
        f = SymplecticMatrix(m, rng.integers(0, 1 << 2 * m, size=2 * m).tolist())
    else:
        f = (psl_to_symplectic(ctx, sample_psl(ctx, rng))
             @ partial_hadamard_matrix(m, int(rng.integers(0, m + 1))))
        for k in rng.integers(1, n * n, size=3):
            f = f @ SymplecticMatrix(m, _z_from_definition(ctx, vertex_split(m, int(k))))
        assert f.is_symplectic()
    walk, rows = SymplecticMatrix.identity(m).rows, f.rows
    for h in hs:
        z = _z_from_definition(ctx, h)
        walk, rows = f2_mat_mul(walk, z), f2_mat_mul(rows, z)
    out = transvection_product(f, [transvection_matrix(ctx, h) for h in hs])
    assert type(out) is SymplecticMatrix and out.rows == rows
    psl = sample_psl(ctx, rng)
    assert compose(ctx, hs, psl).rows == f2_mat_mul(walk, psl_to_symplectic(ctx, psl).rows)


def test_transvection_product_refuses_another_degree():
    z2 = transvection_matrix(FieldContext(2), (1, 2))
    z3 = transvection_matrix(FieldContext(3), (1, 2))
    for f, zs in ((SymplecticMatrix.identity(3), [z2]),
                  (SymplecticMatrix.identity(2), [z2, z3])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            transvection_product(f, zs)


@pytest.mark.parametrize("row, shown", [(1 | 1 << 4, "0x11"), (-1, "-0x1")],
                         ids=["bit-2m", "negative"])
def test_symplectic_matrix_refuses_a_row_outside_the_columns(row, shown):
    """At m = 2, a row with a bit at position >= 4, or a negative one, is
    refused where the matrix is made, so no product sees it: in the lane
    walk of transvection_product it would spill into the next row (bit 4
    of row 0 turned row 1 from 0xf into 0x3 and was lost), ``F @ F`` ended
    in an IndexError and ``is_symplectic`` returned True."""
    with pytest.raises(ValueError, match=re.escape(f"row 0 = {shown} is wider than 2m = 4")):
        SymplecticMatrix(2, (row, 2, 4, 8))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.data())
def test_symplectic_matrix_accepts_exactly_the_rows_of_2m_bits(m, data):
    """Any row with a bit at position >= 2m, or a negative one, is refused,
    naming its position and value; every row in [0, 2^2m) is accepted."""
    top = 1 << 2 * m
    rows = data.draw(st.lists(st.integers(0, top - 1), min_size=2 * m, max_size=2 * m))
    assert SymplecticMatrix(m, rows).rows == tuple(rows)
    i = data.draw(st.integers(0, 2 * m - 1))
    rows[i] = data.draw(st.one_of(st.integers(top, 1 << 3 * m), st.integers(-top, -1)))
    with pytest.raises(ValueError, match=re.escape(f"row {i} = {rows[i]:#x} is wider")):
        SymplecticMatrix(m, rows)


@pytest.mark.parametrize("call, shown", [
    (lambda ctx: unpack_index(ctx, -1), "packed index = -0x1"),
    (lambda ctx: unpack_index(ctx, 1 << 4), "packed index = 0x10"),
    (lambda ctx: SymplecticMatrix.identity(2).apply(1 << 5), "vector = 0x20"),
    (lambda ctx: SymplecticMatrix.identity(2).apply(-2), "vector = -0x2"),
    (lambda ctx: transvection_matrix(ctx, (1, 2)).apply(1 << 4), "vector = 0x10"),
], ids=["unpack-negative", "unpack-bit-2m", "apply-bit-2m", "apply-negative",
        "apply-transvection"])
def test_packed_vectors_outside_the_columns_are_refused(call, shown):
    """At m = 2, a packed vector outside [0, 16) is refused by the width
    check of the constructor (unpack_index of -1 used to return (3, 2) by
    negative list indexing, and the others to end in an IndexError)."""
    with pytest.raises(ValueError, match=re.escape(f"{shown} is wider than 2m = 4 bits")):
        call(FieldContext(2))


def _is_symplectic_by_rows(f):
    """Reference for is_symplectic: F Omega F^T = Omega row pair by row
    pair, the row-swapped row i of F meeting row j with odd parity iff
    j = i +- m."""
    m = f.m
    mask = (1 << m) - 1
    for i, ri in enumerate(f.rows):
        si = ((ri & mask) << m) | (ri >> m)
        for j, rj in enumerate(f.rows):
            want = 1 if (j == i + m or j == i - m) else 0
            if parity(si & rj) != want:
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from(["random", "walk", "flip"]))
def test_is_symplectic_agrees_with_the_row_pair_check(m, seed, kind):
    """is_symplectic, written as F Omega F^T == Omega, agrees with the
    row-pair reference on random matrices (almost never symplectic), on
    products of generators and transvections (always), and on such a
    product with one bit flipped."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        f = SymplecticMatrix(m, rng.integers(0, 1 << 2 * m, size=2 * m).tolist())
    else:
        f = partial_hadamard_matrix(m, int(rng.integers(0, m + 1)))
        if m >= 2:
            ctx = _field(m)
            f = f @ psl_to_symplectic(ctx, sample_psl(ctx, rng))
            for k in rng.integers(1, ctx.order ** 2, size=3):
                f = f @ transvection_matrix(ctx, vertex_split(m, int(k)))
        if kind == "flip":
            rows = list(f.rows)
            rows[int(rng.integers(0, 2 * m))] ^= 1 << int(rng.integers(0, 2 * m))
            f = SymplecticMatrix(m, rows)
    assert f.is_symplectic() == _is_symplectic_by_rows(f)
    assert kind != "walk" or f.is_symplectic()


def test_compose_reads_no_transvection_rows(monkeypatch):
    """compose walks the two words of each Z_h and never builds its rows."""
    def refuse(self):
        raise AssertionError("Z_h rows built")
    ctx = FieldContext(3)
    hs = [Transvection(1, 2), Transvection(5, 0), Transvection(0, 7)]
    want = compose(ctx, hs, PslElement(1, 0, 0, 1))
    monkeypatch.setattr(pauli._TransvectionMatrix, "rows", property(refuse))
    assert compose(ctx, hs, PslElement(1, 0, 0, 1)) == want


def test_right_product_by_a_transvection_refuses_other_operands():
    z = transvection_matrix(FieldContext(2), (1, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        SymplecticMatrix.identity(3) @ z
    with pytest.raises(ValueError, match="dimension mismatch"):
        z @ SymplecticMatrix.identity(3)
    for other in ((1, 2, 4, 8), 3, z.to_numpy().tolist()):
        with pytest.raises(TypeError):
            other @ z
    for left in (SymplecticMatrix.identity(2), z):
        with pytest.raises(TypeError):
            left @ 3

def _kernel_on_halves(ctx, h1, h2, a, b):
    """transvection_apply_vec on the halves of field pairs: h2 and b go in
    as dual coordinates, each kept in its own dtype.  Asserts the result
    dtype and that the call reads no table: with ``ctx``'s table cache
    emptied for the call, the call leaves it empty."""
    dual = ctx.np_table("dual")
    h2, b = dual[h2].astype(h2.dtype), dual[b].astype(b.dtype)
    cache, ctx._np_cache = ctx._np_cache, {}
    try:
        va, vd = transvection_apply_vec(ctx, h1, h2, a, b)
        assert ctx._np_cache == {}
    finally:
        ctx._np_cache = cache
    assert va.dtype == vd.dtype == np.result_type(h1, h2, a, b)
    return va, vd


def _assert_lanes_match(ctx, h1, h2, a, b, va, vd):
    """Every lane of the halves (va, vd) the kernel gave for field pairs
    (a, b) and transvections (h1, h2), all of one shape, equals scalar
    ``apply_transvection`` once vd is turned back through the inverse of
    dual, and equals the packed word of ``transvection_product``."""
    m, dual_inv = ctx.m, ctx.np_table("dual_inv")
    assert va.shape == vd.shape == a.shape
    for i, x in np.ndenumerate(va):
        h, p = (int(h1[i]), int(h2[i])), (int(a[i]), int(b[i]))
        got = (int(x), int(dual_inv[vd[i]]))
        assert got == tuple(apply_transvection(ctx, h, p))
        word, packed = pack_index(ctx, p), int(x) | int(vd[i]) << m
        if h != (0, 0):
            f = SymplecticMatrix(m, [word] + [0] * (2 * m - 1))
            word = transvection_product(f, [transvection_matrix(ctx, h)]).rows[0]
        assert packed == word


def test_transvection_apply_vec_matches_scalar():
    ctx = FieldContext(4)
    n = ctx.order
    rng = np.random.default_rng(5)
    a = rng.integers(0, n, size=500).astype(np.uint16)
    b = rng.integers(0, n, size=500).astype(np.uint16)
    h1 = rng.integers(0, n, size=500).astype(np.uint16)
    h2 = rng.integers(0, n, size=500).astype(np.uint16)
    va, vd = _kernel_on_halves(ctx, h1, h2, a, b)
    _assert_lanes_match(ctx, h1, h2, a, b, va, vd)


@lru_cache(maxsize=None)
def _field(m):
    return FieldContext(m)


@st.composite
def _walk_case(draw):
    """(ctx, V x B vertex fields a, b, and B transvection fields h1, h2),
    m in 2..16; rows and transvections both uint16, both uint8 (m <= 8),
    or uint8 rows against uint16 transvections (m <= 8)."""
    m = draw(st.integers(2, 16))
    verts, batch = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    fields = st.integers(0, (1 << m) - 1)
    dtypes = [(np.uint16, np.uint16)]
    if m <= 8:
        dtypes += [(np.uint8, np.uint8), (np.uint8, np.uint16)]
    rows, halves = draw(st.sampled_from(dtypes))

    def array(dtype, *shape):
        flat = draw(st.lists(fields, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=dtype).reshape(shape)

    return (_field(m), array(rows, verts, batch), array(rows, verts, batch),
            array(halves, batch), array(halves, batch))


@settings(max_examples=60, deadline=None)
@given(_walk_case())
def test_transvection_apply_vec_stacked_vertices(case):
    """(V, B) vertices against (B,) transvections, as in the statistics walk."""
    ctx, a, b, h1, h2 = case
    va, vd = _kernel_on_halves(ctx, h1, h2, a, b)
    _assert_lanes_match(ctx, np.broadcast_to(h1, a.shape), np.broadcast_to(h2, a.shape),
                        a, b, va, vd)


@settings(max_examples=60, deadline=None)
@given(_walk_case())
def test_transvection_apply_vec_outer_broadcast(case):
    """h[None, :] against a[:, None]: every vertex under every transvection,
    as in the full chain."""
    ctx, a, b, h1, h2 = case
    a, b = a[:, 0], b[:, 0]
    va, vd = _kernel_on_halves(ctx, h1[None, :], h2[None, :], a[:, None], b[:, None])
    shape = (len(a), len(h1))
    _assert_lanes_match(ctx, np.broadcast_to(h1, shape), np.broadcast_to(h2, shape),
                        np.broadcast_to(a[:, None], shape),
                        np.broadcast_to(b[:, None], shape), va, vd)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_pack_halves_are_the_halves_of_pack_index(m, seed):
    """pack_halves gives the two halves of pack_index's word, in
    element_dtype(m), and unpack_halves inverts it."""
    ctx = _field(m)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, ctx.order, size=(2, 3, 5), dtype=element_dtype(m))
    ha, hd = pack_halves(ctx, a, b)
    assert hd.dtype == element_dtype(m) and hd.shape == b.shape
    for i, x in np.ndenumerate(a):
        assert int(ha[i]) | int(hd[i]) << m == pack_index(ctx, (int(x), int(b[i])))
    ua, ub = unpack_halves(ctx, ha, hd)
    assert ub.dtype == element_dtype(m)
    assert np.array_equal(ua, a) and np.array_equal(ub, b)


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
