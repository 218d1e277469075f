"""Pauli indices and the binary-symplectic group, packed into machine words.

A Hermitian Pauli on N = 2^m qubits-worth of space is indexed (up to
sign) by a pair of field elements ``(a, b)``; its binary row vector is
``[ [a] | |b| ]`` - primal coordinates of ``a`` in the low m bits, dual
coordinates of ``b`` in the high m bits.  Two Paulis commute iff the
symplectic inner product ``Tr(ad + bc)`` vanishes.  As one integer, the
pair is the vertex code ``v = a | b << m`` (``vertex_code`` and
``vertex_split``); every module that numbers vertices uses that code.
Array code holds the same packed word as its two halves ``(a, |b|)``
(``pack_halves`` and ``unpack_halves``); field pairs are needed only
where PSL multiplies, at the orbit keys and at I/O.

Symplectic matrices act on the right of packed row vectors; a matrix is
stored as 2m row words, so applying it is a bit-select XOR of rows and
composition is word-wise GF(2) row reduction, and the inverse is
Omega F^T Omega.  A packed word lies in [0, 2^2m): one width check
refuses any other row where a matrix is made, and any other vector in
``apply`` and ``unpack_index``.  The generators mirror the standard
Clifford dictionary, with the m x m blocks Q and P as m packed row words:

    omega_matrix        block swap            <-> full Hadamard H_N
    basis_change_matrix [[Q,0],[0,Q^-T]]      <-> e_v -> e_{vQ}
    phase_matrix        [[I,P],[0,I]], P=P^T  <-> diag(i^{v P v^T mod 4})
    partial_hadamard_matrix                   <-> H_{2^t} (x) I_{2^{m-t}}

Transvections ``Z_h = I + Omega h^T h`` are the self-inverse walk moves:
``x Z_h = x + <x, h> h``, in field form
``(a, b) -> (a, b) + Tr(a h2 + b h1) (h1, h2)``; conjugation by F moves
Z_h to Z_{hF}.  ``transvection_matrix`` stores only two words, the
packed h and the column selector Omega h^T, and builds the 2m rows of
Z_h when something reads them.  ``transvection_product`` computes
F @ Z_{h_1} @ ... @ Z_{h_t} with the 2m rows of F packed as the lanes of
one int, so each update r -> r + <r, h> h (the tableau update of
Aaronson-Gottesman) moves all rows at once, with no matrix per step.
Every other product, ``F @ Z_h`` included, is the full one.
``transvection_apply_vec`` is the same update on arrays of halves:
``<x, h> = parity((a & |h2|) ^ (|b| & h1))``, with no table read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .gf2m import (
    FieldContext,
    element_dtype,
    f2_mat_inv,
    f2_mat_mul,
    f2_mat_transpose,
    f2_numpy_to_rows,
    f2_rows_to_numpy,
)

__all__ = [
    "PauliIndex",
    "Transvection",
    "SymplecticMatrix",
    "vertex_code",
    "vertex_split",
    "pack_halves",
    "unpack_halves",
    "pack_index",
    "unpack_index",
    "symplectic_inner",
    "commutes",
    "apply_symplectic",
    "omega_matrix",
    "basis_change_matrix",
    "phase_matrix",
    "partial_hadamard_matrix",
    "transvection_matrix",
    "transvection_product",
    "apply_transvection",
    "conjugate_transvection",
    "transvection_apply_vec",
]


class PauliIndex(NamedTuple):
    """Field-element pair indexing a Hermitian Pauli operator."""

    a: int
    b: int


class Transvection(NamedTuple):
    """Field-element pair (h1, h2) defining the transvection Z_h."""

    h1: int
    h2: int


PairLike = Union[PauliIndex, Tuple[int, int]]


class SymplecticMatrix:
    """2m x 2m GF(2) matrix as packed row words, acting on the right.

    Rows are ints in [0, 2^2m) whose bit j is column j; the constructor
    refuses any other row.  ``F @ G`` composes in right-action order:
    applying F then G equals applying F @ G.
    """

    __slots__ = ("m", "rows")

    def __init__(self, m: int, rows: Iterable[int]) -> None:
        self.m = m
        self.rows = tuple(rows)
        if len(self.rows) != 2 * m:
            raise ValueError(f"row count {len(self.rows)} is not 2m = {2 * m}")
        _check_width(m, self.rows, "row {}")

    @classmethod
    def identity(cls, m: int) -> "SymplecticMatrix":
        return cls(m, tuple(1 << i for i in range(2 * m)))

    @classmethod
    def from_numpy(cls, mat: np.ndarray) -> "SymplecticMatrix":
        mat = np.asarray(mat) % 2
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError("expected a square 2m x 2m matrix")
        return cls(mat.shape[0] // 2, f2_numpy_to_rows(mat))

    def to_numpy(self) -> np.ndarray:
        return f2_rows_to_numpy(self.rows, 2 * self.m)

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return SymplecticMatrix(self.m, f2_mat_mul(self.rows, other.rows))

    def apply(self, v: int) -> int:
        """Image of the packed row vector ``v`` under right action."""
        _check_width(self.m, (v,), "vector")
        return f2_mat_mul((v,), self.rows)[0]

    def transpose(self) -> "SymplecticMatrix":
        return SymplecticMatrix(self.m, f2_mat_transpose(self.rows, 2 * self.m))

    def inverse(self) -> "SymplecticMatrix":
        """Omega F^T Omega: [[D^T, B^T], [C^T, A^T]] for F = [[A, B], [C, D]]."""
        omega = omega_matrix(self.m)
        return omega @ self.transpose() @ omega

    def is_symplectic(self) -> bool:
        """Check F Omega F^T = Omega, i.e. the action preserves the inner product."""
        omega = omega_matrix(self.m)
        return self @ omega @ self.transpose() == omega

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymplecticMatrix)
            and self.m == other.m
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.m, self.rows))

    def __repr__(self) -> str:
        return f"SymplecticMatrix(m={self.m}, rows={[f'{r:#x}' for r in self.rows]})"


def _check_width(m: int, words: Sequence[int], name: str) -> None:
    """Refuses a packed word outside [0, 2^2m) as "<name> = 0x... is wider
    than 2m = ... bits", word i named ``name.format(i)``."""
    if min(words, default=0) < 0 or max(words, default=0) >> 2 * m:
        i = next(i for i, w in enumerate(words) if not 0 <= w < 1 << 2 * m)
        raise ValueError(f"{name.format(i)} = {words[i]:#x} is wider than 2m = {2 * m} bits")


# --- vertex codes, packing and the symplectic form ---


def vertex_code(m: int, a, b):
    """The vertex code a | b << m of the field pair (a, b): an int for
    ints; for arrays, dtype result_type(a, b, uint32), so uint32 for
    ``element_dtype`` fields, uint8 or uint16 (every m <= 16), and int64
    when an operand is int64."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.left_shift(b, m, dtype=np.result_type(a, b, np.uint32)) | a
    return a | (b << m)


def vertex_split(m: int, v):
    """The field pair (a, b) of the vertex code v = a | b << m: Python
    ints for an integer; for an array, arrays in ``element_dtype(m)``,
    uint8 for m <= 8 and uint16 for m = 9..16."""
    if isinstance(v, np.ndarray):
        dtype = element_dtype(m)
        return (v & ((1 << m) - 1)).astype(dtype), (v >> m).astype(dtype)
    return int(v) & ((1 << m) - 1), int(v) >> m


def pack_halves(ctx: FieldContext, a, b):
    """The halves (a, |b|) of the packed words [a | |b|] of arrays of field
    pairs (a, b): |b| is one ``np.take`` of the 'dual' table, in
    ``element_dtype(m)``."""
    return a, np.take(ctx.np_table("dual"), b)


def unpack_halves(ctx: FieldContext, a, d):
    """The field pairs (a, b) of arrays of halves (a, |b| = d): b is one
    ``np.take`` of the 'dual_inv' table, in ``element_dtype(m)``."""
    return a, np.take(ctx.np_table("dual_inv"), d)


def pack_index(ctx: FieldContext, p: PairLike) -> int:
    """Packed row vector [ [a] | |b| ] of a Pauli index, a Python int;
    refuses an entry outside [0, N)."""
    a, b = ctx.field_entries("Pauli index", p)
    return a | (ctx.dual_coords(b) << ctx.m)


def unpack_index(ctx: FieldContext, v: int) -> PauliIndex:
    """The Pauli index of a packed row vector; refuses one outside [0, 2^2m)."""
    _check_width(ctx.m, (v,), "packed index")
    mask = ctx.order - 1
    return PauliIndex(v & mask, ctx.dual_decode(v >> ctx.m))


def symplectic_inner(ctx: FieldContext, p: PairLike, q: PairLike) -> int:
    """Tr(ad + bc) for p = (a, b), q = (c, d); 0 means the Paulis commute.
    Refuses an entry outside [0, N)."""
    a, b = ctx.field_entries("Pauli index", p)
    c, d = ctx.field_entries("Pauli index", q)
    return ctx.trace(ctx.mul(a, d) ^ ctx.mul(b, c))


def commutes(ctx: FieldContext, p: PairLike, q: PairLike) -> bool:
    return symplectic_inner(ctx, p, q) == 0


def apply_symplectic(ctx: FieldContext, f: SymplecticMatrix, p: PairLike) -> PauliIndex:
    """Right action of a symplectic matrix on a Pauli index."""
    return unpack_index(ctx, f.apply(pack_index(ctx, p)))


# --- generators ---


def omega_matrix(m: int) -> SymplecticMatrix:
    """Block swap [[0, I], [I, 0]], the symplectic form: H on all m coordinates."""
    return partial_hadamard_matrix(m, m)


def basis_change_matrix(m: int, q: Tuple[int, ...]) -> SymplecticMatrix:
    """[[Q, 0], [0, Q^-T]] for invertible Q; relabels basis states by vQ."""
    qinv = f2_mat_inv(q, m)
    return SymplecticMatrix(m, tuple(q) + tuple(r << m for r in f2_mat_transpose(qinv, m)))


def phase_matrix(m: int, p: Tuple[int, ...]) -> SymplecticMatrix:
    """[[I, P], [0, I]] for symmetric P; the diagonal-phase generator."""
    if tuple(p) != f2_mat_transpose(p, m):
        raise ValueError("P must be a symmetric m x m matrix over GF(2)")
    return SymplecticMatrix(m, [(1 << i) | (r << m) for i, r in enumerate(p)]
                            + [1 << (m + i) for i in range(m)])


def partial_hadamard_matrix(m: int, t: int) -> SymplecticMatrix:
    """Generator of H_{2^t} (x) I on the first t coordinates; t = m gives omega."""
    if not 0 <= t <= m:
        raise ValueError(f"t={t} out of range [0, {m}]")
    rows = [1 << (m + i) if i < t else 1 << i for i in range(m)]
    rows += [1 << i if i < t else 1 << (m + i) for i in range(m)]
    return SymplecticMatrix(m, rows)


# --- transvections ---


class _TransvectionMatrix(SymplecticMatrix):
    """Z_h as its two defining words: ``hv``, the packed h, and ``sh``, the
    column selector Omega h^T; ``rows`` is built each time it is read.
    ``transvection_matrix`` fills the three slots directly, with no
    ``__init__`` call."""

    __slots__ = ("hv", "sh")

    @property
    def rows(self) -> Tuple[int, ...]:
        hv, sh = self.hv, self.sh
        return tuple([(1 << i) ^ hv if (sh >> i) & 1 else 1 << i for i in range(2 * self.m)])


def transvection_matrix(ctx: FieldContext, h: PairLike) -> SymplecticMatrix:
    """Z_h = I + Omega h^T h; self-inverse, fixes exactly the centralizer of h.

    Refuses h = (0, 0) and an entry outside [0, N).  The result holds two
    words and builds its rows only when they are read;
    ``transvection_product`` uses the words alone.
    """
    h1, h2 = ctx.nonzero_pair("transvection", h)
    m = ctx.m
    d2 = ctx.dual_coords(h2)
    z = object.__new__(_TransvectionMatrix)
    z.m = m
    z.hv = h1 | d2 << m
    z.sh = h1 << m | d2
    return z


@lru_cache(maxsize=None)
def _lanes(m: int) -> Tuple[int, int, Tuple[int, ...]]:
    """(L, LOW, folds) of the lane packing of 2m rows: the lane width L,
    the smallest power of two >= 2m; LOW, bit 0 of every lane; and the
    fold shifts L/2, ..., 1."""
    width = 1 << (2 * m - 1).bit_length()
    low = ((1 << 2 * m * width) - 1) // ((1 << width) - 1)
    return width, low, tuple(width >> k for k in range(1, width.bit_length()))


def transvection_product(f: SymplecticMatrix,
                         zs: Sequence[_TransvectionMatrix]) -> SymplecticMatrix:
    """F @ Z_{h_1} @ ... @ Z_{h_t} for ``transvection_matrix`` results.

    The 2m rows of F are the L-bit lanes of one int x, L the smallest
    power of two >= 2m, so one step r -> r + <r, h> h moves every row at
    once: ``y = x & (sh * LOW)`` keeps each row's bits on Omega h^T;
    the folds ``y ^= y >> s``, s = L/2, ..., 1, leave each lane's parity
    in its bit 0 (bits shifted in from the lane above never reach it);
    and ``x ^= (y & LOW) * hv`` adds h to the odd rows, with no carry
    across lanes: h and every row of F lie in [0, 2^2m), and 2m <= L.
    Refuses a Z_h of another degree.
    """
    m = f.m
    if any(z.m != m for z in zs):
        raise ValueError("dimension mismatch")
    width, low, folds = _lanes(m)
    x = 0
    for i, r in enumerate(f.rows):
        x |= r << i * width
    for z in zs:
        y = x & z.sh * low
        for s in folds:
            y ^= y >> s
        x ^= (y & low) * z.hv
    mask = (1 << 2 * m) - 1
    return SymplecticMatrix(m, [x >> i * width & mask for i in range(2 * m)])


def apply_transvection(ctx: FieldContext, h: PairLike, p: PairLike) -> PauliIndex:
    """(a, b) + Tr(a h2 + b h1) (h1, h2): field form of the Z_h action;
    refuses an entry outside [0, N), through ``symplectic_inner``."""
    if symplectic_inner(ctx, p, h):
        return PauliIndex(p[0] ^ h[0], p[1] ^ h[1])
    return PauliIndex(*p)


def conjugate_transvection(
    ctx: FieldContext, f: SymplecticMatrix, h: PairLike
) -> Transvection:
    """The transvection with F^-1 Z_h F = Z_{hF}."""
    return Transvection(*apply_symplectic(ctx, f, h))


def transvection_apply_vec(ctx, h1, h2, a, b):
    """Vectorized Z_h action on arrays of packed halves: x -> x + <x, h> h.

    A lane is the halves (a, |b|) of x = [a | |b|] and a step the halves
    (h1, |h2|) of h, so ``h2`` and ``b`` are dual coordinates (see
    ``pack_halves``), and the update is the tableau update of
    ``transvection_product`` over GF(2):

        t = parity((a & |h2|) ^ (|b| & h1)) = Tr(a h2 + b h1),
        a ^= t h1,  |b| ^= t |h2|.

    It reads no table.  ``ctx`` is not read; it stays in the signature
    because the benchmark calls the kernel as (ctx, h1, h2, a, b).
    The arrays broadcast against each other, and the results have dtype
    result_type(h1, h2, a, b): lanes in ``element_dtype``, uint8 for
    m <= 8, stay that narrow.
    """
    # t has the full broadcast shape and a dtype at least as wide as a and
    # b, so the in-place steps below never truncate
    t = (a & h2) ^ (b & h1)
    np.bitwise_count(t, out=t)
    t &= 1
    return a ^ (h1 * t), b ^ (h2 * t)
