"""Pauli indices and the binary-symplectic group, packed into machine words.

A Hermitian Pauli on N = 2^m qubits-worth of space is indexed (up to
sign) by a pair of field elements ``(a, b)``; its binary row vector is
``[ [a] | |b| ]`` - primal coordinates of ``a`` in the low m bits, dual
coordinates of ``b`` in the high m bits.  Two Paulis commute iff the
symplectic inner product ``Tr(ad + bc)`` vanishes.  As one integer, the
pair is the vertex code ``v = a | b << m`` (``vertex_code`` and
``vertex_split``); every module that numbers vertices uses that code.

Symplectic matrices act on the right of packed row vectors; a matrix is
stored as 2m row words, so applying it is a bit-select XOR of rows and
composition is word-wise GF(2) row reduction, and the inverse is
Omega F^T Omega.  The generators mirror the standard Clifford dictionary,
with the m x m blocks Q and P given as m packed row words:

    omega_matrix        block swap            <-> full Hadamard H_N
    basis_change_matrix [[Q,0],[0,Q^-T]]      <-> e_v -> e_{vQ}
    phase_matrix        [[I,P],[0,I]], P=P^T  <-> diag(i^{v P v^T mod 4})
    partial_hadamard_matrix                   <-> H_{2^t} (x) I_{2^{m-t}}

Transvections ``Z_h = I + Omega h^T h`` are the self-inverse walk moves:
``x Z_h = x + <x, h> h``, in field form
``(a, b) -> (a, b) + Tr(a h2 + b h1) (h1, h2)``; conjugation by F moves
Z_h to Z_{hF}.  ``transvection_matrix`` keeps h beside the rows, so the
right product ``F @ Z_h`` is that same update on each row of F, O(2m)
word operations instead of a full product (the tableau update of
Aaronson-Gottesman); every other product is the full one.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Tuple, Union

import numpy as np

from .gf2m import (
    FieldContext,
    f2_mat_inv,
    f2_mat_mul,
    f2_mat_transpose,
    f2_numpy_to_rows,
    f2_rows_to_numpy,
    parity,
)

__all__ = [
    "PauliIndex",
    "Transvection",
    "SymplecticMatrix",
    "vertex_code",
    "vertex_split",
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

    Rows are ints whose bit j is column j.  ``F @ G`` composes in
    right-action order: applying F then G equals applying F @ G.
    """

    __slots__ = ("m", "rows")

    def __init__(self, m: int, rows: Iterable[int]) -> None:
        self.m = m
        self.rows = tuple(rows)
        if len(self.rows) != 2 * m:
            raise ValueError(f"expected {2 * m} rows, got {len(self.rows)}")

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
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return SymplecticMatrix(self.m, f2_mat_mul(self.rows, other.rows))

    def apply(self, v: int) -> int:
        """Image of the packed row vector ``v`` under right action."""
        return f2_mat_mul((v,), self.rows)[0]

    def transpose(self) -> "SymplecticMatrix":
        return SymplecticMatrix(self.m, f2_mat_transpose(self.rows, 2 * self.m))

    def inverse(self) -> "SymplecticMatrix":
        """Omega F^T Omega: [[D^T, B^T], [C^T, A^T]] for F = [[A, B], [C, D]]."""
        omega = omega_matrix(self.m)
        return omega @ self.transpose() @ omega

    def is_symplectic(self) -> bool:
        """Check F Omega F^T = Omega, i.e. the action preserves the inner product."""
        m = self.m
        mask = (1 << m) - 1
        for i, ri in enumerate(self.rows):
            si = ((ri & mask) << m) | (ri >> m)
            for j, rj in enumerate(self.rows):
                want = 1 if (j == i + m or j == i - m) else 0
                if parity(si & rj) != want:
                    return False
        return True

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


# --- vertex codes, packing and the symplectic form ---


def vertex_code(m: int, a, b):
    """The vertex code a | b << m of the field pair (a, b): an int for
    ints; for arrays, dtype result_type(a, b, uint32), so uint32 for
    uint16 fields (every m <= 16) and int64 when an operand is int64."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.left_shift(b, m, dtype=np.result_type(a, b, np.uint32)) | a
    return a | (b << m)


def vertex_split(m: int, v):
    """The field pair (a, b) of the vertex code v = a | b << m: Python
    ints for an integer, uint16 arrays for an array."""
    if isinstance(v, np.ndarray):
        return (v & ((1 << m) - 1)).astype(np.uint16), (v >> m).astype(np.uint16)
    return int(v) & ((1 << m) - 1), int(v) >> m


def pack_index(ctx: FieldContext, p: PairLike) -> int:
    """Packed row vector [ [a] | |b| ] of a Pauli index."""
    a, b = p
    return a | (ctx.dual_coords(b) << ctx.m)


def unpack_index(ctx: FieldContext, v: int) -> PauliIndex:
    mask = ctx.order - 1
    return PauliIndex(v & mask, ctx.dual_decode(v >> ctx.m))


def symplectic_inner(ctx: FieldContext, p: PairLike, q: PairLike) -> int:
    """Tr(ad + bc) for p = (a, b), q = (c, d); 0 means the Paulis commute."""
    a, b = p
    c, d = q
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
    """Z_h with its two defining words: ``hv``, the packed h, and ``sh``,
    the column selector Omega h^T.  ``F @ Z_h`` is the row update
    r -> r + <r, h> h on each row of F, O(2m) instead of a full product;
    Python tries this reflected operator before ``SymplecticMatrix``'s own."""

    __slots__ = ("hv", "sh")

    def __init__(self, m: int, hv: int, sh: int) -> None:
        self.m = m
        self.hv = hv
        self.sh = sh
        self.rows = tuple([(1 << i) ^ hv if (sh >> i) & 1 else 1 << i for i in range(2 * m)])

    def __rmatmul__(self, other: SymplecticMatrix) -> SymplecticMatrix:
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        hv, sh = self.hv, self.sh
        return SymplecticMatrix(self.m, [r ^ hv if (r & sh).bit_count() & 1 else r
                                         for r in other.rows])


def transvection_matrix(ctx: FieldContext, h: PairLike) -> SymplecticMatrix:
    """Z_h = I + Omega h^T h; self-inverse, fixes exactly the centralizer of h.

    Refuses h = (0, 0) and an entry outside [0, N).  ``F @ Z_h`` costs one
    inner product per row of F (see ``_TransvectionMatrix``).
    """
    h1, h2 = h
    # N is a power of two, so h1 | h2 lies in (0, N) iff both entries lie
    # in [0, N) and one is nonzero (a negative entry makes it negative)
    if not 0 < h1 | h2 < ctx.order:
        raise ValueError(f"transvection {tuple(h)} must be a nonzero pair of "
                         f"field elements in [0, {ctx.order})")
    m = ctx.m
    hv = pack_index(ctx, h)
    sh = ((hv & (ctx.order - 1)) << m) | (hv >> m)  # Omega h^T as a column selector
    return _TransvectionMatrix(m, hv, sh)


def apply_transvection(ctx: FieldContext, h: PairLike, p: PairLike) -> PauliIndex:
    """(a, b) + Tr(a h2 + b h1) (h1, h2): field form of the Z_h action."""
    h1, h2 = h
    a, b = p
    if ctx.trace(ctx.mul(a, h2) ^ ctx.mul(b, h1)):
        return PauliIndex(a ^ h1, b ^ h2)
    return PauliIndex(a, b)


def conjugate_transvection(
    ctx: FieldContext, f: SymplecticMatrix, h: PairLike
) -> Transvection:
    """The transvection with F^-1 Z_h F = Z_{hF}."""
    return Transvection(*apply_symplectic(ctx, f, h))


def transvection_apply_vec(ctx, h1, h2, a, b):
    """Vectorized Z_h action on arrays of field pairs (a, b).

    The arrays broadcast against each other.  The inner product uses the
    dual-coordinate identity Tr(xy) = parity([x] & |y|):

        Tr(a h2 + b h1) = parity((a & |h2|) ^ (b & |h1|)),

    so the only table read is the O(N) ``dual`` table, gathered at the
    transvection alone; a shared transvection costs one gather however
    many vertices it acts on.
    """
    dual = ctx.np_table("dual")
    t = np.bitwise_count((a & dual[h2]) ^ (b & dual[h1])) & 1
    return a ^ (h1 * t), b ^ (h2 * t)
