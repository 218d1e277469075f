"""Arithmetic in GF(2^m) with primal and dual (trace) coordinates.

Field elements are plain ints in [0, 2^m).  Bit i of an element is the
coefficient of alpha^i, where alpha is a root of the chosen degree-m
primitive polynomial over GF(2); so the integer value doubles as the
primal coordinate row vector of the element.  Addition is XOR,
multiplication runs through one pair of log/antilog tables per context,
read by the scalar methods and, as arrays, by ``FieldContext.mul_vec``
and ``div_vec`` alone: every vectorized kernel multiplies through them.

Besides the primal coordinates ``[a] = (a_0, ..., a_{m-1})`` the module
maintains dual (trace) coordinates: the dual basis of ``1, alpha, ...,
alpha^{m-1}`` under the trace form ``Tr(xy)``.  The change of basis is
the symmetric Hankel matrix ``W`` with entries ``W[i][j] =
Tr(alpha^(i+j))``, and the dual coordinate row of ``a`` is ``[a]W``.
That gives the fast inner-product identity ``Tr(ab) = parity([a] & |b|)``
used throughout the symplectic layer.

Default primitive polynomials (bit-vector ints, degree = m):

    m=2:  0x7      x^2+x+1        m=10: 0x409    x^10+x^3+1
    m=3:  0xB      x^3+x+1        m=11: 0x805    x^11+x^2+1
    m=4:  0x13     x^4+x+1        m=12: 0x1053   x^12+x^6+x^4+x+1
    m=5:  0x25     x^5+x^2+1      m=13: 0x201B   x^13+x^4+x^3+x+1
    m=6:  0x43     x^6+x+1        m=14: 0x4443   x^14+x^10+x^6+x+1
    m=7:  0x89     x^7+x^3+1      m=15: 0x8003   x^15+x+1
    m=8:  0x11D    x^8+x^4+x^3+x^2+1   m=16: 0x1100B  x^16+x^12+x^3+x+1
    m=9:  0x211    x^9+x^4+1

A non-primitive polynomial is rejected at construction time with a
witness: a nontrivial factor if it is reducible, or the true
multiplicative order of x if it is irreducible but not primitive.
"""

from __future__ import annotations

from functools import reduce
from operator import index, or_
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PRIMITIVE_POLYS",
    "MIN_M",
    "MAX_M",
    "DENSE_TABLE_MAX_M",
    "FieldContext",
    "checked_int",
    "element_dtype",
    "parity",
    "clmul",
    "polymod",
    "poly_degree",
    "f2_mat_mul",
    "f2_mat_inv",
    "f2_mat_transpose",
    "f2_rows_to_numpy",
    "f2_numpy_to_rows",
]

# one primitive polynomial per supported degree, indexed by m
PRIMITIVE_POLYS: Dict[int, int] = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

MIN_M = 2
MAX_M = 16
# the N x N 'mul' / 'div' numpy tables: 64 MiB each at m = 12
DENSE_TABLE_MAX_M = 12


# --- polynomial helpers on bit-vector ints ---


def element_dtype(m: int) -> np.dtype:
    """The narrowest unsigned dtype holding every element of GF(2^m):
    uint8 for m <= 8, uint16 for m = 9..16.  Arrays of field elements
    use it: the 'exp', 'dual' and 'dual_inv' tables (so ``mul_vec`` and
    ``div_vec``), ``pauli.vertex_split`` and the statistics walk."""
    return np.min_scalar_type((1 << m) - 1)


def parity(x: int) -> int:
    """Parity (mod-2 popcount) of a nonnegative int."""
    return x.bit_count() & 1


def poly_degree(p: int) -> int:
    """Degree of the polynomial encoded by ``p`` (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two bit-vector polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def polymod(a: int, p: int) -> int:
    """Remainder of ``a`` modulo ``p`` in GF(2)[x]."""
    dp = poly_degree(p)
    da = poly_degree(a)
    while da >= dp:
        a ^= p << (da - dp)
        da = poly_degree(a)
    return a


def _find_factor(p: int) -> Optional[int]:
    """Smallest nontrivial factor of ``p`` in GF(2)[x], or None if irreducible."""
    dp = poly_degree(p)
    for d in range(1, dp // 2 + 1):
        for f in range(1 << d, 1 << (d + 1)):
            if polymod(p, f) == 0:
                return f
    return None


# --- packed GF(2) matrices: tuple of row words, row-vector convention ---


def f2_mat_mul(rows_a: Tuple[int, ...], rows_b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Product A @ B of packed GF(2) matrices (rows of A select rows of B);
    each row of A is walked by its set bits alone."""
    out = []
    for ra in rows_a:
        acc = 0
        while ra:
            low = ra & -ra
            acc ^= rows_b[low.bit_length() - 1]
            ra ^= low
        out.append(acc)
    return tuple(out)


def f2_mat_transpose(rows: Tuple[int, ...], width: int) -> Tuple[int, ...]:
    """Transpose of a packed GF(2) matrix whose rows are ``width`` bits wide."""
    out = []
    for j in range(width):
        w = 0
        for i, r in enumerate(rows):
            w |= ((r >> j) & 1) << i
        out.append(w)
    return tuple(out)


def f2_mat_inv(rows: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """Inverse of an n x n packed GF(2) matrix (Gauss-Jordan).

    Raises ValueError unless it is n rows of n bits and nonsingular.
    """
    a = list(rows)
    if len(a) != n or any(r >> n for r in a):
        raise ValueError(f"expected an {n} x {n} matrix as {n} rows of {n} bits")
    inv = [1 << i for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if (a[r] >> col) & 1), None)
        if piv is None:
            raise ValueError("matrix is singular over GF(2)")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        for r in range(n):
            if r != col and (a[r] >> col) & 1:
                a[r] ^= a[col]
                inv[r] ^= inv[col]
    return tuple(inv)


def f2_rows_to_numpy(rows: Tuple[int, ...], width: int) -> np.ndarray:
    return np.array([[(r >> j) & 1 for j in range(width)] for r in rows], dtype=np.uint8)


def f2_numpy_to_rows(mat: np.ndarray) -> Tuple[int, ...]:
    return tuple(int(sum(int(v) << j for j, v in enumerate(row))) for row in np.asarray(mat) % 2)


# --- input checks ---


def checked_int(name: str, value, low: int, high: Optional[int] = None) -> int:
    """``value`` as a Python int through ``operator.index``, the one owner of
    integer-argument checks: refuses a bool, a non-integer and an int outside
    [low, high] as "<name> = <value!r> must be an int >= <low>" (or "... in [<low>, <high>]")."""
    try:
        x = None if isinstance(value, bool) else index(value)
    except TypeError:
        x = None
    if x is None or x < low or (high is not None and x > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} = {value!r} must be an int {bound}")
    return x


# --- field context ---


class FieldContext:
    """GF(2^m) with log/antilog tables, trace, and dual-coordinate machinery.

    Parameters
    ----------
    m : int
        Extension degree, an int with 2 <= m <= 16.
    poly : int, optional
        Primitive polynomial as a bit-vector int of degree m.  Defaults to
        the table entry for m.  A bool, a non-integer and a negative int
        are refused as ``checked_int`` refuses them; reducible or
        non-primitive polynomials are rejected with a witness in the error
        message.
    """

    def __init__(self, m: int, poly: Optional[int] = None) -> None:
        m = checked_int("m", m, MIN_M, MAX_M)
        poly = PRIMITIVE_POLYS[m] if poly is None else checked_int("poly", poly, 0)
        if poly_degree(poly) != m:
            raise ValueError(
                f"polynomial {poly:#x} has degree {poly_degree(poly)}, expected {m}"
            )
        if not poly & 1:
            raise ValueError(f"polynomial {poly:#x} is reducible: factor x ({0x2:#x})")

        self.m = m
        self.poly = poly
        self.order = 1 << m  # N = 2^m
        n1 = self.order - 1

        # antilog table alpha^i for i <= 2(N-1), then zeros up to 4N; the
        # sentinel log[0] = 2(N-1)+1 sends a zero operand into the zero
        # tail, so products and quotients index with no zero branch
        exp = [0] * (4 * self.order)
        log = [2 * n1 + 1] + [0] * n1
        val = 1
        alpha_order = None
        for i in range(n1):
            exp[i] = exp[i + n1] = val
            if val != 1 or i == 0:
                log[val] = i
            val <<= 1
            if val >> m:
                val ^= poly
            if val == 1 and alpha_order is None:
                alpha_order = i + 1
        if alpha_order != n1 or len(set(exp[:n1])) != n1:
            factor = _find_factor(poly)
            if factor is not None:
                raise ValueError(
                    f"polynomial {poly:#x} is reducible: factor {factor:#x}"
                )
            raise ValueError(
                f"polynomial {poly:#x} is irreducible but not primitive: "
                f"x has multiplicative order {alpha_order}, need {n1}"
            )
        exp[2 * n1] = 1
        self._exp = exp
        self._log = log

        # trace is GF(2)-linear: Tr(a) = parity(a & trace_mask)
        mask = 0
        for i in range(m):
            t = self._trace_slow(1 << i)
            mask |= t << i
        self._trace_mask = mask

        # W[i][j] = Tr(alpha^(i+j)); row i packed as an int
        self._w_rows = tuple(
            sum(self.trace(exp[i + j]) << j for j in range(m)) for i in range(m)
        )
        self._w_inv_rows = f2_mat_inv(self._w_rows, m)

        # dual coordinate tables: dual[a] = [a] W, packed
        self._dual = f2_mat_mul(range(self.order), self._w_rows)
        dual_inv = [0] * self.order
        for x, d in enumerate(self._dual):
            dual_inv[d] = x
        self._dual_inv = dual_inv

        self._np_cache: Dict[str, np.ndarray] = {}

    # -- scalar arithmetic --

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ValueError("division by 0")
        return self._exp[self._log[a] + self.order - 1 - self._log[b]]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ValueError("0 has no negative power")
            return 0 if k else 1
        return self._exp[(self._log[a] * k) % (self.order - 1)]

    def sqrt(self, a: int) -> int:
        """Unique square root (the Frobenius map x -> x^2 is a bijection)."""
        if a == 0:
            return 0
        return self._exp[(self._log[a] << (self.m - 1)) % (self.order - 1)]

    def alpha_power(self, i: int) -> int:
        return self._exp[i % (self.order - 1)]

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no discrete logarithm")
        return self._log[a]

    # -- trace and dual coordinates --

    def _trace_slow(self, a: int) -> int:
        # Tr(a) = a + a^2 + ... + a^(2^(m-1)) by shift-xor squaring
        acc = 0
        t = a
        for _ in range(self.m):
            acc ^= t
            t = polymod(clmul(t, t), self.poly)
        return acc  # lands in {0, 1}

    def trace(self, a: int) -> int:
        return parity(a & self._trace_mask)

    def dual_coords(self, a: int) -> int:
        """Dual coordinate row of ``a`` packed as an int: |a| = [a] W."""
        return self._dual[a]

    def dual_decode(self, d: int) -> int:
        """Field element whose dual coordinate row is ``d``."""
        return self._dual_inv[d]

    def trace_product(self, a: int, b: int) -> int:
        """Tr(ab) via the primal/dual inner product parity([a] & |b|)."""
        return parity(a & self._dual[b])

    # -- matrices --

    @property
    def w_rows(self) -> Tuple[int, ...]:
        return self._w_rows

    @property
    def w_inv_rows(self) -> Tuple[int, ...]:
        return self._w_inv_rows

    def w_matrix(self) -> np.ndarray:
        return f2_rows_to_numpy(self._w_rows, self.m)

    def mul_matrix_rows(self, z: int) -> Tuple[int, ...]:
        """Rows of A_z, the matrix of multiplication by z: [xz] = [x] A_z."""
        return tuple(self.mul(1 << i, z) for i in range(self.m))

    def mul_matrix(self, z: int) -> np.ndarray:
        return f2_rows_to_numpy(self.mul_matrix_rows(z), self.m)

    # -- element iteration --

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    # -- input checks: the one owner of "is this a field element?" --

    def field_entries(self, label: str, entries: Sequence, shown=None) -> Tuple[int, ...]:
        """``entries`` as Python ints (``operator.index``); refuses one outside [0, N)
        as "<label> <shown> has an entry outside [0, N)", shown by default tuple(entries)."""
        xs = tuple(map(index, entries))
        # N is a power of two, so an OR of entries lies in [0, N) iff every
        # entry does (a negative entry makes it negative), and in (0, N) iff
        # moreover one is nonzero: the test of nonzero_pair(s)
        if not 0 <= reduce(or_, xs, 0) < self.order:
            raise ValueError(f"{label} {tuple(entries) if shown is None else shown} "
                             f"has an entry outside [0, {self.order})")
        return xs

    def nonzero_pair(self, label: str, p: Sequence, shown=None) -> Tuple[int, int]:
        """(x, y) of ``p`` as ``field_entries`` reads it, refusing also (0, 0):
        "<label> <shown> must be a nonzero pair of field elements in [0, N)"."""
        x, y = index(p[0]), index(p[1])
        if not 0 < x | y < self.order:
            raise ValueError(f"{label} {tuple(p) if shown is None else shown} must be "
                             f"a nonzero pair of field elements in [0, {self.order})")
        return x, y

    def nonzero_pairs(self, label: str, pairs: Sequence, shown: Sequence) -> None:
        """``nonzero_pair`` of every int pair, in one call: pair i as "<label> i = <shown[i]>"."""
        for i, (x, y) in enumerate(pairs):
            if not 0 < x | y < self.order:
                self.nonzero_pair(f"{label} {i} =", (x, y), shown[i])

    # -- vectorized arithmetic and lookup tables (numpy) --

    def mul_vec(self, x, y) -> np.ndarray:
        """Elementwise x*y of broadcasting arrays or ints, as exp[log x +
        log y]: the sentinel log[0] sends a zero operand to exp's zero tail."""
        log = self.np_table("log")
        return self.np_table("exp")[log[x] + log[y]]

    def div_vec(self, x, y) -> np.ndarray:
        """Elementwise x/y, as exp[log x - log y + N-1]; a lane with y = 0
        holds an unspecified element, for the caller's ``where`` to drop."""
        log = self.np_table("log")
        return self.np_table("exp")[log[x] - log[y] + (self.order - 1)]

    def np_table(self, name: str) -> np.ndarray:
        """Cached numpy tables: 'log' (N,) int32 and 'exp' (4N,), read by
        ``mul_vec``/``div_vec`` alone; 'trace' (N,) uint8; 'exp', 'dual'
        (the dual coordinates |a|) and its inverse 'dual_inv' (N,), in
        ``element_dtype(m)``; the N x N 'mul' and 'div' (div[:, 0] = 0),
        refused above DENSE_TABLE_MAX_M, read only by the benchmark and
        their own tests.  'mul' and 'div' stay uint16 for m <= 8 and
        uint32 above, since the benchmark reads their itemsize; they are
        deleted with their benchmark readers (ROADMAP item 12)."""
        if name in self._np_cache:
            return self._np_cache[name]
        n = self.order
        dtype = np.uint32 if self.m > 8 else np.uint16
        if name in ("mul", "div") and self.m > DENSE_TABLE_MAX_M:
            raise ValueError(f"the N x N {name!r} table is capped at m = "
                             f"{DENSE_TABLE_MAX_M}; use the 'log'/'exp' tables")
        if name == "log":
            t = np.array(self._log, dtype=np.int32)
        elif name == "exp":
            t = np.array(self._exp, dtype=element_dtype(self.m))
        elif name == "mul":
            t = self.mul_vec(np.arange(n)[:, None], np.arange(n)).astype(dtype)
        elif name == "div":
            t = np.zeros((n, n), dtype=dtype)
            t[:, 1:] = self.div_vec(np.arange(n)[:, None], np.arange(1, n))
        elif name == "trace":
            t = np.bitwise_count(np.arange(n) & self._trace_mask).astype(np.uint8) & 1
        elif name == "dual":
            t = np.array(self._dual, dtype=element_dtype(self.m))
        elif name == "dual_inv":
            t = np.array(self._dual_inv, dtype=element_dtype(self.m))
        else:
            raise ValueError(f"unknown table {name!r}")
        self._np_cache[name] = t
        return t

    def __repr__(self) -> str:
        return f"FieldContext(m={self.m}, poly={self.poly:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldContext)
            and self.m == other.m
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.poly))
