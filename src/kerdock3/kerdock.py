"""Kerdock commutative structure and the projective-line symmetry group.

The N^2 - 1 nonzero Pauli indices split into N + 1 maximal commutative
subgroups, one per point of the projective line over GF(2^m): the pairs
(a, az) for each finite slope z, plus the pairs (0, b) at infinity.
Each subgroup is the row space of [I | P] for a Kerdock matrix
``P_z = A_z^2 W`` (P at infinity is the flipped block [0 | I]); any two
distinct Kerdock matrices differ by a nonsingular matrix, which is what
makes the family extremal.

SL(2, 2^m) = PSL(2, 2^m) acts on Pauli pairs by right multiplication of
the row (a b) by the 2x2 field matrix g, and on slopes by the Moebius
map z -> (beta + delta z) / (alpha + gamma z).  ``psl_to_symplectic``
embeds that action into the binary-symplectic group:

    theta(g) = [[A_alpha, A_beta W], [W^-1 A_gamma, A_delta^T]]

a genuine homomorphism for the right action, satisfying

    classify_subgroup(p . theta(g)) = moebius(g, classify_subgroup(p)).

Together with the Pauli group, the image of theta is an exact unitary
2-design; the sampler upgrades it to an approximate 3-design.

Named routes, exported with no library caller, on which tests check the
claims above: ``kerdock_matrix``, ``classify_subgroup``,
``subgroup_members``, ``mobius_action`` and ``psl_product``.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .gf2m import FieldContext, f2_rows_to_numpy
from .pauli import PairLike, PauliIndex, SymplecticMatrix, vertex_split

__all__ = [
    "INFINITY",
    "SubgroupLabel",
    "PslElement",
    "kerdock_matrix",
    "classify_subgroup",
    "subgroup_members",
    "mobius_action",
    "psl_to_symplectic",
    "psl_factors",
    "pair_action",
    "psl_product",
    "psl_elements",
    "sample_psl",
    "sample_psl_vec",
]


class _Infinity:
    """Dedicated tag for the point at infinity on the projective line."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

SubgroupLabel = Union[int, _Infinity]


class PslElement(NamedTuple):
    """2x2 field matrix (alpha beta; gamma delta) with determinant 1."""

    alpha: int
    beta: int
    gamma: int
    delta: int


def _check_det(ctx: FieldContext, g: PslElement) -> Tuple[int, int, int, int]:
    """g's entries as ``field_entries`` reads them; refuses det(g) != 1."""
    alpha, beta, gamma, delta = entries = ctx.field_entries("PSL element", g)
    det = ctx.mul(alpha, delta) ^ ctx.mul(beta, gamma)
    if det != 1:
        raise ValueError(f"determinant {det} != 1, not an SL(2) element: {g}")
    return entries


# --- Kerdock matrices and subgroup classification ---


def _mul_w_rows(ctx: FieldContext, x: int) -> Tuple[int, ...]:
    # rows of A_x W, i.e. |alpha^i x| stacked; symmetric for every x
    return tuple(ctx.dual_coords(ctx.mul(1 << i, x)) for i in range(ctx.m))


def kerdock_matrix(ctx: FieldContext, z: int) -> np.ndarray:
    """P_z = A_z^2 W; symmetric, and P_x + P_z is nonsingular for x != z.
    Refuses a z outside [0, N).  A route for the extremal Kerdock set."""
    (z,) = ctx.field_entries("subgroup label", (z,), z)
    return f2_rows_to_numpy(_mul_w_rows(ctx, ctx.mul(z, z)), ctx.m)


def classify_subgroup(ctx: FieldContext, p: PairLike) -> SubgroupLabel:
    """Slope b/a of the subgroup containing p, INFINITY if a = 0; refuses
    p = (0, 0), in every subgroup, and an entry outside [0, N).  A route for
    the partition into N + 1 subgroups."""
    a, b = ctx.nonzero_pair("Pauli index", p)
    if a == 0:
        return INFINITY
    return ctx.div(b, a)


def subgroup_members(ctx: FieldContext, label: SubgroupLabel) -> List[PauliIndex]:
    """The N - 1 nonzero Pauli indices of one maximal commutative subgroup;
    refuses a label that is neither INFINITY nor a field element.  A route
    for the partition into N + 1 subgroups."""
    if label is INFINITY:
        return [PauliIndex(0, b) for b in ctx.nonzero()]
    (z,) = ctx.field_entries("subgroup label", (label,), label)
    return [PauliIndex(a, ctx.mul(a, z)) for a in ctx.nonzero()]


def mobius_action(ctx: FieldContext, g: PslElement, z: SubgroupLabel) -> SubgroupLabel:
    """f(z) = (beta + delta z) / (alpha + gamma z) on GF(2^m) u {INFINITY};
    refuses a g outside SL(2) and a finite z outside [0, N).  A route for
    the covariance of theta."""
    alpha, beta, gamma, delta = _check_det(ctx, g)
    if z is INFINITY:
        if gamma == 0:
            return INFINITY
        return ctx.div(delta, gamma)
    (z,) = ctx.field_entries("subgroup label", (z,), z)
    num = beta ^ ctx.mul(delta, z)
    den = alpha ^ ctx.mul(gamma, z)
    if den == 0:
        return INFINITY
    return ctx.div(num, den)


# --- the symplectic embedding ---


def pair_action(ctx: FieldContext, g: PslElement, p: PairLike) -> PauliIndex:
    """Right multiplication of the row (a b) by g over the field; refuses
    an entry of p outside [0, N) and a g that is not in SL(2)."""
    a, b = ctx.field_entries("Pauli index", p)
    alpha, beta, gamma, delta = _check_det(ctx, g)
    return PauliIndex(ctx.mul(a, alpha) ^ ctx.mul(b, gamma),
                      ctx.mul(a, beta) ^ ctx.mul(b, delta))


def psl_to_symplectic(ctx: FieldContext, g: PslElement) -> SymplecticMatrix:
    """theta(g) = [[A_alpha, A_beta W], [W^-1 A_gamma, A_delta^T]].

    Row i (i < m) is the packed image of the basis index (alpha^i, 0);
    row m + j is the packed image of (0, beta_j) for the dual basis
    element beta_j.  theta is a right-action homomorphism and its image
    together with the Paulis is the Kerdock 2-design.
    """
    alpha, beta, gamma, delta = _check_det(ctx, g)
    m, mul, dual = ctx.m, ctx.mul, ctx.dual_coords
    rows = []
    for i in range(m):  # (x, 0) g = (x alpha, x beta), packed
        x = 1 << i
        rows.append(mul(x, alpha) | dual(mul(x, beta)) << m)
    for j in range(m):  # (0, y) g = (y gamma, y delta), packed
        y = ctx.dual_decode(1 << j)
        rows.append(mul(y, gamma) | dual(mul(y, delta)) << m)
    return SymplecticMatrix(m, rows)


def psl_factors(ctx: FieldContext, g: PslElement):
    """Generator factorization of theta(g), in right-action order.

    gamma != 0:  T_{A_{alpha/gamma} W} . L_{A_{1/gamma}} . Omega . L_{W^-1} . T_{A_{delta/gamma} W}
    gamma == 0:  L_{A_alpha} . T_{A_{beta delta} W}

    Returned as ("phase", P) / ("basis", Q) / ("hadamard",) descriptors
    with packed-row matrix parameters, consumable by the symplectic generator
    constructors and by the unitary synthesis (in reversed order there).
    """
    alpha, beta, gamma, delta = _check_det(ctx, g)
    if gamma == 0:
        return [
            ("basis", ctx.mul_matrix_rows(alpha)),
            ("phase", _mul_w_rows(ctx, ctx.mul(beta, delta))),
        ]
    inv_gamma = ctx.inv(gamma)
    return [
        ("phase", _mul_w_rows(ctx, ctx.mul(alpha, inv_gamma))),
        ("basis", ctx.mul_matrix_rows(inv_gamma)),
        ("hadamard",),
        ("basis", ctx.w_inv_rows),
        ("phase", _mul_w_rows(ctx, ctx.mul(delta, inv_gamma))),
    ]


# --- group operations, enumeration, sampling ---


def psl_product(ctx: FieldContext, g1: PslElement, g2: PslElement) -> PslElement:
    """g1 g2: each row of g1 right-multiplied by g2; refuses a factor outside
    SL(2).  A route for "theta is a homomorphism"."""
    g1 = _check_det(ctx, g1)
    return PslElement(*pair_action(ctx, g2, g1[:2]), *pair_action(ctx, g2, g1[2:]))


def _psl_fill(ctx: FieldContext, k: int, j: int) -> PslElement:
    """The j-th of the N elements with first column vertex code k = alpha |
    gamma << m: beta = j if alpha != 0, else delta = j; det = 1 fixes the other."""
    alpha, gamma = vertex_split(ctx.m, k)
    if alpha != 0:
        return PslElement(alpha, j, gamma, ctx.div(1 ^ ctx.mul(j, gamma), alpha))
    return PslElement(alpha, ctx.inv(gamma), gamma, j)


def psl_elements(ctx: FieldContext) -> Iterator[PslElement]:
    """All (N+1)N(N-1) elements: (alpha, gamma) != 0, then the N unit-det fills."""
    n = ctx.order
    for k in range(1, n * n):
        for j in range(n):
            yield _psl_fill(ctx, k, j)


def sample_psl(ctx: FieldContext, rng: np.random.Generator) -> PslElement:
    """Uniform SL(2, 2^m) element.

    Draw (alpha, gamma) != (0, 0) uniformly, then one of the N solutions
    (beta, delta) of alpha delta + beta gamma = 1 uniformly.
    """
    n = ctx.order
    k = int(rng.integers(1, n * n))
    return _psl_fill(ctx, k, int(rng.integers(0, n)))


def sample_psl_vec(ctx: FieldContext, rng: np.random.Generator, size: int):
    """Vectorized uniform SL(2) draw; returns arrays (alpha, beta, gamma, delta).

    ``_psl_fill`` lane by lane, through ``mul_vec``/``div_vec``; each
    ``where`` discards the junk quotient its other branch computes."""
    n = ctx.order
    alpha, gamma = vertex_split(ctx.m, rng.integers(1, n * n, size=size, dtype=np.uint32))
    j = rng.integers(0, n, size=size, dtype=np.uint16)
    fin = alpha != 0
    beta = np.where(fin, j, ctx.div_vec(1, gamma))
    delta = np.where(fin, ctx.div_vec(1 ^ ctx.mul_vec(beta, gamma), alpha), j)
    return alpha, beta.astype(np.uint16), gamma, delta.astype(np.uint16)
