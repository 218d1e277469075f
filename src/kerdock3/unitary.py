"""Dense-unitary realization of the symplectic layer, for small m.

Index convention: computational basis vectors |v> are labelled by the m
low bits of an integer, bit j of the label being coordinate j of the row
vector v; numpy ``kron(A, B)`` therefore puts A on the high label bits.

The Pauli operator for an index pair (a, b) is real monomial

    D(a, b) |v> = (-1)^(v . |b|)  |v + [a]>

with [a] the standard coordinates of a and |b| the dual coordinates of
b, and E(a, b) = i^Tr(ab) D(a, b) is its Hermitian form (E^2 = I).
Conjugation by the generator unitaries moves index pairs by exactly the
corresponding binary-symplectic generator matrices; ``conjugation_check``
verifies that relation entrywise, tracking the +-1, +-i phase freedom.

The generator constructors each carry a ``functools.cache`` and return
read-only arrays, so ``sample_unitary`` and ``psl_unitary`` multiply stored
factors instead of rebuilding them at every step.  The N^2 Pauli monomials
D(a, b) and the N^2 - 1 transvection unitaries are keyed by (ctx, pair),
equal fields sharing entries, the Hadamard H^(x m) by m, and the basis and
phase factors of ``psl_factors`` by (m, packed rows): at most about 2N + 1
entries per m.  The caches hold up to about 2 N^4 complex entries per
field, 33 MB at m = 5 and 0.5 GB at m = 6, so every dense constructor
refuses m > DENSE_MAX_M with a ValueError before it allocates anything.  A
generator refuses what its symplectic twin in ``pauli`` refuses,
``pack_index`` for D(a, b), by building the twin when it is built itself;
nothing refused is cached, and cache hits check nothing.

Frame potentials are computed by Gram products on flattened unitaries,
in blocks of max(1, 2^17 // S) rows for S unitaries: each block's
temporaries hold about 2^17 cells (a complex Gram block, then its real
powers, about 3 MB), so the memory beyond the S N^2 flattened unitaries
and their conjugates stays fixed at every S.  The Haar baseline is the
number of standard Young tableaux pairs with at most ``dim`` rows.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .gf2m import FieldContext, checked_int, f2_mat_mul
from .graph import CHAINS
from .kerdock import PslElement, psl_elements, psl_factors
from .markov import q_empirical, stationary_weights
from .pauli import (PauliIndex, SymplecticMatrix, apply_symplectic,
                    basis_change_matrix, pack_index, partial_hadamard_matrix,
                    phase_matrix, transvection_matrix, vertex_split)
from .sampler import DesignSample

__all__ = [
    "DENSE_MAX_M",
    "pauli_unitary",
    "hermitian_pauli",
    "transvection_unitary",
    "hadamard_unitary",
    "partial_hadamard_unitary",
    "basis_unitary",
    "phase_unitary",
    "psl_unitary",
    "sample_unitary",
    "conjugation_check",
    "ConjugationFailure",
    "frame_potential",
    "frame_potential_estimate",
    "haar_frame_potential",
    "collision_frame_potential_3",
    "delta_frame_potential_3",
    "estimator_margin",
    "single_qubit_clifford_group",
    "kerdock_unitaries",
]


# dense synthesis is refused above this m (see the module docstring)
DENSE_MAX_M = 5


def _check_dense(m: int) -> None:
    if m > DENSE_MAX_M:
        raise ValueError(f"dense synthesis is capped at DENSE_MAX_M = "
                         f"{DENSE_MAX_M}; got m = {m}")


def _read_only_cache(build: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """``functools.cache`` on a generator constructor, storing its arrays
    read-only: each is a pure function of the arguments, shared process-wide."""
    def read_only(*args) -> np.ndarray:
        u = build(*args)
        u.flags.writeable = False
        return u
    return functools.cache(functools.wraps(build)(read_only))


@_read_only_cache
def pauli_unitary(ctx: FieldContext, p: Tuple[int, int]) -> np.ndarray:
    """The real monomial D(a, b); a permutation with +-1 signs (read-only)."""
    _check_dense(ctx.m)
    a, b = p
    db = pack_index(ctx, p) >> ctx.m  # |b|, the high half; refuses a bad (a, b)
    n = ctx.order
    v = np.arange(n)
    signs = 1.0 - 2.0 * (np.bitwise_count(v & db) & 1)
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[v ^ a, v] = signs
    return mat


def hermitian_pauli(ctx: FieldContext, p: Tuple[int, int]) -> np.ndarray:
    """E(a, b) = i^Tr(ab) D(a, b); Hermitian with E^2 = I."""
    a, b = p
    d = pauli_unitary(ctx, p)  # refuses p before the field product reads it
    return (1j ** ctx.trace(ctx.mul(a, b))) * d


@_read_only_cache
def transvection_unitary(ctx: FieldContext, h: Tuple[int, int]) -> np.ndarray:
    """(I + i E(h)) / sqrt(2); realizes the transvection Z_h (read-only)."""
    _check_dense(ctx.m)
    transvection_matrix(ctx, h)  # refuses what Z_h refuses
    e = hermitian_pauli(ctx, h)
    return (np.eye(e.shape[0]) + 1j * e) / math.sqrt(2.0)


_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


@_read_only_cache
def hadamard_unitary(m: int) -> np.ndarray:
    """H tensored m times (read-only)."""
    _check_dense(m)
    out = np.array([[1.0]])
    for _ in range(m):
        out = np.kron(out, _H2)
    return out.astype(np.complex128)


def partial_hadamard_unitary(m: int, t: int) -> np.ndarray:
    """Hadamard on coordinates 0..t-1 (the low label bits)."""
    partial_hadamard_matrix(m, t)  # refuses t outside [0, m]
    _check_dense(m)
    return np.kron(np.eye(1 << (m - t)), hadamard_unitary(t)).astype(np.complex128)


@_read_only_cache
def basis_unitary(m: int, q: Tuple[int, ...]) -> np.ndarray:
    """Permutation e_v -> e_{vQ} for invertible Q as m packed rows (read-only)."""
    _check_dense(m)
    basis_change_matrix(m, q)  # refuses Q unless it is invertible m x m
    n = 1 << m
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[f2_mat_mul(range(n), q), range(n)] = 1.0
    return mat


@_read_only_cache
def phase_unitary(m: int, p: Tuple[int, ...]) -> np.ndarray:
    """diag(i^(v P v^T mod 4)) for symmetric P as m packed rows (read-only)."""
    _check_dense(m)
    phase_matrix(m, p)  # refuses P unless it is symmetric m x m
    v = np.arange(1 << m)
    # v P v^T over the integers: sum_i v_i popcount(v & P_i)
    quad = sum(((v >> i) & 1) * np.bitwise_count(v & r) for i, r in enumerate(p)) % 4
    return np.diag(1j ** quad)


_GENERATORS = {
    "phase": phase_unitary,
    "basis": basis_unitary,
    "hadamard": hadamard_unitary,
}


def psl_unitary(ctx: FieldContext, g: PslElement) -> np.ndarray:
    """Unitary whose conjugation action is theta(g).

    The factor list multiplies in right-action order, so the unitary
    product runs over the factors reversed (the first factor acts first
    under conjugation, hence sits innermost).
    """
    _check_dense(ctx.m)
    out = np.eye(ctx.order, dtype=np.complex128)
    for factor in reversed(psl_factors(ctx, g)):
        out = out.dot(_GENERATORS[factor[0]](ctx.m, *factor[1:]))
    return out


def sample_unitary(ctx: FieldContext, s: DesignSample) -> np.ndarray:
    """E(pauli) . U(psl) . U(h_t) ... U(h_1): conjugation acts h_1 first,
    matching the sample's ``composed`` symplectic matrix.

    Each step is one ``ndarray.dot`` (one zgemm, as ``@``) of a stored
    ``transvection_unitary``.
    """
    out = psl_unitary(ctx, s.psl)
    for h in reversed(s.transvections):
        out = out.dot(transvection_unitary(ctx, h))
    return hermitian_pauli(ctx, s.pauli).dot(out)


class ConjugationFailure(Exception):
    """First Pauli index where U D(x) U+ deviates from a phase times D(xF)."""

    def __init__(self, index: PauliIndex, error: float):
        self.index = index
        self.error = error
        super().__init__(f"conjugation mismatch at index {tuple(index)}: "
                         f"residual {error:.3e}")


# entrywise tolerance of conjugation_check
_TOL = 1e-8


def conjugation_check(ctx: FieldContext, u: np.ndarray, f: SymplecticMatrix) -> None:
    """Assert U D(x) U+ = phase * D(x . F) for every nonzero index x.

    The phase must be a fourth root of unity within ``_TOL``; raises
    ConjugationFailure at the first offending index, in vertex-code order.
    """
    uh = u.conj().T
    for v in range(1, ctx.order ** 2):
        x = PauliIndex(*vertex_split(ctx.m, v))
        got = u @ pauli_unitary(ctx, x) @ uh
        want = pauli_unitary(ctx, apply_symplectic(ctx, f, x))
        k = np.argmax(np.abs(want))
        phase = got.flat[k] / want.flat[k]
        err = float(np.abs(got - phase * want).max())
        if err > _TOL or abs(abs(phase) - 1.0) > _TOL or \
                abs(phase ** 4 - 1.0) > 8 * _TOL:
            raise ConjugationFailure(x, max(err, abs(phase ** 4 - 1.0)))


# --- frame potentials ---


def frame_potential(unitaries: Sequence[np.ndarray], k: int) -> float:
    """The mean of |tr(U_i+ U_j)|^(2k) over all ordered pairs (i, j)."""
    return frame_potential_estimate(unitaries, k)[0]


# Gram cells per block of frame_potential_estimate, the budget of
# markov._GRID_CELLS: a block of max(1, _GRAM_CELLS // S) rows
_GRAM_CELLS = 1 << 17


def frame_potential_estimate(unitaries: Sequence[np.ndarray], k: int) -> Tuple[float, float]:
    """(F_hat, sigma_hat) for the uniform empirical frame potential.

    sigma_hat is the first-order (projection) standard error of the
    pair average: with h_i the mean of |tr(U_i+ U_j)|^(2k) over j,
    sigma^2 = 4 Var(h) / S.  Refuses a ``k`` that is not an int >= 1 and
    an empty ensemble with ValueError.
    """
    k = checked_int("k", k, 1)
    vecs = [np.asarray(u, dtype=np.complex128).ravel() for u in unitaries]
    if not vecs:
        raise ValueError("unitaries is empty; the frame potential needs at least one")
    vecs = np.stack(vecs)
    vecs_h = vecs.conj().T
    s = vecs.shape[0]
    rows = max(1, _GRAM_CELLS // s)
    row_means = np.empty(s)
    total = 0.0
    for lo in range(0, s, rows):
        g = np.abs(vecs[lo:lo + rows] @ vecs_h)
        g **= 2 * k
        row_means[lo:lo + rows] = g.mean(axis=1)
        total += float(g.sum())
    fhat = total / (s * s)
    var_h = float(((row_means - fhat) ** 2).sum()) / max(s - 1, 1)
    return fhat, 2.0 * math.sqrt(var_h / s)


def _partitions(k: int, max_part: int) -> Iterable[Tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _tableaux_count(shape: Tuple[int, ...]) -> int:
    k = sum(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= arm + leg + 1
    return math.factorial(k) // hooks


def haar_frame_potential(dim: int, k: int) -> int:
    """Moment of |tr U|^(2k) over the Haar measure: the number of pairs
    of standard Young tableaux on k boxes with at most ``dim`` rows."""
    return sum(_tableaux_count(shape) ** 2
               for shape in _partitions(k, k) if len(shape) <= dim)


# --- closed-form third frame potential of the walk ensemble ---


def _ordered_orbit_sizes(ctx: FieldContext, chain: str) -> Dict[object, int]:
    """(N^2 - 1) stationary_weights: each state's orbit size, up to a factor
    per chain (N for non-edges) that cancels in collision_frame_potential_3."""
    tm = q_empirical(ctx, chain)
    sizes = (ctx.order ** 2 - 1) * stationary_weights(tm)
    return dict(zip(tm.states, sizes.tolist()))


def collision_frame_potential_3(ctx: FieldContext, t: int) -> float:
    """Exact F_3 of the step-t ensemble (t transvections, then a uniform
    PSL element, then a uniform Pauli index).

    F_3 = E |Fix(G F^-1)|^2 over independent ensemble draws F, G of the
    symplectic part.  The fixed-vector count expands into per-vertex and
    per-ordered-pair collision probabilities; the vertex marginal is
    exactly uniform (PSL is transitive on nonzero index pairs), and pair
    image distributions are uniform on each diagonal-action orbit with
    orbit weights given by the lumped walk, so

        F_3(t) = 4 + sum_chains sum_start |start orbit| *
                     sum_orbit g_t(orbit)^2 / |orbit|

    with g_t the t-step lumped distribution out of the start orbit.
    """
    t = checked_int("t", t, 0)
    total = 4.0
    for chain in CHAINS:
        tm = q_empirical(ctx, chain)
        orbit_sizes = _ordered_orbit_sizes(ctx, chain)
        sizes = np.array([orbit_sizes[s] for s in tm.states], dtype=float)
        pt = np.linalg.matrix_power(tm.probs, t)
        total += float((sizes @ (pt ** 2 / sizes[None, :])).sum())
    return total


def delta_frame_potential_3(ctx: FieldContext, t: int) -> float:
    """F_3(t) - 6: the ensemble's exact excess over the 3-design value."""
    return collision_frame_potential_3(ctx, t) - 6.0


def estimator_margin(m: int, t: int, samples: int, sigma_hat: float,
                     ctx: Optional[FieldContext] = None) -> float:
    """Upper margin for the S-sample empirical F_3 above the value 6:
    diagonal inflation (N^6 - 6)/S, plus the exact ensemble excess at
    step t, plus 4 sigma_hat of estimator noise; refuses samples < 1."""
    ctx = ctx or FieldContext(m)
    if ctx.m != m:
        raise ValueError(f"field context has m={ctx.m}, the margin is for m={m}")
    samples = checked_int("samples", samples, 1)
    n = 1 << m
    return (float(n) ** 6 - 6.0) / samples \
        + max(0.0, delta_frame_potential_3(ctx, t)) + 4.0 * sigma_hat


# --- small reference ensembles ---


def single_qubit_clifford_group() -> List[np.ndarray]:
    """All 24 single-qubit Clifford unitaries, phase-canonicalized."""
    s_gate = np.diag([1.0, 1j])
    seen: Dict[tuple, np.ndarray] = {}

    def canon(u: np.ndarray) -> np.ndarray:
        k = np.argmax(np.abs(u) > 1e-9)
        u = u / (u.flat[k] / abs(u.flat[k]))
        return u

    def key(u: np.ndarray) -> tuple:
        return tuple(np.round(canon(u).ravel(), 9).tolist())

    frontier = [np.eye(2, dtype=np.complex128)]
    seen[key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (_H2, s_gate):
                v = g @ u
                k = key(v)
                if k not in seen:
                    seen[k] = canon(v)
                    nxt.append(v)
        frontier = nxt
    return list(seen.values())


def kerdock_unitaries(ctx: FieldContext) -> List[np.ndarray]:
    """The exact step-0 ensemble: every PSL unitary, left-multiplied by
    every Hermitian Pauli (identity included)."""
    psl_us = [psl_unitary(ctx, g) for g in psl_elements(ctx)]
    n = ctx.order
    paulis = [hermitian_pauli(ctx, (a, b)) for a in range(n) for b in range(n)]
    return [d @ u for u in psl_us for d in paulis]
