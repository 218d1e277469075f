"""Orbit-level Markov chains of the random-transvection walk.

One step applies a uniformly random nonzero transvection Z_h to both
members of an ordered Pauli pair.  Z_h is symplectic, so commutation is
preserved and the walk splits into an edge chain and a non-edge chain.
Because the step is followed (conceptually) by a uniform PSL element,
which randomizes within each orbit, the walk projects exactly onto the
orbit invariants; the projected transition matrices are

    Q1 = [(N^2-4) I + 6N J] / (4(N^2-1))              (non-edge orbits)

    Q0 = [ (N^2-4) I_{M1}        N R^T             ]
         [ R                     (N^2-4) I + 6N J  ] / (4(N^2-1))

with M1 = N-2 type-1 states first, M2 = (N-2)/2 type-2 states after, and

    R[d, x] = 4 (Tr(dx) + Tr(d/x) + Tr(d/(1+x)))

for the determinant d of a type-2 row and the ratio x of a type-1
column.  Every type-2 determinant has trace 0, so each of the three
trace bits is 1 on N/2 of the N-2 ratios and R's rows sum to 6N; its
columns sum to 3N.  All matrices are held as integer numerators over
the single denominator 4(N^2-1); each chain is checked by one exact
equality with its closed form, with floating point entering only
through the eigensolver.

``q_empirical`` counts each row of an orbit chain through the
determinant identity.  For a pair (v, w) with D = det(v, w) and a
transvection h, write x = det(w, h) and y = det(v, h); then t_w = Tr x,
t_v = Tr y, and the image (v + t_v h, w + t_w h) has

    det' = D + t_w y + t_v x,

exactly, because det is symmetric and bilinear over the field and
det(h, h) = 2 h1 h2 = 0.  x and y are GF(2)-linear in h = h1 | h2 << m,
so over all h they are outer XORs of two length-N vectors.  A nonzero
det' names the image's orbit (non-edge or type 2) without applying
Z_h; only a det' = 0 image needs applying, for its type-1 ratio, and
only for a type-2 pair, since a type-1 pair has det' = 0 exactly on the
images Z_h fixes.  ``full_chain`` and ``lump_chain`` (m <= 3), which
apply every transvection to every pair, and the brute-force test over
scalar ``apply_transvection`` remain the independent routes to the same
matrices.
``closed_form_failures`` is the one check of an orbit chain against its
closed form.  Chain names, states, pair masks and state JSON are ``graph``'s:
``CHAINS``, ``chain_states``, ``chain_mask`` and ``state_obj``/``state_from_obj``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .gf2m import MAX_M, MIN_M, FieldContext, checked_int, element_dtype
from .graph import (ORBIT_KEY_SPACE, EdgeKind, OrbitInvariant, PauliPair,
                    chain_mask, chain_states, determinant_keys,
                    orbit_invariant, orbit_invariant_vec, orbit_key,
                    orbit_representative, orbit_states, pair_code,
                    state_from_obj, state_name, state_obj, xor_grid)
from .pauli import PauliIndex, vertex_code, vertex_split, walk_pairs

__all__ = [
    "TransitionMatrix",
    "parse_csv_probs",
    "SpectralReport",
    "q1_closed_form",
    "q0_closed_form",
    "transvection_counts",
    "q_empirical",
    "extract_r",
    "stationary_weights",
    "stationary_check",
    "lambda_q1_closed",
    "lambda_q0_bound",
    "spectral_report",
    "closed_form_failures",
    "mixing_time_bound",
    "mixing_time_report",
    "tv_curve",
    "tv_curve_exact",
    "full_chain",
    "lump_chain",
    "FULL_CHAIN_MAX_M",
    "EMPIRICAL_MAX_M",
]

FULL_CHAIN_MAX_M = 3
EMPIRICAL_MAX_M = 8

State = Union[OrbitInvariant, PauliPair]


@dataclass
class TransitionMatrix:
    """Row-stochastic matrix as integer numerators over one denominator."""

    states: List[State]
    numerators: np.ndarray
    denominator: int

    def __post_init__(self) -> None:
        self.numerators = np.asarray(self.numerators, dtype=np.int64)
        k = len(self.states)
        if self.numerators.shape != (k, k):
            raise ValueError("numerator matrix shape does not match states")
        if (self.numerators < 0).any():
            raise ValueError("negative transition numerator")
        sums = self.numerators.sum(axis=1)
        if not (sums == self.denominator).all():
            raise ValueError(f"rows must sum to {self.denominator}, got {sums}")

    def __eq__(self, other: object) -> bool:
        """Exact: the same states in order, denominator and numerators."""
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return (self.states == other.states and self.denominator == other.denominator
                and np.array_equal(self.numerators, other.numerators))

    @property
    def probs(self) -> np.ndarray:
        """Floating-point view."""
        return self.numerators / float(self.denominator)

    # -- serialization --

    def to_json(self) -> str:
        return json.dumps({
            "denominator": self.denominator,
            "states": [state_obj(s) for s in self.states],
            "numerators": self.numerators.tolist(),
        }, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TransitionMatrix":
        obj = json.loads(text)
        return cls(states=[state_from_obj(s) for s in obj["states"]],
                   numerators=np.asarray(obj["numerators"], dtype=np.int64),
                   denominator=int(obj["denominator"]))

    def to_csv(self) -> str:
        """Floating view with one header row of state names."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([state_name(s) for s in self.states])
        for row in self.probs:
            writer.writerow([repr(float(x)) for x in row])
        return out.getvalue()


def parse_csv_probs(text: str) -> Tuple[List[str], np.ndarray]:
    """Inverse of TransitionMatrix.to_csv up to the floating view: a route
    that reads the chain CSV back."""
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


# --- closed forms ---


def _q1_block(n: int, k: int) -> np.ndarray:
    """The k x k numerator block (N^2-4) I + 6N J of Q1, shared by Q0."""
    return (n * n - 4) * np.eye(k, dtype=np.int64) + 6 * n


def _closed_form_cap(ctx: FieldContext, name: str) -> None:
    if ctx.m > EMPIRICAL_MAX_M:
        raise ValueError(f"the closed-form {name} is capped at m = {EMPIRICAL_MAX_M}, "
                         f"as the orbit chains it is checked against are")


def q1_closed_form(ctx: FieldContext) -> TransitionMatrix:
    """Non-edge orbit chain: [(N^2-4) I + 6N J] / (4(N^2-1)); its (N/2)^2
    numerators are refused above EMPIRICAL_MAX_M, as q_empirical's are."""
    _closed_form_cap(ctx, "Q1")
    n = ctx.order
    return TransitionMatrix(states=orbit_states(ctx, EdgeKind.NON_EDGE),
                            numerators=_q1_block(n, n // 2),
                            denominator=4 * (n * n - 1))


def q0_closed_form(ctx: FieldContext) -> TransitionMatrix:
    """Edge orbit chain: the blocks of the module docstring, with R built as
    one (M2, M1) grid of trace bits, in ``chain_states`` order; refused
    above EMPIRICAL_MAX_M, as q1_closed_form is."""
    _closed_form_cap(ctx, "Q0")
    n = ctx.order
    states = chain_states(ctx, "edges")
    x = np.array([s.value for s in states if s.kind == EdgeKind.TYPE1])
    d = np.array([s.value for s in states if s.kind == EdgeKind.TYPE2])[:, None]
    tr = ctx.np_table("trace").astype(np.int64)
    r = 4 * (tr[ctx.mul_vec(d, x)] + tr[ctx.div_vec(d, x)] + tr[ctx.div_vec(d, 1 ^ x)])
    numerators = np.block([[(n * n - 4) * np.eye(n - 2, dtype=np.int64), n * r.T],
                           [r, _q1_block(n, len(d))]])
    return TransitionMatrix(states=states, numerators=numerators,
                            denominator=4 * (n * n - 1))


def lambda_q1_closed(m: int) -> float:
    """Second eigenvalue of Q1: (N^2-4)/(4(N^2-1)), multiplicity N/2 - 1."""
    nsq = 1 << (2 * m)
    return (nsq - 4) / (4 * (nsq - 1))


def lambda_q0_bound(m: int) -> float:
    """Analytic upper bound on the second eigenvalue of Q0:
    (N^2 - 4 + 3N sqrt(2N)) / (4(N^2-1))."""
    n = 1 << m
    return (n * n - 4 + 3 * n * math.sqrt(2 * n)) / (4 * (n * n - 1))


# --- empirical chains by transvection enumeration ---


# grid cells (pairs x transvections) per pass of _determinant_images; it
# bounds the pass's temporaries to a few MB at every m
_GRID_CELLS = 1 << 17


def _determinant_images(ctx: FieldContext, a, b, c, d, det):
    """det' of the image of each pair v = (a, b), w = (c, d) with
    determinant ``det`` under every Z_h, h = 0 included, through the
    determinant identity of the module docstring.  Returns the (R, N)
    histogram of det' per pair and the (pair, h) arrays of the images
    with det' = 0 of the pairs with det != 0."""
    n, dtype = ctx.order, element_dtype(ctx.m)
    field = np.arange(n)
    ones = dtype.type(0) - ctx.np_table("trace").astype(dtype)  # all-ones where Tr = 1
    hist = np.empty((len(a), n), dtype=np.int64)
    zero_pair, zero_h = [], []
    step = max(1, _GRID_CELLS // (n * n))
    for lo in range(0, len(a), step):
        part = slice(lo, lo + step)
        # x = det(w, h) = c h2 + d h1 and y = det(v, h) = a h2 + b h1
        xc, xd, ya, yb = (ctx.mul_vec(z[part][:, None], field) for z in (c, d, a, b))
        shift = ((xor_grid(ones[xc], ones[xd]) & xor_grid(ya, yb))
                 ^ (xor_grid(ones[ya], ones[yb]) & xor_grid(xc, xd)))  # t_w y + t_v x
        offset = det[part].astype(np.intp) + np.arange(len(xc)) * n
        hist[part] = np.bincount((offset[:, None] ^ shift).ravel(),
                                 minlength=len(xc) * n).reshape(-1, n)
        # search only rows with det != 0 whose histogram counts a det' = 0
        # image; no non-edge row has one
        moved = np.flatnonzero((det[part] != 0) & (hist[part][:, 0] > 0))
        i, h = np.nonzero(shift[moved] == det[part][moved, None])
        zero_pair.append(lo + moved[i])
        zero_h.append(h)
    return hist, np.concatenate(zero_pair), np.concatenate(zero_h)


def _state_columns(states: Sequence[OrbitInvariant]) -> np.ndarray:
    """The column of each state's orbit key, indexed by the key; every
    other key maps to column len(states)."""
    col_of_key = np.full(ORBIT_KEY_SPACE, len(states), dtype=np.intp)
    col_of_key[[orbit_key(s.kind, s.value) for s in states]] = np.arange(len(states))
    return col_of_key


def transvection_counts(ctx: FieldContext, chain: str,
                        representatives: Optional[Sequence[PauliPair]] = None
                        ) -> Tuple[List[OrbitInvariant], np.ndarray]:
    """Raw per-orbit transvection image counts; each row sums to N^2 - 1.

    Row i counts the images of the i-th representative (by default one
    pair per state, in state order) under the N^2 - 1 transvections, by
    the state of the image.  ``representatives`` overrides the defaults
    (used to verify that the reduction to orbits is
    representative-independent); one with an entry outside [0, N), or
    whose images leave the chain, raises ValueError.
    """
    if ctx.m > EMPIRICAL_MAX_M:
        raise ValueError(f"orbit chain enumeration capped at m = {EMPIRICAL_MAX_M}")
    states = chain_states(ctx, chain)
    if representatives is None:
        representatives = [orbit_representative(ctx, s) for s in states]
    k = len(states)
    col_of_key = _state_columns(states)
    a, b, c, d = np.array(
        [ctx.field_entries("representative", (*p, *q), f"{state_name((p, q))} (row {i})")
         for i, (p, q) in enumerate(representatives)],
        dtype=element_dtype(ctx.m)).reshape(-1, 4).T
    det = ctx.mul_vec(a, d) ^ ctx.mul_vec(b, c)
    hist, moved, h = _determinant_images(ctx, a, b, c, d, det)
    counts = np.zeros((len(a), k + 1), dtype=np.int64)
    # det' != 0: the determinant is the image's orbit
    np.add.at(counts.T, col_of_key[determinant_keys(ctx)][1:], hist[:, 1:].T)
    # h = 0 is in the grid, as the pair itself.  A type-1 pair v = r w
    # (det = 0, r != 0, 1) has det' = 0 exactly on the images Z_h fixes:
    # a moved image has det' = x, r x or (1 + r) x with Tr x or Tr(r x) = 1.
    # Any other det = 0 "pair" (a zero or repeated vertex) has an own key
    # outside every chain.
    own = col_of_key[orbit_invariant_vec(ctx, a, b, c, d)]
    counts[np.arange(len(a)), own] += np.where(det == 0, hist[:, 0], 0) - 1
    # the det' = 0 images of det != 0 pairs are moved: classify by ratio
    keys = orbit_invariant_vec(ctx, *walk_pairs(ctx, [h], a[moved], b[moved]),
                               *walk_pairs(ctx, [h], c[moved], d[moved]))
    np.add.at(counts, (moved, col_of_key[keys]), 1)
    outside = np.flatnonzero(counts[:, k])
    if len(outside):
        row = int(outside[0])
        raise ValueError(f"representative {state_name(representatives[row])} (row {row}) "
                         f"is not in the {chain!r} chain: its transvection images "
                         f"leave it")
    return states, counts[:, :k]


def q_empirical(ctx: FieldContext, chain: str) -> TransitionMatrix:
    """Orbit chain built by enumerating all N^2 - 1 transvections."""
    states, counts = transvection_counts(ctx, chain)
    return TransitionMatrix(states=states, numerators=4 * counts,
                            denominator=4 * (ctx.order ** 2 - 1))


# --- the R block ---


def extract_r(tm: TransitionMatrix) -> np.ndarray:
    """The R block: numerators of the type-2 -> type-1 transitions."""
    m1 = sum(1 for s in tm.states if s.kind == EdgeKind.TYPE1)
    return tm.numerators[m1:, :m1].copy()


# --- exact stationary identity ---


def stationary_weights(tm: TransitionMatrix) -> np.ndarray:
    """Integer left fixed vector: orbit sizes up to scale.

    Non-edge chain: all ones.  Edge chain: 1 per type-1 state, N per
    type-2 state (type-2 orbits are N times larger).
    """
    n = math.isqrt(tm.denominator // 4 + 1)  # N, read off the denominator 4(N^2-1)
    return np.array([1 if getattr(s, "kind", None) != EdgeKind.TYPE2 else n
                     for s in tm.states], dtype=np.int64)


def stationary_check(tm: TransitionMatrix) -> bool:
    """w Q = w exactly in integers for the stationary weight vector."""
    w = stationary_weights(tm)
    return bool(np.array_equal(w @ tm.numerators, tm.denominator * w))


# --- spectra ---


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray  # sorted descending by real part
    lambda2: float
    lambda_min: float
    gap: float
    stationary: np.ndarray

    def to_json(self) -> str:
        return json.dumps({
            "eigenvalues_real": [float(x.real) for x in self.eigenvalues],
            "eigenvalues_imag": [float(x.imag) for x in self.eigenvalues],
            "lambda2": self.lambda2,
            "lambda_min": self.lambda_min,
            "gap": self.gap,
            "stationary": self.stationary.tolist(),
        }, sort_keys=True) + "\n"


# spectral_report refuses a negative stationary mass below -_EIG_TOL, and
# a leading eigenvalue or stationary residual off by more than its root
_EIG_TOL = 1e-10


def spectral_report(tm: TransitionMatrix) -> SpectralReport:
    q = tm.probs
    try:
        eigvals, left = np.linalg.eig(q.T)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed on {q.shape} matrix: {exc}") from exc
    order = np.argsort(-eigvals.real)
    eigvals = eigvals[order]
    left = left[:, order]
    if abs(eigvals[0] - 1.0) > math.sqrt(_EIG_TOL):
        raise ValueError(f"leading eigenvalue {eigvals[0]} is not 1")
    pi = left[:, 0].real
    pi = pi / pi.sum()
    if pi.min() < -_EIG_TOL:
        raise ValueError(f"stationary distribution has negative mass: {pi}")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.abs(pi @ q - pi).max())
    if residual > math.sqrt(_EIG_TOL):
        raise ValueError(f"stationary residual {residual} too large")
    lambda2 = float(eigvals[1].real) if len(eigvals) > 1 else float("-inf")
    lambda_min = float(eigvals[-1].real)
    return SpectralReport(eigenvalues=eigvals,
                          lambda2=lambda2,
                          lambda_min=lambda_min,
                          gap=min(1.0 - lambda2, 1.0 + lambda_min),
                          stationary=pi)


def closed_form_failures(ctx: FieldContext, tm: TransitionMatrix) -> List[str]:
    """["closed-form"] if an orbit chain is not its closed form (Q1 for
    non-edges, Q0 for edges, the chain read off its first state), else [].
    Refuses a chain whose first state is not an orbit invariant."""
    if not isinstance(tm.states[0], OrbitInvariant):
        raise ValueError(f"state {state_name(tm.states[0])} is no orbit invariant; "
                         "lump the full chain first")
    closed = q1_closed_form if tm.states[0].kind == EdgeKind.NON_EDGE else q0_closed_form
    return [] if closed(ctx) == tm else ["closed-form"]


# --- mixing time ---


def mixing_time_bound(m: int, eps: float) -> int:
    """ceil((1/Delta) ln(N^3 (N^2-4) / (2 eps))) with the analytic Delta.

    Delta = 1 - lambda_q0_bound(m); the ln argument folds the worst-case
    start through the minimum stationary mass 2/(N^2-4) at accuracy
    eps/N^3.  Refuses an m that no ``FieldContext`` accepts.
    """
    m = checked_int("m", m, MIN_M, MAX_M)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    n = 1 << m
    delta = 1.0 - lambda_q0_bound(m)
    return math.ceil(math.log(n ** 3 * (n * n - 4) / (2 * eps)) / delta)


def mixing_time_report(m: int, eps: float) -> Dict[str, float]:
    """The bound plus its ingredients and the large-N simplified variant.

    ``approx_variant`` replaces 1/Delta by 4/3 (the large-N limit of the
    analytic gap); it is reported for comparison, not used anywhere.
    """
    bound = mixing_time_bound(m, eps)  # checks m and eps before the logarithm
    n = 1 << m
    log_term = math.log(n ** 3 * (n * n - 4) / (2 * eps))
    return {
        "m": m,
        "eps": eps,
        "lambda_q0_bound": lambda_q0_bound(m),
        "delta": 1.0 - lambda_q0_bound(m),
        "pi_star": 2.0 / (n * n - 4),
        "log_term": log_term,
        "bound": bound,
        "approx_variant": math.ceil(log_term * 4.0 / 3.0),
    }


def tv_curve(tm: TransitionMatrix, start, t_max: int) -> np.ndarray:
    """Total-variation distances 0.5 |s Q^t - pi|_1 for t = 0..t_max.

    ``start`` is a probability vector or an (S, k) stack of them (one
    curve per row, pi from one eigensolve); rows propagate one by one,
    so a stacked curve is bit-identical to its row's curve alone.
    """
    q = tm.probs
    starts = np.ascontiguousarray(start, dtype=float)
    rows = np.atleast_2d(starts)
    # a NaN compares False both ways, so finiteness is checked on its own
    if starts.ndim > 2 or rows.shape[1] != len(tm.states) or not np.isfinite(rows).all() \
            or rows.min() < 0 or (np.abs(rows.sum(axis=1) - 1.0) > 1e-12).any():
        raise ValueError("start must be probability vectors over the states")
    t_max = checked_int("t_max", t_max, 0)
    pi = spectral_report(tm).stationary
    out = np.empty((len(rows), t_max + 1))
    for curve, s in zip(out, rows):
        for t in range(t_max + 1):
            curve[t] = 0.5 * np.abs(s - pi).sum()
            s = s @ q
    return out if starts.ndim == 2 else out[0]


def tv_curve_exact(tm: TransitionMatrix, start_index: int, t_max: int) -> List[Fraction]:
    """Exact-rational TV curve from a point mass.

    Float propagation bottoms out near 1e-15 long before the true curve
    does (at m=3 the true TV is ~1e-24 by step 38), so per-step decay
    ratios are only meaningful in exact arithmetic.  Refuses a
    ``start_index`` that is not an int in [0, k).
    """
    k = len(tm.states)
    start_index = checked_int("start_index", start_index, 0, k - 1)
    t_max = checked_int("t_max", t_max, 0)
    num = tm.numerators.tolist()
    den = tm.denominator
    w = stationary_weights(tm)
    total = int(w.sum())
    pi = [Fraction(int(x), total) for x in w]
    s = [Fraction(1 if j == start_index else 0) for j in range(k)]
    out = []
    for _ in range(t_max + 1):
        out.append(sum(abs(s[j] - pi[j]) for j in range(k)) / 2)
        s = [sum(s[i] * num[i][j] for i in range(k)) / den for j in range(k)]
    return out


# --- full pair-level chains and exact lumping ---


def full_chain(ctx: FieldContext, chain: str) -> TransitionMatrix:
    """The transvection walk on all ordered pairs of one class (m <= 3)."""
    if ctx.m > FULL_CHAIN_MAX_M:
        raise ValueError(f"full chain capped at m = {FULL_CHAIN_MAX_M}")
    n = ctx.order
    # all ordered pairs (v, w) of distinct nonzero codes in the class
    vs, ws = (x.astype(np.uint32) for x in np.nonzero(chain_mask(ctx, chain)))
    k = len(vs)
    code_to_idx = np.full(n ** 4, -1, dtype=np.int64)
    code_to_idx[pair_code(ctx.m, vs, ws)] = np.arange(k)

    h = np.arange(1, n * n, dtype=np.uint32)[None, :]
    a, b = vertex_split(ctx.m, vs)
    c, d = vertex_split(ctx.m, ws)
    ia, ib = walk_pairs(ctx, [h], a[:, None], b[:, None])
    ic, id_ = walk_pairs(ctx, [h], c[:, None], d[:, None])
    img_code = pair_code(ctx.m, vertex_code(ctx.m, ia, ib), vertex_code(ctx.m, ic, id_))
    cols = code_to_idx[img_code]
    if (cols < 0).any():
        raise AssertionError("transvection image left the pair class")
    # one count per (row, image column): flat index row * k + col
    cols += np.arange(0, k * k, k)[:, None]
    counts = np.bincount(cols.ravel(), minlength=k * k).reshape(k, k)

    states = list(map(PauliPair, map(PauliIndex, a.tolist(), b.tolist()),
                      map(PauliIndex, c.tolist(), d.tolist())))
    counts *= 4  # in place: at m = 3 a copy would be another 30 MB
    return TransitionMatrix(states=states, numerators=counts,
                            denominator=4 * (n * n - 1))


def lump_chain(ctx: FieldContext, full: TransitionMatrix) -> TransitionMatrix:
    """Project a full pair chain onto orbit invariants; exact or raises.

    Every state of one orbit must send identical total mass to each
    orbit — that is what makes the projection a Markov chain at all —
    and the identity of those row sums is checked exactly.  The class is
    read off the first pair; a pair of the other class, an orbit of the
    class with no pair, and an orbit whose rows differ are refused, the
    first pair or orbit in order named.
    """
    first = orbit_invariant(ctx, full.states[0])
    chain = "edges" if first.kind != EdgeKind.NON_EDGE else "nonedges"
    states = chain_states(ctx, chain)
    k = len(states)
    a, b, c, d = np.array(full.states, dtype=element_dtype(ctx.m)).reshape(-1, 4).T
    member_cols = _state_columns(states)[orbit_invariant_vec(ctx, a, b, c, d)]
    outside = np.flatnonzero(member_cols == k)
    if len(outside):
        raise ValueError(f"state {state_name(full.states[outside[0]])} "
                         f"is not in the {chain} chain")
    # the first pair of each orbit, which every other pair of it must match
    orbits, first_rows = np.unique(member_cols, return_index=True)
    if len(orbits) < k:
        empty = np.setdiff1d(np.arange(k), orbits)[0]
        raise ValueError(f"the full chain has no pair in orbit {states[empty]}")
    # each row's mass per orbit, summed over its nonzero entries only (at
    # most N^2 - 1 a row); np.flatnonzero of the boolean mask is about
    # three times as fast as np.nonzero of the 2-D int64 matrix
    rows, cols = np.divmod(np.flatnonzero(full.numerators != 0), len(full.states))
    lumped = np.zeros((len(full.states), k), dtype=np.int64)
    np.add.at(lumped, (rows, member_cols[cols]), full.numerators[rows, cols])
    differs = (lumped != lumped[first_rows[member_cols]]).any(axis=1)
    if differs.any():
        raise ValueError(f"chain is not lumpable over orbit "
                         f"{states[member_cols[differs].min()]}")
    return TransitionMatrix(states=states, numerators=lumped[first_rows],
                            denominator=full.denominator)
