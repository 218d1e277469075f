"""The directed Pauli graph and its orbit taxonomy.

Vertices are the N^2 - 1 nonzero Pauli indices; an ordered pair of
distinct vertices is an edge when the two Paulis commute and a non-edge
when they anticommute.  Writing the pair ((a,b),(c,d)) as a 2x2 field
matrix, commutation is Tr(det) = Tr(ad + bc) = 0, and the graph is
strongly regular with parameters

    (N^2 - 1,  N^2/2 - 2,  N^2/4 - 3,  N^2/4 - 1).

Edges split into type 1 (det = 0: both vertices in the same maximal
commutative subgroup) and type 2 (det != 0 with trace 0).  Under the
diagonal right action of SL(2, 2^m) the complete orbit invariant is the
determinant for non-edges and type-2 edges, and the row ratio for
type-1 edges; the orbit census is closed-form:

    N/2        non-edge orbits, size (N^2-1)N   (trace-1 determinants)
    (N-2)/2    type-2 orbits,   size (N^2-1)N   (nonzero trace-0 dets)
    N-2        type-1 orbits,   size  N^2-1     (ratios in F minus {0,1})

``census`` verifies all of this by exhaustive enumeration for m <= 6
(CENSUS_MAX_M) and reports the closed forms alone beyond that.  It reads
the determinants of a block of first vertices against every vertex from
``xor_grid``, the determinant grid ``chain_mask`` and ``markov`` also
read; its reports name each kind by ``EdgeKind``'s name in lower case.
``pair_determinant`` owns the determinant and the pair check (two distinct
nonzero Pauli indices of field elements in [0, N)); ``orbit_invariant``
and ``classify_pair`` read it.
``CHAINS`` names the two pair classes as the walk's chains;
``chain_states`` and ``chain_mask`` give their orbit states and pair
masks (the class of a pair is CHAINS[Tr(det)]), and refuse any other
name.

This module owns the pair code ``v * N^2 + w`` of two vertex codes and
the orbit key ``kind * 2^16 + value`` made by ``orbit_key`` (for whole
pairs ``orbit_invariant_vec``, for nonzero determinants
``determinant_keys``), which ``orbit_counts`` turns back into per-orbit
counts, and the JSON form of a chain state, written by ``state_obj`` and
read by ``state_from_obj``.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ._workers import ordered_map
from .gf2m import MIN_M, FieldContext, checked_int
from .pauli import PauliIndex, vertex_split

__all__ = [
    "EdgeKind",
    "PauliPair",
    "OrbitInvariant",
    "classify_pair",
    "pair_determinant",
    "orbit_invariant",
    "orbit_invariant_vec",
    "orbit_key",
    "determinant_keys",
    "xor_grid",
    "pair_code",
    "pair_split",
    "orbit_counts",
    "ORBIT_KEY_SPACE",
    "CHAINS",
    "chain_states",
    "chain_mask",
    "srg_parameters",
    "srg_check",
    "orbit_states",
    "orbit_representative",
    "state_name",
    "state_obj",
    "state_from_obj",
    "closed_form_counts",
    "CensusReport",
    "census",
    "parse_census",
    "CENSUS_MAX_M",
]

CENSUS_MAX_M = 6
# the two pair classes, as the walk's chains: commuting, anticommuting
CHAINS = ("edges", "nonedges")


class EdgeKind(enum.IntEnum):
    NON_EDGE = 0
    TYPE1 = 1
    TYPE2 = 2


class PauliPair(NamedTuple):
    """Ordered pair of distinct nonzero Pauli indices (a 2x2 field matrix)."""

    first: PauliIndex
    second: PauliIndex


class OrbitInvariant(NamedTuple):
    """Complete invariant of the diagonal SL(2) right action on pairs."""

    kind: EdgeKind
    value: int


# --- pair codes and orbit keys ---

# an orbit key holds the value (a field element, m <= 16) in its low 16 bits
ORBIT_KEY_SPACE = len(EdgeKind) << 16
_KINDS = tuple(EdgeKind)


def orbit_key(kind, value):
    """The orbit key kind * 2^16 + value: an int for ints, a uint32
    array for arrays."""
    if isinstance(kind, np.ndarray) or isinstance(value, np.ndarray):
        return (np.asarray(kind, dtype=np.uint32) << 16) | value
    return int(kind) << 16 | value


def pair_code(m: int, v, w):
    """The pair code v * N^2 + w of the ordered pair of vertex codes
    (v, w): an int for ints; for arrays an int64 array, uint64 at m = 16,
    where N^4 exceeds int64."""
    nsq = 1 << (2 * m)
    if isinstance(v, np.ndarray) or isinstance(w, np.ndarray):
        return np.multiply(v, nsq, dtype=np.int64 if m < 16 else np.uint64) + w
    return v * nsq + w


def pair_split(m: int, code):
    """The vertex codes (v, w) of the pair code v * N^2 + w."""
    return divmod(code, 1 << (2 * m))


def orbit_counts(keys, weights=None) -> Dict[OrbitInvariant, int]:
    """Count per orbit of an array of orbit keys, in key order; with
    ``weights`` (integers, exact below 2^53) each key counts its weight."""
    hist = np.bincount(np.ravel(keys), weights)
    nz = np.flatnonzero(hist)
    return {OrbitInvariant(_KINDS[k >> 16], k & 0xFFFF): c
            for k, c in zip(nz.tolist(), hist[nz].astype(np.int64).tolist())}


def pair_determinant(ctx: FieldContext, pair: PauliPair) -> int:
    """det(a b; c d) = ad + bc, the field-valued commutation witness;
    refuses a pair with a zero or repeated entry or one outside [0, N)."""
    (a, b), (c, d) = pair
    a, b, c, d = ctx.field_entries("pair", (a, b, c, d), ((a, b), (c, d)))
    if (a == 0 and b == 0) or (c == 0 and d == 0):
        raise ValueError("pair entries must be nonzero Pauli indices")
    if (a, b) == (c, d):
        raise ValueError("pair entries must be distinct")
    return ctx.mul(a, d) ^ ctx.mul(b, c)


def classify_pair(ctx: FieldContext, pair: PauliPair) -> EdgeKind:
    return orbit_invariant(ctx, pair).kind


def orbit_invariant(ctx: FieldContext, pair: PauliPair) -> OrbitInvariant:
    """(kind, det) for non-edges and type-2 edges; (TYPE1, a/c or b/d) else."""
    det = pair_determinant(ctx, pair)
    if ctx.trace(det) == 1:
        return OrbitInvariant(EdgeKind.NON_EDGE, det)
    if det != 0:
        return OrbitInvariant(EdgeKind.TYPE2, det)
    (a, b), (c, d) = pair
    return OrbitInvariant(EdgeKind.TYPE1, ctx.div(a, c) if c != 0 else ctx.div(b, d))


def orbit_invariant_vec(ctx: FieldContext, a, b, c, d):
    """The uint32 orbit key kind * 2^16 + value of each pair (a, b), (c, d),
    through ``mul_vec``/``div_vec``: ``determinant_keys`` at a nonzero det,
    else (TYPE1, ratio), (TYPE1, 0) for a zero second vertex.  Only the
    det = 0 lanes, about 1 in N, are divided."""
    det = ctx.mul_vec(a, d) ^ ctx.mul_vec(b, c)
    keys = determinant_keys(ctx)[det]
    zero = np.nonzero(det == 0)
    a, b, c, d = (np.broadcast_to(x, det.shape)[zero] for x in (a, b, c, d))
    c_nz = c != 0
    ratio = ctx.div_vec(np.where(c_nz, a, b), np.where(c_nz, c, d))
    # with c = d = 0 the ratio would be b/0; the ratio wanted there is 0
    keys[zero] = orbit_key(EdgeKind.TYPE1, np.where(c_nz | (d != 0), ratio, 0))
    return keys


def determinant_keys(ctx: FieldContext) -> np.ndarray:
    """The (N,) uint32 orbit key of a pair with nonzero determinant,
    indexed by the determinant: (NON_EDGE, det) at trace 1, (TYPE2, det)
    at trace 0.  Entry 0 is the key of no orbit; a type-1 pair's key
    needs its ratio."""
    kind = np.where(ctx.np_table("trace") == 1, EdgeKind.NON_EDGE, EdgeKind.TYPE2)
    return orbit_key(kind, np.arange(ctx.order, dtype=np.uint32))


def xor_grid(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (R, N^2) grid p[:, h2] ^ q[:, h1] at column h = h1 | h2 << m,
    of two (R, N) arrays.  With p = x * F and q = y * F over the field F,
    row i is det((x_i, y_i), h) = x_i h2 + y_i h1 against every vertex h."""
    r, n = p.shape
    return (p[:, :, None] ^ q[:, None, :]).reshape(r, n * n)


def _block_determinants(ctx: FieldContext, a, b) -> np.ndarray:
    """The (R, N^2) determinants det(v, w) = ad + bc of R first vertices
    v = (a, b) against every vertex w = c | d << m: ``xor_grid(a * F, b * F)``."""
    field = np.arange(ctx.order)
    return xor_grid(ctx.mul_vec(a[:, None], field), ctx.mul_vec(b[:, None], field))


def srg_parameters(m: int) -> Tuple[int, int, int, int]:
    """(n, t, lambda, mu) = (N^2-1, N^2/2-2, N^2/4-3, N^2/4-1), for an int m >= 2."""
    nsq = 1 << 2 * checked_int("m", m, MIN_M)
    return (nsq - 1, nsq // 2 - 2, nsq // 4 - 3, nsq // 4 - 1)


def _check_chain(chain: str) -> None:
    if chain not in CHAINS:
        raise ValueError(f"chain must be 'edges' or 'nonedges', got {chain!r}")


def chain_mask(ctx: FieldContext, chain: str) -> np.ndarray:
    """Boolean (N^2, N^2): [v, w] is True for distinct nonzero codes
    v = a | b << m, w = c | d << m whose pair is in ``chain`` (m <=
    CENSUS_MAX_M).  det(v, w) = ad + bc is the census's block grid,
    and the pair's class is CHAINS[Tr(det)]."""
    _check_chain(chain)
    if ctx.m > CENSUS_MAX_M:
        raise ValueError(f"the chain mask is capped at m = {CENSUS_MAX_M}")
    a, b = vertex_split(ctx.m, np.arange(ctx.order ** 2, dtype=np.uint32))
    mask = ctx.np_table("trace")[_block_determinants(ctx, a, b)] == CHAINS.index(chain)
    mask[0, :] = mask[:, 0] = False
    np.fill_diagonal(mask, False)
    return mask


def srg_check(ctx: FieldContext) -> Tuple[int, int, int, int]:
    """Strong-regularity parameters measured on the explicit adjacency matrix.

    Raises if the graph is not strongly regular (non-constant degree or
    common-neighbour counts).  A route for the strongly-regular-graph claim.
    """
    adj = chain_mask(ctx, "edges")[1:, 1:]
    degrees = adj.sum(axis=1)
    if degrees.min() != degrees.max():
        raise ValueError("graph is not regular")
    # BLAS float32 product; exact, since every count and partial sum is below 2^24
    adjf = adj.astype(np.float32)
    common = (adjf @ adjf).astype(np.int32)
    np.fill_diagonal(common, -1)
    lam_set = np.unique(common[adj])
    mu_set = np.unique(common[~adj & (common >= 0)])
    if len(lam_set) != 1 or len(mu_set) != 1:
        raise ValueError("graph is not strongly regular")
    return (len(adj), int(degrees[0]), int(lam_set[0]), int(mu_set[0]))


# --- canonical orbit state orderings ---


def orbit_states(ctx: FieldContext, kind: EdgeKind) -> List[OrbitInvariant]:
    """Orbit invariants of one kind (type-1 ratios, or the determinants
    ``determinant_keys`` names with ``kind``), ordered by discrete log."""
    if kind == EdgeKind.TYPE1:
        vals = [x for x in ctx.elements() if x not in (0, 1)]
    else:
        keys = determinant_keys(ctx).tolist()
        vals = [x for x in ctx.nonzero() if keys[x] == orbit_key(kind, x)]
    vals.sort(key=ctx.log)
    return [OrbitInvariant(kind, v) for v in vals]


def chain_states(ctx: FieldContext, chain: str) -> List[OrbitInvariant]:
    """Chain state order: non-edge orbits, or N-2 type-1 then (N-2)/2 type-2."""
    _check_chain(chain)
    if chain == "nonedges":
        return orbit_states(ctx, EdgeKind.NON_EDGE)
    return orbit_states(ctx, EdgeKind.TYPE1) + orbit_states(ctx, EdgeKind.TYPE2)


def orbit_representative(ctx: FieldContext, inv: OrbitInvariant) -> PauliPair:
    """One explicit pair with the given invariant; refuses a kind that is no
    ``EdgeKind`` and a value outside the orbits of its kind."""
    kind, v = inv
    if kind not in _KINDS:
        raise ValueError(f"orbit kind {kind!r} is no EdgeKind")
    if not 0 <= v < ctx.order:
        raise ValueError(f"orbit value {v} is outside [0, {ctx.order})")
    if kind == EdgeKind.TYPE1:
        if v in (0, 1):
            raise ValueError("type-1 ratio must avoid 0 and 1")
        return PauliPair(PauliIndex(v, 0), PauliIndex(1, 0))
    if v == 0 or determinant_keys(ctx)[v] != orbit_key(kind, v):
        raise ValueError(f"{EdgeKind(kind).name} determinant must be nonzero with "
                         f"trace {int(kind == EdgeKind.NON_EDGE)}, got {v:#x}")
    return PauliPair(PauliIndex(1, 0), PauliIndex(0, v))


def state_name(state) -> str:
    """Label of a vertex, pair or orbit invariant: ``vertex:a,b``,
    ``pair:a,b;c,d`` or ``KIND:value``, numbers in hex."""
    if isinstance(state, OrbitInvariant):
        return f"{state.kind.name}:{state.value:#x}"
    if isinstance(state[0], int):
        return f"vertex:{state[0]:#x},{state[1]:#x}"
    (a, b), (c, d) = state
    return f"pair:{a:#x},{b:#x};{c:#x},{d:#x}"


def state_obj(state):
    """JSON form of the same: ``[a, b]``, ``[[a, b], [c, d]]`` or
    ``{"kind": KIND, "value": value}``, numbers as hex strings."""
    if isinstance(state, OrbitInvariant):
        return {"kind": state.kind.name, "value": format(state.value, "#x")}
    if isinstance(state[0], int):
        return [format(x, "#x") for x in state]
    return [state_obj(v) for v in state]


def state_from_obj(obj):
    """Inverse of ``state_obj`` on chain states: an orbit invariant or a pair."""
    if isinstance(obj, dict):
        return OrbitInvariant(EdgeKind[obj["kind"]], int(obj["value"], 16))
    return PauliPair(*(PauliIndex(int(a, 16), int(b, 16)) for a, b in obj))


# --- census ---


def closed_form_counts(m: int) -> Dict[str, int]:
    n = 1 << m
    nsq = n * n
    return {
        "vertices": nsq - 1,
        "directed_edges": (nsq - 1) * (nsq - 4) // 2,
        "type1_edges": (nsq - 1) * (n - 2),
        "type2_edges": n * (nsq - 1) * (n - 2) // 2,
        "non_edges": (nsq - 1) * nsq // 2,
        "non_edge_orbits": n // 2,
        "non_edge_orbit_size": (nsq - 1) * n,
        "type2_orbits": (n - 2) // 2,
        "type2_orbit_size": (nsq - 1) * n,
        "type1_orbits": n - 2,
        "type1_orbit_size": nsq - 1,
    }


@dataclass
class CensusReport:
    m: int
    exhaustive: bool
    closed_form: Dict[str, int]
    srg: Tuple[int, int, int, int]
    enumerated: Optional[Dict[str, int]] = None
    orbit_sizes: Optional[Dict[OrbitInvariant, int]] = None

    def matches_closed_form(self) -> bool:
        """True when every enumerated count equals its closed-form value."""
        if not self.exhaustive:
            return False
        for key, expected in self.closed_form.items():
            if key.endswith("_orbits") or key.endswith("_orbit_size"):
                continue
            if self.enumerated.get(key) != expected:
                return False
        for kind in EdgeKind:
            sizes = [s for inv, s in self.orbit_sizes.items() if inv.kind == kind]
            if len(sizes) != self.closed_form[f"{kind.name.lower()}_orbits"]:
                return False
            if set(sizes) != {self.closed_form[f"{kind.name.lower()}_orbit_size"]}:
                return False
        return True

    def to_text(self) -> str:
        """Documented key-value format: one `key = value` line per datum.

        Keys: `m`, `exhaustive`, `srg` (comma-separated 4-tuple),
        `closed_form.<count>`, `enumerated.<count>` (exhaustive mode) and
        `orbit_size.<kind>.<hex value>` (exhaustive mode).  Lines starting
        with `#` are comments.
        """
        lines = ["# pauli graph census",
                 f"m = {self.m}",
                 f"exhaustive = {'true' if self.exhaustive else 'false'}",
                 "srg = " + ",".join(str(x) for x in self.srg)]
        for key in sorted(self.closed_form):
            lines.append(f"closed_form.{key} = {self.closed_form[key]}")
        if self.exhaustive:
            for key in sorted(self.enumerated):
                lines.append(f"enumerated.{key} = {self.enumerated[key]}")
            for inv in sorted(self.orbit_sizes, key=lambda i: (i.kind, i.value)):
                lines.append(f"orbit_size.{inv.kind.name.lower()}.{inv.value:#x} = "
                             f"{self.orbit_sizes[inv]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "m": self.m,
            "exhaustive": self.exhaustive,
            "srg": list(self.srg),
            "closed_form": self.closed_form,
        }
        if self.exhaustive:
            payload["enumerated"] = self.enumerated
            payload["orbit_sizes"] = {
                f"{inv.kind.name.lower()}.{inv.value:#x}": size
                for inv, size in sorted(self.orbit_sizes.items())
            }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_census(text: str) -> CensusReport:
    """Inverse of CensusReport.to_text(): a route that reads the census text back."""
    fields: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    m = int(fields.pop("m"))
    exhaustive = fields.pop("exhaustive") == "true"
    srg = tuple(int(x) for x in fields.pop("srg").split(","))
    closed_form: Dict[str, int] = {}
    enumerated: Dict[str, int] = {}
    orbit_sizes: Dict[OrbitInvariant, int] = {}
    for key, value in fields.items():
        if key.startswith("closed_form."):
            closed_form[key[len("closed_form."):]] = int(value)
        elif key.startswith("enumerated."):
            enumerated[key[len("enumerated."):]] = int(value)
        elif key.startswith("orbit_size."):
            # orbit_size.<kind>.<hex value>, as to_text writes it
            parts = key.split(".")
            kind = EdgeKind.__members__.get(parts[1].upper())
            if len(parts) != 3 or kind is None:
                raise ValueError(f"unrecognized census key: {key}")
            orbit_sizes[OrbitInvariant(kind, int(parts[2], 16))] = int(value)
        else:
            raise ValueError(f"unrecognized census key: {key}")
    return CensusReport(m=m, exhaustive=exhaustive, closed_form=closed_form,
                        srg=srg, enumerated=enumerated or None,
                        orbit_sizes=orbit_sizes or None)


def _census_chunk(ctx: FieldContext, lo: int, hi: int) -> Dict[OrbitInvariant, int]:
    """Orbit sizes over the distinct pairs with first vertex in [lo, hi).

    For first vertices v = (a, b) and every second vertex w = c | d << m,
    det(v, w) = ad + bc is ``_block_determinants``.  A cell with
    det != 0 is in the orbit ``determinant_keys`` names, so those cells
    are counted per determinant; only the det = 0 cells, about 1 in N,
    go through ``orbit_invariant_vec`` for their type-1 ratio, after w = 0
    and w = v (both det = 0) are dropped."""
    v = np.arange(lo, hi, dtype=np.uint32)
    a, b = vertex_split(ctx.m, v)
    det = _block_determinants(ctx, a, b)
    per_det = np.bincount(det.ravel(), minlength=ctx.order)
    i, w = np.divmod(np.flatnonzero(det == 0), ctx.order ** 2)
    keep = (w != 0) & (w != v[i])
    i, w = i[keep], w[keep]
    type1 = orbit_invariant_vec(ctx, a[i], b[i], *vertex_split(ctx.m, w))
    return orbit_counts(np.concatenate([determinant_keys(ctx)[1:], type1]),
                        np.concatenate([per_det[1:], np.ones(len(type1))]))


def census(ctx: FieldContext, threads: int = 1) -> CensusReport:
    """Count edges, non-edges and orbit sizes, enumerating them exactly
    when m <= CENSUS_MAX_M; beyond it the report holds the closed forms
    alone.

    The enumeration reads every ordered pair's determinant ad + bc from
    the grid ``xor_grid(a * F, b * F)`` of a block of first vertices
    (a, b) against all N^2 vertices: a nonzero determinant keys the pair's
    orbit (non-edge or type 2) directly, and only the det = 0 type-1
    pairs go through ``orbit_invariant_vec``, for their ratio."""
    report = CensusReport(m=ctx.m, exhaustive=ctx.m <= CENSUS_MAX_M,
                          closed_form=closed_form_counts(ctx.m),
                          srg=srg_parameters(ctx.m))
    if not report.exhaustive:
        return report

    n = ctx.order
    chunk = max(1, (1 << 21) // (n * n))
    parts = ordered_map(lambda lo: _census_chunk(ctx, lo, min(lo + chunk, n * n)),
                        range(1, n * n, chunk), threads)
    orbit_sizes = dict(sorted(sum(map(Counter, parts), Counter()).items()))
    per_kind = {k: 0 for k in EdgeKind}
    for inv, size in orbit_sizes.items():
        per_kind[inv.kind] += size
    report.enumerated = {
        "vertices": n * n - 1,
        "directed_edges": per_kind[EdgeKind.TYPE1] + per_kind[EdgeKind.TYPE2],
        "type1_edges": per_kind[EdgeKind.TYPE1],
        "type2_edges": per_kind[EdgeKind.TYPE2],
        "non_edges": per_kind[EdgeKind.NON_EDGE],
    }
    report.orbit_sizes = orbit_sizes
    return report
