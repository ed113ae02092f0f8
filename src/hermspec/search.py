"""Exhaustive scans over orientations, mixed orientations and signings.

Assignments of a state to every edge (arc either way, an undirected edge in
mixed mode, a sign in signed mode) are indexed 0 .. space-1 as digit strings
over the edge list.  `cyclotomic.relation_stacks` turns digit rows into the
(R, S) encoding.  A Hermitian matrix with exactly two eigenvalues r > s
satisfies H^2 = pH + dI with p = r + s and d = -rs; its diagonal is the
degree sequence, so only regular underlying graphs can have hits and every
other graph is answered without a scan.  Conversely, H != 0 with zero
diagonal and H^2 = pH + dI has exactly two eigenvalues.

Every scan, at every order k >= 3 and for signings, is a frontier search
that decides this identity exactly over Z[zeta_k], entry by entry.
Vertices are visited in a fixed order; visiting a vertex assigns all of its
still-unassigned edges, which multiplies every partial assignment by
states^t, and closes it.  Entry (v, w) of H^2 needs only rows v and w of H,
so it is checked as soon as both are closed, and failing partial
assignments are dropped at once.  p is not enumerated: the second visited
vertex closes an edge (v1, v0), where p = (H^2)[v1, v0] * conj(H[v1, v0]),
and rows whose p^2 cannot balance the trace are dropped there (every
admissible p^2 is a nonnegative integer, so this drops every p that is not
real, too).  The frontier is expanded depth first in blocks of at most
`chunk` rows.

A scan splits its root (the first visited vertex's assignments) into
contiguous slices that can be scanned independently and merged; hits are
re-sorted by canonical encoding, so results are the same for every
partitioning.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cyclotomic import EDGE_STATES, relation_stacks, zeta_powers
from .graphs import (
    DegreeProfile,
    Graph,
    MixedGraph,
    OrientedGraph,
    SignedGraph,
    are_isomorphic,
    is_connected,
    regular_degree,
)
from . import io as graph_io

MAX_SPACE = 1 << 24
DEFAULT_CHUNK = 4096


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchReport:
    underlying_id: str
    mode: str  # oriented | mixed | signed | connected-oriented
    k: int | None
    space_size: int
    skipped_disconnected: int
    hits: tuple
    hits_up_to_iso: tuple
    elapsed: float

    def to_json_obj(self):
        return {
            "underlying": self.underlying_id,
            "mode": self.mode,
            "k": self.k,
            "space_size": self.space_size,
            "skipped_disconnected": self.skipped_disconnected,
            "hit_count": len(self.hits),
            "hits": [_encode_hit(h) for h in self.hits],
            "hits_up_to_iso": [_encode_hit(h) for h in self.hits_up_to_iso],
            "elapsed": self.elapsed,
        }


def _encode_hit(h):
    return graph_io.dump_graph(h).strip()


def _canonical_sort(graphs):
    if not graphs:
        return ()
    if isinstance(graphs[0], SignedGraph):
        return tuple(sorted(graphs, key=lambda S: (S.n, S.signed_edges)))
    return tuple(sorted(graphs, key=lambda D: D.canonical_key()))


def _iso_invariant(D):
    """Isomorphism invariant of a mixed graph: the sorted degree triples of
    its vertices, each refined once by the triples of its out-, in- and
    undirected neighbours."""
    deg = DegreeProfile.of(D).triples
    nbrs = [[] for _ in range(D.n)]
    for u, v in D.arcs:
        nbrs[u].append((0, deg[v]))
        nbrs[v].append((1, deg[u]))
    for u, v in D.edges:
        nbrs[u].append((2, deg[v]))
        nbrs[v].append((2, deg[u]))
    return D.n, tuple(sorted((deg[v], tuple(sorted(nbrs[v]))) for v in range(D.n)))


def dedup_up_to_iso(graphs):
    """Greedy isomorphism deduplication; input order is preserved.  A graph
    is compared only with the earlier representatives that share its
    isomorphism invariant, which every graph isomorphic to it does."""
    graphs = tuple(graphs)
    if graphs and isinstance(graphs[0], SignedGraph):
        # signed hits are deduplicated on exact equality only
        return tuple(dict.fromkeys(graphs))
    reps = []
    buckets = {}
    for g in graphs:
        bucket = buckets.setdefault(_iso_invariant(g), [])
        if not any(are_isomorphic(g, r) for r in bucket):
            bucket.append(g)
            reps.append(g)
    return tuple(reps)


def _graph_id(G: Graph):
    return f"graph(n={G.n},m={len(G.edges)})"


def _digits(idx, m, base):
    """Digit rows (len(idx), m) of assignment indices: digit e is the state
    of edge e, least significant first."""
    return (idx[:, None] // base ** np.arange(m)) % base


def _ranges(size, partitions):
    bounds = np.linspace(0, size, partitions + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]


def _run_partitions(size, scan_range, threads, partitions):
    """Concatenated results of scan_range over contiguous slices of
    range(size), in slice order."""
    if partitions is None:
        partitions = max(threads, 1)
    ranges = _ranges(size, partitions)
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda r: scan_range(*r), ranges))
    else:
        parts = [scan_range(lo, hi) for lo, hi in ranges]
    return [block for part in parts for block in part]


def _decode_oriented(digits_row, edges, n):
    arcs = [(u, v) if d == 0 else (v, u) for (u, v), d in zip(edges, digits_row)]
    return OrientedGraph(n, arcs)


def _decode_mixed(digits_row, edges, n):
    arcs, und = [], []
    for (u, v), d in zip(edges, digits_row):
        if d == 0:
            arcs.append((u, v))
        elif d == 1:
            arcs.append((v, u))
        else:
            und.append((u, v))
    return MixedGraph(n, tuple(arcs), tuple(und))


def _decode_signed(digits_row, edges, n):
    signed = [(u, v, 1 if d == 0 else -1) for (u, v), d in zip(edges, digits_row)]
    return SignedGraph(n, tuple(signed))


def _visit_plan(G: Graph):
    """Vertex order of the frontier search.  The next vertex is always one
    with the fewest unassigned edges (lowest label on ties).  Yields
    (vertex, indices of the edges it assigns, vertices closed so far)."""
    incident = [[] for _ in range(G.n)]
    for e, (a, b) in enumerate(G.edges):
        incident[a].append(e)
        incident[b].append(e)
    unassigned = [len(es) for es in incident]
    unvisited = set(range(G.n))
    visited = []
    while unvisited:
        v = min(unvisited, key=lambda x: (unassigned[x], x))
        unvisited.remove(v)
        visited.append(v)
        new = []
        for e in incident[v]:
            w = sum(G.edges[e]) - v
            if w in unvisited:
                new.append(e)
                unassigned[w] -= 1
        yield v, new, tuple(visited)


# The frontier holds H as a Laurent polynomial in zeta with the coefficient
# matrices [S < 0], R and [S > 0] at zeta^-1, zeta^0 and zeta^1, packed
# (Kronecker substitution) as the integer matrix Q = t*H(t) at t = 2^_BITS:
# entry code 1, R*2^_BITS or 2^(2*_BITS).  Then one integer product
# sum_x Q[v, x] Q[x, w] = t^2 (H^2)[v, w](t) carries all five Laurent
# coefficients of (H^2)[v, w] as balanced base-2^_BITS digits.  Every
# coefficient handled below is bounded by 2d in magnitude, so the digits
# stay exact while 2d < 2^(_BITS-1), and nine digits fit int64.
_BITS = 7
_CODE = np.array([1, 0, 1 << 2 * _BITS], dtype=np.int16)  # indexed by S + 1
_MAX_DEGREE = (1 << _BITS - 2) - 1
_SHIFTS = _BITS * np.arange(9)


def _laurent_digits(X, count):
    """Balanced base-2^_BITS digits (..., count) of the int64 array X, least
    significant first: the Laurent coefficients of a packed polynomial.
    Adding 2^(_BITS-1) at every digit makes every digit nonnegative."""
    half = 1 << _BITS - 1
    offset = half * sum(1 << _BITS * i for i in range(count))
    return (((X + offset)[..., None] >> _SHIFTS[:count]) & ((1 << _BITS) - 1)) - half


@lru_cache(maxsize=32)
def _fold_tables(k):
    """Coordinates of zeta^0 .. zeta^12 over the power basis of Z[zeta_k],
    cut to the first 13 columns: a polynomial of degree <= 12 in zeta lives
    there, so e @ fold[:len(e)] == 0 decides sum_i e_i zeta^i = 0.  Also
    the rows i + j of fold for the 7 x 7 products c_i c_j of a square."""
    fold = zeta_powers(k, range(13))[:, :13]
    square_fold = fold[np.add.outer(np.arange(7), np.arange(7)).ravel()]
    fold.setflags(write=False)
    square_fold.setflags(write=False)
    return fold, square_fold


def _frontier_scan(G, k, mode, p_squares, threads, partitions, chunk):
    """Digit rows of every assignment whose H satisfies H^2 = pH + dI
    exactly over Z[zeta_k].  G is connected and d-regular, so the visit
    plan closes vertex 0 and then a neighbour v1 of it; closing v1 derives
    p = (H^2)[v1, 0] * conj(H[v1, 0]) per row, as the packed integer
    t^3 p(t) with seven Laurent digits, and keeps the rows whose p^2 is in
    p_squares.  A frontier row is (p, Q, digits); unassigned edges hold
    digit 0 and contribute nothing to Q."""
    edges = list(G.edges)
    n, m = G.n, len(edges)
    states = len(EDGE_STATES[mode])
    fold, square_fold = _fold_tables(k)
    # zeta^6 p^2 = sum_ij c_i c_j zeta^(i+j) against zeta^6 times each
    # admissible p^2, over the power basis
    square_targets = np.multiply.outer(p_squares, fold[6])
    plan = []
    for v, new, closed in _visit_plan(G):
        combos = _digits(np.arange(states ** len(new)), len(new), states).astype(np.int8)
        # each matrix entry belongs to one edge, so the deltas of distinct
        # edges never overlap
        R, S = relation_stacks(combos, [edges[e] for e in new], n, mode)
        dQ = (R.astype(np.int16) << _BITS) + _CODE[S + 1]
        plan.append((v, np.array(new, dtype=np.intp), np.array(closed[:-1]), combos, dQ))

    def derive_p(X, Q, v, w):
        """Packed p from the closed edge (v, w), and the rows where p^2 is
        one of p_squares.  These are nonnegative integers, so such a p is
        +/- the root of one and real: no separate test of conj(p) = p."""
        pk = X[:, 0] * Q[:, w, v]  # conj(H[v, w]) = H[w, v]
        c = _laurent_digits(pk, 7)  # coefficients of zeta^-3 .. zeta^3
        sq = (c[:, :, None] * c[:, None, :]).reshape(len(c), 49) @ square_fold
        return pk, (sq[:, None] == square_targets).all(axis=2).any(axis=1)

    def expand(step, pk, Q, D):
        _, new, _, combos, dQ = plan[step]
        rows, S = len(pk), len(combos)
        D = np.repeat(D, S, axis=0)
        D[:, new] = np.tile(combos, (rows, 1))
        return np.repeat(pk, S), (Q[:, None] + dQ).reshape(rows * S, n, n), D

    def prune(step, pk, Q, D):
        """Keep rows where entry (v, w) of H^2 - pH is 0 for every closed
        w != v; v was just closed.  The diagonal of H^2 is d."""
        v, _, others, *_ = plan[step]
        X = np.einsum("rx,rxw->rw", Q[:, v].astype(np.int64),
                      Q[:, :, others].astype(np.int64))
        if step == 1:
            pk, keep = derive_p(X, Q, v, others[0])
        else:
            # t^4 (H^2 - pH)[v, w] packed: Laurent digits of zeta^-4 .. zeta^4
            E = (X << 2 * _BITS) - pk[:, None] * Q[:, v, others]
            keep = ~(_laurent_digits(E, 9) @ fold[:9]).any(axis=(1, 2))
        return pk[keep], Q[keep], D[keep]

    def descend(step, frontier, out):
        if step == len(plan):
            out.append(frontier[2])
            return
        block = max(1, chunk // len(plan[step][3]))
        for lo in range(0, len(frontier[0]), block):
            survivors = prune(step, *expand(step, *(x[lo:lo + block] for x in frontier)))
            if len(survivors[0]):
                descend(step + 1, survivors, out)

    # root frontier: the first vertex's assignments; closing it checks
    # nothing, as its only closed pair is the diagonal
    _, new, _, combos, dQ = plan[0]

    def scan_range(lo, hi):
        out = []
        for clo in range(lo, hi, chunk):
            idx = np.arange(clo, min(clo + chunk, hi))
            D = np.zeros((len(idx), m), dtype=np.int8)
            D[:, new] = combos[idx]
            descend(1, (np.zeros(len(idx), dtype=np.int64), dQ[idx], D), out)
        return out

    return _run_partitions(len(combos), scan_range, threads, partitions)


def _scan_fixed_underlying(G, k, mode, filter, threads, partitions, chunk):
    if filter != "two-ev":
        raise SearchError(f"unknown filter {filter!r}; the only filter is 'two-ev'")
    edges = list(G.edges)
    space = len(EDGE_STATES[mode]) ** len(edges)
    if space > MAX_SPACE:
        raise SearchError(f"assignment space {space} exceeds limit {MAX_SPACE}")
    start = time.perf_counter()

    if not is_connected(G):
        return SearchReport(_graph_id(G), mode, k, space, space, (), (),
                            time.perf_counter() - start)

    # H^2 = pH + dI has the degree sequence on its diagonal, so an irregular
    # (or edgeless) underlying graph has no hit at any order; tr H = 0 with
    # multiplicities j and n - j of the two eigenvalues needs
    # p^2 = d(n - 2j)^2 / (j(n - j)), an integer as p is an algebraic integer
    n, d = G.n, regular_degree(G)
    p_squares = sorted({d * (n - 2 * j) ** 2 // (j * (n - j)) for j in range(1, n)
                        if d * (n - 2 * j) ** 2 % (j * (n - j)) == 0}) if d else []
    if not p_squares:
        return SearchReport(_graph_id(G), mode, k, space, 0, (), (),
                            time.perf_counter() - start)
    if d > _MAX_DEGREE:
        raise SearchError(f"degree {d} exceeds the packed frontier's limit {_MAX_DEGREE}")

    blocks = _frontier_scan(G, 6 if mode == "signed" else k, mode, p_squares,
                            threads, partitions, chunk)
    decode = {"oriented": _decode_oriented, "mixed": _decode_mixed,
              "signed": _decode_signed}[mode]
    hits = _canonical_sort([decode(row, edges, G.n) for block in blocks for row in block])
    reps = dedup_up_to_iso(hits)
    return SearchReport(_graph_id(G), mode, k, space, 0, hits, reps,
                        time.perf_counter() - start)


def search_orientations(G: Graph, k: int, filter="two-ev", threads=1,
                        partitions=None, chunk=DEFAULT_CHUNK) -> SearchReport:
    """Scan all 2^|E| orientations of G for the given eigenvalue filter."""
    return _scan_fixed_underlying(G, k, "oriented", filter, threads, partitions, chunk)


def search_mixed_orientations(G: Graph, k: int, filter="two-ev", threads=1,
                              partitions=None, chunk=DEFAULT_CHUNK) -> SearchReport:
    """Scan all 3^|E| mixed orientations (arc, reversed arc, undirected edge)."""
    return _scan_fixed_underlying(G, k, "mixed", filter, threads, partitions, chunk)


def search_signings(G: Graph, filter="two-ev", threads=1,
                    partitions=None, chunk=DEFAULT_CHUNK) -> SearchReport:
    """Scan all 2^|E| signings of G; two-eigenvalue filtering is done with
    the exact integer quadratic identity on the signed adjacency matrix."""
    return _scan_fixed_underlying(G, None, "signed", filter, threads, partitions, chunk)


def connected_edge_subsets(n):
    """All edge subsets of K_n that form a connected graph on all n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if len(edges) < n - 1:
            continue
        G = Graph(n, tuple(edges))
        if is_connected(G):
            yield G


def scan_connected_oriented_graphs(k: int, n_max: int, allow_low_k=False,
                                   chunk=DEFAULT_CHUNK) -> SearchReport:
    """Scan every orientation of every connected graph on 2..n_max vertices
    for exactly two distinct eigenvalues at the primitive k-th root with
    maximal real part.  Orders k <= 8 need allow_low_k=True."""
    if k <= 8 and not allow_low_k:
        raise SearchError("this desk check is meant for k > 8 (pass allow_low_k to override)")
    if n_max > 6:
        raise SearchError("desk scale is n_max <= 6")
    start = time.perf_counter()
    hits = []
    space = 0
    skipped = 0
    for n in range(2, n_max + 1):
        for G in connected_edge_subsets(n):
            rep = search_orientations(G, k, chunk=chunk)
            space += rep.space_size
            skipped += rep.skipped_disconnected
            hits.extend(rep.hits)
    hits = _canonical_sort(hits)
    reps = dedup_up_to_iso(hits)
    return SearchReport(f"connected graphs n<={n_max}", "connected-oriented", k,
                        space, skipped, hits, reps, time.perf_counter() - start)
