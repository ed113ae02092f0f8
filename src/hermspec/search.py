"""Exhaustive scans over orientations, mixed orientations and signings.

Assignments of a state to every edge (arc either way, an undirected edge in
mixed mode, a sign in signed mode) are indexed 0 .. space-1 as digit strings
over the edge list.  `cyclotomic.relation_stacks` turns digit rows into the
(R, S) encoding, which `exact_components` or `complex_matrix` map to H at
the scanned order.  A Hermitian matrix with exactly two eigenvalues r > s
satisfies H^2 = pH - rs*I with p = r + s; its diagonal is the degree
sequence, so only regular underlying graphs can have hits and every other
graph is answered without a scan.

For k in {3, 4, 6} and for signings the scan is a frontier search that
decides the identity H^2 - pH + qI = 0 exactly, entry by entry, over the
integer components of H = A + B*zeta.  Vertices are visited in a fixed
order; visiting a vertex assigns all of its still-unassigned edges, which
multiplies every partial assignment by states^t (adding the components of
the new edges' states), and closes it.  Entry (u, w) of H^2 needs only rows
u and w of H, so it is checked as soon as both u and w are closed, and
failing partial assignments are dropped at once.
The frontier is expanded depth first in blocks of at most `chunk` rows.
Other orders filter chunks of complete assignments by batched LAPACK
eigensolves.

Both scans split their root (the first visited vertex's assignments, or the
index space) into contiguous slices that can be scanned independently and
merged; hits are re-sorted by canonical encoding, so results are the same
for every partitioning.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .certify import two_ev_candidates
from .cyclotomic import (
    EDGE_STATES,
    EXACT_ORDERS,
    _SQ_CONST,
    _SQ_LIN,
    complex_matrix,
    exact_components,
    relation_stacks,
)
from .graphs import (
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


def dedup_up_to_iso(graphs):
    """Greedy isomorphism deduplication; input order is preserved."""
    graphs = tuple(graphs)
    if graphs and isinstance(graphs[0], SignedGraph):
        # signed hits are deduplicated on exact equality only
        return tuple(dict.fromkeys(graphs))
    reps = []
    for g in graphs:
        if not any(are_isomorphic(g, r) for r in reps):
            reps.append(g)
    return tuple(reps)


def _graph_id(G: Graph):
    return f"graph(n={G.n},m={len(G.edges)})"


def _candidate_pq(G: Graph):
    """(p, q) candidates for the exact two-eigenvalue identity, or [] when
    the underlying graph is irregular (its H^2 diagonal, the degree
    sequence, can then never be constant)."""
    d = regular_degree(G)
    if d is None or d == 0:
        return []
    pairs = []
    for r_desc, s_desc, p, q in two_ev_candidates(d):
        r, s = r_desc.value, s_desc.value
        m = G.n * (-s) / (r - s)
        if abs(m - round(m)) > 1e-9 or not 0 < round(m) < G.n:
            continue  # trace can never balance for this pair
        pairs.append((p, q))
    return pairs


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


def _exact_two_ev_mask(A, B, k, pq_pairs):
    """Boolean mask: which batch members satisfy H^2 - pH + qI = 0 for some
    candidate (p, q).  H = A + B*zeta decomposed over the power basis."""
    c0, c1 = _SQ_CONST[k], _SQ_LIN[k]
    n = A.shape[1]
    A2 = np.matmul(A, A)
    B2 = np.matmul(B, B)
    cross = np.matmul(A, B) + np.matmul(B, A)
    real_base = A2 + c0 * B2
    imag_base = cross + c1 * B2
    eye = np.eye(n, dtype=np.int64)
    mask = np.zeros(A.shape[0], dtype=bool)
    for p, q in pq_pairs:
        res_r = real_base - p * A + q * eye
        res_i = imag_base - p * B
        mask |= (np.abs(res_r).max(axis=(1, 2)) == 0) & (np.abs(res_i).max(axis=(1, 2)) == 0)
    return mask


def _float_two_ev_mask(H, tol):
    """Cluster count == 2 via batched eigensolves."""
    eigs = np.linalg.eigvalsh(H)
    gaps = np.diff(eigs, axis=1) > tol
    return gaps.sum(axis=1) == 1


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


def _frontier_scan(G, k, mode, pq_pairs, threads, partitions, chunk):
    """Digit rows of every assignment whose H satisfies H^2 - pH + qI = 0
    for some candidate (p, q).  A frontier row is (candidate index, A, B,
    digits); unassigned edges hold digit 0 and contribute nothing to A, B."""
    edges = list(G.edges)
    n, m = G.n, len(edges)
    states = len(EDGE_STATES[mode])
    c0, c1 = _SQ_CONST[k], _SQ_LIN[k]
    P = np.array([p for p, _ in pq_pairs], dtype=np.int64)[:, None]
    Q = np.array([q for _, q in pq_pairs], dtype=np.int64)[:, None]
    plan = []
    for v, new, closed in _visit_plan(G):
        combos = _digits(np.arange(states ** len(new)), len(new), states).astype(np.int8)
        # each matrix entry belongs to one edge, so the deltas of distinct
        # edges never overlap and the entries stay in {-1, 0, 1}
        dA, dB = exact_components(*relation_stacks(combos, [edges[e] for e in new], n, mode), k)
        plan.append((v, np.array(new, dtype=np.intp), np.array(closed), combos,
                     dA.astype(np.int8), dB.astype(np.int8)))

    def expand(step, cand, A, B, D):
        _, new, _, combos, dA, dB = plan[step]
        rows, S = len(cand), len(combos)
        D = np.repeat(D, S, axis=0)
        D[:, new] = np.tile(combos, (rows, 1))
        return (np.repeat(cand, S), (A[:, None] + dA).reshape(rows * S, n, n),
                (B[:, None] + dB).reshape(rows * S, n, n), D)

    def prune(step, cand, A, B, D):
        """Keep rows where entry (v, w) of H^2 - pH + qI is 0 for every
        closed w; v was just closed."""
        v, _, closed, *_ = plan[step]
        Av, Bv = A[:, v].astype(np.int64), B[:, v].astype(np.int64)
        Aw, Bw = A[:, :, closed].astype(np.int64), B[:, :, closed].astype(np.int64)
        bb = np.einsum("rx,rxw->rw", Bv, Bw)
        res_a = (np.einsum("rx,rxw->rw", Av, Aw) + c0 * bb
                 - P[cand] * A[:, v, closed] + Q[cand] * (closed == v))
        res_b = (np.einsum("rx,rxw->rw", Av, Bw) + np.einsum("rx,rxw->rw", Bv, Aw) + c1 * bb
                 - P[cand] * B[:, v, closed])
        keep = ~(res_a.any(axis=1) | res_b.any(axis=1))
        return cand[keep], A[keep], B[keep], D[keep]

    def descend(step, frontier, out):
        if step == len(plan):
            out.append(frontier[3])
            return
        block = max(1, chunk // len(plan[step][3]))
        for lo in range(0, len(frontier[0]), block):
            survivors = prune(step, *expand(step, *(x[lo:lo + block] for x in frontier)))
            if len(survivors[0]):
                descend(step + 1, survivors, out)

    # root frontier: candidate index times the first vertex's assignments
    root = len(plan[0][3])

    def scan_range(lo, hi):
        out = []
        _, new, _, combos, dA, dB = plan[0]
        for clo in range(lo, hi, chunk):
            idx = np.arange(clo, min(clo + chunk, hi))
            D = np.zeros((len(idx), m), dtype=np.int8)
            D[:, new] = combos[idx % root]
            survivors = prune(0, idx // root, dA[idx % root], dB[idx % root], D)
            if len(survivors[0]):
                descend(1, survivors, out)
        return out

    return _run_partitions(len(pq_pairs) * root, scan_range, threads, partitions)


def _float_scan(G, k, mode, tol, threads, partitions, chunk):
    """Digit rows of every assignment with two eigenvalue clusters."""
    edges = list(G.edges)
    base = len(EDGE_STATES[mode])

    def scan_range(lo, hi):
        found = []
        for clo in range(lo, hi, chunk):
            digits = _digits(np.arange(clo, min(clo + chunk, hi)), len(edges), base)
            H = complex_matrix(*relation_stacks(digits, edges, G.n, mode), k)
            found.append(digits[_float_two_ev_mask(H, tol)])
        return found

    return _run_partitions(base ** len(edges), scan_range, threads, partitions)


def _scan_fixed_underlying(G, k, mode, filter, tol, threads, partitions, chunk):
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

    exact = mode == "signed" or k in EXACT_ORDERS
    pq_pairs = _candidate_pq(G) if exact else None
    if (exact and not pq_pairs) or not regular_degree(G):
        # H^2 = pH - rs*I has the degree sequence on its diagonal: an
        # irregular (or edgeless) underlying graph has no hit at any order
        return SearchReport(_graph_id(G), mode, k, space, 0, (), (),
                            time.perf_counter() - start)

    if exact:
        blocks = _frontier_scan(G, 6 if mode == "signed" else k, mode, pq_pairs,
                                threads, partitions, chunk)
    else:
        blocks = _float_scan(G, k, mode, tol, threads, partitions, chunk)
    decode = {"oriented": _decode_oriented, "mixed": _decode_mixed,
              "signed": _decode_signed}[mode]
    hits = _canonical_sort([decode(row, edges, G.n) for block in blocks for row in block])
    reps = dedup_up_to_iso(hits)
    return SearchReport(_graph_id(G), mode, k, space, 0, hits, reps,
                        time.perf_counter() - start)


def search_orientations(G: Graph, k: int, filter="two-ev", tol=1e-6, threads=1,
                        partitions=None, chunk=DEFAULT_CHUNK) -> SearchReport:
    """Scan all 2^|E| orientations of G for the given eigenvalue filter."""
    return _scan_fixed_underlying(G, k, "oriented", filter, tol, threads, partitions, chunk)


def search_mixed_orientations(G: Graph, k: int, filter="two-ev", tol=1e-6, threads=1,
                              partitions=None, chunk=DEFAULT_CHUNK) -> SearchReport:
    """Scan all 3^|E| mixed orientations (arc, reversed arc, undirected edge)."""
    return _scan_fixed_underlying(G, k, "mixed", filter, tol, threads, partitions, chunk)


def search_signings(G: Graph, filter="two-ev", tol=1e-6, threads=1,
                    partitions=None, chunk=DEFAULT_CHUNK) -> SearchReport:
    """Scan all 2^|E| signings of G; two-eigenvalue filtering is done with
    the exact integer quadratic identity on the signed adjacency matrix."""
    return _scan_fixed_underlying(G, None, "signed", filter, tol, threads, partitions, chunk)


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


def scan_connected_oriented_graphs(k: int, n_max: int, tol=1e-6, allow_low_k=False,
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
            rep = search_orientations(G, k, tol=tol, chunk=chunk)
            space += rep.space_size
            skipped += rep.skipped_disconnected
            hits.extend(rep.hits)
    hits = _canonical_sort(hits)
    reps = dedup_up_to_iso(hits)
    return SearchReport(f"connected graphs n<={n_max}", "connected-oriented", k,
                        space, skipped, hits, reps, time.perf_counter() - start)
