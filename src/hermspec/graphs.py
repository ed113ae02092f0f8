"""Graph data model: oriented, mixed and signed graphs on dense integer vertices.

Vertices are always 0..n-1.  Arc and edge sets are stored as canonically
sorted tuples so that equal graphs compare and hash equal, which the search
module relies on for deterministic deduplication.  All graph objects are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations


class GraphError(ValueError):
    """Raised for malformed graph data (self-loops, duplicate relations, ...)."""


def _check_vertex(v, n):
    if not (0 <= v < n):
        raise GraphError(f"vertex {v} out of range [0, {n})")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            if u == v:
                raise GraphError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    def neighbors(self, v):
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in set(self.edges)


@dataclass(frozen=True)
class MixedGraph:
    """Graph with both arcs (ordered pairs) and undirected edges.

    For each unordered pair {u, v} at most one of (u, v), (v, u) or {u, v}
    may be present.
    """

    n: int
    arcs: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        used = set()
        arcs = []
        for u, v in self.arcs:
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            if u == v:
                raise GraphError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in used:
                raise GraphError(f"pair {key} has more than one relation")
            used.add(key)
            arcs.append((u, v))
        edges = []
        for u, v in self.edges:
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            if u == v:
                raise GraphError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in used:
                raise GraphError(f"pair {key} has more than one relation")
            used.add(key)
            edges.append(key)
        object.__setattr__(self, "arcs", tuple(sorted(arcs)))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @property
    def is_oriented(self):
        return not self.edges

    def canonical_key(self):
        return (self.n, self.arcs, self.edges)

    def relation(self, u, v):
        """One of 'u>v', 'v>u', 'edge' or None for the pair {u, v}."""
        if (u, v) in set(self.arcs):
            return "u>v"
        if (v, u) in set(self.arcs):
            return "v>u"
        if (min(u, v), max(u, v)) in set(self.edges):
            return "edge"
        return None

    def reverse(self):
        """Reverse every arc, keeping undirected edges."""
        return MixedGraph(self.n, tuple((v, u) for u, v in self.arcs), self.edges)


class OrientedGraph(MixedGraph):
    """Mixed graph with an empty undirected-edge set."""

    def __init__(self, n, arcs=()):
        super().__init__(n, tuple(arcs), ())

    def reverse(self):
        return OrientedGraph(self.n, tuple((v, u) for u, v in self.arcs))


@dataclass(frozen=True)
class SignedGraph:
    """Undirected graph with edges signed +1 / -1."""

    n: int
    signed_edges: tuple = ()  # (u, v, sign) with u < v

    def __post_init__(self):
        seen = set()
        norm = []
        for u, v, sign in self.signed_edges:
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if sign not in (1, -1):
                raise GraphError(f"sign must be +1 or -1, got {sign}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate signed edge {key}")
            seen.add(key)
            norm.append((key[0], key[1], sign))
        object.__setattr__(self, "signed_edges", tuple(sorted(norm)))

    def underlying(self):
        return Graph(self.n, tuple((u, v) for u, v, _ in self.signed_edges))


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex (in-degree, out-degree, undirected-degree) triples."""

    triples: tuple = field(default_factory=tuple)

    @classmethod
    def of(cls, D: MixedGraph):
        din = [0] * D.n
        dout = [0] * D.n
        dund = [0] * D.n
        for u, v in D.arcs:
            dout[u] += 1
            din[v] += 1
        for u, v in D.edges:
            dund[u] += 1
            dund[v] += 1
        return cls(tuple(zip(din, dout, dund)))

    def total(self, v):
        i, o, u = self.triples[v]
        return i + o + u

    def totals(self):
        return [i + o + u for i, o, u in self.triples]


def underlying(D: MixedGraph) -> Graph:
    """Forget directions: the simple graph on the same vertex set."""
    pairs = {(min(u, v), max(u, v)) for u, v in D.arcs}
    pairs.update(D.edges)
    return Graph(D.n, tuple(pairs))


def is_regular(D: MixedGraph) -> bool:
    """All in-degrees equal and all out-degrees equal (and, for mixed
    inputs, all undirected degrees equal)."""
    prof = DegreeProfile.of(D).triples
    if not prof:
        return True
    return all(t == prof[0] for t in prof)


def regular_degree(G: Graph):
    """The common degree of a regular graph, or None when it is irregular."""
    degs = [0] * G.n
    for u, v in G.edges:
        degs[u] += 1
        degs[v] += 1
    return degs[0] if len(set(degs)) == 1 else None


def common_neighbors(G: Graph, u, v) -> int:
    if u == v:
        raise GraphError("common_neighbors requires u != v")
    return len(G.neighbors(u) & G.neighbors(v))


def is_triangle_free(G: Graph) -> bool:
    edges = set(G.edges)
    for u, v in edges:
        if G.neighbors(u) & G.neighbors(v):
            return False
    return True


def _components(n, adj):
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _adjacency_lists(G: Graph):
    adj = [[] for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_connected(G) -> bool:
    if isinstance(G, MixedGraph):
        G = underlying(G)
    if G.n == 0:
        return True
    return len(_components(G.n, _adjacency_lists(G))) == 1


def is_bipartite(G: Graph):
    """Return a 0/1 coloring list if bipartite, else None.

    The coloring is the lexicographically least one: the smallest vertex of
    each component gets color 0.
    """
    color = [-1] * G.n
    adj = _adjacency_lists(G)
    for s in range(G.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    return color


def induced_subgraph(D: MixedGraph, S) -> MixedGraph:
    """Subgraph induced on vertex set S, relabeled to 0..|S|-1 in sorted order."""
    S = sorted(set(S))
    for v in S:
        _check_vertex(v, D.n)
    idx = {v: i for i, v in enumerate(S)}
    arcs = tuple((idx[u], idx[v]) for u, v in D.arcs if u in idx and v in idx)
    edges = tuple((idx[u], idx[v]) for u, v in D.edges if u in idx and v in idx)
    if D.is_oriented:
        return OrientedGraph(len(S), arcs)
    return MixedGraph(len(S), arcs, edges)


def bipartite_double(D: OrientedGraph) -> OrientedGraph:
    """Two-fold cover on 2n vertices: each arc (u, v) lifts to (u, v') and (u', v).

    Its Hermitian adjacency matrix is the block matrix with H(D) in both
    off-diagonal blocks, so its spectrum is the symmetrization of spectrum(D).
    """
    n = D.n
    arcs = []
    for u, v in D.arcs:
        arcs.append((u, v + n))
        arcs.append((u + n, v))
    return OrientedGraph(2 * n, arcs)


def _relation_table(D: MixedGraph):
    """Relation code of each related ordered pair (u, v): 1 arc u->v,
    2 arc v->u, 3 edge.  Unrelated pairs are absent (code 0)."""
    rel = {}
    for u, v in D.arcs:
        rel[(u, v)] = 1
        rel[(v, u)] = 2
    for u, v in D.edges:
        rel[(u, v)] = 3
        rel[(v, u)] = 3
    return rel


def are_isomorphic(D1: MixedGraph, D2: MixedGraph) -> bool:
    """Directed/mixed isomorphism by degree-refined backtracking (desk scale)."""
    if D1.n != D2.n or len(D1.arcs) != len(D2.arcs) or len(D1.edges) != len(D2.edges):
        return False
    p1 = DegreeProfile.of(D1).triples
    p2 = DegreeProfile.of(D2).triples
    if sorted(p1) != sorted(p2):
        return False
    n = D1.n
    rel1 = _relation_table(D1)
    rel2 = _relation_table(D2)
    # Map rarest-degree vertices first to prune early.
    order = sorted(range(n), key=lambda v: (sum(1 for w in range(n) if p1[w] == p1[v]), v))
    mapping = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        u = order[i]
        for w in range(n):
            if used[w] or p2[w] != p1[u]:
                continue
            ok = True
            for j in range(i):
                x = order[j]
                if rel1.get((u, x), 0) != rel2.get((w, mapping[x]), 0):
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                mapping[u] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Named undirected graphs used as search substrates.

def complete_graph(n) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


def complete_bipartite(a, b) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def cycle_graph(n) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def k55_minus_matching() -> Graph:
    """K_{5,5} minus a perfect matching; vertex i is matched with i + 5."""
    edges = [(i, 5 + j) for i in range(5) for j in range(5) if i != j]
    return Graph(10, tuple(edges))


def cube_graph(dim=3) -> Graph:
    """Hypercube graph Q_dim."""
    n = 1 << dim
    edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(dim) if x < x ^ (1 << b)]
    return Graph(n, tuple(edges))
