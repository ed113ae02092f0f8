import json

import numpy as np
import pytest

from hermspec.constructions import mixed_c4, oriented_k33, oriented_k55_minus_matching
from hermspec.cyclotomic import exact_components, relation_stacks, signed_adjacency
from hermspec.graphs import (
    Graph,
    OrientedGraph,
    SignedGraph,
    are_isomorphic,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_connected,
    k55_minus_matching,
    underlying,
)
from hermspec.search import (
    SearchError,
    _candidate_pq,
    _canonical_sort,
    _decode_mixed,
    _decode_oriented,
    _decode_signed,
    _exact_two_ev_mask,
    _visit_plan,
    connected_edge_subsets,
    dedup_up_to_iso,
    scan_connected_oriented_graphs,
    search_mixed_orientations,
    search_orientations,
    search_signings,
)
from hermspec.spectra import hermitian_eigenvalues


class TestOrientations:
    def test_triangle(self):
        rep = search_orientations(complete_graph(3), 6)
        assert rep.space_size == 8
        assert len(rep.hits) == 2  # the two cyclic orientations
        assert len(rep.hits_up_to_iso) == 1
        assert are_isomorphic(rep.hits_up_to_iso[0], OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_k2(self):
        rep = search_orientations(complete_graph(2), 6)
        assert len(rep.hits) == 2 and len(rep.hits_up_to_iso) == 1

    def test_k33_unique_class(self):
        rep = search_orientations(complete_bipartite(3, 3), 6)
        assert rep.space_size == 512
        assert len(rep.hits_up_to_iso) == 1
        assert are_isomorphic(rep.hits_up_to_iso[0], oriented_k33())

    def test_c4_no_hits(self):
        rep = search_orientations(cycle_graph(4), 6)
        assert rep.hits == ()

    def test_hits_preserve_underlying(self):
        rep = search_orientations(complete_bipartite(3, 3), 6)
        for h in rep.hits:
            assert underlying(h) == complete_bipartite(3, 3)

    def test_reversal_symmetry(self):
        # reversing every arc preserves the spectrum, so hits come in
        # reversal-closed sets
        rep = search_orientations(complete_bipartite(3, 3), 6)
        hit_set = set(rep.hits)
        for h in rep.hits:
            assert h.reverse() in hit_set

    def test_determinism(self):
        a = search_orientations(complete_bipartite(3, 3), 6)
        b = search_orientations(complete_bipartite(3, 3), 6)
        assert a.hits == b.hits and a.space_size == b.space_size

    def test_partitions_and_threads_match_single(self):
        base = search_orientations(complete_bipartite(3, 3), 6)
        parts = search_orientations(complete_bipartite(3, 3), 6, partitions=5)
        threaded = search_orientations(complete_bipartite(3, 3), 6, threads=4, partitions=4)
        assert set(parts.hits) == set(base.hits)
        assert set(threaded.hits) == set(base.hits)

    def test_float_route_inexact_order(self):
        # k = 12 has no exact arithmetic; the float clustering route still
        # finds both orientations of a single edge
        rep = search_orientations(complete_graph(2), 12)
        assert len(rep.hits) == 2
        assert search_orientations(cycle_graph(4), 12).hits == ()

    def test_space_cap(self):
        with pytest.raises(SearchError):
            search_orientations(complete_graph(8), 6)

    def test_report_json(self):
        rep = search_orientations(complete_graph(3), 6)
        obj = rep.to_json_obj()
        json.dumps(obj)
        assert obj["space_size"] == 8
        assert obj["mode"] == "oriented"
        assert len(obj["hits"]) == 2


class TestMixed:
    def test_c4(self):
        rep = search_mixed_orientations(cycle_graph(4), 6)
        assert rep.space_size == 81
        assert len(rep.hits_up_to_iso) == 1
        assert are_isomorphic(rep.hits_up_to_iso[0], mixed_c4())
        assert all(not h.is_oriented for h in rep.hits)

    def test_triangle_contains_oriented_hits(self):
        # the mixed scan includes the purely oriented assignments
        rep = search_mixed_orientations(complete_graph(3), 6)
        oriented_hits = [h for h in rep.hits if h.is_oriented]
        assert len(oriented_hits) == 2
        # plus the all-undirected triangle (spectrum {2, -1, -1})
        assert any(not h.arcs and len(h.edges) == 3 for h in rep.hits)


class TestSignings:
    def test_k2(self):
        rep = search_signings(complete_graph(2))
        assert len(rep.hits) == 2  # both signs give spectrum {1, -1}

    def test_c4_odd_negative(self):
        rep = search_signings(cycle_graph(4))
        assert rep.space_size == 16
        assert len(rep.hits) == 8
        for S in rep.hits:
            negs = sum(1 for *_, sign in S.signed_edges if sign < 0)
            assert negs % 2 == 1
        # signed hits are deduplicated on exact equality only
        assert len(rep.hits_up_to_iso) == 8

    def test_hits_verified_by_eigensolver(self):
        rep = search_signings(cycle_graph(4))
        for S in rep.hits:
            eigs = hermitian_eigenvalues(signed_adjacency(S).astype(np.complex128))
            r = np.sqrt(2)
            assert np.allclose(eigs, [r, r, -r, -r], atol=1e-9)

    def test_path_no_hits(self):
        rep = search_signings(Graph(3, ((0, 1), (1, 2))))
        assert rep.hits == ()


class TestDedup:
    def test_triangle_orientations(self):
        a = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
        b = OrientedGraph(3, [(1, 0), (2, 1), (0, 2)])
        assert len(dedup_up_to_iso([a, b])) == 1

    def test_distinct_kept(self):
        a = OrientedGraph(3, [(0, 1), (1, 2)])
        b = OrientedGraph(3, [(0, 1), (2, 1)])
        assert len(dedup_up_to_iso([a, b])) == 2

    def test_signed_first_occurrences_in_order(self):
        # isomorphic signings stay distinct; exact repeats collapse onto the
        # first occurrence
        a = SignedGraph(3, ((0, 1, 1), (1, 2, -1)))
        b = SignedGraph(3, ((0, 1, -1), (1, 2, 1)))
        c = SignedGraph(3, ((0, 1, 1), (1, 2, 1)))
        a2 = SignedGraph(3, ((1, 2, -1), (0, 1, 1)))
        assert dedup_up_to_iso([b, a, b, c, a2, c]) == (b, a, c)


class TestEnumeration:
    def test_connected_edge_subsets_counts(self):
        # number of connected labeled graphs on n vertices: 1, 1, 4, 38
        assert sum(1 for _ in connected_edge_subsets(2)) == 1
        assert sum(1 for _ in connected_edge_subsets(3)) == 4
        assert sum(1 for _ in connected_edge_subsets(4)) == 38
        for G in connected_edge_subsets(4):
            assert is_connected(G)

    def test_desk_check_low_k_guard(self):
        with pytest.raises(SearchError):
            scan_connected_oriented_graphs(6, 3)

    def test_desk_check_k6_control(self):
        # with the guard lifted, k = 6 on up to 3 vertices finds the edge and
        # the directed triangle
        rep = scan_connected_oriented_graphs(6, 3, allow_low_k=True)
        assert len(rep.hits_up_to_iso) == 2

    def test_desk_check_k12_only_single_arc(self):
        # a lone arc has spectrum {1, -1} at every order; nothing else
        # survives at k = 12
        rep = scan_connected_oriented_graphs(12, 4)
        assert len(rep.hits_up_to_iso) == 1
        assert are_isomorphic(rep.hits_up_to_iso[0], OrientedGraph(2, [(0, 1)]))


def _brute_force(G, k, mode):
    """Oracle: decide H^2 - pH + qI = 0 on every one of the base^m complete
    assignments at once, with no pruning."""
    edges = list(G.edges)
    base = 3 if mode == "mixed" else 2
    pq = _candidate_pq(G)
    if not pq:
        return (), ()
    kk = 6 if mode == "signed" else k
    digits = (np.arange(base ** len(edges))[:, None] // base ** np.arange(len(edges))) % base
    A, B = exact_components(*relation_stacks(digits, edges, G.n, mode), kk)
    decode = {"oriented": _decode_oriented, "mixed": _decode_mixed,
              "signed": _decode_signed}[mode]
    mask = _exact_two_ev_mask(A, B, kk, pq)
    hits = _canonical_sort([decode(row, edges, G.n) for row in digits[mask]])
    return hits, dedup_up_to_iso(hits)


def _scan(G, k, mode, **kw):
    if mode == "oriented":
        return search_orientations(G, k, **kw)
    if mode == "mixed":
        return search_mixed_orientations(G, k, **kw)
    return search_signings(G, **kw)


class TestFrontierOracle:
    """The frontier search against the brute-force identity check."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_connected_labelled_graph(self, n):
        runs = [(mode, k) for mode in ("oriented", "mixed") for k in (3, 4, 6)]
        runs.append(("signed", None))
        hit_total = 0
        for G in connected_edge_subsets(n):
            for mode, k in runs:
                rep = _scan(G, k, mode)
                hits, reps = _brute_force(G, k, mode)
                assert (rep.hits, rep.hits_up_to_iso) == (hits, reps), (G.edges, mode, k)
                hit_total += len(hits)
        assert hit_total > 0

    @pytest.mark.parametrize("G, mode", [(complete_bipartite(3, 3), "oriented"),
                                         (cycle_graph(4), "mixed")])
    def test_split_and_chunk_invariance(self, G, mode):
        base = _scan(G, 6, mode)
        assert base.hits
        variants = [dict(partitions=p) for p in (1, 3, 7)]
        variants += [dict(threads=2), dict(chunk=1), dict(threads=2, partitions=7, chunk=1)]
        for kw in variants:
            rep = _scan(G, 6, mode, **kw)
            assert (rep.hits, rep.hits_up_to_iso) == (base.hits, base.hits_up_to_iso), kw

    def test_k55_minus_matching(self):
        rep = search_orientations(k55_minus_matching(), 6)
        assert rep.space_size == 2 ** 20
        assert len(rep.hits) == 12 and len(rep.hits_up_to_iso) == 1
        assert are_isomorphic(rep.hits_up_to_iso[0], oriented_k55_minus_matching())

    def test_only_two_ev_filter(self):
        with pytest.raises(SearchError):
            search_orientations(cycle_graph(4), 6, filter=lambda D: True)
        with pytest.raises(SearchError):
            search_signings(cycle_graph(4), filter="three-ev")


def _visit_plan_oracle(G):
    """The frontier's visit order, recomputing every unvisited vertex's
    unassigned edges at each step."""
    unvisited = set(range(G.n))
    visited = []

    def new_edges(v):
        return [e for e, (a, b) in enumerate(G.edges)
                if v in (a, b) and (b if a == v else a) in unvisited]

    while unvisited:
        v = min(unvisited, key=lambda x: (len(new_edges(x)), x))
        new = new_edges(v)
        unvisited.remove(v)
        visited.append(v)
        yield v, new, tuple(visited)


class TestVisitPlan:
    def test_matches_recomputing_oracle(self):
        graphs = [Graph(1, ()), k55_minus_matching()]
        graphs += [G for n in range(2, 6) for G in connected_edge_subsets(n)]
        for G in graphs:
            assert list(_visit_plan(G)) == list(_visit_plan_oracle(G)), G.edges


class TestRegularityExit:
    def test_irregular_graph_float_order(self):
        # a path has irregular degrees: no hit at any order, nothing scanned
        path = Graph(4, ((0, 1), (1, 2), (2, 3)))
        for k in (5, 6, 12):
            rep = search_orientations(path, k)
            assert (rep.space_size, rep.skipped_disconnected, rep.hits) == (8, 0, ())
        rep = search_mixed_orientations(path, 5)
        assert (rep.space_size, rep.skipped_disconnected, rep.hits) == (27, 0, ())

    def test_desk_scan_counts(self):
        rep = scan_connected_oriented_graphs(10, 5)
        assert (rep.space_size, len(rep.hits), len(rep.hits_up_to_iso)) == (55894, 2, 1)
