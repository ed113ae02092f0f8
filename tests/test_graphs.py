import numpy as np
import pytest

from hermspec.graphs import (
    DegreeProfile,
    Graph,
    GraphError,
    MixedGraph,
    OrientedGraph,
    SignedGraph,
    are_isomorphic,
    bipartite_double,
    common_neighbors,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_regular,
    is_triangle_free,
    k55_minus_matching,
    regular_degree,
    underlying,
)
from hermspec.search import connected_edge_subsets
from hermspec.constructions import oriented_k33, oriented_k55_minus_matching, regular_tournament
from hermspec.cyclotomic import build_float_H
from hermspec.spectra import hermitian_eigenvalues
from hermspec import io as graph_io


def directed_triangle():
    return OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])


class TestValidation:
    def test_no_self_loops(self):
        with pytest.raises(GraphError):
            MixedGraph(2, arcs=[(0, 0)])

    def test_one_relation_per_pair(self):
        with pytest.raises(GraphError):
            MixedGraph(2, arcs=[(0, 1), (1, 0)])
        with pytest.raises(GraphError):
            MixedGraph(2, arcs=[(0, 1)], edges=[(0, 1)])

    def test_vertex_range(self):
        with pytest.raises(GraphError):
            OrientedGraph(2, [(0, 2)])

    def test_canonical_equality(self):
        a = MixedGraph(3, arcs=[(1, 2), (0, 1)])
        b = MixedGraph(3, arcs=[(0, 1), (1, 2)])
        assert a == b

    def test_signed_sign_values(self):
        with pytest.raises(GraphError):
            SignedGraph(2, ((0, 1, 2),))


class TestUnderlying:
    def test_triangle(self):
        assert underlying(directed_triangle()) == complete_graph(3)

    def test_edge(self):
        assert underlying(OrientedGraph(2, [(0, 1)])) == complete_graph(2)

    def test_k55_fixture(self):
        G = underlying(oriented_k55_minus_matching())
        assert G == k55_minus_matching()
        assert all(G.degree(v) == 4 for v in range(10))


class TestDegrees:
    def test_is_regular_triangle(self):
        assert is_regular(directed_triangle())

    def test_is_regular_edge(self):
        assert not is_regular(OrientedGraph(2, [(0, 1)]))

    def test_k33_fixture_irregular(self):
        D = oriented_k33()
        assert not is_regular(D)
        profile = DegreeProfile.of(D)
        assert all(sorted(t[:2]) == [1, 2] for t in profile.triples)

    def test_regular_degree_matches_per_vertex_degree(self):
        graphs = [G for n in range(2, 6) for G in connected_edge_subsets(n)]
        graphs += [Graph(0, ()), Graph(1, ()), Graph(4, ()), Graph(4, ((0, 1), (2, 3))),
                   Graph(4, ((0, 1), (1, 2))), Graph(3, ((0, 1), (1, 2)))]
        regular = 0
        for G in graphs:
            degs = {G.degree(v) for v in range(G.n)}
            expected = degs.pop() if len(degs) == 1 else None
            assert regular_degree(G) == expected, G.edges
            regular += expected is not None
        assert regular_degree(Graph(4, ())) == 0
        assert regular_degree(Graph(4, ((0, 1), (2, 3)))) == 1
        assert regular_degree(Graph(4, ((0, 1), (1, 2)))) is None
        assert regular_degree(Graph(0, ())) is None
        assert regular > 20

    def test_handshake(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            arcs, edges = [], []
            for u in range(n):
                for v in range(u + 1, n):
                    x = rng.random()
                    if x < 0.2:
                        arcs.append((u, v))
                    elif x < 0.4:
                        edges.append((u, v))
            D = MixedGraph(n, tuple(arcs), tuple(edges))
            prof = DegreeProfile.of(D)
            assert sum(prof.totals()) == 2 * (len(D.arcs) + len(D.edges))


class TestPredicates:
    def test_common_neighbors_k33(self):
        assert common_neighbors(complete_bipartite(3, 3), 0, 1) == 3
        assert common_neighbors(complete_bipartite(3, 3), 0, 3) == 0

    def test_common_neighbors_k4(self):
        assert common_neighbors(complete_graph(4), 0, 1) == 2

    def test_common_neighbors_k55m(self):
        # distance-2 pairs share exactly three neighbours
        G = k55_minus_matching()
        assert common_neighbors(G, 0, 1) == 3

    def test_triangle_free(self):
        assert is_triangle_free(k55_minus_matching())
        assert not is_triangle_free(complete_graph(4))

    def test_connected(self):
        assert is_connected(complete_graph(4))
        assert not is_connected(Graph(3, ((0, 1),)))

    def test_bipartite_coloring(self):
        assert is_bipartite(complete_bipartite(2, 3)) == [0, 0, 1, 1, 1]
        assert is_bipartite(complete_graph(3)) is None


class TestInducedSubgraph:
    def test_triangle_to_edge(self):
        sub = induced_subgraph(directed_triangle(), {0, 1})
        assert sub == OrientedGraph(2, [(0, 1)])

    def test_keeps_interior_relations(self):
        D = MixedGraph(4, arcs=[(0, 1), (2, 3)], edges=[(1, 2)])
        sub = induced_subgraph(D, {1, 2, 3})
        assert sub == MixedGraph(3, arcs=[(1, 2)], edges=[(0, 1)])


class TestBipartiteDouble:
    def test_triangle_double_spectrum(self):
        dd = bipartite_double(directed_triangle())
        assert dd.n == 6
        eigs = hermitian_eigenvalues(build_float_H(dd, 6))
        assert np.allclose(eigs, [2, 1, 1, -1, -1, -2], atol=1e-9)

    def test_double_of_edge_disconnects(self):
        dd = bipartite_double(OrientedGraph(2, [(0, 1)]))
        assert not is_connected(dd)

    def test_double_of_order5_tournament_is_k55m(self):
        dd = bipartite_double(regular_tournament(5))
        assert underlying(dd) == k55_minus_matching()

    def test_double_is_bipartite(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            assert is_bipartite(underlying(bipartite_double(OrientedGraph(n, arcs)))) is not None


class TestIsomorphism:
    def test_opposite_triangles(self):
        a = directed_triangle()
        b = OrientedGraph(3, [(1, 0), (2, 1), (0, 2)])
        assert are_isomorphic(a, b)

    def test_paths_differ(self):
        a = OrientedGraph(3, [(0, 1), (1, 2)])
        b = OrientedGraph(3, [(0, 1), (2, 1)])
        assert not are_isomorphic(a, b)

    def test_identity(self):
        D = oriented_k33()
        assert are_isomorphic(D, D)

    def test_random_relabelings(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            arcs, edges = [], []
            for u in range(n):
                for v in range(u + 1, n):
                    x = rng.random()
                    if x < 0.25:
                        arcs.append((u, v))
                    elif x < 0.5:
                        edges.append((u, v))
            D = MixedGraph(n, tuple(arcs), tuple(edges))
            perm = rng.permutation(n)
            D2 = MixedGraph(
                n,
                tuple((int(perm[u]), int(perm[v])) for u, v in D.arcs),
                tuple((int(perm[u]), int(perm[v])) for u, v in D.edges),
            )
            assert are_isomorphic(D, D2)
            assert are_isomorphic(D2, D)
            assert sorted(DegreeProfile.of(D).triples) == sorted(DegreeProfile.of(D2).triples)
            e1 = hermitian_eigenvalues(build_float_H(D, 6))
            e2 = hermitian_eigenvalues(build_float_H(D2, 6))
            assert np.allclose(e1, e2, atol=1e-9)

    def test_nonisomorphic_same_degrees(self):
        # directed 6-cycle vs two directed triangles: same degree profile
        c6 = OrientedGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        tt = OrientedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not are_isomorphic(c6, tt)


class TestIO:
    def test_digraph6_round_trip(self):
        for D in (directed_triangle(), oriented_k33(), oriented_k55_minus_matching()):
            assert graph_io.decode_digraph6(graph_io.encode_digraph6(D)) == D

    @pytest.mark.parametrize("n", [62, 63, 64, 128])
    def test_digraph6_round_trip_large(self, n):
        rng = np.random.default_rng(n)
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        D = OrientedGraph(n, arcs)
        text = graph_io.encode_digraph6(D)
        assert text[1] == ("~" if n > 62 else chr(n + 63))
        assert graph_io.decode_digraph6(text) == D

    def test_digraph6_size_limit(self):
        with pytest.raises(GraphError):
            graph_io.encode_digraph6(OrientedGraph(258048))
        with pytest.raises(GraphError):
            graph_io.decode_digraph6("&~~??????")
        with pytest.raises(GraphError):
            graph_io.decode_digraph6("&~?")

    def test_digraph6_header_variants(self):
        s = graph_io.encode_digraph6(directed_triangle())
        assert graph_io.decode_digraph6(">>digraph6<<" + s) == directed_triangle()

    def test_mixed_round_trip(self):
        D = MixedGraph(4, arcs=[(0, 1), (1, 2), (2, 3)], edges=[(0, 3)])
        assert graph_io.decode_mixed(graph_io.encode_mixed(D)) == D

    def test_signed_round_trip(self):
        S = SignedGraph(3, ((0, 1, 1), (1, 2, -1)))
        assert graph_io.decode_signed(graph_io.encode_signed(S)) == S

    def test_load_dispatch(self):
        D = directed_triangle()
        assert graph_io.load_graph(graph_io.dump_graph(D)) == D
        S = SignedGraph(2, ((0, 1, -1),))
        assert graph_io.load_graph(graph_io.dump_graph(S)) == S

    def test_bad_input(self):
        with pytest.raises(GraphError):
            graph_io.load_graph("what is this")
        with pytest.raises(GraphError):
            graph_io.decode_mixed("mixed 2\n0 + 1\n")

    @pytest.mark.parametrize("text, line", [
        ("mixed x\n", 1),
        ("mixed \n0 > 1\n", 1),
        ("mixed -2\n", 1),
        ("mixed 3\n0 > 1\na - 2\n", 3),
        ("mixed 3\n0 > 1\n1 - 2.0\n", 3),
        ("signed -1\n", 1),
        ("signed 3\n0 + 1\n\n1 - z\n", 4),
        ("\n  \nmixed 3\n# comment\n0 > x  # arc\n", 5),
    ])
    def test_parse_errors_name_the_line(self, text, line):
        with pytest.raises(GraphError, match=f"^line {line}: "):
            graph_io.load_graph(text)

    @pytest.mark.parametrize("text, message", [
        ("mixed 3\n0 > 1\n1 > 7\n", "line 3: vertex 7 out of range [0, 3)"),
        ("mixed 3\n0 - 1\n\n-1 > 2\n", "line 4: vertex -1 out of range [0, 3)"),
        ("signed 2\n0 + 2\n", "line 2: vertex 2 out of range [0, 2)"),
        ("mixed 3\n0 > 1\n2 - 2\n", "line 3: self-loop at 2"),
        ("signed 3\n1 + 1\n", "line 2: self-loop at 1"),
        ("mixed 3\n0 > 1\n# comment\n1 - 0\n", "line 4: pair (0, 1) already has a relation on line 2"),
        ("mixed 3\n1 > 2\n2 > 1\n", "line 3: pair (1, 2) already has a relation on line 2"),
        ("signed 3\n0 + 1\n1 + 2\n1 - 0\n", "line 4: pair (0, 1) already has a relation on line 2"),
    ])
    def test_graph_errors_name_the_line(self, text, message):
        with pytest.raises(GraphError) as info:
            graph_io.load_graph(text)
        assert str(info.value) == message
