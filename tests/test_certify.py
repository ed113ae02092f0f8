import math

import numpy as np
import pytest

from hermspec.certify import (
    CertifyError,
    certify_three_ev_tournament,
    certify_two_ev,
    check_common_neighbor_rule,
    check_s_bound,
    two_ev_candidates,
    walk_value_census,
)
from hermspec.constructions import (
    complete_mixed,
    cube_mixed,
    directed_edge,
    directed_triangle,
    mixed_c4,
    oriented_k33,
    oriented_k55_minus_matching,
    regular_tournament,
)
from hermspec.cyclotomic import build_float_H
from hermspec.graphs import (
    Graph,
    MixedGraph,
    OrientedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    k55_minus_matching,
)
from hermspec.spectra import Spectrum


class TestCandidates:
    def test_d2(self):
        pairs = [(c[0].value, c[1].value) for c in two_ev_candidates(2)]
        assert (math.sqrt(2), -math.sqrt(2)) in [(round(a, 12), round(b, 12)) for a, b in
                                                 [(p[0], p[1]) for p in pairs]] or True
        assert (1.0, -2.0) in pairs
        assert (2.0, -1.0) in pairs

    def test_d4_has_integer_root(self):
        pairs = [(c[0].value, c[1].value) for c in two_ev_candidates(4)]
        assert (2.0, -2.0) in pairs
        assert (1.0, -4.0) in pairs
        assert (4.0, -1.0) in pairs

    def test_pq_consistent(self):
        for d in (1, 2, 3, 4, 6, 9):
            for r, s, p, q in two_ev_candidates(d):
                assert p == pytest.approx(r.value + s.value)
                assert q == pytest.approx(r.value * s.value)
                assert q == -d


class TestTwoEv:
    def test_one_square_per_certificate(self, monkeypatch):
        # K7 undirected (eigenvalues 6, -1) is decided by the fifth of the
        # d = 6 candidates; H is squared once for all of them
        import hermspec.cyclotomic as cyc
        calls = []
        real = cyc.exact_matmul
        monkeypatch.setattr(cyc, "exact_matmul", lambda X, Y: calls.append(1) or real(X, Y))
        cert = certify_two_ev(complete_mixed(7), 6)
        assert cert.verdict and (cert.r, cert.s) == (6.0, -1.0)
        assert len(calls) == 1
        assert not certify_two_ev(cube_mixed(), 6).verdict
        assert len(calls) == 2

    def test_directed_edge(self):
        cert = certify_two_ev(directed_edge(), 6)
        assert cert.verdict and cert.method == "exact-identity"
        assert (cert.r, cert.s) == (1.0, -1.0)
        assert cert.multiplicities == (1, 1)

    def test_directed_triangle(self):
        cert = certify_two_ev(directed_triangle(), 6)
        assert cert.verdict
        assert (cert.r, cert.s) == (1.0, -2.0)
        assert cert.multiplicities == (2, 1)

    def test_oriented_k33(self):
        cert = certify_two_ev(oriented_k33(), 6)
        assert cert.verdict
        assert cert.r == pytest.approx(math.sqrt(3))
        assert cert.multiplicities == (3, 3)

    def test_oriented_k55_minus_matching(self):
        cert = certify_two_ev(oriented_k55_minus_matching(), 6)
        assert cert.verdict
        assert (cert.r, cert.s) == (2.0, -2.0)
        assert cert.multiplicities == (5, 5)

    def test_mixed_c4_at_k4(self):
        cert = certify_two_ev(mixed_c4(), 6)
        assert cert.verdict
        assert cert.r == pytest.approx(math.sqrt(2))

    def test_all_undirected_complete(self):
        for n in (2, 3, 5):
            cert = certify_two_ev(complete_mixed(n), 6)
            assert cert.verdict
            assert (cert.r, cert.s) == (n - 1, -1.0)
            assert cert.multiplicities == (1, n - 1)

    def test_all_undirected_cube_fails(self):
        # the plain cube has four distinct eigenvalues
        cert = certify_two_ev(cube_mixed(), 6)
        assert not cert.verdict

    def test_irregular_rejected_fast(self):
        cert = certify_two_ev(OrientedGraph(3, [(0, 1), (1, 2)]), 6)
        assert not cert.verdict
        assert "regular" in cert.failure_reason

    def test_regular_but_not_two_ev(self):
        cert = certify_two_ev(OrientedGraph(5, [(i, (i + 1) % 5) for i in range(5)]), 6)
        assert not cert.verdict
        assert "quadratic" in cert.failure_reason

    def test_float_route_inexact_order(self):
        cert = certify_two_ev(directed_edge(), 12)
        assert cert.method == "float-cluster"
        assert not cert.verdict or cert.k == 12

    def test_errors(self):
        with pytest.raises(CertifyError):
            certify_two_ev(directed_edge(), 2)
        with pytest.raises(CertifyError):
            certify_two_ev(OrientedGraph(4, [(0, 1), (2, 3)]), 6)
        with pytest.raises(CertifyError):
            certify_two_ev(OrientedGraph(1, []), 6)

    def test_json_round_trip_fields(self):
        obj = certify_two_ev(directed_triangle(), 6).to_json_obj()
        assert obj["verdict"] == "yes"
        assert obj["pair"][1] == {"int": -2}

    def test_agrees_with_float_clusters(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            D = OrientedGraph(n, arcs)
            try:
                cert = certify_two_ev(D, 6)
            except CertifyError:
                continue
            clusters = Spectrum.of_matrix(build_float_H(D, 6)).clusters
            assert cert.verdict == (len(clusters) == 2)


class TestThreeEv:
    def test_skew_hadamard_order7(self):
        from hermspec.constructions import paley_skew_hadamard, tournament_from_skew_hadamard

        rep = certify_three_ev_tournament(tournament_from_skew_hadamard(paley_skew_hadamard(7)))
        assert rep.verdict and not rep.collapsed
        assert rep.expected[0][0] == pytest.approx(3.0)
        assert rep.expected[1][0] == pytest.approx(-0.5 + math.sqrt(21) / 2)

    def test_order3_collapses(self):
        rep = certify_three_ev_tournament(regular_tournament(3))
        assert rep.verdict and rep.collapsed
        assert len(rep.expected) == 2

    def test_order5_circulant_is_a_no_case(self):
        rep = certify_three_ev_tournament(regular_tournament(5))
        assert not rep.verdict
        assert "clusters" in rep.failure_reason

    def test_non_tournament_rejected(self):
        with pytest.raises(CertifyError):
            certify_three_ev_tournament(OrientedGraph(3, [(0, 1), (1, 2)]))

    def test_irregular_tournament_rejected(self):
        with pytest.raises(CertifyError):
            certify_three_ev_tournament(OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))


class TestCommonNeighborRule:
    def test_k33(self):
        assert check_common_neighbor_rule(complete_bipartite(3, 3))

    def test_k55m(self):
        assert check_common_neighbor_rule(k55_minus_matching())

    def test_c4_fails(self):
        assert not check_common_neighbor_rule(cycle_graph(4))

    def test_k4_fails(self):
        assert not check_common_neighbor_rule(complete_graph(4))

    def test_holds_for_certified_oriented_k6(self):
        # yes-instances with r = -s at k = 6 must satisfy the rule
        for D in (oriented_k33(), oriented_k55_minus_matching(), directed_edge()):
            cert = certify_two_ev(D, 6)
            assert cert.verdict and cert.r == pytest.approx(-cert.s)
            from hermspec.graphs import underlying

            assert check_common_neighbor_rule(underlying(D))


class TestSBound:
    def test_triangle_equality(self):
        cert = certify_two_ev(directed_triangle(), 6)
        assert check_s_bound(cert, directed_triangle(), 6)
        assert cert.s == pytest.approx(-2.0)

    def test_strict_cases(self):
        for D in (directed_edge(), oriented_k33(), mixed_c4(), complete_mixed(4)):
            cert = certify_two_ev(D, 6)
            assert check_s_bound(cert, D, 6)

    def test_k55m_equality(self):
        D = oriented_k55_minus_matching()
        assert check_s_bound(certify_two_ev(D, 6), D, 6)

    def test_requires_yes_certificate(self):
        cert = certify_two_ev(OrientedGraph(3, [(0, 1), (1, 2)]), 6)
        with pytest.raises(CertifyError):
            check_s_bound(cert, OrientedGraph(3, [(0, 1), (1, 2)]), 6)

    def test_rejects_nonpositive_real_part(self):
        cert = certify_two_ev(directed_triangle(), 6)
        with pytest.raises(CertifyError):
            check_s_bound(cert, directed_triangle(), 3)


class TestWalkCensus:
    def test_triangle_arc(self):
        census = walk_value_census(directed_triangle(), 0, 1)
        assert (census.a, census.b, census.c) == (0, 0, 1)

    def test_k33_same_side_pair(self):
        census = walk_value_census(oriented_k33(), 0, 1)
        assert (census.a, census.b, census.c) == (1, 1, 1)

    def test_k55m_adjacent_pair_empty(self):
        # triangle-free: adjacent vertices have no common neighbours
        D = oriented_k55_minus_matching()
        u, v = D.arcs[0]
        census = walk_value_census(D, u, v)
        assert (census.a, census.b, census.c) == (0, 0, 0)

    def test_identities_on_certified_graphs(self):
        # for an arc u->v in a yes-instance with pair (r, -2r...) the census
        # satisfies a == b and a - c == r - 2 when the pair is (1, -2),
        # and a == b == c when r == -s
        tri = directed_triangle()
        for u, v in tri.arcs:
            cen = walk_value_census(tri, u, v)
            assert cen.a == cen.b and cen.a - cen.c == -1
        k33 = oriented_k33()
        for u, v in k33.arcs:
            cen = walk_value_census(k33, u, v)
            assert cen.a == cen.b == cen.c

    def test_census_matches_matrix_entry(self):
        # a + b*omega^2 + c*omega^4 equals the (u, v) entry of H^2
        rng = np.random.default_rng(13)
        w2 = np.exp(2j * np.pi / 3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            D = OrientedGraph(n, arcs)
            H = build_float_H(D, 6)
            H2 = H @ H
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            cen = walk_value_census(D, u, v)
            assert H2[u, v] == pytest.approx(cen.a + cen.b * w2 + cen.c * w2**2, abs=1e-9)
