import cmath
import math

import numpy as np
import pytest

from hermspec.cyclotomic import (
    EDGE_STATES,
    CycError,
    CycInt,
    ExactHermitianMatrix,
    RootOfUnity,
    build_exact_H,
    build_float_H,
    complex_matrix,
    cyclotomic_polynomial,
    exact_components,
    exact_matmul,
    exact_quadratic_check,
    exact_quadratic_checks,
    one,
    relation_matrices,
    relation_stacks,
    signed_adjacency,
    zeta,
    zeta_powers,
)
from hermspec.graphs import MixedGraph, OrientedGraph, SignedGraph
from hermspec.search import (
    _decode_mixed,
    _decode_oriented,
    _decode_signed,
    connected_edge_subsets,
)


class TestRootOfUnity:
    def test_values(self):
        assert RootOfUnity(4).value == pytest.approx(1j)
        assert RootOfUnity(6).value == pytest.approx(0.5 + 0.5j * math.sqrt(3))
        assert RootOfUnity(3).value == pytest.approx(-0.5 + 0.5j * math.sqrt(3))

    def test_exact_orders(self):
        assert RootOfUnity(6).exact
        assert RootOfUnity(4).exact
        assert not RootOfUnity(5).exact
        assert not RootOfUnity(12).exact

    def test_real_part(self):
        assert RootOfUnity(6).real_part == pytest.approx(0.5)
        assert RootOfUnity(3).real_part == pytest.approx(-0.5)

    def test_bad_order(self):
        with pytest.raises(CycError):
            RootOfUnity(2)


class TestCycInt:
    def test_k6_identities(self):
        w = zeta(6)
        assert w * w.conj() == one(6)
        assert w * w * w == CycInt(-1, 0, 6)
        # 1 + w^2 + w^4 == 0
        w2 = w * w
        assert (one(6) + w2 + w2 * w2).is_zero

    def test_k4_identities(self):
        i_ = zeta(4)
        assert i_ * i_ == CycInt(-1, 0, 4)
        assert i_.conj() == -i_

    def test_k3_identities(self):
        z = zeta(3)
        assert z * z * z == one(3)
        assert (one(3) + z + z * z).is_zero

    def test_conj_is_involution(self):
        for k in (3, 4, 6):
            for a in range(-2, 3):
                for b in range(-2, 3):
                    x = CycInt(a, b, k)
                    assert x.conj().conj() == x

    def test_norm_real_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.choice([3, 4, 6]))
            x = CycInt(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)), k)
            nrm = (x * x.conj()).embed()
            assert abs(nrm.imag) < 1e-12
            assert nrm.real >= -1e-12

    def test_embed_homomorphism(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.choice([3, 4, 6]))
            x = CycInt(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)), k)
            y = CycInt(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)), k)
            assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-12
            assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-12
            assert abs(x.conj().embed() - np.conj(x.embed())) < 1e-12

    def test_k3_is_negated_k6(self):
        # zeta_3 = -conj(zeta_6) = zeta_6^2
        assert zeta(3).embed() == pytest.approx((zeta(6) * zeta(6)).embed())

    def test_mixed_order_rejected(self):
        with pytest.raises(CycError):
            zeta(3) + zeta(6)


def directed_triangle():
    return OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])


class TestHermitianMatrix:
    def test_build_edge(self):
        H = build_exact_H(OrientedGraph(2, [(0, 1)]), 6)
        assert H.entry(0, 1) == zeta(6)
        assert H.entry(1, 0) == zeta(6).conj()
        assert H.entry(0, 0).is_zero

    def test_undirected_entry(self):
        H = build_exact_H(MixedGraph(2, edges=[(0, 1)]), 6)
        assert H.entry(0, 1) == one(6)
        assert H.entry(1, 0) == one(6)

    def test_embed_matches_float_builder(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            k = int(rng.choice([3, 4, 6]))
            arcs, edges = [], []
            for u in range(n):
                for v in range(u + 1, n):
                    x = rng.random()
                    if x < 0.3:
                        arcs.append((u, v))
                    elif x < 0.5:
                        edges.append((u, v))
            D = MixedGraph(n, tuple(arcs), tuple(edges))
            diff = build_exact_H(D, k).embed() - build_float_H(D, k)
            assert np.max(np.abs(diff)) < 1e-15

    def test_hermiticity_enforced(self):
        a = np.array([[0, 1], [0, 0]], dtype=object)
        b = np.zeros((2, 2), dtype=object)
        with pytest.raises(CycError):
            ExactHermitianMatrix(a, b, 6)

    def test_json_round_trip(self):
        H = build_exact_H(directed_triangle(), 6)
        H2 = ExactHermitianMatrix.from_json_obj(H.to_json_obj())
        assert H == H2

    def test_matmul_squares_triangle(self):
        # H^2 = -H + 2I for the directed triangle at k = 6
        H = build_exact_H(directed_triangle(), 6)
        sq_a, sq_b = exact_matmul(H, H)
        assert (sq_a == -H.A + 2 * np.eye(3, dtype=object)).all()
        assert (sq_b == -H.B).all()

    def test_matmul_exact_up_to_the_bound(self):
        # 3 * n * max|X| * max|Y| = 3 * 2^59 < 2^62: exact, and the squares
        # of the entries are 2^58
        H = ExactHermitianMatrix([[0, 2 ** 29], [2 ** 29, 0]], [[0, 0], [0, 0]], 4)
        sq_a, sq_b = exact_matmul(H, H)
        assert sq_a.tolist() == [[2 ** 58, 0], [0, 2 ** 58]] and not sq_b.any()
        assert exact_quadratic_check(H, 0, -(2 ** 58))

    def test_matmul_overflow_refused(self):
        H = ExactHermitianMatrix([[0, 2 ** 30], [2 ** 30, 0]], [[0, 0], [0, 0]], 4)
        with pytest.raises(CycError, match="overflow"):
            exact_matmul(H, H)
        with pytest.raises(CycError, match="overflow"):
            exact_quadratic_check(H, 0, -(2 ** 60))
        small = build_exact_H(directed_triangle(), 6)
        with pytest.raises(CycError, match="overflow"):
            exact_quadratic_check(small, 2 ** 70, 0)

    @pytest.mark.parametrize("big", [2 ** 62, 2 ** 63, 2 ** 70, -(2 ** 70)])
    def test_json_entry_too_large(self, big):
        obj = {"k": 6, "entries": [[[0, 0], [big, 0]], [[big, 0], [0, 0]]]}
        with pytest.raises(CycError):
            ExactHermitianMatrix.from_json_obj(obj)

    @pytest.mark.parametrize("comp_a", [
        [[0, 0.5], [0.5, 0]],
        [[0, 1.0], [1.0, 0]],
        [[0, "1"], ["1", 0]],
        [[0, 2 ** 70], [0.5, 0]],
        np.zeros((2, 2), dtype=np.uint64),
    ])
    def test_non_integer_entries_refused(self, comp_a):
        # int64 conversion would truncate or wrap these silently
        with pytest.raises(CycError, match="integers"):
            ExactHermitianMatrix(comp_a, [[0, 0], [0, 0]], 4)

    def test_inexact_order_rejected(self):
        with pytest.raises(CycError):
            build_exact_H(directed_triangle(), 5)


class TestQuadraticCheck:
    def test_triangle_yes(self):
        # eigenvalues {1, -2}: sum -1, product -2
        H = build_exact_H(directed_triangle(), 6)
        assert exact_quadratic_check(H, -1, -2)
        assert not exact_quadratic_check(H, 0, -1)

    def test_edge_yes(self):
        # eigenvalues {1, -1}: sum 0, product -1
        H = build_exact_H(OrientedGraph(2, [(0, 1)]), 6)
        assert exact_quadratic_check(H, 0, -1)

    def test_directed_path_no(self):
        H = build_exact_H(OrientedGraph(3, [(0, 1), (1, 2)]), 6)
        assert not exact_quadratic_check(H, 0, -2)

    def test_agrees_with_float_evaluation(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            k = int(rng.choice([3, 4, 6]))
            arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            D = OrientedGraph(n, arcs)
            H = build_exact_H(D, k)
            p, q = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            M = H.embed()
            resid = M @ M - p * M + q * np.eye(n)
            assert exact_quadratic_check(H, p, q) == (np.max(np.abs(resid)) < 1e-8)


class TestSignedAdjacency:
    def test_small(self):
        S = SignedGraph(3, ((0, 1, 1), (1, 2, -1)))
        A = signed_adjacency(S)
        assert A.tolist() == [[0, 1, 0], [1, 0, -1], [0, -1, 0]]
        assert (A == A.T).all()


def _loop_hermitian(D, k):
    """H(D) at exp(2*pi*i/k), entry by entry."""
    z = cmath.exp(2j * math.pi / k)
    H = np.zeros((D.n, D.n), dtype=np.complex128)
    for u, v in D.arcs:
        H[u, v] = z
        H[v, u] = z.conjugate()
    for u, v in D.edges:
        H[u, v] = H[v, u] = 1.0
    return H


def _random_graphs(rng, n):
    """A random mixed graph and a random signed graph on n vertices."""
    arcs, edges, signed = [], [], []
    for u in range(n):
        for v in range(u + 1, n):
            kind = int(rng.integers(4))  # none, arc u->v, arc v->u, edge
            if kind == 1:
                arcs.append((u, v))
            elif kind == 2:
                arcs.append((v, u))
            elif kind == 3:
                edges.append((u, v))
            if kind:
                signed.append((u, v, int(rng.choice([1, -1]))))
    return MixedGraph(n, tuple(arcs), tuple(edges)), SignedGraph(n, tuple(signed))


class TestRelationMatrices:
    def test_builders_match_entry_loops(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            D, S = _random_graphs(rng, n)
            for k in range(3, 13):
                H = _loop_hermitian(D, k)
                assert np.array_equal(build_float_H(D, k), H)
                assert np.array_equal(build_float_H(D, RootOfUnity(k)), H)
                if k in (3, 4, 6):
                    E = build_exact_H(D, k)
                    assert E.A.dtype == np.int64 and E.B.dtype == np.int64
                    assert np.max(np.abs(E.embed() - H), initial=0) < 1e-15
            M = np.zeros((n, n), dtype=np.int64)
            for u, v, sign in S.signed_edges:
                M[u, v] = M[v, u] = sign
            assert np.array_equal(signed_adjacency(S), M)

    @pytest.mark.parametrize("mode, decode", [("oriented", _decode_oriented),
                                              ("mixed", _decode_mixed),
                                              ("signed", _decode_signed)])
    def test_stacks_match_decoded_graphs(self, mode, decode):
        base = len(EDGE_STATES[mode])
        for n in range(2, 5):
            for G in connected_edge_subsets(n):
                m = len(G.edges)
                digits = (np.arange(base ** m)[:, None] // base ** np.arange(m)) % base
                R, S = relation_stacks(digits, G.edges, n, mode)
                for row, r, s in zip(digits, R, S):
                    R1, S1 = relation_matrices(decode(row, G.edges, n))
                    assert np.array_equal(r, R1) and np.array_equal(s, S1), (G.edges, row)


def _power_mod(j, phi_k):
    """Coordinates of x^j mod Phi_k by schoolbook long division."""
    rem = [0] * j + [1]
    deg = len(phi_k) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        lead = rem[top]
        for i, a in enumerate(phi_k):
            rem[top - deg + i] -= lead * a
    return (rem + [0] * deg)[:deg]


class TestPowerBasis:
    def test_cyclotomic_polynomials_multiply_to_x_k_minus_1(self):
        for k in range(1, 61):
            prod = np.array([1])
            for d in range(1, k + 1):
                if k % d == 0:
                    prod = np.convolve(prod, cyclotomic_polynomial(d))
            assert prod.tolist() == [-1] + [0] * (k - 1) + [1], k

    def test_known_polynomials(self):
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
        assert cyclotomic_polynomial(105)[7] == -2

    def test_powers_match_long_division(self):
        for k in range(3, 31):
            phi_k = list(cyclotomic_polynomial(k))
            table = zeta_powers(k, range(-k, 2 * k))
            for row, j in zip(table, range(-k, 2 * k)):
                assert row.tolist() == _power_mod(j % k, phi_k), (k, j)

    def test_powers_embed_to_roots_of_unity(self):
        for k in range(3, 31):
            z = cmath.exp(2j * math.pi / k)
            table = zeta_powers(k, range(-13, 14))
            emb = table @ z ** np.arange(table.shape[1])
            assert np.max(np.abs(emb - z ** np.arange(-13, 14))) < 1e-9, k

    def test_quadratic_orders_read_off_the_table(self):
        # zeta^2 and conj(zeta) = zeta^(k-1) at k = 3, 4, 6, as listed in the
        # module docstring
        assert zeta_powers(6, (2, 5)).tolist() == [[-1, 1], [1, -1]]
        assert zeta_powers(4, (2, 3)).tolist() == [[-1, 0], [0, -1]]
        assert zeta_powers(3, (2, -1)).tolist() == [[-1, -1], [-1, -1]]
        for k in (3, 4, 6):
            assert zeta(k) * zeta(k) == CycInt(*zeta_powers(k, (2,))[0].tolist(), k)
            assert zeta(k).conj() == CycInt(*zeta_powers(k, (k - 1,))[0].tolist(), k)

    def test_bad_order(self):
        with pytest.raises(CycError):
            zeta_powers(2, (1,))
        with pytest.raises(CycError):
            exact_components(np.zeros((2, 2), dtype=np.int8), np.zeros((2, 2), dtype=np.int8), 2)


class TestExactComponents:
    def test_quadratic_orders_give_a_b(self):
        cc = {3: -1, 4: 0, 6: 1}
        cl = {3: -1, 4: -1, 6: -1}
        rng = np.random.default_rng(21)
        for _ in range(30):
            D, S = _random_graphs(rng, int(rng.integers(1, 8)))
            for G in (D, S):
                R, Sm = relation_matrices(G)
                for k in (3, 4, 6):
                    A, B = exact_components(R, Sm, k)
                    assert np.array_equal(A, R + cc[k] * (Sm < 0))
                    assert np.array_equal(B, (Sm > 0) + cl[k] * (Sm < 0))
                    assert A.dtype == np.int64 and B.dtype == np.int64

    def test_every_order_embeds_to_the_complex_matrix(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            D, S = _random_graphs(rng, int(rng.integers(1, 8)))
            for G in (D, S):
                R, Sm = relation_matrices(G)
                for k in range(3, 25):
                    comps = exact_components(R, Sm, k)
                    assert len(comps) == len(cyclotomic_polynomial(k)) - 1
                    z = cmath.exp(2j * math.pi / k)
                    H = sum(C * z ** c for c, C in enumerate(comps))
                    assert np.max(np.abs(H - complex_matrix(R, Sm, k)), initial=0) < 1e-12

    def test_quadratic_checks_square_once(self, monkeypatch):
        import hermspec.cyclotomic as cyc
        H = build_exact_H(MixedGraph(4, edges=tuple((u, v) for u in range(4)
                                                   for v in range(u + 1, 4))), 6)
        # K4 undirected: H^2 = 2H + 3I
        pairs = [(0, -3), (2, -3), (-2, -3), (1, 0)]
        assert exact_quadratic_checks(H, pairs) == [False, True, False, False]
        assert exact_quadratic_checks(H, pairs) == [exact_quadratic_check(H, p, q)
                                                    for p, q in pairs]
        calls = []
        real = cyc.exact_matmul
        monkeypatch.setattr(cyc, "exact_matmul", lambda X, Y: calls.append(1) or real(X, Y))
        exact_quadratic_checks(H, pairs)
        assert len(calls) == 1
        with pytest.raises(CycError, match="overflow"):
            exact_quadratic_checks(H, [(0, -3), (2 ** 70, 0)])
        assert len(calls) == 1  # refused before the square
