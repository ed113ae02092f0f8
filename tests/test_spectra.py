import math

import numpy as np
import pytest

from hermspec.cyclotomic import build_float_H
from hermspec.graphs import MixedGraph, OrientedGraph
from hermspec.spectra import (
    SpectraError,
    Spectrum,
    char_poly_eigenvalues,
    cluster,
    hermitian_eigenvalues,
    interlaces,
    jacobi_eigenvalues,
)


def random_hermitian(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (M + M.conj().T) / 2


class TestEigenvalues:
    def test_edge(self):
        H = build_float_H(OrientedGraph(2, [(0, 1)]), 6)
        assert np.allclose(hermitian_eigenvalues(H), [1, -1], atol=1e-12)

    def test_directed_triangle(self):
        H = build_float_H(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]), 6)
        assert np.allclose(hermitian_eigenvalues(H), [1, 1, -2], atol=1e-12)

    def test_mixed_four_cycle(self):
        D = MixedGraph(4, arcs=[(0, 1), (1, 2), (2, 3)], edges=[(0, 3)])
        H = build_float_H(D, 6)
        r = math.sqrt(2)
        assert np.allclose(hermitian_eigenvalues(H), [r, r, -r, -r], atol=1e-12)

    def test_trivial_sizes(self):
        assert hermitian_eigenvalues(np.zeros((0, 0))).shape == (0,)
        assert np.allclose(hermitian_eigenvalues(np.array([[3.0]])), [3.0])

    def test_descending_order(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            eigs = hermitian_eigenvalues(random_hermitian(rng, int(rng.integers(2, 12))))
            assert (np.diff(eigs) <= 1e-12).all()

    def test_against_lapack(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            H = random_hermitian(rng, int(rng.integers(2, 15)))
            ours = hermitian_eigenvalues(H)
            ref = np.linalg.eigvalsh(H)[::-1]
            assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.linalg.norm(H))

    def test_trace_and_frobenius(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            H = random_hermitian(rng, int(rng.integers(1, 10)))
            eigs = hermitian_eigenvalues(H)
            assert abs(eigs.sum() - np.trace(H).real) < 1e-10
            assert abs((eigs**2).sum() - np.linalg.norm(H) ** 2) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(SpectraError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_jacobi_against_lapack(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            H = random_hermitian(rng, int(rng.integers(2, 15)))
            ours = jacobi_eigenvalues(H)
            ref = np.linalg.eigvalsh(H)[::-1]
            assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.linalg.norm(H))

    @pytest.mark.parametrize("solver", [hermitian_eigenvalues, jacobi_eigenvalues])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)])
    def test_non_finite_rejected(self, solver, bad):
        H = np.array([[0, bad], [np.conj(bad), 0]], dtype=complex)
        with pytest.raises(SpectraError, match="non-finite"):
            solver(H)
        with pytest.raises(SpectraError, match="non-finite"):
            solver(np.array([[bad]], dtype=complex))

    def test_three_solvers_agree_on_small_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
            H = build_float_H(OrientedGraph(n, arcs), int(rng.choice([3, 4, 6])))
            eigs = hermitian_eigenvalues(H)
            scale = max(1.0, np.linalg.norm(H))
            assert np.max(np.abs(eigs - jacobi_eigenvalues(H))) < 1e-10 * scale
            assert np.max(np.abs(eigs - char_poly_eigenvalues(H))) < 1e-8

    def test_charpoly_oracle_small(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            arcs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
            H = build_float_H(OrientedGraph(n, arcs), int(rng.choice([3, 4, 6])))
            assert np.max(np.abs(hermitian_eigenvalues(H) - char_poly_eigenvalues(H))) < 1e-8


class TestCluster:
    def test_two_groups(self):
        assert cluster(np.array([2.0, 2.0 + 1e-9, -1.0]), tol=1e-6) == [(2.0 + 5e-10, 2), (-1.0, 1)]

    def test_all_distinct(self):
        groups = cluster(np.array([3.0, 1.0, -2.0]))
        assert [m for _, m in groups] == [1, 1, 1]

    def test_single_value(self):
        assert cluster(np.array([1.0, 1.0, 1.0])) == [(1.0, 3)]


class TestSpectrum:
    def test_of_matrix(self):
        H = build_float_H(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]), 6)
        sp = Spectrum.of_matrix(H)
        assert [m for _, m in sp.clusters] == [2, 1]
        assert sp.n == 3

    def test_json(self):
        H = build_float_H(OrientedGraph(2, [(0, 1)]), 6)
        obj = Spectrum.of_matrix(H).to_json_obj()
        assert obj["clusters"][0][1] == 1


class TestInterlacing:
    def test_principal_submatrix_interlaces(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            H = random_hermitian(rng, n)
            keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            child = H[np.ix_(keep, keep)]
            assert interlaces(Spectrum.of_matrix(H), Spectrum.of_matrix(child))

    def test_violation_detected(self):
        assert not interlaces(Spectrum((1.0, -1.0)), Spectrum((5.0,)))

    def test_child_must_be_smaller(self):
        with pytest.raises(SpectraError):
            interlaces(Spectrum((1.0,)), Spectrum((0.0, 0.0)))
