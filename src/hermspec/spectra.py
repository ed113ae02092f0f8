"""Floating-point Hermitian eigensolvers, eigenvalue clustering, interlacing.

`hermitian_eigenvalues` is LAPACK's Hermitian eigensolver (numpy `eigvalsh`).
Two independent solvers stay as oracles for tests and `verify-paper`: a
classical cyclic Jacobi iteration with complex rotations
(`jacobi_eigenvalues`, accurate to ~1e-13 relative at desk scale) and the
roots of the cofactor-expanded characteristic polynomial
(`char_poly_eigenvalues`, n <= 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
SWEEP_TOL = 1e-13
MAX_SWEEPS = 100
DEFAULT_CLUSTER_TOL = 1e-6


class SpectraError(ValueError):
    pass


def _hermitian_input(H) -> np.ndarray:
    """H as a complex128 array, after checking that it is square, finite and
    Hermitian within HERMITICITY_TOL * max(1, ||H||_F)."""
    H = np.array(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise SpectraError("matrix must be square")
    if not np.isfinite(H).all():
        raise SpectraError("matrix has non-finite entries")
    if H.size and np.max(np.abs(H - H.conj().T)) > HERMITICITY_TOL * max(1.0, np.linalg.norm(H)):
        raise SpectraError("matrix is not Hermitian")
    return H


def hermitian_eigenvalues(H) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending (LAPACK)."""
    return np.linalg.eigvalsh(_hermitian_input(H))[::-1]


def _off_norm(H):
    return math.sqrt(max(0.0, np.linalg.norm(H) ** 2 - np.linalg.norm(np.diag(H)) ** 2))


def jacobi_eigenvalues(H) -> np.ndarray:
    """Independent oracle: real eigenvalues of a Hermitian matrix, descending.

    Cyclic Jacobi: sweep all (p, q) pairs, annihilating each off-diagonal
    entry with a complex rotation, until the off-diagonal Frobenius norm
    drops below 1e-13 * ||H||_F.
    """
    H = _hermitian_input(H)
    n = H.shape[0]
    if n == 0:
        return np.zeros(0)
    norm = np.linalg.norm(H)
    if n == 1:
        return np.array([H[0, 0].real])
    if norm == 0:
        return np.zeros(n)
    thresh = SWEEP_TOL * norm
    for _ in range(MAX_SWEEPS):
        if _off_norm(H) < thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = H[p, q]
                if abs(apq) <= thresh / n:
                    continue
                app = H[p, p].real
                aqq = H[q, q].real
                w = apq / abs(apq)
                tau = (aqq - app) / (2 * abs(apq))
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1 + tau * tau))
                c = 1.0 / math.sqrt(1 + t * t)
                s = t * c
                # Unitary G with 2x2 block [[w*c, w*s], [-s, c]]; H <- G* H G
                colp = H[:, p].copy()
                colq = H[:, q].copy()
                H[:, p] = w * c * colp - s * colq
                H[:, q] = w * s * colp + c * colq
                rowp = H[p, :].copy()
                rowq = H[q, :].copy()
                H[p, :] = w.conjugate() * c * rowp - s * rowq
                H[q, :] = w.conjugate() * s * rowp + c * rowq
                H[p, q] = 0.0
                H[q, p] = 0.0
                H[p, p] = H[p, p].real
                H[q, q] = H[q, q].real
    return np.sort(np.real(np.diag(H)))[::-1]


def cluster(eigs, tol=DEFAULT_CLUSTER_TOL):
    """Greedy merge of a descending eigenvalue list into (value, multiplicity)
    pairs; the cluster value is the mean of its members."""
    eigs = list(eigs)
    if not eigs:
        return []
    groups = [[eigs[0]]]
    for x in eigs[1:]:
        if abs(groups[-1][-1] - x) <= tol:
            groups[-1].append(x)
        else:
            groups.append([x])
    return [(sum(g) / len(g), len(g)) for g in groups]


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues plus their clustering at a tolerance."""

    eigenvalues: tuple
    tol: float = DEFAULT_CLUSTER_TOL
    clusters: tuple = field(init=False)

    def __post_init__(self):
        eigs = tuple(sorted((float(x) for x in self.eigenvalues), reverse=True))
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "clusters", tuple(cluster(eigs, self.tol)))

    @classmethod
    def of_matrix(cls, H, tol=DEFAULT_CLUSTER_TOL):
        return cls(tuple(hermitian_eigenvalues(H)), tol)

    @property
    def n(self):
        return len(self.eigenvalues)

    def to_json_obj(self):
        return {
            "eigenvalues": list(self.eigenvalues),
            "clusters": [[v, m] for v, m in self.clusters],
            "tol": self.tol,
        }


INTERLACE_TOL = 1e-9


def interlaces(parent: Spectrum, child: Spectrum, tol=INTERLACE_TOL) -> bool:
    """Cauchy interlacing: theta_{i+n-m}(parent) <= theta_i(child) <= theta_i(parent)."""
    a = parent.eigenvalues
    b = child.eigenvalues
    n, m = len(a), len(b)
    if m > n:
        raise SpectraError("child dimension exceeds parent dimension")
    for i in range(m):
        if b[i] > a[i] + tol:
            return False
        if a[i + n - m] > b[i] + tol:
            return False
    return True


def char_poly_eigenvalues(H) -> np.ndarray:
    """Independent small-matrix oracle: roots of det(xI - H) computed by
    cofactor expansion of the characteristic polynomial (n <= 6)."""
    H = np.array(H, dtype=np.complex128)
    n = H.shape[0]
    if n > 6:
        raise SpectraError("cofactor oracle limited to n <= 6")

    def det_poly(M):
        # determinant of a nested list of polynomials (coefficient arrays)
        m = len(M)
        if m == 1:
            return M[0][0]
        total = np.zeros(1, dtype=np.complex128)
        for j in range(m):
            minor = [[M[r][c] for c in range(m) if c != j] for r in range(1, m)]
            sub = det_poly(minor)
            sign = -1 if j % 2 else 1
            total = np.polynomial.polynomial.polyadd(
                total, sign * np.polynomial.polynomial.polymul(M[0][j], sub)
            )
        return total

    # entry polynomial of xI - H, coefficients in ascending order
    P = [
        [np.array([-H[i, j], 1.0 if i == j else 0.0], dtype=np.complex128) for j in range(n)]
        for i in range(n)
    ]
    coeffs = det_poly(P)
    roots = np.polynomial.polynomial.polyroots(coeffs)
    return np.sort(np.real(roots))[::-1]
