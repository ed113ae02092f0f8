"""Independent LAPACK oracle for the correctness gate.

Matrices are built here from the graphs' arc, edge and sign lists, not with
hermspec's builders, and decided with numpy's `eigvalsh`, so a check never
compares the program with itself.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

CLUSTER_TOL = 1e-6


def hermitian(D, k) -> np.ndarray:
    """H(D) at the primitive k-th root of unity exp(2*pi*i/k)."""
    z = cmath.exp(2j * math.pi / k)
    H = np.zeros((D.n, D.n), dtype=np.complex128)
    for u, v in D.arcs:
        H[u, v] = z
        H[v, u] = z.conjugate()
    for u, v in D.edges:
        H[u, v] = H[v, u] = 1.0
    return H


def signed(S) -> np.ndarray:
    M = np.zeros((S.n, S.n), dtype=np.complex128)
    for u, v, sign in S.signed_edges:
        M[u, v] = M[v, u] = sign
    return M


def clusters(eigs, tol=CLUSTER_TOL):
    """(value, multiplicity) groups of a spectrum, largest value first."""
    groups = [[]]
    for x in sorted(eigs, reverse=True):
        if groups[-1] and groups[-1][-1] - x > tol:
            groups.append([])
        groups[-1].append(float(x))
    return [(sum(g) / len(g), len(g)) for g in groups if g]


def cluster_counts(mats) -> list:
    """Cluster count of each matrix; one batched LAPACK call per order."""
    counts = [0] * len(mats)
    by_order = {}
    for i, M in enumerate(mats):
        by_order.setdefault(M.shape[0], []).append(i)
    for idx in by_order.values():
        eigs = np.linalg.eigvalsh(np.stack([mats[i] for i in idx]))
        gaps = (np.diff(eigs, axis=1) > CLUSTER_TOL).sum(axis=1) + 1
        for i, c in zip(idx, gaps):
            counts[i] = int(c)
    return counts
