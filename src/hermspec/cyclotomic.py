"""Hermitian adjacency matrices of oriented, mixed and signed graphs.

A graph with a state on every edge is encoded once, as a pair of integer
matrices (R, S): R holds the real unit entries (1 for an undirected edge,
+1/-1 for a signed edge) and S holds +1 where H = zeta and -1 where
H = conj(zeta) (an arc u->v puts +1 at (u, v) and -1 at (v, u)).  Every
matrix is one elementwise map of (R, S) at the order k:

    complex_matrix:    H = R + zeta*[S > 0] + conj(zeta)*[S < 0], any k >= 3
    exact_components:  H = A + B*zeta over Z[zeta_k], k in {3, 4, 6}

For those three orders zeta satisfies an integer quadratic, so products
reduce back to the form a + b*zeta and matrix identities can be decided with
no rounding:

    k=6:  zeta^2 =  zeta - 1      conj(zeta) =  1 - zeta
    k=4:  zeta^2 = -1             conj(zeta) =    - zeta
    k=3:  zeta^2 = -zeta - 1      conj(zeta) = -1 - zeta

For any other order the constant term of small characteristic polynomials
is already irrational, so only the floating-point representation exists.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

EXACT_ORDERS = (3, 4, 6)

# zeta^2 = _SQ_CONST[k] + _SQ_LIN[k] * zeta
_SQ_CONST = {3: -1, 4: -1, 6: -1}
_SQ_LIN = {3: -1, 4: 0, 6: 1}
# conj(zeta) = _CONJ_CONST[k] + _CONJ_LIN[k] * zeta
_CONJ_CONST = {3: -1, 4: 0, 6: 1}
_CONJ_LIN = {3: -1, 4: -1, 6: -1}


class CycError(ValueError):
    pass


@dataclass(frozen=True)
class RootOfUnity:
    """A primitive k-th root of unity sigma_1 = cos(2*pi/k) + i*sin(2*pi/k)."""

    k: int

    def __post_init__(self):
        if self.k < 3:
            raise CycError("root order must be >= 3")

    @property
    def exact(self):
        return self.k in EXACT_ORDERS

    @property
    def real_part(self):
        return math.cos(2 * math.pi / self.k)

    @property
    def value(self):
        return cmath.exp(2j * math.pi / self.k)


@dataclass(frozen=True)
class CycInt:
    """a + b*zeta_k with integer a, b and k in {3, 4, 6}."""

    a: int
    b: int
    k: int

    def __post_init__(self):
        if self.k not in EXACT_ORDERS:
            raise CycError(f"no exact arithmetic for k={self.k}; use floats")

    def _coerce(self, other):
        if isinstance(other, int):
            return CycInt(other, 0, self.k)
        if isinstance(other, CycInt):
            if other.k != self.k:
                raise CycError(f"mixed orders k={self.k} and k={other.k}")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.a + other.a, self.b + other.b, self.k)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.a - other.a, self.b - other.b, self.k)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return CycInt(-self.a, -self.b, self.k)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a1 + b1 z)(a2 + b2 z) = a1 a2 + (a1 b2 + a2 b1) z + b1 b2 z^2
        cross = self.b * other.b
        return CycInt(
            self.a * other.a + cross * _SQ_CONST[self.k],
            self.a * other.b + self.b * other.a + cross * _SQ_LIN[self.k],
            self.k,
        )

    __rmul__ = __mul__

    def conj(self):
        return CycInt(
            self.a + self.b * _CONJ_CONST[self.k],
            self.b * _CONJ_LIN[self.k],
            self.k,
        )

    @property
    def is_zero(self):
        return self.a == 0 and self.b == 0

    def embed(self) -> complex:
        """Image under zeta -> exp(2*pi*i/k) in double precision."""
        return self.a + self.b * cmath.exp(2j * math.pi / self.k)

    def __repr__(self):
        return f"CycInt({self.a}, {self.b}, k={self.k})"


def zeta(k) -> CycInt:
    return CycInt(0, 1, k)


def one(k) -> CycInt:
    return CycInt(1, 0, k)


# Entries of an exact matrix, and every entry of a product of two, stay
# below this magnitude, so the sum of two such values still fits int64.
_INT_LIMIT = 2 ** 62


def _max_abs(A, B) -> int:
    """Largest entry magnitude of two int64 arrays, as a Python int."""
    if not A.size:
        return 0
    return max(int(A.max()), int(B.max()), -int(A.min()), -int(B.min()))


def _int64_component(comp):
    """An integer array-like as an int64 array.  Floats are refused rather
    than truncated, and Python ints beyond int64 rather than wrapped."""
    M = np.asarray(comp)
    if M.dtype == object:
        if not all(isinstance(x, (int, np.integer)) for x in M.flat):
            raise CycError("component entries must be integers")
    elif not np.can_cast(M.dtype, np.int64):
        raise CycError(f"component entries must be integers, got dtype {M.dtype}")
    try:
        return M.astype(np.int64, copy=False)
    except OverflowError:
        raise CycError("component entries do not fit int64") from None


class ExactHermitianMatrix:
    """Square matrix over Z[zeta_k] with M = M*.

    Internally a pair of int64 component matrices (A, B) with M = A + B*zeta,
    so products reduce to a handful of integer matrix multiplications.
    Entries must stay below 2^62 in magnitude, and `exact_matmul`
    refuses any product whose entries could reach it, so integer arithmetic
    never wraps: a result is either exact or a CycError.  At desk scale
    entries are bounded by the graph order.
    """

    def __init__(self, comp_a, comp_b, k, check=True):
        if k not in EXACT_ORDERS:
            raise CycError(f"no exact matrices for k={k}")
        self.k = k
        self.A = _int64_component(comp_a)
        self.B = _int64_component(comp_b)
        if self.A.shape != self.B.shape or self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise CycError("component matrices must be square and same shape")
        if _max_abs(self.A, self.B) >= _INT_LIMIT:
            raise CycError("component entries must be below 2^62 in magnitude")
        if check and not self._is_hermitian():
            raise CycError("matrix is not Hermitian under the conjugation rule")

    @property
    def n(self):
        return self.A.shape[0]

    def _is_hermitian(self):
        # conj(a + b z) = (a + cc*b) + cl*b*z
        cc, cl = _CONJ_CONST[self.k], _CONJ_LIN[self.k]
        A, B = self.A, self.B
        return bool(((A + cc * B).T == A).all() and ((cl * B).T == B).all())

    def entry(self, u, v) -> CycInt:
        return CycInt(int(self.A[u, v]), int(self.B[u, v]), self.k)

    @classmethod
    def zero(cls, n, k):
        z = np.zeros((n, n), dtype=np.int64)
        return cls(z, z.copy(), k, check=False)

    @classmethod
    def identity(cls, n, k):
        return cls(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64), k, check=False)

    @classmethod
    def all_ones(cls, n, k):
        return cls(np.ones((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64), k,
                   check=False)

    def embed(self) -> np.ndarray:
        z = cmath.exp(2j * math.pi / self.k)
        return self.A.astype(np.complex128) + z * self.B.astype(np.complex128)

    def to_json_obj(self):
        return {
            "k": self.k,
            "entries": [
                [[int(self.A[i, j]), int(self.B[i, j])] for j in range(self.n)]
                for i in range(self.n)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj):
        ent = obj["entries"]
        A = [[e[0] for e in row] for row in ent]
        B = [[e[1] for e in row] for row in ent]
        return cls(A, B, obj["k"])

    def __eq__(self, other):
        if not isinstance(other, ExactHermitianMatrix):
            return NotImplemented
        return (
            self.k == other.k
            and bool(np.all(self.A == other.A))
            and bool(np.all(self.B == other.B))
        )


def exact_matmul(X: ExactHermitianMatrix, Y: ExactHermitianMatrix):
    """Exact product; returned components may no longer be Hermitian.
    Raises CycError, before multiplying, when an entry of the result could
    reach 2^62 (each is a sum of at most 3n products of entries)."""
    if X.k != Y.k:
        raise CycError("mixed orders")
    if X.n != Y.n:
        raise CycError("dimension mismatch")
    if 3 * X.n * _max_abs(X.A, X.B) * _max_abs(Y.A, Y.B) >= _INT_LIMIT:
        raise CycError("exact product could overflow int64")
    k = X.k
    cross = X.B @ Y.B
    comp_a = X.A @ Y.A + _SQ_CONST[k] * cross
    comp_b = X.A @ Y.B + X.B @ Y.A + _SQ_LIN[k] * cross
    return comp_a, comp_b


def exact_quadratic_check(H: ExactHermitianMatrix, p: int, q: int) -> bool:
    """Decide H^2 - p*H + q*I = 0 exactly over Z[zeta_k]."""
    if abs(p) * max(1, _max_abs(H.A, H.B)) + abs(q) >= _INT_LIMIT:
        raise CycError("coefficients p, q could overflow int64")
    sq_a, sq_b = exact_matmul(H, H)
    res_a = sq_a - p * H.A + q * np.eye(H.n, dtype=np.int64)
    res_b = sq_b - p * H.B
    return bool(np.all(res_a == 0) and np.all(res_b == 0))


# (R, S) written at (u, v) and at (v, u) by each state of an edge (u, v);
# digit d of an assignment selects row d of its mode's table.
_ARC = ((0, 1), (0, -1))  # arc u -> v: zeta at (u, v), conj(zeta) at (v, u)
_REVERSED = ((0, -1), (0, 1))  # arc v -> u
_EDGE = ((1, 0), (1, 0))  # undirected edge, or a positive sign
EDGE_STATES = {
    "oriented": np.array([_ARC, _REVERSED], dtype=np.int8),
    "mixed": np.array([_ARC, _REVERSED, _EDGE], dtype=np.int8),
    "signed": np.array([_EDGE, ((-1, 0), (-1, 0))], dtype=np.int8),
}


def relation_matrices(D):
    """(R, S) of one oriented, mixed or signed graph."""
    R = np.zeros((D.n, D.n), dtype=np.int64)
    S = np.zeros_like(R)
    for u, v in getattr(D, "arcs", ()):
        S[u, v] = 1
        S[v, u] = -1
    for u, v in getattr(D, "edges", ()):
        R[u, v] = R[v, u] = 1
    for u, v, sign in getattr(D, "signed_edges", ()):
        R[u, v] = R[v, u] = sign
    return R, S


def relation_stacks(digits, edges, n, mode):
    """(R, S) stacks (C, n, n) of C assignments given as digit rows (C, m)
    over an edge list: digit d of edge (u, v) writes row d of
    EDGE_STATES[mode] at (u, v) and (v, u)."""
    vals = EDGE_STATES[mode][digits]
    u, v = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    RS = np.zeros((len(digits), n, n, 2), dtype=np.int8)
    RS[:, u, v] = vals[:, :, 0]
    RS[:, v, u] = vals[:, :, 1]
    return RS[..., 0], RS[..., 1]


def exact_components(R, S, k):
    """Integer components (A, B) of H = A + B*zeta over Z[zeta_k]:
    A = R + cc*[S < 0] and B = [S > 0] + cl*[S < 0], where
    conj(zeta) = cc + cl*zeta.  The brackets are lookups of S + 1."""
    if k not in EXACT_ORDERS:
        raise CycError(f"no exact arithmetic for order {k}; use complex_matrix")
    idx = S + 1
    return R + np.array([_CONJ_CONST[k], 0, 0])[idx], np.array([_CONJ_LIN[k], 0, 1])[idx]


def complex_matrix(R, S, k):
    """H = R + zeta*[S > 0] + conj(zeta)*[S < 0] in double precision; the
    brackets are a lookup of S + 1."""
    z = RootOfUnity(k).value
    H = np.array([z.conjugate(), 0, z])[S + 1]
    H += R
    return H


def build_exact_H(D, k) -> ExactHermitianMatrix:
    """Hermitian adjacency matrix of a mixed graph over Z[zeta_k]."""
    return ExactHermitianMatrix(*exact_components(*relation_matrices(D), k), k)


def build_float_H(D, sigma: RootOfUnity | int) -> np.ndarray:
    """Complex Hermitian adjacency matrix in double precision, any k >= 3."""
    return complex_matrix(*relation_matrices(D), getattr(sigma, "k", sigma))


def signed_adjacency(S) -> np.ndarray:
    """Integer adjacency matrix of a signed graph."""
    return relation_matrices(S)[0]
