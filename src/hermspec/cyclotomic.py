"""Hermitian adjacency matrices of oriented, mixed and signed graphs.

A graph with a state on every edge is encoded once, as a pair of integer
matrices (R, S): R holds the real unit entries (1 for an undirected edge,
+1/-1 for a signed edge) and S holds +1 where H = zeta and -1 where
H = conj(zeta) (an arc u->v puts +1 at (u, v) and -1 at (v, u)).  Every
matrix is one elementwise map of (R, S) at the order k:

    complex_matrix:    H = R + zeta*[S > 0] + conj(zeta)*[S < 0], any k >= 3
    exact_components:  the same H over the power basis of Z[zeta_k], any k >= 3

Z[zeta_k] has the power basis 1, zeta, ..., zeta^(phi-1) with phi = phi(k),
because the minimal polynomial of zeta, the cyclotomic polynomial Phi_k, is
monic with integer coefficients.  Integer division by Phi_k gives the
integer coordinates of every power zeta^j (`zeta_powers`), conj(zeta) =
zeta^(k-1) among them, so sums and products of such elements are decided
with no rounding.  For k in {3, 4, 6} the basis is 1, zeta and

    k=6:  zeta^2 =  zeta - 1      conj(zeta) =  1 - zeta
    k=4:  zeta^2 = -1             conj(zeta) =    - zeta
    k=3:  zeta^2 = -zeta - 1      conj(zeta) = -1 - zeta

`CycInt` and `ExactHermitianMatrix` implement these three orders.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

EXACT_ORDERS = (3, 4, 6)


class CycError(ValueError):
    pass


def _prime_factors(k):
    primes, f = [], 2
    while f * f <= k:
        if k % f == 0:
            primes.append(f)
            while k % f == 0:
                k //= f
        f += 1
    return primes + [k] if k > 1 else primes


@lru_cache(maxsize=64)
def cyclotomic_polynomial(k):
    """Integer coefficients of Phi_k, constant term first; monic of degree
    phi(k).  Phi_k = prod over squarefree divisors e of k of
    (x^(k/e) - 1)^mu(e): multiply by the factors with mu(e) = 1, then divide
    exactly by those with mu(e) = -1."""
    if k < 1:
        raise CycError("cyclotomic polynomials need k >= 1")
    primes = _prime_factors(k)
    poly = [1]
    divisors = []
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            d = k // math.prod(subset)
            if r % 2:
                divisors.append(d)
            else:  # poly * (x^d - 1)
                poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                        for i in range(len(poly) + d)]
    for d in divisors:  # poly / (x^d - 1), from the top coefficient down
        q = [0] * (len(poly) - d)
        for j in range(len(q) - 1, -1, -1):
            q[j] = poly[j + d] + (q[j + d] if j + d < len(q) else 0)
        poly = q
    return tuple(poly)


def zeta_powers(k, exponents):
    """Integer coordinates (len(exponents), phi(k)) of zeta^j over the power
    basis 1, zeta, ..., zeta^(phi-1) of Z[zeta_k], for integer exponents j
    of either sign (Red[j] for j mod k).  Each power is reached by
    multiplying by zeta or by its inverse, whichever takes fewer steps, and
    reduced with Phi_k = a_0 + a_1 x + ... + x^phi:
    zeta^phi = -(a_0 + ... + a_(phi-1) zeta^(phi-1)) and, as a_0 = 1 for
    k >= 2, zeta^-1 = -(a_1 + a_2 zeta + ... + a_phi zeta^(phi-1))."""
    if k < 3:
        raise CycError("root order must be >= 3")
    a = np.array(cyclotomic_polynomial(k), dtype=np.int64)
    phi = len(a) - 1
    out = np.zeros((len(exponents), phi), dtype=np.int64)
    for row, j in enumerate(exponents):
        j %= k
        c = np.zeros(phi, dtype=np.int64)
        c[0] = 1
        if j <= k - j:
            for _ in range(j):
                c = np.concatenate(([0], c[:-1])) - c[-1] * a[:-1]
        else:
            for _ in range(k - j):
                c = np.concatenate((c[1:], [0])) - c[0] * a[1:]
        out[row] = c
    return out


# zeta^2 = _SQ_CONST[k] + _SQ_LIN[k] * zeta and
# conj(zeta) = zeta^-1 = _CONJ_CONST[k] + _CONJ_LIN[k] * zeta
_SQ_CONST, _SQ_LIN = ({k: int(zeta_powers(k, (2,))[0, i]) for k in EXACT_ORDERS} for i in (0, 1))
_CONJ_CONST, _CONJ_LIN = ({k: int(zeta_powers(k, (-1,))[0, i]) for k in EXACT_ORDERS}
                          for i in (0, 1))


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


def exact_quadratic_checks(H: ExactHermitianMatrix, pairs) -> list:
    """For each (p, q) of pairs, whether H^2 - p*H + q*I = 0 exactly over
    Z[zeta_k].  H is squared once.  Raises CycError, before any product,
    when p*H + q*I or H^2 could overflow int64."""
    bound = max(1, _max_abs(H.A, H.B))
    if any(abs(p) * bound + abs(q) >= _INT_LIMIT for p, q in pairs):
        raise CycError("coefficients p, q could overflow int64")
    sq_a, sq_b = exact_matmul(H, H)
    eye = np.eye(H.n, dtype=np.int64)
    return [bool(np.all(sq_a - p * H.A + q * eye == 0) and np.all(sq_b - p * H.B == 0))
            for p, q in pairs]


def exact_quadratic_check(H: ExactHermitianMatrix, p: int, q: int) -> bool:
    """Decide H^2 - p*H + q*I = 0 exactly over Z[zeta_k]."""
    return exact_quadratic_checks(H, [(p, q)])[0]


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


@lru_cache(maxsize=64)
def _component_lookup(k):
    """(phi, 3) table: column S + 1 holds the coordinates of conj(zeta) =
    zeta^(k-1), of 0 and of zeta."""
    lookup = np.zeros((len(cyclotomic_polynomial(k)) - 1, 3), dtype=np.int64)
    lookup[:, 0], lookup[:, 2] = zeta_powers(k, (-1, 1))
    lookup.setflags(write=False)
    return lookup


def exact_components(R, S, k):
    """Integer components (C_0, ..., C_(phi-1)) of H = sum_c C_c zeta^c over
    the power basis of Z[zeta_k]: C = R*e_0 + [S > 0]*Red[1] +
    [S < 0]*Red[k-1], where Red[j] are the coordinates of zeta^j.  The
    brackets are lookups of S + 1.  For k in {3, 4, 6} this is (A, B) with
    A = R + cc*[S < 0] and B = [S > 0] + cl*[S < 0], conj(zeta) = cc + cl*zeta."""
    idx = S + 1
    lookup = _component_lookup(k)
    return (R + lookup[0][idx],) + tuple(row[idx] for row in lookup[1:])


def complex_matrix(R, S, k):
    """H = R + zeta*[S > 0] + conj(zeta)*[S < 0] in double precision; the
    brackets are a lookup of S + 1."""
    z = RootOfUnity(k).value
    H = np.array([z.conjugate(), 0, z])[S + 1]
    H += R
    return H


def build_exact_H(D, k) -> ExactHermitianMatrix:
    """Hermitian adjacency matrix of a mixed graph over Z[zeta_k]."""
    if k not in EXACT_ORDERS:
        raise CycError(f"no exact matrices for k={k}")
    return ExactHermitianMatrix(*exact_components(*relation_matrices(D), k), k)


def build_float_H(D, sigma: RootOfUnity | int) -> np.ndarray:
    """Complex Hermitian adjacency matrix in double precision, any k >= 3."""
    return complex_matrix(*relation_matrices(D), getattr(sigma, "k", sigma))


def signed_adjacency(S) -> np.ndarray:
    """Integer adjacency matrix of a signed graph."""
    return relation_matrices(S)[0]
