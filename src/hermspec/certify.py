"""Decision procedures for few-eigenvalue Hermitian adjacency spectra.

The exact path works for k in {3, 4, 6}: a connected graph whose Hermitian
adjacency matrix has exactly two distinct eigenvalues r > s must have a
d-regular underlying graph with d = -r*s, and either r, s are integers or
r = -s = sqrt(d).  That leaves a tiny candidate set, each member decided
with zero tolerance by the integer identity H^2 - (r+s)H + rs*I = 0.
Other orders fall back to float eigenvalue clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import (
    EXACT_ORDERS,
    RootOfUnity,
    build_exact_H,
    build_float_H,
    exact_quadratic_checks,
)
from .graphs import (
    Graph,
    MixedGraph,
    OrientedGraph,
    common_neighbors,
    is_connected,
    is_regular,
    regular_degree,
    underlying,
)
from .spectra import DEFAULT_CLUSTER_TOL, Spectrum


class CertifyError(ValueError):
    pass


@dataclass(frozen=True)
class ExactValue:
    """An eigenvalue known exactly: an integer or +/- the square root of one."""

    kind: str  # "int" | "sqrt"
    arg: int
    sign: int = 1

    @property
    def value(self) -> float:
        base = self.arg if self.kind == "int" else math.sqrt(self.arg)
        return self.sign * base

    def to_json_obj(self):
        if self.kind == "int":
            return {"int": self.sign * self.arg}
        obj = {"sqrt": self.arg}
        if self.sign < 0:
            obj["negated"] = True
        return obj


def _int_value(v: int) -> ExactValue:
    return ExactValue("int", abs(v), 1 if v >= 0 else -1)


@dataclass(frozen=True)
class Certificate:
    """Verdict of a two-distinct-eigenvalue test."""

    verdict: bool
    k: int
    n: int
    pair: tuple | None = None  # (r, s) as ExactValue (exact) or float (float path)
    multiplicities: tuple | None = None  # (mult of r, mult of s)
    method: str = "exact-identity"  # or "float-cluster"
    failure_reason: str | None = None
    tol: float | None = None

    @property
    def r(self):
        v = self.pair[0]
        return v.value if isinstance(v, ExactValue) else v

    @property
    def s(self):
        v = self.pair[1]
        return v.value if isinstance(v, ExactValue) else v

    def to_json_obj(self):
        obj = {"verdict": "yes" if self.verdict else "no", "k": self.k, "n": self.n,
               "method": self.method}
        if self.pair is not None:
            obj["pair"] = [
                v.to_json_obj() if isinstance(v, ExactValue) else v for v in self.pair
            ]
            obj["r"] = self.r
            obj["s"] = self.s
        if self.multiplicities is not None:
            obj["multiplicities"] = list(self.multiplicities)
        if self.failure_reason is not None:
            obj["failure_reason"] = self.failure_reason
        if self.tol is not None:
            obj["tol"] = self.tol
        return obj


def two_ev_candidates(d: int):
    """Candidate eigenvalue pairs for a connected graph with d-regular
    underlying graph: (sqrt(d), -sqrt(d)) plus (r, -d/r) for each positive
    divisor r of d.  Yields (r_desc, s_desc, p, q) with p = r+s, q = rs = -d."""
    seen = set()
    root = math.isqrt(d)
    if root * root == d:
        cands = [(_int_value(root), _int_value(-root), 0, -d)]
    else:
        cands = [(ExactValue("sqrt", d), ExactValue("sqrt", d, -1), 0, -d)]
    for r in range(1, d + 1):
        if d % r == 0:
            s = -(d // r)
            if r != -s or (r, s) not in [(c[0].value, c[1].value) for c in cands]:
                cands.append((_int_value(r), _int_value(s), r + s, -d))
    for cand in cands:
        if (cand[2], cand[3]) not in seen:
            seen.add((cand[2], cand[3]))
            yield cand


def certify_two_ev(D: MixedGraph, k: int, tol: float = DEFAULT_CLUSTER_TOL) -> Certificate:
    """Decide whether the Hermitian adjacency matrix of D at order k has
    exactly two distinct eigenvalues."""
    if k < 3:
        raise CertifyError("root order must be >= 3")
    if D.n < 2:
        raise CertifyError("certification needs at least 2 vertices")
    G = underlying(D)
    if not is_connected(G):
        raise CertifyError("input graph is disconnected")

    if k in EXACT_ORDERS:
        d = regular_degree(G)
        if d is None or d == 0:
            return Certificate(False, k, D.n, method="exact-identity",
                               failure_reason="underlying graph is not regular")
        H = build_exact_H(D, k)
        candidates = list(two_ev_candidates(d))
        holds = exact_quadratic_checks(H, [(p, q) for *_, p, q in candidates])
        for (r_desc, s_desc, p, q), ok in zip(candidates, holds):
            if not ok:
                continue
            r, s = r_desc.value, s_desc.value
            m_float = D.n * (-s) / (r - s)
            m = round(m_float)
            if abs(m - m_float) > 1e-9 or not 0 < m < D.n:
                # trace cannot balance: both roots cannot be eigenvalues
                continue
            return Certificate(True, k, D.n, (r_desc, s_desc), (m, D.n - m),
                               "exact-identity")
        return Certificate(False, k, D.n, method="exact-identity",
                           failure_reason="no candidate pair satisfies the quadratic identity")

    spec = Spectrum.of_matrix(build_float_H(D, k), tol)
    if len(spec.clusters) == 2:
        (r, mr), (s, ms) = spec.clusters
        return Certificate(True, k, D.n, (r, s), (mr, ms), "float-cluster", tol=tol)
    return Certificate(False, k, D.n, method="float-cluster", tol=tol,
                       failure_reason=f"{len(spec.clusters)} eigenvalue clusters at tol {tol}")


@dataclass(frozen=True)
class ThreeEvReport:
    """Spectrum check for a regular tournament against the closed-form values
    (n-2)/2 and -1/2 +/- sqrt(3(n-1))/2, where n is the order of the
    tournament plus one."""

    verdict: bool
    n: int  # order of the tournament plus one
    expected: tuple  # ((value, multiplicity), ...) after merging collapses
    observed: tuple  # float clusters
    collapsed: bool
    failure_reason: str | None = None

    def to_json_obj(self):
        return {
            "verdict": "yes" if self.verdict else "no",
            "n": self.n,
            "expected": [[v, m] for v, m in self.expected],
            "observed": [[v, m] for v, m in self.observed],
            "collapsed": self.collapsed,
            "failure_reason": self.failure_reason,
        }


def certify_three_ev_tournament(T: OrientedGraph, tol: float = DEFAULT_CLUSTER_TOL) -> ThreeEvReport:
    if not T.is_oriented:
        raise CertifyError("input must be oriented")
    G = underlying(T)
    if len(G.edges) != T.n * (T.n - 1) // 2:
        raise CertifyError("input is not a tournament")
    if not is_regular(T):
        raise CertifyError("input tournament is not regular")
    n = T.n + 1
    big = (n - 2) / 2
    half_root = math.sqrt(3 * (n - 1)) / 2
    raw = [(big, 1), (-0.5 + half_root, (n - 2) // 2), (-0.5 - half_root, (n - 2) // 2)]
    merged = {}
    for v, m in raw:
        for key in merged:
            if abs(key - v) <= tol:
                merged[key] += m
                break
        else:
            merged[v] = m
    expected = tuple(sorted(merged.items(), reverse=True))
    collapsed = len(expected) < 3

    spec = Spectrum.of_matrix(build_float_H(T, 6), tol)
    observed = spec.clusters
    if len(observed) != len(expected):
        return ThreeEvReport(False, n, expected, observed, collapsed,
                             f"{len(observed)} clusters, expected {len(expected)}")
    for (ev, em), (ov, om) in zip(expected, observed):
        if em != om or abs(ev - ov) > tol:
            return ThreeEvReport(False, n, expected, observed, collapsed,
                                 "cluster values or multiplicities do not match")
    return ThreeEvReport(True, n, expected, observed, collapsed)


def check_common_neighbor_rule(G: Graph) -> bool:
    """Every vertex pair has a number of common neighbours divisible by 3."""
    return all(
        common_neighbors(G, u, v) % 3 == 0
        for u in range(G.n)
        for v in range(u + 1, G.n)
    )


S_BOUND_TOL = 1e-9


def check_s_bound(cert: Certificate, D: MixedGraph, sigma: RootOfUnity | int) -> bool:
    """Lower bound on the negative eigenvalue: s >= -1/Re(sigma), with
    equality exactly for regular oriented graphs (k=6 reads s >= -2)."""
    if isinstance(sigma, int):
        sigma = RootOfUnity(sigma)
    if sigma.real_part <= 0:
        raise CertifyError("bound requires Re(sigma) > 0")
    if not cert.verdict:
        raise CertifyError("certificate verdict must be yes")
    bound = -1.0 / sigma.real_part
    s = cert.s
    if s < bound - S_BOUND_TOL:
        return False
    equality = abs(s - bound) < S_BOUND_TOL
    # Undirected edges strictly raise the Rayleigh quotient, so equality
    # forces a regular oriented graph.
    expect_equality = not D.edges and is_regular(D)
    return equality == expect_equality


@dataclass(frozen=True)
class WalkValueCensus:
    """Counts of 2-walks from u to v by walk value at k=6: a with value 1
    (absorbing or repelling), b with value omega^2 (directed u to v),
    c with value omega^4 (directed v to u)."""

    a: int
    b: int
    c: int


def walk_value_census(D: OrientedGraph, u, v) -> WalkValueCensus:
    if u == v:
        raise CertifyError("census is defined for distinct endpoints")
    if not D.is_oriented:
        raise CertifyError("census is defined for oriented graphs")
    arcs = set(D.arcs)
    a = b = c = 0
    for x in range(D.n):
        if x in (u, v):
            continue
        ux_out = (u, x) in arcs
        ux_in = (x, u) in arcs
        xv_out = (x, v) in arcs
        xv_in = (v, x) in arcs
        if not (ux_out or ux_in) or not (xv_out or xv_in):
            continue
        if ux_out and xv_out:
            b += 1  # directed u -> x -> v, value omega^2
        elif ux_in and xv_in:
            c += 1  # directed v -> x -> u, value omega^4
        else:
            a += 1  # absorbing or repelling, value 1
    return WalkValueCensus(a, b, c)
