"""One-shot reproduction suite: every computational claim the package makes,
as a list of named checks with a pass/fail verdict each.

Checks avoid trivially re-asserting constructor validation: wherever a claim
has an independent route (exact identity vs float clustering, formula vs
eigensolver, scan vs fixture), both routes are exercised and compared.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import (
    certify_three_ev_tournament,
    certify_two_ev,
    check_s_bound,
)
from .constructions import (
    complete_mixed,
    directed_edge,
    signed_hypercube,
    mixed_c4,
    named_graph,
    oriented_to_signed,
    paley_skew_hadamard,
    signed_to_oriented,
    skew_hadamard_from_tournament,
    tournament_from_skew_hadamard,
)
from .cyclotomic import (
    EXACT_ORDERS,
    RootOfUnity,
    build_float_H,
    complex_matrix,
    exact_components,
    relation_stacks,
    signed_adjacency,
)
from .graphs import (
    Graph,
    MixedGraph,
    SignedGraph,
    are_isomorphic,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    induced_subgraph,
    is_bipartite,
    is_connected,
    k55_minus_matching,
    underlying,
)
from .search import (
    _candidate_pq,
    _exact_two_ev_mask,
    _float_two_ev_mask,
    connected_edge_subsets,
    scan_connected_oriented_graphs,
    search_mixed_orientations,
    search_orientations,
    search_signings,
)
from .spectra import Spectrum, hermitian_eigenvalues, interlaces, jacobi_eigenvalues


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    elapsed: float
    detail: str = ""

    def to_json_obj(self):
        return {
            "check": self.check_id,
            "status": "pass" if self.passed else "fail",
            "elapsed": round(self.elapsed, 3),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ReproductionReport:
    checks: tuple
    scale: str

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json_obj(self):
        return {
            "scale": self.scale,
            "overall": "pass" if self.passed else "fail",
            "checks": [c.to_json_obj() for c in self.checks],
        }


def _timed(check_id, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        passed, detail = fn(*args, **kwargs)
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(check_id, False, time.perf_counter() - start,
                           f"exception: {exc!r}")
    return CheckResult(check_id, passed, time.perf_counter() - start, detail)


# ---------------------------------------------------------------------------
# Individual checks


FIXTURE_EXPECTATIONS = (
    ("directed-edge", 1.0, -1.0, (1, 1)),
    ("directed-triangle", 1.0, -2.0, (2, 1)),
    ("oriented-K33", math.sqrt(3), -math.sqrt(3), (3, 3)),
    ("oriented-K55-M", 2.0, -2.0, (5, 5)),
)


def check_two_ev_fixtures():
    start = time.perf_counter()
    for name, r, s, mult in FIXTURE_EXPECTATIONS:
        D = named_graph(name)
        cert = certify_two_ev(D, 6)
        if not (cert.verdict and cert.method == "exact-identity"
                and abs(cert.r - r) < 1e-12 and abs(cert.s - s) < 1e-12
                and cert.multiplicities == mult):
            return False, f"{name}: {cert.to_json_obj()}"
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        return False, f"took {elapsed:.2f}s, budget 1s"
    return True, f"4 fixtures certified exactly in {elapsed:.3f}s"


def check_orientation_uniqueness(scale="full"):
    rep33 = search_orientations(complete_bipartite(3, 3), 6)
    if rep33.space_size != 512 or len(rep33.hits_up_to_iso) != 1:
        return False, f"K33 scan: {len(rep33.hits)} hits, {len(rep33.hits_up_to_iso)} classes"
    if not are_isomorphic(rep33.hits_up_to_iso[0], named_graph("oriented-K33")):
        return False, "K33 hit class differs from fixture"
    rep55 = search_orientations(k55_minus_matching(), 6)
    if rep55.space_size != 2 ** 20 or len(rep55.hits_up_to_iso) != 1:
        return False, f"K55-M scan: {len(rep55.hits)} hits, {len(rep55.hits_up_to_iso)} classes"
    if not are_isomorphic(rep55.hits_up_to_iso[0], named_graph("oriented-K55-M")):
        return False, "K55-M hit class differs from fixture"
    if rep55.elapsed >= 60:
        return False, f"K55-M scan took {rep55.elapsed:.1f}s, budget 60s"
    return True, (f"K33: {len(rep33.hits)} hits / 1 class; "
                  f"K55-M: {len(rep55.hits)} hits / 1 class in {rep55.elapsed:.1f}s")


def check_order5_tournament():
    T = named_graph("regular-tournament-5")
    cert = certify_two_ev(T, 6)
    if cert.verdict:
        return False, "order-5 tournament unexpectedly certified two eigenvalues"
    eigs = hermitian_eigenvalues(build_float_H(T, 6))
    gaps = np.diff(np.sort(eigs))
    if len(eigs) != 5 or np.min(gaps) <= 1e-6:
        return False, f"eigenvalues not pairwise distinct: {eigs}"
    return True, f"5 distinct eigenvalues, min gap {np.min(gaps):.3f}"


def check_mixed_two_ev():
    repc4 = search_mixed_orientations(cycle_graph(4), 6)
    if repc4.space_size != 81 or len(repc4.hits_up_to_iso) != 1:
        return False, f"C4 mixed scan: {len(repc4.hits)} hits, {len(repc4.hits_up_to_iso)} classes"
    if not are_isomorphic(repc4.hits_up_to_iso[0], mixed_c4()):
        return False, "C4 mixed hit class differs from fixture"
    if any(h.is_oriented for h in repc4.hits):
        return False, "C4 mixed scan produced a fully-oriented hit"
    repcube = search_mixed_orientations(cube_graph(3), 6)
    if repcube.space_size != 3 ** 12 or repcube.hits:
        return False, f"cube mixed scan: {len(repcube.hits)} hits among {repcube.space_size}"
    for n in range(2, 7):
        D = complete_mixed(n)
        cert = certify_two_ev(D, 6)
        if not cert.verdict:
            return False, f"all-undirected K{n} did not certify"
        eigs = hermitian_eigenvalues(build_float_H(D, 6))
        expected = np.array([n - 1.0] + [-1.0] * (n - 1))
        if np.max(np.abs(eigs - expected)) > 1e-8:
            return False, f"K{n} spectrum off: {eigs}"
    return True, (f"C4: {len(repc4.hits)} hits / 1 class, no oriented hit; "
                  f"cube: 0 hits / {repcube.space_size}; K2..K6 certified")


def check_three_ev_tournaments():
    for q in (7, 11, 19):
        T = tournament_from_skew_hadamard(paley_skew_hadamard(q))
        n = T.n + 1
        report = certify_three_ev_tournament(T, tol=1e-8)
        if not report.verdict or report.collapsed:
            return False, f"q={q}: {report.to_json_obj()}"
        expected = sorted(
            [(n - 2) / 2, -0.5 + math.sqrt(3 * (n - 1)) / 2, -0.5 - math.sqrt(3 * (n - 1)) / 2],
            reverse=True,
        )
        observed = sorted((v for v, _ in report.observed), reverse=True)
        if max(abs(a - b) for a, b in zip(expected, observed)) > 1e-8:
            return False, f"q={q}: formula mismatch {expected} vs {observed}"
    T3 = tournament_from_skew_hadamard(paley_skew_hadamard(3))
    if not are_isomorphic(T3, named_graph("directed-triangle")):
        return False, "q=3 did not collapse to the directed triangle"
    report3 = certify_three_ev_tournament(T3)
    if not report3.collapsed:
        return False, "q=3 spectrum did not report the two-value collapse"
    return True, "q in {7,11,19} match closed forms at 1e-8; q=3 collapses to the triangle"


def check_hadamard_round_trip():
    for q in (3, 7, 11, 19):
        A = paley_skew_hadamard(q)
        T = tournament_from_skew_hadamard(A)
        A2 = skew_hadamard_from_tournament(T)
        n = A2.n
        M = A2.matrix()
        if not np.array_equal(M @ M.T, n * np.eye(n, dtype=np.int64)):
            return False, f"q={q}: A A^T != nI"
        if not np.array_equal(M + M.T, 2 * np.eye(n, dtype=np.int64)):
            return False, f"q={q}: A - I not skew-symmetric"
        if n != q + 1:
            return False, f"q={q}: wrong order {n}"
    return True, "orders 4, 8, 12, 20 pass both invariants exactly"


def check_k6_scans():
    rep_o = search_orientations(complete_graph(6), 4)
    if rep_o.space_size != 32768 or rep_o.hits:
        return False, f"K6 orientation scan at k=4: {len(rep_o.hits)} hits"
    rep_s = search_signings(complete_graph(6))
    root5 = math.sqrt(5)
    expected = np.array([root5] * 3 + [-root5] * 3)
    matches = 0
    for S in rep_s.hits:
        eigs = hermitian_eigenvalues(signed_adjacency(S).astype(np.complex128))
        if np.max(np.abs(eigs - expected)) <= 1e-8:
            matches += 1
    if not matches:
        return False, f"no signing of K6 with spectrum +/-sqrt(5) among {len(rep_s.hits)} hits"
    total = rep_o.elapsed + rep_s.elapsed
    if total >= 10:
        return False, f"scans took {total:.1f}s, budget 10s"
    return True, (f"orientations: 0/{rep_o.space_size} hits; signings: {len(rep_s.hits)} "
                  f"hits, {matches} with spectrum +/-sqrt(5); {total:.1f}s")


def _random_bipartite_signed(rng, n):
    sizes = rng.integers(1, n)
    left = int(sizes)
    edges = []
    for u in range(left):
        for v in range(left, n):
            if rng.random() < 0.6:
                edges.append((u, v, 1 if rng.random() < 0.5 else -1))
    return SignedGraph(n, tuple(edges))


def check_bipartite_transform():
    rng = np.random.default_rng(20240817)
    count = 0
    while count < 200:
        n = int(rng.integers(2, 11))
        S = _random_bipartite_signed(rng, n)
        spec_s = np.sort(hermitian_eigenvalues(signed_adjacency(S).astype(np.complex128)))
        D = signed_to_oriented(S)
        spec_d = np.sort(hermitian_eigenvalues(build_float_H(D, 4)))
        if np.max(np.abs(spec_s - spec_d)) > 1e-9:
            return False, f"spectrum not preserved on {S}"
        back = oriented_to_signed(D)
        if back != S:
            return False, f"round trip changed the signing on {S}"
        count += 1
    for n in range(1, 6):
        D = signed_to_oriented(signed_hypercube(n))
        cert = certify_two_ev(D, 4)
        root = math.sqrt(n)
        if not cert.verdict or abs(cert.r - root) > 1e-12 or abs(cert.s + root) > 1e-12:
            return False, f"hypercube dim {n}: {cert.to_json_obj()}"
    return True, "200 random transforms preserve spectra; hypercubes 1..5 certify +/-sqrt(n)"


def _k6_hit_population(scale):
    graphs = [named_graph(name) for name, *_ in FIXTURE_EXPECTATIONS]
    graphs += list(search_orientations(complete_bipartite(3, 3), 6).hits)
    graphs += list(search_mixed_orientations(cycle_graph(4), 6).hits)
    graphs += [complete_mixed(n) for n in range(2, 7)]
    if scale == "full":
        graphs += list(search_orientations(k55_minus_matching(), 6).hits)
    return graphs


def check_s_bound_on_hits(scale="full"):
    graphs = _k6_hit_population(scale)
    for D in graphs:
        cert = certify_two_ev(D, 6)
        if not cert.verdict:
            return False, f"hit no longer certifies: {D}"
        if not check_s_bound(cert, D, RootOfUnity(6)):
            return False, f"bound violated on {D} (s={cert.s})"
    return True, f"{len(graphs)} two-eigenvalue hits satisfy the bound with the equality clause"


def check_large_k_desk(scale="full"):
    details = []
    start = time.perf_counter()
    for k in (10, 12):
        rep = scan_connected_oriented_graphs(k, 5)
        if len(rep.hits_up_to_iso) != 1 or not are_isomorphic(rep.hits_up_to_iso[0], directed_edge()):
            return False, f"k={k}: {len(rep.hits_up_to_iso)} hit classes"
        details.append(f"k={k}: {len(rep.hits)} hits / 1 class")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        return False, f"desk checks took {elapsed:.1f}s, budget 120s"
    return True, "; ".join(details) + f"; {elapsed:.1f}s"


def _random_mixed_graph(rng, n, p=0.5):
    arcs, edges = [], []
    for u in range(n):
        for v in range(u + 1, n):
            x = rng.random()
            if x < p:
                kind = rng.integers(3)
                if kind == 0:
                    arcs.append((u, v))
                elif kind == 1:
                    arcs.append((v, u))
                else:
                    edges.append((u, v))
    return MixedGraph(n, tuple(arcs), tuple(edges))


def check_property_suites(scale="full"):
    rng = np.random.default_rng(5)
    # interlacing on random (graph, induced subgraph) pairs
    for trial in range(1000):
        n = int(rng.integers(2, 8))
        D = _random_mixed_graph(rng, n)
        m = int(rng.integers(1, n + 1))
        S = sorted(rng.choice(n, size=m, replace=False).tolist())
        k = int(rng.choice([3, 4, 6, 5, 8]))
        parent = Spectrum.of_matrix(build_float_H(D, k))
        child = Spectrum.of_matrix(build_float_H(induced_subgraph(D, S), k))
        if not interlaces(parent, child):
            return False, f"interlacing failed at trial {trial}: {D}, S={S}, k={k}"
    # LAPACK against the Jacobi oracle, trace and Frobenius identities
    for trial in range(200):
        n = int(rng.integers(1, 9))
        D = _random_mixed_graph(rng, n)
        H = build_float_H(D, int(rng.integers(3, 13)))
        eigs = hermitian_eigenvalues(H)
        if np.max(np.abs(eigs - jacobi_eigenvalues(H))) > 1e-10 * max(1.0, np.linalg.norm(H)):
            return False, f"LAPACK and Jacobi eigenvalues disagree: {D}"
        if abs(eigs.sum() - np.trace(H).real) > 1e-9:
            return False, f"trace identity failed: {D}"
        if abs((eigs ** 2).sum() - np.linalg.norm(H) ** 2) > 1e-8:
            return False, f"Frobenius identity failed: {D}"
        if abs((eigs ** 2).sum() - 2 * (len(D.arcs) + len(D.edges))) > 1e-8:
            return False, f"tr(H^2) != 2(|arcs|+|edges|): {D}"

    # exhaustive exact-vs-float certification agreement
    n_cap = 5 if scale == "full" else 4
    graphs_checked = 0
    for n in range(2, n_cap + 1):
        for G in connected_edge_subsets(n):
            m = len(G.edges)
            space = 3 ** m
            digits = (np.arange(space)[:, None] // 3 ** np.arange(m)) % 3
            R, S = relation_stacks(digits, G.edges, n, "mixed")
            pq = _candidate_pq(G)
            for k in EXACT_ORDERS:
                exact_mask = (
                    _exact_two_ev_mask(*exact_components(R, S, k), k, pq) if pq
                    else np.zeros(space, dtype=bool)
                )
                float_mask = _float_two_ev_mask(complex_matrix(R, S, k), 1e-6)
                if not np.array_equal(exact_mask, float_mask):
                    bad = int(np.nonzero(exact_mask != float_mask)[0][0])
                    return False, f"disagreement on n={n}, G={G.edges}, k={k}, index {bad}"
                graphs_checked += space
    return True, (f"interlacing x1000, spectral identities x200, exact/float agreement on "
                  f"{graphs_checked} mixed assignments (n<={n_cap}, k in 3/4/6)")


# ---------------------------------------------------------------------------
# Driver


CHECKS = (
    ("two-ev-fixtures", check_two_ev_fixtures, False),
    ("orientation-uniqueness", check_orientation_uniqueness, True),
    ("order5-tournament", check_order5_tournament, False),
    ("mixed-two-ev", check_mixed_two_ev, False),
    ("three-ev-tournaments", check_three_ev_tournaments, False),
    ("skew-hadamard-round-trip", check_hadamard_round_trip, False),
    ("k6-scans", check_k6_scans, False),
    ("bipartite-transform", check_bipartite_transform, False),
    ("negative-ev-bound", check_s_bound_on_hits, True),
    ("large-k-desk-check", check_large_k_desk, False),
    ("property-suites", check_property_suites, True),
)


def run_all(scale="full") -> ReproductionReport:
    """Run every check.  The quick scale leaves the K55-M hits out of the
    negative-eigenvalue bound and caps the exhaustive agreement corpus at
    n <= 4."""
    results = []
    for check_id, fn, scaled in CHECKS:
        args = (scale,) if scaled else ()
        results.append(_timed(check_id, fn, *args))
    return ReproductionReport(tuple(results), scale)
