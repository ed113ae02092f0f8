"""The four benchmark workloads: seeded inputs, requests and result checks.

Each builder takes the imported `hermspec` package, a seeded
`numpy.random.Generator` and a scratch directory inside the checkout.  It
generates every input from the generator, makes one warm-up call per code path
and returns the pass: a list of `Op`s in seeded order.  `Op.run` is the timed
request and calls hermspec only through attributes of the package looked up at
call time, so a traced run sees every call.  `Op.check` runs outside the timed
region; it returns the number of assignments the request decided and raises
`Mismatch` when the result is wrong.  `Op.key` reduces a result to what the
check depends on (no timings), so a result equal to one already checked is not
checked again.

Why these workloads (names are fixed; later changes cite them):

- scan-exact: exact scans at k = 6 with few hits (oriented K_{4,4} and K6,
  mixed K_{3,3}); nearly all time is the integer filter and component
  stamping inside `search`.  Each scan takes under a second, so a run repeats
  it many times (K_{5,5}-M at 2^20 takes 16 s on a 2.1 GHz Xeon vCPU, too
  long to repeat).
- scan-hits: hit-dense scans through the CLI; decoding, canonical sort,
  isomorphism dedup, graph dumping and JSON carry real weight.
- scan-float: scans at orders outside {3, 4, 6}, the only place the batched
  `eigvalsh` float filter inside `search` runs.
- certify: single-graph requests that never touch `search`: exact and float
  certificates, three-eigenvalue tournaments and `Spectrum.of_matrix`.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle


class Mismatch(Exception):
    """A result that disagrees with its pinned value or with the oracle."""


def _same(result):
    return result


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]
    key: Callable[[object], object] = _same


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# Seeded relabelling


def _relabel_graph(api, G, rng):
    p = [int(x) for x in rng.permutation(G.n)]
    return api.Graph(G.n, tuple((p[u], p[v]) for u, v in G.edges))


def _relabel_mixed(api, D, rng):
    p = [int(x) for x in rng.permutation(D.n)]
    arcs = tuple((p[u], p[v]) for u, v in D.arcs)
    if D.is_oriented:
        return api.OrientedGraph(D.n, arcs)
    return api.MixedGraph(D.n, arcs, tuple((p[u], p[v]) for u, v in D.edges))


def _random_states(api, G, rng, states):
    """Orientation (states=2) or mixed orientation (states=3) of G."""
    arcs, edges = [], []
    for (u, v), s in zip(G.edges, rng.integers(0, states, len(G.edges))):
        if s == 2:
            edges.append((u, v))
        else:
            arcs.append((u, v) if s == 0 else (v, u))
    if states == 2:
        return api.OrientedGraph(G.n, arcs)
    return api.MixedGraph(G.n, tuple(arcs), tuple(edges))


def _random_connected(api, n, rng):
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        G = api.Graph(n, tuple(pairs))
        if api.graphs.is_connected(G):
            return G


# ---------------------------------------------------------------------------
# Checks


def _edge_set(G):
    if isinstance(G, tuple):
        return {frozenset(e) for e in G}
    if hasattr(G, "signed_edges"):
        return {frozenset((u, v)) for u, v, _ in G.signed_edges}
    return {frozenset(e) for e in G.arcs} | {frozenset(e) for e in G.edges}


def _check_cert(cert, H, what):
    """A two-eigenvalue certificate against the LAPACK clusters of H."""
    cl = oracle.clusters(np.linalg.eigvalsh(H))
    _expect(cert.verdict == (len(cl) == 2),
            f"{what}: verdict {cert.verdict}, LAPACK finds {len(cl)} clusters")
    if cert.verdict:
        (r, mr), (s, ms) = cl
        _expect(abs(cert.r - r) <= oracle.CLUSTER_TOL and abs(cert.s - s) <= oracle.CLUSTER_TOL
                and tuple(cert.multiplicities) == (mr, ms),
                f"{what}: certificate {cert.r}, {cert.s}, {cert.multiplicities} "
                f"against LAPACK {cl}")


def _check_scan(api, hits, classes, space, expect, k, edges, certify_k):
    """Pinned counts, then every hit through LAPACK and every class through
    `certify_two_ev` (signings via the bipartite transform at k = 4 when the
    graph is bipartite; LAPACK alone otherwise)."""
    _expect((space, len(hits), len(classes)) == expect,
            f"space, hits, classes = {(space, len(hits), len(classes))}, expected {expect}")
    _expect(len(set(hits)) == len(hits), "duplicate hits")
    hit_set = set(hits)
    _expect(all(c in hit_set for c in classes), "a class is not among the hits")
    if edges is not None:
        _expect(all(_edge_set(h) == edges for h in hits), "a hit has the wrong underlying graph")
    is_signed = bool(hits) and hasattr(hits[0], "signed_edges")
    mats = [oracle.signed(h) if is_signed else oracle.hermitian(h, k) for h in hits]
    _expect(all(c == 2 for c in oracle.cluster_counts(mats)),
            "a hit does not have two LAPACK eigenvalue clusters")
    for c in classes:
        D, kc = c, k
        if is_signed:
            if certify_k is None:
                continue
            D, kc = api.constructions.signed_to_oriented(c), certify_k
        cert = api.certify_two_ev(D, kc)
        _expect(cert.verdict, "a class certifies no")
        _check_cert(cert, oracle.hermitian(D, kc), "class")
    return space


# ---------------------------------------------------------------------------
# Scan requests


def _api_scan(api, fn, G, k, expect, certify_k=None):
    """A scan through the public API; threads=1 in every call."""
    edges = None if G is None else _edge_set(G.edges)

    def run():
        if fn == "scan_connected_oriented_graphs":
            return api.scan_connected_oriented_graphs(k, 5)
        if fn == "search_signings":
            return api.search_signings(G, threads=1)
        return getattr(api, fn)(G, k, threads=1)

    def check(rep):
        return _check_scan(api, list(rep.hits), list(rep.hits_up_to_iso), rep.space_size,
                           expect, k, edges, certify_k)

    def key(rep):
        return rep.space_size, rep.skipped_disconnected, rep.hits, rep.hits_up_to_iso

    return Op(fn, run, check, key)


def _cli_scan(api, path, G, mode, k, expect, certify_k=None):
    """`hermspec search <file> --json` issued in-process; stdout captured."""
    argv = ["search", path, "--mode", mode, "--k", str(k), "--threads", "1", "--json"]
    edges = _edge_set(G.edges)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        _expect(code == 0, f"exit code {code}")
        obj = json.loads(text)
        hits = [api.io.load_graph(s) for s in obj["hits"]]
        classes = [api.io.load_graph(s) for s in obj["hits_up_to_iso"]]
        _expect(obj["hit_count"] == len(hits), "hit_count disagrees with the hit list")
        return _check_scan(api, hits, classes, obj["space_size"], expect, k, edges, certify_k)

    def key(result):
        code, text = result
        obj = json.loads(text)
        obj.pop("elapsed", None)
        return code, json.dumps(obj, sort_keys=True)

    return Op("cli.search", run, check, key)


def _write_graph(path, G, fmt):
    rel = "-" if fmt == "mixed" else "+"
    lines = [f"{fmt} {G.n}"] + [f"{u} {rel} {v}" for u, v in G.edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def scan_exact(api, rng, workdir):
    g = api.graphs
    k44 = _relabel_graph(api, g.complete_bipartite(4, 4), rng)
    k6 = _relabel_graph(api, g.complete_graph(6), rng)
    k33 = _relabel_graph(api, g.complete_bipartite(3, 3), rng)
    api.search_orientations(_relabel_graph(api, g.complete_bipartite(3, 3), rng), 6, threads=1)
    api.search_mixed_orientations(_relabel_graph(api, g.cycle_graph(4), rng), 6, threads=1)
    return [
        _api_scan(api, "search_orientations", k44, 6, (1 << 16, 0, 0)),
        _api_scan(api, "search_orientations", k6, 6, (1 << 15, 0, 0)),
        _api_scan(api, "search_mixed_orientations", k33, 6, (3 ** 9, 12, 1)),
    ]


def scan_hits(api, rng, workdir):
    g = api.graphs
    specs = [  # underlying graph, mode, k, (space, hits, classes), certify_k
        (g.complete_bipartite(4, 4), "oriented", 4, (1 << 16, 768, 5), None),
        (g.complete_bipartite(3, 3), "mixed", 3, (3 ** 9, 486, 16), None),
        (g.complete_bipartite(4, 4), "signed", 6, (1 << 16, 768, 768), 4),
        (g.complete_graph(6), "signed", 6, (1 << 15, 448, 448), None),
        (g.cube_graph(3), "oriented", 4, (1 << 12, 128, 5), None),
        (g.complete_graph(5), "mixed", 6, (3 ** 10, 31, 5), None),
    ]
    ops = []
    for i, (G, mode, k, expect, certify_k) in enumerate(specs):
        G = _relabel_graph(api, G, rng)
        fmt = "signed" if mode == "signed" else "mixed"
        path = _write_graph(workdir / f"scan-{i}.txt", G, fmt)
        ops.append(_cli_scan(api, path, G, mode, k, expect, certify_k))
    small = _relabel_graph(api, g.complete_bipartite(2, 2), rng)
    for i, mode in enumerate(("oriented", "mixed", "signed")):
        fmt = "signed" if mode == "signed" else "mixed"
        path = _write_graph(workdir / f"warm-{i}.txt", small, fmt)
        with contextlib.redirect_stdout(io.StringIO()):
            api.cli.main(["search", path, "--mode", mode, "--threads", "1", "--json"])
    return ops


def scan_float(api, rng, workdir):
    g = api.graphs
    k44a = _relabel_graph(api, g.complete_bipartite(4, 4), rng)
    k44b = _relabel_graph(api, g.complete_bipartite(4, 4), rng)
    k5 = _relabel_graph(api, g.complete_graph(5), rng)
    api.search_orientations(_relabel_graph(api, g.complete_bipartite(2, 2), rng), 5, threads=1)
    api.search_mixed_orientations(_relabel_graph(api, g.complete_graph(3), rng), 5, threads=1)
    api.scan_connected_oriented_graphs(10, 3)
    return [
        _api_scan(api, "scan_connected_oriented_graphs", None, 10, (55894, 2, 1)),
        _api_scan(api, "scan_connected_oriented_graphs", None, 12, (55894, 2, 1)),
        _api_scan(api, "search_orientations", k44a, 5, (1 << 16, 0, 0)),
        _api_scan(api, "search_orientations", k44b, 8, (1 << 16, 0, 0)),
        _api_scan(api, "search_mixed_orientations", k5, 5, (3 ** 10, 31, 5)),
    ]


# ---------------------------------------------------------------------------
# Certify requests


def _certify(api, D, k):
    def check(cert):
        _check_cert(cert, oracle.hermitian(D, k), f"certify n={D.n} k={k}")
        return 1

    return Op("certify_two_ev", lambda: api.certify_two_ev(D, k), check)


def _three_ev(api, T):
    n = T.n + 1
    root = (3 * (n - 1)) ** 0.5 / 2
    closed = [((n - 2) / 2, 1), (-0.5 + root, (n - 2) // 2), (-0.5 - root, (n - 2) // 2)]

    def check(report):
        _expect(report.verdict, f"Paley tournament of order {T.n} certifies no")
        for name, got in (("report", report.observed),
                          ("LAPACK", oracle.clusters(np.linalg.eigvalsh(oracle.hermitian(T, 6))))):
            _expect(len(got) == 3 and all(abs(v - cv) <= 1e-8 and m == cm
                                          for (v, m), (cv, cm) in zip(got, closed)),
                    f"{name} clusters {got} differ from the closed form {closed}")
        return 1

    return Op("certify_three_ev_tournament", lambda: api.certify_three_ev_tournament(T), check)


def _spectrum(api, H):
    def check(spec):
        ref = np.linalg.eigvalsh(H)[::-1]
        scale = max(1.0, float(np.linalg.norm(H)))
        _expect(np.max(np.abs(np.array(spec.eigenvalues) - ref)) <= 1e-8 * scale,
                f"Spectrum.of_matrix at n={H.shape[0]} differs from LAPACK")
        _expect(len(spec.clusters) == len(oracle.clusters(ref)),
                "cluster count differs from LAPACK")
        return 1

    return Op("Spectrum.of_matrix", lambda: api.Spectrum.of_matrix(H), check)


def certify(api, rng, workdir):
    g, c = api.graphs, api.constructions
    ops = []
    for _ in range(20):
        for name in ("directed-edge", "directed-triangle", "oriented-K33", "oriented-K55-M"):
            ops.append(_certify(api, _relabel_mixed(api, c.named_graph(name), rng), 6))
    for d in (5, 6, 7):
        cube = g.cube_graph(d)
        yes = c.signed_to_oriented(c.signed_hypercube(d))
        ops += [_certify(api, _relabel_mixed(api, yes, rng), 4) for _ in range(2)]
        ops += [_certify(api, _relabel_mixed(api, _random_states(api, cube, rng, 2), rng), k)
                for k in (4, 6)]
    for n in range(4, 13):
        regular = g.complete_graph(n) if n <= 7 else g.cycle_graph(n)
        for k in (3, 4, 5, 6, 8):
            for _ in range(2):
                ops.append(_certify(api, _random_states(
                    api, _random_connected(api, n, rng), rng, 3), k))
                ops.append(_certify(api, _relabel_mixed(
                    api, _random_states(api, regular, rng, 3), rng), k))
    for d in (4, 5, 6):
        ops.append(_certify(api, _relabel_mixed(
            api, _random_states(api, g.cube_graph(d), rng, 2), rng), 5))
        ops.append(_certify(api, _relabel_mixed(
            api, c.signed_to_oriented(c.signed_hypercube(d)), rng), 8))
        ops.append(_certify(api, c.complete_mixed(1 << d), 5))
    for q in (7, 11, 19, 23, 31, 43):
        T = c.tournament_from_skew_hadamard(c.paley_skew_hadamard(q))
        ops.append(_three_ev(api, _relabel_mixed(api, T, rng)))
    # 30 spectra at n = 20 put a block of equal-cost requests around the
    # 90th latency percentile, so that op_ms_p90 does not jump between
    # request classes from run to run.
    for n, count in ((10, 4), (20, 30), (40, 4)):
        for _ in range(count):
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ops.append(_spectrum(api, X + X.conj().T))
    edge = c.named_graph("directed-edge")
    api.certify_two_ev(edge, 6)
    api.certify_two_ev(edge, 5)
    api.certify_three_ev_tournament(c.tournament_from_skew_hadamard(c.paley_skew_hadamard(3)))
    api.Spectrum.of_matrix(np.eye(4))
    return ops


# The host-speed probe of each workload (run.HostSpeed): the exact scans run
# many small numpy calls per chunk and are bound by the interpreter; the float
# filter of scan-float is batched `eigvalsh`, and certify's float certificates
# and spectra are LAPACK work too.  On the reference host each workload's
# spread over seeds was smallest with the probe named here.
PROBE = {
    "scan-exact": "loop",
    "scan-hits": "loop",
    "scan-float": "lapack",
    "certify": "lapack",
}

WORKLOADS = {
    "scan-exact": scan_exact,
    "scan-hits": scan_hits,
    "scan-float": scan_float,
    "certify": certify,
}


def prepare(name, api, seed, workdir):
    """Inputs, warm-up and the pass for one workload; the request order is
    seeded too, and the same for every pass of a run."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[name](api, rng, workdir)
    return [ops[i] for i in rng.permutation(len(ops))]
