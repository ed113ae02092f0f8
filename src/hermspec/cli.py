"""Command-line front end.

Subcommands: spectrum, certify, construct, search, convert, verify-paper.
Exit codes: 0 success, 1 failed verdict (with --expect-yes) or failed
verification, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import io as graph_io
from .certify import CertifyError, certify_three_ev_tournament, certify_two_ev
from .constructions import (
    ConstructionError,
    NAMED_GRAPHS,
    named_graph,
    oriented_to_signed,
    paley_skew_hadamard,
    signed_to_oriented,
    tournament_from_skew_hadamard,
    signed_hypercube,
)
from .cyclotomic import build_float_H
from .graphs import (
    Graph,
    GraphError,
    MixedGraph,
    SignedGraph,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    k55_minus_matching,
    underlying,
)
from .search import (
    SearchError,
    search_mixed_orientations,
    search_orientations,
    search_signings,
)
from .spectra import DEFAULT_CLUSTER_TOL, Spectrum
from .verify import run_all


class UsageError(ValueError):
    pass


_UNDIRECTED_NAMES = {
    "K55-M": k55_minus_matching,
    "cube": lambda: cube_graph(3),
}


def _resolve_undirected(name: str) -> Graph:
    if name in _UNDIRECTED_NAMES:
        return _UNDIRECTED_NAMES[name]()
    if "," in name and name.startswith("K"):
        a, b = name[1:].split(",")
        return complete_bipartite(int(a), int(b))
    if name.startswith("K") and name[1:].isdigit():
        return complete_graph(int(name[1:]))
    if name.startswith("C") and name[1:].isdigit():
        return cycle_graph(int(name[1:]))
    raise UsageError(f"unknown underlying graph {name!r} "
                     "(try K6, K3,3, C4, cube, K55-M or a graph file)")


def _load_input(spec: str):
    """A named fixture, or a path to a digraph6/mixed/signed file."""
    try:
        return named_graph(spec)
    except ConstructionError:
        pass
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"{spec!r} is neither a named graph nor a file; "
                         f"named graphs: {', '.join(NAMED_GRAPHS)}")
    return graph_io.load_graph(path.read_text())


def _emit(obj, text, as_json, out=None):
    print(json.dumps(obj, indent=2) if as_json else text, file=out or sys.stdout)


def cmd_spectrum(args):
    D = _load_input(args.input)
    if isinstance(D, SignedGraph):
        from .constructions import signed_spectrum
        spec = signed_spectrum(D, args.tol)
    else:
        spec = Spectrum.of_matrix(build_float_H(D, args.k), args.tol)
    text = "eigenvalues: " + " ".join(f"{x:.10g}" for x in spec.eigenvalues) + \
        "\nclusters: " + " ".join(f"{v:.10g}x{m}" for v, m in spec.clusters)
    _emit(spec.to_json_obj(), text, args.json)
    return 0


def cmd_certify(args):
    D = _load_input(args.input)
    if isinstance(D, SignedGraph):
        raise UsageError("certify takes oriented/mixed graphs; convert signed input first")
    if args.three_ev:
        report = certify_three_ev_tournament(D, args.tol)
        obj = report.to_json_obj()
        text = f"three-eigenvalue verdict: {obj['verdict']}" + \
            (f" ({report.failure_reason})" if report.failure_reason else "")
        verdict = report.verdict or report.collapsed
    else:
        cert = certify_two_ev(D, args.k, args.tol)
        obj = cert.to_json_obj()
        if cert.verdict:
            text = (f"two-eigenvalue verdict: yes, (r, s) = ({cert.r:.10g}, {cert.s:.10g}), "
                    f"multiplicities {cert.multiplicities}, method {cert.method}")
        else:
            text = f"two-eigenvalue verdict: no ({cert.failure_reason})"
        verdict = cert.verdict
    _emit(obj, text, args.json)
    if args.expect_yes and not verdict:
        return 1
    return 0


def cmd_construct(args):
    what = args.what
    if what == "paley":
        A = paley_skew_hadamard(_require_arg(args, "q"))
        payload = A.to_text()
    elif what == "tournament":
        T = tournament_from_skew_hadamard(paley_skew_hadamard(_require_arg(args, "q")))
        payload = graph_io.dump_graph(T)
    elif what == "hypercube":
        D = signed_to_oriented(signed_hypercube(_require_arg(args, "n")))
        payload = graph_io.dump_graph(D)
    else:
        payload = graph_io.dump_graph(named_graph(what))
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _require_arg(args, name):
    if args.arg is None:
        raise UsageError(f"construct {args.what} needs a value for {name}")
    return args.arg


def cmd_search(args):
    try:
        G = _resolve_undirected(args.underlying)
    except UsageError:
        loaded = _load_input(args.underlying)
        G = loaded.underlying() if isinstance(loaded, SignedGraph) else underlying(loaded)
    threads = args.threads or int(os.environ.get("HERMSPEC_THREADS", "1"))
    if args.mode == "oriented":
        rep = search_orientations(G, args.k, threads=threads)
    elif args.mode == "mixed":
        rep = search_mixed_orientations(G, args.k, threads=threads)
    else:
        rep = search_signings(G, threads=threads)
    obj = rep.to_json_obj()
    text = (f"space {rep.space_size}, hits {len(rep.hits)}, "
            f"{len(rep.hits_up_to_iso)} up to isomorphism, {rep.elapsed:.2f}s")
    if rep.hits_up_to_iso:
        text += "\n" + "\n".join(obj["hits_up_to_iso"])
    _emit(obj, text, args.json)
    return 0


def cmd_convert(args):
    G = _load_input(args.input)
    if isinstance(G, SignedGraph):
        out = signed_to_oriented(G)
    elif isinstance(G, MixedGraph) and G.is_oriented:
        out = oriented_to_signed(G)
    else:
        raise UsageError("convert maps signed <-> oriented graphs only")
    payload = graph_io.dump_graph(out)
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_verify_paper(args):
    report = run_all(args.scale)
    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status:4} {c.check_id:26} {c.elapsed:7.2f}s  {c.detail}")
        print(f"overall: {'pass' if report.passed else 'fail'} ({report.scale} scale)")
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hermspec",
        description="Hermitian adjacency spectra of oriented, mixed and signed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--k", type=int, default=6, help="root of unity order (default 6)")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_CLUSTER_TOL,
                           help="eigenvalue clustering tolerance")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("spectrum", help="eigenvalues and clusters of a graph")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("certify", help="few-eigenvalue certification")
    p.add_argument("input")
    p.add_argument("--expect-yes", action="store_true",
                   help="exit 1 when the verdict is no")
    p.add_argument("--three-ev", action="store_true",
                   help="check the regular-tournament three-eigenvalue form")
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("construct", help="generate a named object")
    p.add_argument("what", help="graph name, or: paley Q | tournament Q | hypercube N")
    p.add_argument("arg", nargs="?", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("search", help="exhaustive orientation/mixed/signing scan")
    p.add_argument("underlying", help="K6, K3,3, C4, cube, K55-M or a graph file")
    p.add_argument("--mode", choices=["oriented", "mixed", "signed"], default="oriented")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: HERMSPEC_THREADS or 1)")
    common(p, tol=False)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("convert", help="signed <-> oriented bipartite transform")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("verify-paper", help="run the full reproduction suite")
    p.add_argument("--scale", choices=["full", "quick"], default="full")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, GraphError, ConstructionError, CertifyError, SearchError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
