"""Spans around hermspec's public functions, for the traced run.

`Tracer` replaces every public function of the layer modules at each binding
a caller looks up: the defining module, every hermspec module that imported
the name (`hermspec.search.are_isomorphic`, `hermspec.cli.certify_two_ev`, ...)
and the package namespace.  Generator functions are left alone, because a span
around one would time only the creation of the generator.  Spans stay in
memory as lists `[id, parent, request, name, start, end, size, outcome,
outer_fn, outer_layer]`; `size` is the order of the first argument (a graph's
n or a matrix's rows) and `outcome` the boolean result, the `verdict` of a
certificate or `[space, skipped, hits]` of a search report.

A layer is a module.  `busy` sums the spans not nested in a span of the same
function (or layer), `self` is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("graphs", "cyclotomic", "spectra", "certify", "constructions", "search", "io", "cli")

CALLS_AND_BUSY = (
    "search.search_orientations", "search.search_mixed_orientations",
    "search.search_signings", "search.scan_connected_oriented_graphs",
    "search.dedup_up_to_iso", "graphs.are_isomorphic", "graphs.is_connected",
    "io.load_graph", "io.dump_graph", "cyclotomic.exact_quadratic_check",
    "spectra.hermitian_eigenvalues", "certify.certify_two_ev",
)
BUSY_ONLY = ("cyclotomic.build_exact_H", "cyclotomic.build_float_H",
             "certify.certify_three_ev_tournament")
SELF = ("search", "graphs", "io", "cli", "certify")


def _size(args):
    if not args:
        return None
    first = args[0]
    if hasattr(first, "shape") and len(first.shape) == 2:
        return int(first.shape[0])
    n = getattr(first, "n", None)
    return n if isinstance(n, int) else None


def _outcome(result):
    if isinstance(result, bool):
        return result
    verdict = getattr(result, "verdict", None)
    if isinstance(verdict, bool):
        return verdict
    if hasattr(result, "space_size"):
        return [result.space_size, result.skipped_disconnected, len(result.hits)]
    return None


class Tracer:
    def __init__(self, package):
        self.spans = []
        self._package = package
        self._next_id = 0
        self._stack = []
        self._open = {}  # name or layer -> number of open spans
        self._request = None
        self._patches = []

    def install(self):
        """Wrap the functions; only traced code runs with them installed."""
        package = self._package
        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def close(self):
        """Put the original functions back."""
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def _enter(self, name, size):
        layer = name.split(".", 1)[0]
        parent = self._stack[-1][0] if self._stack else None
        span = [self._next_id, parent, self._request, name, 0.0, 0.0, size, None,
                not self._open.get(name), not self._open.get(layer)]
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        self._open[name] = self._open.get(name, 0) + 1
        self._open[layer] = self._open.get(layer, 0) + 1
        span[4] = time.perf_counter()
        return span

    def _exit(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()
        name = span[3]
        self._open[name] -= 1
        self._open[name.split(".", 1)[0]] -= 1

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(name, _size(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            span[7] = _outcome(result)
            return result

        return wrapper

    @contextmanager
    def request(self, kind):
        """Root span of one benchmark request; its descendants share its id."""
        span = self._enter(f"bench.{kind}", None)
        self._request = span[2] = span[0]
        try:
            yield
        finally:
            self._exit(span)
            self._request = None

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass."""
    base = spans[0][0] if spans else 0
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child[s[1] - base] += s[5] - s[4]
    calls, busy, self_s, outcomes, sizes = {}, {}, {}, {}, {}
    reports = []  # [space, skipped, hits] of the outermost search calls
    for s, c in zip(spans, child):
        name, dur = s[3], s[5] - s[4]
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + dur - c
        if s[8]:
            busy[name] = busy.get(name, 0.0) + dur
        if s[9]:
            busy[layer] = busy.get(layer, 0.0) + dur
            if layer == "search" and isinstance(s[7], list):
                reports.append(s[7])
        if s[7] is not None:
            outcomes.setdefault(name, []).append(s[7])
        if s[6] is not None:
            sizes.setdefault(name, []).append(s[6])

    m = {}
    for name in CALLS_AND_BUSY:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in BUSY_ONLY:
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    for layer in SELF:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    points = sum(o[0] for o in reports)
    m["search.points"] = points
    m["search.hits"] = sum(o[2] for o in reports)
    m["search.hit_ratio"] = _ratio(m["search.hits"], points)
    m["search.points_per_busy_s"] = _ratio(points, busy.get("search", 0.0))
    m["search.skipped_ratio"] = _ratio(sum(o[1] for o in reports), points)

    iso = outcomes.get("graphs.are_isomorphic", [])
    m["graphs.iso_match_ratio"] = _ratio(sum(iso), len(iso))
    checks = outcomes.get("cyclotomic.exact_quadratic_check", [])
    m["cyclotomic.checks_per_cert"] = _ratio(len(checks), calls.get("cyclotomic.build_exact_H", 0))
    m["cyclotomic.identity_hold_ratio"] = _ratio(sum(checks), len(checks))
    orders = sizes.get("spectra.hermitian_eigenvalues", [])
    m["spectra.mean_order"] = _ratio(sum(orders), len(orders))
    verdicts = outcomes.get("certify.certify_two_ev", [])
    m["certify.yes_ratio"] = _ratio(sum(verdicts), len(verdicts))
    return m


def layer_busy(spans, layer):
    return sum((s[5] - s[4] for s in spans if s[9] and s[3].startswith(layer + ".")), 0.0)


def median_metrics(per_pass):
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
