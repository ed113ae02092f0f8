"""Run one hermspec benchmark workload and print its metrics.

Run from the root of a checkout; hermspec is imported from ./src, so nothing
needs installing:

    python3 perfbench/run.py --workload scan-exact --seed 1 --seconds 20 --trace 0

Workloads: scan-exact, scan-hits, scan-float, certify (see workloads.py).  A run
is a closed loop with one client: it sets the workload up several times from
the seed, then repeats complete passes over the same requests until --seconds
of pass time have elapsed, and checks every result against pinned counts and a
LAPACK oracle outside the timed region.  BLAS threads are capped at the number
of usable CPUs.

Times are reported in host-normalised seconds: every request's time is divided
by the host's slowness at that moment, measured with a fixed probe run before
the first request, at least every PROBE_EVERY seconds between requests and
after the last one.  The probe does the kind of work that dominates the
workload (workloads.PROBE): a pure-Python loop or a batched LAPACK call.  On a
host whose speed changes under load from other tenants, this keeps a run made
in a slow minute comparable with one made in a fast minute; raw times are kept
in the result file.

With --trace 0 the metrics are the end-to-end metrics listed in BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from passes run with every
public hermspec function wrapped (spans.py), alternated with unwrapped passes
to give the tracing overhead.  Spans and a result file with the run's metadata
go to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every result was correct,
1 when a check failed, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 7
PROBE_EVERY = 0.1     # seconds of requests between two host-speed probes
PROBE_REPS = 5        # a probe is the median of this many probe bodies
# Probe body times at slowness 1 (a 2.1 GHz Xeon vCPU on a quiet host).
LOOP_REF_S = 1.2e-3
LAPACK_REF_S = 0.6e-3
# numpy is imported before the clock starts: its load time follows the host's
# file cache, not hermspec, and moved set-up times by 50% between runs.
IMPORT_PROBE = ("import sys, time, numpy; sys.path[:0] = ['src', 'perfbench']; "
                "t = time.perf_counter(); import hermspec.cli; t = time.perf_counter() - t; "
                "import run; print(t, run.HostSpeed('loop').probe())")


def _cap_blas_threads(nproc):
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return os.environ[BLAS_ENV[0]]


def _git_rev():
    """The checkout's commit when it is a git work tree, else None."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _metadata(args, nproc, blas_threads, np):
    import workloads  # imports numpy, so only after the BLAS caps are set

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads, "git_rev": _git_rev(),
        "probe": workloads.PROBE[args.workload],
    }


class HostSpeed:
    """The host's current slowness: the time of a fixed probe body against
    its time on a quiet reference host (1 = reference speed, 2 = work takes
    twice as long).  "loop" is a pure-Python loop; "lapack" a batched
    `eigvalsh` of sixteen 24x24 Hermitian matrices.  A host under load slows
    interpreter work and LAPACK work by different factors, so each workload
    is normalised by the probe that tracked its own slow-downs best."""

    def __init__(self, kind):
        self.samples = []
        if kind == "loop":
            self._body, self._ref = self._loop, LOOP_REF_S
        else:
            import numpy as np

            rng = np.random.default_rng(0)
            X = rng.normal(size=(16, 24, 24)) + 1j * rng.normal(size=(16, 24, 24))
            self._H, self._eigvalsh = X + X.conj().transpose(0, 2, 1), np.linalg.eigvalsh
            self._body, self._ref = self._lapack, LAPACK_REF_S
            self._body()  # the first LAPACK call pays one-off set-up

    @staticmethod
    def _loop():
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        return time.perf_counter() - start

    def _lapack(self):
        start = time.perf_counter()
        self._eigvalsh(self._H)
        return time.perf_counter() - start

    def probe(self):
        """Current slowness; the sample is kept for the result file."""
        slowness = statistics.median(self._body() for _ in range(PROBE_REPS)) / self._ref
        self.samples.append(slowness)
        return slowness


def _import_seconds():
    """Normalised import time of hermspec and its CLI in a fresh interpreter
    that has numpy loaded already; it probes its own speed after the import."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, slowness = map(float, done.stdout.split())
    return seconds / slowness


def _run_pass(ops, tracer, host):
    """One pass over the requests, with host-speed probes between them.
    Each request's time is normalised by the mean slowness of the probes
    just before and just after it."""
    raw, cpu, results, before = [], [], [], []
    probes = [host.probe()]
    last = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last >= PROBE_EVERY:
            probes.append(host.probe())
            last = time.perf_counter()
        before.append(len(probes) - 1)
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.request(op.kind):
                    result = op.run()
        except Exception as exc:  # a raised request is a failed request
            result = exc
        raw.append(time.perf_counter() - start)
        cpu.append(time.process_time() - cpu0)
        results.append(result)
    probes.append(host.probe())
    slow = [(probes[b] + probes[b + 1]) / 2 for b in before]
    latencies = [t / s for t, s in zip(raw, slow)]
    return {"wall": sum(latencies), "cpu": sum(c / s for c, s in zip(cpu, slow)),
            "raw_wall": sum(raw), "latencies": latencies, "results": results}


def _gate(ops, results, verified, errors):
    """Check every result; returns the points decided.  Untimed.  `verified`
    maps each op's already checked result keys to their points."""
    points = 0
    for op, result, seen in zip(ops, results, verified):
        try:
            if isinstance(result, Exception):
                raise result
            key = op.key(result)
            if key not in seen:
                seen[key] = op.check(result)
            points += seen[key]
        except Exception as exc:  # any wrong or raised result fails the request
            errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    return points


def _spec_metrics(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan-exact", "scan-hits", "scan-float", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hermspec" / "__init__.py").is_file():
        print(f"error: no hermspec sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = _cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    # numpy reads the BLAS thread caps when it is first imported.
    import numpy as np
    import hermspec
    import hermspec.cli  # the CLI front end pulls in every other module
    if Path(hermspec.__file__).resolve().parent != (SRC / "hermspec").resolve():
        print(f"error: imported hermspec from {hermspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    meta = _metadata(args, nproc, blas_threads, np)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        return _run(args, meta, hermspec, Path(workdir).relative_to(ROOT))


def _setup(args, hermspec, workdir, tracer):
    """SETUP_ROUNDS set-ups from the same seed, each a fresh-interpreter
    import plus input generation and warm-up; the last one is traced in a
    traced run.  Set-up is interpreter work, so it is normalised with the
    loop probe.  Returns the requests, the normalised set-up times and the
    set-up spans."""
    import workloads

    host = HostSpeed("loop")
    times, spans = [], []
    for rnd in range(SETUP_ROUNDS):
        traced = tracer is not None and rnd == SETUP_ROUNDS - 1
        import_s = _import_seconds()
        before = host.probe()
        if traced:
            tracer.install()
        start = time.perf_counter()
        ops = workloads.prepare(args.workload, hermspec, args.seed, workdir)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.close()
            spans = tracer.take()
        times.append(import_s + elapsed / ((before + host.probe()) / 2))
    return ops, times, spans


def _end_to_end(passes, ops, setup_s):
    """Medians over the run's passes, each request at its median normalised
    time for the latency percentiles."""
    wall = statistics.median(p["wall"] for p in passes)
    points = statistics.median(p["points"] for p in passes)
    lat = [statistics.median(per_op) for per_op in zip(*(p["latencies"] for p in passes))]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "points_per_s": points / wall,
        "ops_per_s": len(ops) / wall,
        "op_ms_p50": 1000 * statistics.median(lat),
        "op_ms_p90": 1000 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(spans, passes, traced, setup_spans):
    values = spans.median_metrics([spans.layer_metrics(p["spans"]) for p in traced])
    values["constructions.busy_s"] = spans.layer_busy(setup_spans, "constructions")
    # Span times are raw, so trace.wall_s is too; the overhead compares
    # normalised pass times.
    values["trace.wall_s"] = statistics.median(p["raw_wall"] for p in traced)
    values["trace.overhead_frac"] = (statistics.median(p["wall"] for p in traced)
                                     / statistics.median(p["wall"] for p in passes) - 1)
    return values


def _run(args, meta, hermspec, workdir):
    import spans

    tracer = spans.Tracer(hermspec) if args.trace else None
    ops, setup_times, setup_spans = _setup(args, hermspec, workdir, tracer)
    host = HostSpeed(meta["probe"])

    # Unwrapped passes until --seconds of pass time; a traced run alternates
    # unwrapped and traced passes and needs at least one of each.
    passes, traced, errors = [], [], []
    verified = [{} for _ in ops]
    measured = 0.0
    while measured < args.seconds or not passes or (tracer and not traced):
        trace_this = tracer is not None and len(traced) < len(passes)
        if trace_this:
            tracer.install()
        p = _run_pass(ops, tracer if trace_this else None, host)
        if trace_this:
            tracer.close()
            p["spans"] = tracer.take()
        measured += p["raw_wall"]
        p["points"] = _gate(ops, p.pop("results"), verified, errors)
        (traced if trace_this else passes).append(p)
    attempted = len(ops) * (len(passes) + len(traced))
    failed = len(errors)
    meta["slowness"] = statistics.median(host.samples)

    if tracer is None:
        values = _end_to_end(passes, ops, statistics.median(setup_times))
        units = _spec_metrics("end_to_end")
    else:
        values = _per_layer(spans, passes, traced, setup_spans)
        units = _spec_metrics("per_layer")
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps({
            "meta": meta,
            "fields": ["id", "parent", "request", "name", "start", "end", "size", "outcome",
                       "outer_fn", "outer_layer"],
            "setup": setup_spans, "passes": [p["spans"] for p in traced]}))
        meta["span_file"] = str(span_file.relative_to(ROOT))

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    samples = {"passes": len(passes), "traced_passes": len(traced), "ops_per_pass": len(ops),
               "pass_walls": [p["wall"] for p in passes + traced],
               "raw_pass_walls": [p["raw_wall"] for p in passes + traced],
               "setup_times": setup_times, "slowness_probes": host.samples}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    for err in errors[:20]:
        print(f"FAIL {err}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {json.dumps(meta)}")
    print(f"# {len(passes)} passes, {len(traced)} traced, {len(ops)} requests each; "
          f"fail_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"#   {name:48} {m['value']:14.6g} {m['unit']}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "samples": samples, "errors": errors, **result}, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
