"""Run every workload over several seeds and report each metric's spread.

From the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --write perfbench/baseline.json
    python3 perfbench/baseline.py --runs 10 --first-seed 11   # a second set

Each run is `perfbench/run.py` in its own process, one after another, with
`run_seconds` from BENCHMARK.json.  For every end-to-end metric the table gives
the median of the runs, the distance between the first and third quartile as
a share of the median (`statistics.quantiles(values, n=4)`) and the metric's
bound; then one traced run per workload gives the per-layer metrics.  With
--write the whole record (metadata, seeds, every value) is stored as JSON.
Exits 1 if any run failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
PER_RUN = ("workload", "seed", "trace", "probe", "slowness")


def run_once(workload, seed, seconds, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    meta = next((json.loads(line.split(": ", 1)[1]) for line in lines
                 if line.startswith(f"# {workload} seed")), None)
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None, meta
    return json.loads(lines[-1]), meta


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", default=None, help="store the record as JSON here")
    args = parser.parse_args(argv)

    seconds = SPEC["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results, slowness = [], []
        for seed in seeds:
            res, meta = run_once(workload, seed, seconds, 0)
            ok &= res is not None and res["correct"]
            if res is not None:
                results.append(res)
                slowness.append(meta["slowness"])
                record.setdefault("meta", {k: v for k, v in meta.items() if k not in PER_RUN})
        entry = {"probe": meta and meta["probe"],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "slowness": slowness,
                 "end_to_end": {}}
        print(f"{workload}: {len(results)} runs, {entry['failed']} of "
              f"{entry['attempted']} requests failed")
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            s = spread(values)
            entry["end_to_end"][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else \
                ("  above bound/3" if s["spread"] < m["bound"] else "  ABOVE BOUND")
            print(f"  {m['name']:14} {s['median']:14.6g} {m['unit']:6} "
                  f"spread {s['spread']:7.2%}  bound {m['bound']:.0%}{flag}")
        res, _ = run_once(workload, seeds[0], seconds, 1)
        ok &= res is not None and res["correct"]
        if res is not None:
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        record["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
