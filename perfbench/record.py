"""Maintain perfbench/record.json: answer digests and measured results.

    python3 perfbench/record.py digests
        Runs one untraced pass of every workload at the default seed and
        stores the digest of every answer, the digest of the answers that do
        not depend on the seed, and the item count per pass.  Run it when a
        change is meant to alter answers, and say so in the change.

    python3 perfbench/record.py steadiness [--runs 10] [--workloads a,b]
        Runs the benchmark --runs times per workload (by default those
        BENCHMARK.json lists), each with another seed, and stores for every end-to-end metric the median, the
        quartiles and the spread (interquartile distance over the median),
        together with the environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "record.json")
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts the library's src on sys.path)
import workloads  # noqa: E402

DEFAULT_SEED = 0


def load():
    with open(RECORD) as fh:
        return json.load(fh)


def save(rec):
    with open(RECORD, "w") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)
        fh.write("\n")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record_digests(rec):
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    for w in workloads.WORKLOADS:
        items = workloads.generate(w, DEFAULT_SEED)
        _, res = run.run_worker(w, json.dumps(items).encode())
        if res["failed"]:
            sys.exit(f"{w}: {res['failed']} items failed: {res['errors']}")
        rec["digests"][w] = {"seed": DEFAULT_SEED, "all": res["digest_all"],
                             "fixed": res["digest_fixed"]}
        rec["workloads"][w]["items_per_pass"] = len(items)
        rec["workloads"][w]["seed_independent_items"] = sum(
            1 for it in items if it["fixed"])
        print(f"{w}: {len(items)} items, {res['digest_all'][:16]}", flush=True)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def record_steadiness(rec, runs, names):
    bench = load_bench()
    env = dict(run.environment(), commit=commit())
    for w in names:
        values = {}
        for seed in range(1, runs + 1):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode or not res["correct"]:
                sys.exit(f"{w} seed {seed} failed:\n{out.stderr[-3000:]}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {time.perf_counter() - t0:.0f}s", flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "values": vals}
        rec["results"][w] = {"environment": env, "runs": runs,
                             "seeds": f"1..{runs}", "metrics": summary}
        save(rec)
        for name, s in summary.items():
            print(f"  {name:18s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f}", flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("what", choices=("digests", "steadiness"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in load_bench()["workloads"]))
    args = ap.parse_args()
    rec = load()
    if args.what == "digests":
        record_digests(rec)
    else:
        record_steadiness(rec, args.runs, args.workloads.split(","))
    save(rec)


if __name__ == "__main__":
    main()
