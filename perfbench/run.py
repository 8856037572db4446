"""tamestrata benchmark runner.

    python3 perfbench/run.py --workload galois-enum --seed 0 --seconds 10 --trace 0

Run from anywhere; the repository root is this file's parent directory and
the library is imported from ``<root>/src``.  The runner generates the
workload's inputs from ``--seed``, then runs passes over them, each pass in
a fresh worker process (one client, closed loop: the next item starts when
the previous one returns), until ``--seconds`` have been spent.  Every
answer is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  ``--size tiny`` shrinks every workload for the
benchmark's own tests.  Exit status: 0 measured and correct, 1 an answer or
digest check failed, 2 the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import tracer  # noqa: E402

try:
    import tamestrata
    import workloads
    from tamestrata import cli, corpus, strata
except ImportError:       # no library next to the benchmark; main() says so
    tamestrata = None

# Shared machines switch between speed states every few seconds, so
# set-ups and CLI launches are spread over the whole run, two set-ups (the
# pass's own worker and one more) and a few launches per pass, instead of
# being taken in one burst.
SETUP_SAMPLES = 5          # at least this many set-ups; setup_s is the median
COLD_PER_PASS = 3          # CLI launches after every untraced pass
COLD_LAUNCHES = 16         # at least this many; cli_cold_start_s is the fastest
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_ms.p50": "ms",
    "item_ms.p90": "ms", "peak_rss_mb": "MB", "cli_cold_start_s": "s",
}

# (span, binding site) pairs a traced pass must call at least once.
REQUIRED_SITES = {
    "galois-enum": [
        ("minimal.is_minimal", "minimal.is_minimal"),
        ("minimal.ge1_check", "minimal.ge1_check"),
        ("tame.stabilizer_within", "tame.stabilizer_within"),
        ("tame.stabilizer_within", "minimal.stabilizer_within"),
        ("tame.trace_norm", "tame.trace_norm"),
        ("tame.sr_standard_rep", "tame.sr_standard_rep"),
        ("tame.apply", "tame.TameSeries.apply"),
    ],
    "oracle-crosscheck": [
        ("minimal.is_minimal", "corpus.is_minimal"),
        ("minimal.is_minimal", "strata.is_minimal"),
        ("strata.build_defining_sequence", "translate.build_defining_sequence"),
        ("corpus.datum_corpus", "corpus.datum_corpus_for_orders"),
        ("strata.k0_closed", "strata.k0_closed"),
        ("oracle.model_build", "oracle.model_build"),
        ("oracle.oracle_k0", "oracle.oracle_k0"),
        ("oracle.nullspace", "oracle.nullspace"),
        ("oracle.commutant_in_quotient",
         "oracle.MatrixModel.commutant_in_quotient"),
        ("translate.table_compare", "translate.table_compare"),
        ("translate.ledger_indices", "translate.ledger_indices"),
        ("translate.char_module_valuation", "translate.char_module_valuation"),
        ("oracle.oracle_char_module_min_ord",
         "oracle.oracle_char_module_min_ord"),
    ],
    "datum-pipeline": [
        ("strata.decompose_split_form", "strata.decompose_split_form"),
        ("strata.k0_closed", "strata.k0_closed"),
        ("minimal.is_minimal", "strata.is_minimal"),
        ("minimal.is_minimal", "translate.is_minimal"),
        ("tame.stabilizer_within", "minimal.stabilizer_within"),
        ("tame.stabilizer_within", "strata.stabilizer_within"),
        ("strata.build_defining_sequence", "translate.build_defining_sequence"),
        ("strata.build_defining_sequence", "strata.build_defining_sequence"),
        ("translate.bk_to_yu", "translate.bk_to_yu"),
        ("translate.yu_to_bk", "translate.yu_to_bk"),
        ("cli.run", "cli.run"),
        ("cli.emit", "cli.emit_bk"),
        ("cli.parse", "cli.parse_bk"),
    ],
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail_usage(msg):
    log(msg)
    sys.exit(2)


def source_digest():
    """Identifies the library code measured (the checkout need not be git)."""
    h = hashlib.sha256()
    src = os.path.join(SRC, "tamestrata")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "source": source_digest()}


def worker_env():
    env = dict(os.environ)
    env.pop("TAMESTRATA_PREC", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# worker passes
# ---------------------------------------------------------------------------

def run_worker(workload, payload, trace=False, setup_only=False):
    """Spawn one worker; returns (setup_s, result dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--root", ROOT]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=worker_env(), cwd=ROOT)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != b"READY":
            raise RuntimeError(f"worker did not get ready: {ready!r}")
        if not setup_only:
            proc.stdin.write(payload)
        proc.stdin.close()
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if not stream.closed:
                stream.close()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# CLI cold start
# ---------------------------------------------------------------------------

class ColdStart:
    """Launches of one small CLI query of the workload's kind, each in a
    fresh interpreter, checked against the in-process answer."""

    def __init__(self, workload, scratch):
        self.path = None
        self.args = self._query(workload, scratch)
        self.code, doc = cli.run(self.args)
        self.want = workloads.wire(doc)
        self.env = worker_env()
        self.env["PYTHONPATH"] = SRC
        self.times = []
        self.bad = 0

    def _query(self, workload, scratch):
        if workload == "galois-enum":
            return ["check-minimal", "--tower", "desk5", "--element",
                    "[[[-1,2],[0,1]]]", "--upper", "0", "--lower", "2"]
        if workload == "datum-pipeline":
            return ["defseq", "--tower", "desk5", "--N", "4", "--element",
                    "[[[-1,1],[0,1]],[[-1,2],[1,0]]]"]
        name, tower, N = workloads.ORACLE_ORDERS[0]
        order = strata.make_order(workloads.tower_table([tower])[tower], N)
        bk = next(b for _, b in corpus.datum_corpus_for_orders([(name, order)])
                  if b.kind == "a" and b.seq.s >= 1)
        self.path = os.path.join(scratch, f"cold-{os.getpid()}.json")
        with open(self.path, "w") as fh:
            json.dump(cli.emit_bk(bk), fh)
        return ["tables", "--datum", self.path, "--oracle", "check"]

    def launch(self, count):
        for _ in range(count):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "tamestrata.cli"] + self.args,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
                cwd=ROOT, timeout=60)
            self.times.append(time.perf_counter() - t0)
            if (proc.returncode != self.code
                    or proc.stdout.decode().strip() != self.want):
                self.bad += 1

    def close(self):
        if self.path and os.path.exists(self.path):
            os.remove(self.path)


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def load_record():
    with open(os.path.join(HERE, "record.json")) as fh:
        return json.load(fh)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_digests(workload, seed, tiny, passes, items, problems):
    digests = {(p["digest_all"], p["digest_fixed"]) for p in passes}
    if len(digests) != 1:
        problems.append("passes gave different answers")
    if tiny:
        return
    rec = load_record().get("digests", {}).get(workload)
    if not rec:
        return
    got_all, got_fixed = passes[0]["digest_all"], passes[0]["digest_fixed"]
    if any(doc.get("fixed") for doc in items) and got_fixed != rec["fixed"]:
        problems.append(f"seed-independent answers changed: {got_fixed} "
                        f"!= recorded {rec['fixed']}")
    if seed == rec["seed"] and got_all != rec["all"]:
        problems.append(f"default-seed answers changed: {got_all} "
                        f"!= recorded {rec['all']}")


def check_trace(workload, traced, problems):
    if not all(p["restored"] for p in traced):
        problems.append("tracer did not restore every binding")
    calls = [{n: s["calls"] for n, s in p["trace"]["spans"].items()}
             for p in traced]
    if any(c != calls[0] for c in calls):
        problems.append("traced passes made different numbers of calls")
    for p in traced:
        spans = p["trace"]["spans"]
        for name, site in REQUIRED_SITES[workload]:
            if spans.get(name, {}).get("sites", {}).get(site, 0) == 0:
                problems.append(f"no calls to {name} at {site}")


def fastest_per_item(passes):
    """Each item's fastest latency (ns) over passes that ran the same items."""
    return [min(col) for col in zip(*(p["lat_ns"] for p in passes))]


def end_to_end(setups, plain, cold):
    """Every pass runs the same items, so each item's latency is taken as
    its fastest over the run's passes, and the CLI cold start as the
    fastest launch: the machine's slow spells only ever add time, and a
    minimum over repeats removes them where a median of two nearly even
    speed states flips between them.  Throughput is the item count over
    the sum of the per-item latencies."""
    per_item_ns = fastest_per_item(plain)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(per_item_ns) / (sum(per_item_ns) / 1e9),
        "item_ms.p50": statistics.median(per_item_ns) / 1e6,
        "item_ms.p90": percentile(per_item_ns, 90) / 1e6,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "cli_cold_start_s": min(cold),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(plain, traced):
    firsts = tracer.per_layer_metrics(traced[0]["trace"])
    all_runs = [tracer.per_layer_metrics(p["trace"]) for p in traced]
    out = {}
    for name, value in firsts.items():
        if name.endswith("_s"):
            value = statistics.median(r[name] for r in all_runs)
        out[name] = {"value": value, "unit": _layer_unit(name)}
    out["cli.import_s"] = {"value": statistics.median(
        p["import_s"] for p in plain + traced), "unit": "s"}
    out["trace.overhead"] = {"value": sum(fastest_per_item(traced))
                             / sum(fastest_per_item(plain)), "unit": "ratio"}
    return out


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    # a terminated run unwinds through the finally blocks that stop its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if tamestrata is None or not os.path.abspath(tamestrata.__file__).startswith(
            SRC + os.sep):
        fail_usage(f"no tamestrata sources under {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail_usage(f"unknown workload {args.workload!r}; "
                   f"choose from {', '.join(workloads.WORKLOADS)}")

    tiny = args.size == "tiny"
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    log(f"environment {json.dumps(environment(), sort_keys=True)}")

    t0 = time.perf_counter()
    items = workloads.generate(args.workload, args.seed, tiny)
    payload = json.dumps(items).encode()
    log(f"{args.workload}: {len(items)} items per pass, "
        f"generated in {time.perf_counter() - t0:.2f}s")

    setups, plain, traced = [], [], []
    cold = None if args.trace else ColdStart(args.workload, scratch)
    want_setups, want_cold = (2, 2) if tiny else (SETUP_SAMPLES, COLD_LAUNCHES)
    try:
        # A new pass starts only if half a pass as long as the longest so
        # far still ends within --seconds: a run ends within half a pass of
        # --seconds, early or late.
        start = time.perf_counter()
        cycle_s = 0.0
        while not plain or time.perf_counter() - start + cycle_s / 2 <= args.seconds:
            c0 = time.perf_counter()
            s, res = run_worker(args.workload, payload)
            setups.append(s)
            plain.append(res)
            if args.trace:
                traced.append(run_worker(args.workload, payload, trace=True)[1])
            else:
                setups.append(run_worker(args.workload, b"", setup_only=True)[0])
                cold.launch(COLD_PER_PASS)
            cycle_s = max(cycle_s, time.perf_counter() - c0)
        if cold:
            while len(setups) < want_setups:
                setups.append(run_worker(args.workload, b"", setup_only=True)[0])
            cold.launch(max(0, want_cold - len(cold.times)))
    finally:
        if cold:
            cold.close()

    problems = []
    for p in plain + traced:
        for err in p["errors"]:
            problems.append(err)
    check_digests(args.workload, args.seed, tiny, plain + traced, items, problems)
    if args.trace:
        check_trace(args.workload, traced, problems)
    elif cold.bad:
        problems.append(f"{cold.bad} CLI launches gave a wrong document")

    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    log(f"{len(plain)} passes ({len(traced)} traced), digest "
        f"{plain[0]['digest_all'][:16]} fixed {plain[0]['digest_fixed'][:16]}")
    correct = not problems and failed == 0
    for msg in problems[:10]:
        log(f"problem: {msg}")
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(setups, plain, cold.times)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
