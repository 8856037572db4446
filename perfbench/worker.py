"""One pass of one workload in a fresh interpreter.

Protocol: the worker imports the library from ``<root>/src``, sets up what
the workload needs, prints ``READY`` and then reads the item documents from
stdin as one JSON list.  It runs every item once, in order, closed loop,
and prints one JSON line with the latencies, the answer digests and
(with ``--trace``) the per-layer aggregates.  With ``--setup-only`` it
stops after ``READY``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    t0 = time.perf_counter()
    import tamestrata.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import_s = time.perf_counter() - t0

    import tracer as tracer_mod
    import workloads
    from tamestrata.errors import TameStrataError

    tracer = tracer_mod.Tracer().install() if args.trace else None
    ctx = workloads.setup(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    docs = json.loads(sys.stdin.read())
    items = [(doc, workloads.decode(args.workload, ctx, doc)) for doc in docs]
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(
        args.root, ".bench_build"))
    try:
        runner = workloads.Runner(args.workload, ctx, workdir)
        lat_ns, answers, errors = [], [], []
        failed = 0
        clock = time.perf_counter_ns
        loop0 = time.perf_counter()
        for doc, item in items:
            expect = workloads.REJECT_CLASSES.get(doc["op"])
            t = clock()
            try:
                answer = runner.run(item)
                ok = expect is None
            except TameStrataError as exc:
                answer = {"raised": type(exc).__name__}
                ok = type(exc).__name__ == expect
                if not ok:
                    errors.append(f"{doc['op']}: {type(exc).__name__}: {exc}")
            except Exception as exc:   # a failed check or a fault in the library
                answer = {"failed": type(exc).__name__}
                ok = False
                errors.append(f"{doc['op']}: {type(exc).__name__}: {exc}")
            lat_ns.append(clock() - t)
            if not ok:
                failed += 1
            answers.append(answer)
        loop_s = time.perf_counter() - loop0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    restored = True
    snapshot = None
    if tracer is not None:
        snapshot = tracer.snapshot()
        restored = tracer.uninstall()

    digest_all, digest_fixed = hashlib.sha256(), hashlib.sha256()
    for (doc, _), answer in zip(items, answers):
        line = (workloads.canon_json(answer) + "\n").encode()
        digest_all.update(line)
        if doc.get("fixed"):
            digest_fixed.update(line)

    out = {
        "import_s": import_s,
        "loop_s": loop_s,
        "lat_ns": lat_ns,
        "attempted": len(items),
        "failed": failed,
        "errors": errors[:5],
        "digest_all": digest_all.hexdigest(),
        "digest_fixed": digest_fixed.hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": snapshot,
        "restored": restored,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
