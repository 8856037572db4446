"""The benchmark's own checks: determinism, seeding, tracer coverage, and
that a tiny run of every workload prints every metric BENCHMARK.json names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (puts the library's src on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", autouse=True)
def _scratch():
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_passes_repeat_exactly(workload):
    payload = json.dumps(workloads.generate(workload, 5, tiny=True)).encode()
    first = run.run_worker(workload, payload, trace=True)[1]
    second = run.run_worker(workload, payload, trace=True)[1]
    calls = [{n: s["calls"] for n, s in r["trace"]["spans"].items()}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert first["digest_all"] == second["digest_all"]
    assert first["restored"] and second["restored"]
    problems = []
    run.check_trace(workload, [first, second], problems)
    assert problems == []


def test_seed_changes_the_random_inputs():
    a = workloads.generate("galois-enum", 1)
    b = workloads.generate("galois-enum", 2)
    assert [x for x in a if x["fixed"]] == [x for x in b if x["fixed"]]
    rand_a = [x for x in a if not x["fixed"]]
    rand_b = [x for x in b if not x["fixed"]]
    assert rand_a and sum(x == y for x, y in zip(rand_a, rand_b)) < len(rand_a) // 10

    def elements(items):
        return [json.dumps(x.get("beta") or x["blocks"], sort_keys=True)
                for x in items]

    a = elements(workloads.generate("datum-pipeline", 1))
    b = elements(workloads.generate("datum-pipeline", 2))
    assert all(not x["fixed"] for x in workloads.generate("datum-pipeline", 1))
    # a few one-term elements of the small towers can coincide by chance
    assert len(set(a) & set(b)) < len(a) // 4


def test_tracer_wraps_every_binding_site_and_restores_it():
    from tamestrata import corpus, minimal, strata, tame, translate
    originals = {
        (strata, "is_minimal"): strata.is_minimal,
        (translate, "is_minimal"): translate.is_minimal,
        (corpus, "is_minimal"): corpus.is_minimal,
        (minimal, "stabilizer_within"): minimal.stabilizer_within,
        (strata, "stabilizer_within"): strata.stabilizer_within,
        (translate, "build_defining_sequence"): translate.build_defining_sequence,
        (tame.TameSeries, "__rmul__"): tame.TameSeries.__dict__["__rmul__"],
    }
    tr = tracer.Tracer().install()
    try:
        for (ns, name), orig in originals.items():
            assert vars(ns)[name] is not orig
            assert vars(ns)[name].__wrapped__ is orig
    finally:
        assert tr.uninstall()
    for (ns, name), orig in originals.items():
        assert vars(ns)[name] is orig


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "galois-enum", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert out.stdout == ""
