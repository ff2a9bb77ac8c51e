"""Smoke test of the end-to-end benchmark: `pytest benchmarks/e2e`.

Not part of tier-1 (`pyproject.toml` collects `tests/` only).  Runs every
workload, untraced and traced, at a tiny size and checks each run's output
against what `BENCHMARK.json` declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, "..", "..")


def run_tiny(job):
    workload, trace = job
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120,
    )


def test_every_declared_metric_is_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    jobs = [(entry["name"], trace) for entry in declared["workloads"] for trace in (0, 1)]
    # Two at a time, one per core: tiny runs are not timed, only checked.
    with ThreadPoolExecutor(max_workers=2) as pool:
        finished = list(pool.map(run_tiny, jobs))
    for (workload, trace), done in zip(jobs, finished):
        assert done.returncode == 0, done.stdout[-4000:]
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        context = json.loads(next(line for line in lines if line.startswith("# "))[2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert context["shm_leaked"] == 0 and context["surviving_children"] == 0
        section = declared["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in section}, (workload, trace)
        for metric in section:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (workload, metric, got)
            assert got["value"] == got["value"], f"{workload}: {metric['name']} is NaN"
        if trace:
            assert result["metrics"]["plan.shm_leaked"]["value"] == 0
            part = os.path.join(HERE, ".work", f"trace-{workload}.json")
            with open(part, encoding="utf-8") as handle:
                spans = json.load(handle)["spans"]
            os.remove(part)
            assert spans, f"{workload}: traced run recorded no spans"
            assert {"name", "start", "end", "parent", "query"} <= set(spans[0])
