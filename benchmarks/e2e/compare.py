"""Compare two sets of benchmark results: `compare.py A.json B.json`.

Each argument is one RESULT.json written by `run.py --out`, or a directory
of them (several runs of one commit: ten per side is what a claim needs).
Per workload x end-to-end metric the report gives both medians, the change
of B against A in the metric's worse direction, the bound (`bound_for`) and
a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  it is not, but the run-to-run spread (interquartile range
                over the median, the wider of the two sides) exceeds the
                bound, so "unchanged" cannot be claimed - unless every run
                of B reads better than every run of A

Exact-count per-layer metrics must be identical on both sides, and a
workload whose calibration kernel read over 10 % apart on the two sides is
pointed out (the machine moved; the calibrated metrics allow for it).  Exit
code 1 when any row is `worse` or a count differs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: The issue's bounds.  `BENCHMARK.json` has room for one bound per metric,
#: shared by all workloads, so there the noisiest workload sets it; here
#: every workload is held to its own, and never to a looser one than there.
BOUNDS = {
    "setup_s": 0.25, "query_s_p50": 0.10, "query_s_tail": 0.20,
    "rows_per_s": 0.10, "vs_vector_x": 0.10, "peak_rss_mib": 0.10,
}
POOL_BOUNDS = {"query_s_p50": 0.15}  # both cores busy: the issue allows 15 %
POOL_WORKLOADS = ("join_sharded_pool", "join_sharded_bounded")

#: Per-layer metrics that are pure functions of shapes and code.
EXACT_COUNTS = (
    "vector.sort_comparators", "shard.merge_comparators", "shard.grid_tasks",
    "shard.expand_segments", "plan.bytes", "plan.nodes", "plan.pool_bytes",
    "plan.pool_nodes", "plan.shm_leaked", "store.reads", "store.decryptions",
    "store.evictions", "store.cache_hit_frac", "store.read_amplification",
    "store.bytes_per_user_byte", "bench.src_lines",
)


def load(path: str) -> list[dict]:
    """The RESULT.json documents under `path` (a file or a directory)."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path)
            if name.endswith(".json") and not name.endswith(".trace.json")
        )
    else:
        files = [path]
    docs = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    if not docs:
        raise SystemExit(f"no result files under {path}")
    return docs


def values(docs: list[dict], workload: str, section: str, metric: str) -> list[float]:
    return [
        doc["workloads"][workload][section][metric]["value"]
        for doc in docs
        if metric in doc["workloads"].get(workload, {}).get(section, {})
    ]


def spread(samples: list[float]) -> float:
    """Interquartile range over the median; 0 with fewer than two runs."""
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(samples))


def bound_for(workload: str, metric: dict) -> float:
    name = metric["name"]
    own = POOL_BOUNDS.get(name) if workload in POOL_WORKLOADS else None
    return min(metric["bound"], own or BOUNDS[name])


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(change in the worse direction as a share of A's median, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / abs(med_a)
    if change > bound:
        return change, "worse"
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        if not all_better:
            return change, "unresolved"
    return change, "ok"


def compare(docs_a: list[dict], docs_b: list[dict], declared: dict) -> int:
    status = 0
    if min(len(docs_a), len(docs_b)) < 2:
        print("one run on a side: its spread is unknown, so nothing reads "
              "`unresolved`; a claim needs ten runs a side")
    print(f"{'workload':22s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload in (entry["name"] for entry in declared["workloads"]):
        for metric in declared["end_to_end"]:
            a = values(docs_a, workload, "end_to_end", metric["name"])
            b = values(docs_b, workload, "end_to_end", metric["name"])
            if not a or not b:
                print(f"{workload:22s} {metric['name']:14s} missing on one side")
                status = 1
                continue
            bound = bound_for(workload, metric)
            change, word = verdict(a, b, metric["better"], bound)
            if word == "worse":
                status = 1
            print(f"{workload:22s} {metric['name']:14s} {statistics.median(a):12.5g} "
                  f"{statistics.median(b):12.5g} {change:+8.1%} {bound:6.0%}  {word}")
        readings = []
        for side, docs in (("A", docs_a), ("B", docs_b)):
            runs = [doc["workloads"].get(workload, {}).get("untraced", {}) for doc in docs]
            for run in runs:
                if run.get("failed", 0):
                    print(f"{workload:22s} side {side}: {run['failed']} of "
                          f"{run['attempted']} queries failed")
                    status = 1
            readings.append(statistics.median(
                [run["calib_s_p50"] for run in runs if "calib_s_p50" in run] or [0.0]
            ))
        if readings[0] and abs(readings[1] / readings[0] - 1.0) > 0.10:
            print(f"{workload:22s} the machine moved: calibration kernel "
                  f"{readings[0] * 1e3:.2f} ms on A, {readings[1] * 1e3:.2f} ms on B")
        for name in EXACT_COUNTS:
            seen = set(values(docs_a + docs_b, workload, "per_layer", name))
            if len(seen) > 1:
                print(f"{workload:22s} {name}: exact count differs: {sorted(seen)}")
                status = 1
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return compare(load(argv[0]), load(argv[1]), declared)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
