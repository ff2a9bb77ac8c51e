"""The repo's end-to-end benchmark: seven workloads, verified, with per-layer
numbers from a traced run.

One workload (what `BENCHMARK.json` declares; the last stdout line is the
result object, the `# ` line above the metrics holds the run's context)::

    python3 benchmarks/e2e/run.py --workload join_balanced --seed 1 \
        --seconds 10 --trace 0

Everything (each workload untraced then traced, each in its own
subprocess; writes RESULT.json and RESULT.trace.json)::

    python3 benchmarks/e2e/run.py --seed 1 --out RESULT.json

See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402  (needs HERE on the path)

#: Set-ups per untraced run; `setup_s` is their median.
SETUPS = 3

#: Fewest measured queries of an untraced run, however slow the box.
MIN_QUERIES = 11

#: Share of `--seconds` a traced run spends on the workload's own rounds
#: (never fewer than three); the rest of its time goes to the layer probes.
TRACED_SHARE = 0.3

#: `bench.trace_overhead_frac` must stay under this, and is resolved only
#: when its 95 % interval is no wider than this either side.
TRACE_OVERHEAD_LIMIT = 0.05

E2E_UNITS = {
    "setup_s": "s", "query_s_p50": "s", "query_s_tail": "s",
    "rows_per_s": "1/s", "vs_vector_x": "x", "peak_rss_mib": "MiB",
}


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def trace_part(name: str) -> str:
    """Where a traced single-workload run leaves its spans."""
    return os.path.join(harness.WORK_DIR, f"trace-{name}.json")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload in this process; returns the result object."""
    import workloads  # imports the program; the run-everything parent never does

    workload = workloads.WORKLOADS[name](tiny)
    tracer = harness.Tracer()
    calib = harness.Calibration()
    context = harness.machine_context()
    shm_before = harness.shm_segments()
    per_round = workload.queries_per_round
    if trace:
        seconds, min_queries = seconds * TRACED_SHARE, 3 * per_round
    else:
        min_queries = MIN_QUERIES
    if tiny:
        seconds, min_queries = 0.0, 2 * per_round
    setups = []
    metrics = {}
    try:
        for attempt in range(1 if trace else SETUPS):
            if attempt:
                workload.teardown()
            with calib.window() as window:
                start = time.perf_counter()
                workload.generate(seed)
                workload.setup()
                seconds_raw = time.perf_counter() - start
            setups.append(seconds_raw * window.scale)
        workload.oracle()
        samples = harness.run_rounds(
            workload, tracer, calib, seconds, min_queries, trace,
            floor_seconds=0.01 if tiny else 0.2,
        )
        query = samples.query()
        if not query:
            raise SystemExit(f"{name}: every query failed; nothing to report")
        if trace:
            import layers

            tracer.enabled = True
            metrics = layers.probe(workload, samples, calib, tracer, seed, tiny)
    finally:
        workload.teardown()
        peak_rss = harness.peak_rss_mib()
    leaked = harness.leaked_segments(shm_before)
    children = harness.child_pids()
    failed = samples.failed + getattr(workload, "oracle_failures", 0)
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "samples": len(query), "wall_query_s_p50": harness.median(samples.query_raw()),
        "calib_s_p50": harness.median(calib.samples),
        "failed_frac": failed / samples.attempted,
        "shm_leaked": leaked, "surviving_children": len(children),
        "machine": context,
    }
    if trace:
        metrics["plan.shm_leaked"] = (leaked, "count")
        detail["trace_ratios"] = samples.trace_ratios()
        os.makedirs(harness.WORK_DIR, exist_ok=True)
        with open(trace_part(name), "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed, "spans": tracer.dump()}, handle)
    else:
        if not samples.yard:
            raise SystemExit(f"{name}: every yardstick query failed; nothing to report")
        # The median of a seven-op mix sits on a boundary between ops, so
        # the mix compares totals over the same queries instead.
        centre = harness.mean if per_round > 1 else harness.median
        wall = sum(round_.wall * scale for round_, scale in samples.rounds())
        metrics = {
            "setup_s": harness.median(setups),
            "query_s_p50": harness.median(query),
            "query_s_tail": harness.tail(query, workload.tail_pct),
            "rows_per_s": sum(round_.rows for round_, _ in samples.rounds()) / wall,
            "vs_vector_x": centre(query) / centre(samples.yard),
            "peak_rss_mib": peak_rss,
        }
        metrics = {key: (value, E2E_UNITS[key]) for key, value in metrics.items()}
        detail.update(
            yardstick_samples=len(samples.yard),
            wall_yardstick_s_p50=harness.median(samples.yard_raw),
            tail_percentile=workload.tail_pct,
        )
    result = {
        "correct": failed == 0 and leaked == 0 and not children,
        "attempted": samples.attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }
    # `detail` is context the contract's result line has no room for.
    return {"result": result, "detail": detail}


def print_run(run: dict) -> None:
    detail = run["detail"]
    print("# " + json.dumps(detail))
    for key, metric in run["result"]["metrics"].items():
        print(f"{detail['workload']:22s} {key:34s} {metric['value']:.6g} {metric['unit']}")


def pooled_trace_overhead(ratios: list[float]) -> dict:
    """`bench.trace_overhead_frac` over the pairs of every traced run: one
    run holds three or four pairs, too few to resolve five percent.

    `interval` is the half-width of the median's 95 % interval under a
    normal approximation (1.96 x 1.2533 x quartile range / 1.349 / sqrt n);
    the value is resolved when that is within the limit.
    """
    interval = 1.82 * harness.quartile_range(ratios) / len(ratios) ** 0.5
    return {
        "value": harness.median(ratios) - 1.0, "unit": "frac", "pairs": len(ratios),
        "interval": interval, "resolved": interval <= TRACE_OVERHEAD_LIMIT,
    }


def run_all(args) -> int:
    """Each workload untraced then traced, each in a subprocess of its own."""
    out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    merged = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    traces = {}
    ratios = []
    status = 0
    for name in (entry["name"] for entry in declared()["workloads"]):
        entry = merged["workloads"][name] = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)] + (["--tiny"] if args.tiny else []),
                stdout=subprocess.PIPE, text=True,
            )
            lines = done.stdout.strip().splitlines()
            context = [line for line in lines if line.startswith("# ")]
            if done.returncode != 0:
                print(f"{name} --trace {trace}: exit {done.returncode}", file=sys.stderr)
                status = 1
            if not context or not lines[-1].startswith("{"):
                continue  # it died before it had a result
            run = {"result": json.loads(lines[-1]), "detail": json.loads(context[-1][2:])}
            print_run(run)
            entry["per_layer" if trace else "end_to_end"] = run["result"]["metrics"]
            entry["traced" if trace else "untraced"] = {
                **run["detail"],
                **{k: run["result"][k] for k in ("correct", "attempted", "failed")},
            }
            if trace:
                ratios += run["detail"]["trace_ratios"]
                with open(trace_part(name), encoding="utf-8") as handle:
                    traces[name] = json.load(handle)["spans"]
                os.remove(trace_part(name))
    if ratios:
        overhead = merged["bench.trace_overhead_frac"] = pooled_trace_overhead(ratios)
        verdict = "resolved" if overhead["resolved"] else "unresolved"
        print(f"{'all workloads':22s} {'bench.trace_overhead_frac':34s} "
              f"{overhead['value']:.6g} frac ({overhead['pairs']} pairs, "
              f"+-{overhead['interval']:.3g}: {verdict})")
        if overhead["resolved"] and overhead["value"] > TRACE_OVERHEAD_LIMIT:
            status = 1
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1)
    trace_path = out.removesuffix(".json") + ".trace.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(traces, handle)
    print(f"wrote {out} and {trace_path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(harness.WORK_DIR, "RESULT.json"))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (test_smoke.py)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    harness.adopt_orphans()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    finally:
        # On every way out: nothing this run started may outlive it.
        harness.stop_children()
    print_run(run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
