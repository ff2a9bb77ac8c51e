"""CI gate: fail when a bench artifact regresses vs its committed baseline.

Usage::

    python benchmarks/check_bench_regression.py BENCH_service.json \
        --baseline benchmarks/BENCH_service.baseline.json [--factor 2.0]

Every record in an artifact carries both the engine-under-test seconds and
a reference engine's seconds *measured in the same run*
(``reference_seconds``), so the comparison metric is the **relative cost**
``seconds / reference`` — normalising out machine speed, which is what
makes a committed baseline from one box meaningful on another.  A record
regresses when its relative cost grows by more than ``--factor`` (default
2x, per the CI contract) against the baseline record with the same key —
``(engine, workload, padding, n)``.

Service records (``BENCH_service.json``, keyed additionally by
``(mode, concurrency)``) are also checked for the structural warm-path
invariant: on ``warm_gate`` rows at concurrency 1 the warm per-query
latency must be strictly below the cold one *within the current
artifact* — the caches' reason to exist — independent of any baseline
ratio.

Storage records (``BENCH_storage.json``) carry their own structural
invariant on ``storage_gate`` rows: an in-budget block-aligned
file-backed join must stay within 1.5x of the same-run resident join —
the paged path's overhead is a bounded constant, independent of any
baseline ratio.

Sub-5ms timings are too noisy to judge at the smoke sizes CI runs; such
records are reported as skipped rather than gated.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Engine timings below this are measurement noise at smoke sizes.
MIN_SECONDS = 0.005


def record_key(record: dict) -> tuple:
    key = (
        record["engine"],
        record["workload"],
        record.get("padding", "revealed"),
        record["n"],
    )
    if "mode" in record or "concurrency" in record:
        # Service records: the same query measured cold vs warm, and the
        # warm path again under concurrent admission.
        key += (record.get("mode", "-"), record.get("concurrency", 1))
    return key


def service_warm_regressions(current: dict) -> list:
    """The service artifact's structural invariant: warm beats cold.

    The whole point of the service layer is that a warm engine answers a
    repeated query faster than a cold one; if that inverts, the caches
    regressed even when every relative cost stayed under the factor.
    Compared per (engine, workload, n) at concurrency 1, current artifact
    only (the invariant must hold per run, not vs a baseline).  Only
    records the bench marks ``warm_gate`` are bound: those are the
    configurations whose margin is structural (pool fork, shm publish,
    plan compile) rather than timing jitter; ungated rows (plain vector,
    whose only cacheable setup is the key scan) are context only.
    """
    by_mode: dict[tuple, dict[str, float]] = {}
    for record in current.get("records", []):
        if "mode" not in record or record.get("concurrency", 1) != 1:
            continue
        if not record.get("warm_gate", True):
            continue
        group = (record["engine"], record["workload"], record["n"])
        by_mode.setdefault(group, {})[record["mode"]] = record["seconds"]
    violations = []
    for group, modes in sorted(by_mode.items()):
        if "cold" in modes and "warm" in modes and modes["warm"] >= modes["cold"]:
            violations.append(
                group + (f"warm {modes['warm']:.4f}s >= cold {modes['cold']:.4f}s",)
            )
    return violations


#: The storage artifact's structural bound: in-budget file-backed joins
#: within this factor of the same-run resident join (mirrors
#: bench_storage.GATE_FACTOR).
STORAGE_FACTOR = 1.5


def storage_regressions(current: dict) -> list:
    """The storage artifact's structural invariant: paging is bounded.

    ``bench_storage.py`` marks ``storage_gate`` on the plaintext
    file-backed rows whose table fits the trusted-memory budget: for
    those, the block path adds only constant per-block bookkeeping, so
    the join must land within ``STORAGE_FACTOR`` of the same-run
    resident median.  Enforced on the current artifact alone (the bound
    is structural, not a baseline ratio); resident references under the
    noise floor are skipped — at CI smoke sizes a ratio over jitter
    means nothing.
    """
    violations = []
    for record in current.get("records", []):
        if not record.get("storage_gate"):
            continue
        reference = record.get("reference_seconds") or 0.0
        if reference < MIN_SECONDS:
            continue
        if record["seconds"] > STORAGE_FACTOR * reference:
            violations.append((
                record["engine"],
                record["workload"],
                record["n"],
                record["mode"],
                f"{record['seconds']:.4f}s > {STORAGE_FACTOR}x "
                f"resident {reference:.4f}s",
            ))
    return violations


def compare(current: dict, baseline: dict, factor: float) -> tuple[list, list]:
    """Returns ``(regressions, rows)``; rows describe every comparison."""
    baseline_by_key = {record_key(r): r for r in baseline["records"]}
    regressions, rows = [], []
    for record in current["records"]:
        key = record_key(record)
        base = baseline_by_key.get(key)
        seconds, reference = record["seconds"], record["reference_seconds"]
        cost = seconds / reference
        if base is None:
            rows.append((key, None, cost, "new"))
            continue
        base_seconds, base_reference = base["seconds"], base["reference_seconds"]
        # The reference denominators must clear the noise floor for any
        # ratio to mean anything; the timings themselves gate unless both
        # sides are sub-noise (so a 1ms -> 100ms blow-up is still caught).
        noisy = seconds < MIN_SECONDS and base_seconds < MIN_SECONDS
        noisy = noisy or min(reference, base_reference) < MIN_SECONDS
        if noisy:
            rows.append((key, None, cost, "skipped (sub-5ms)"))
            continue
        base_cost = base_seconds / base_reference
        if base_cost == 0:
            rows.append((key, None, cost, "skipped (zero baseline)"))
            continue
        ratio = cost / base_cost
        status = "ok"
        if ratio > factor:
            status = f"REGRESSION (> {factor:.1f}x)"
            regressions.append(key)
        rows.append((key, ratio, cost, status))
    return regressions, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a bench artifact regresses vs its committed baseline"
    )
    parser.add_argument("artifact", help="freshly generated bench JSON artifact")
    parser.add_argument(
        "--baseline",
        required=True,
        help="committed baseline, e.g. benchmarks/BENCH_service.baseline.json",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum allowed relative-cost growth (default: 2.0)",
    )
    args = parser.parse_args(argv)
    with open(args.artifact, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    regressions, rows = compare(current, baseline, args.factor)
    for violation in service_warm_regressions(current):
        print(
            f"WARM-PATH REGRESSION: {violation}",
            file=sys.stderr,
        )
        regressions.append(violation)
    for violation in storage_regressions(current):
        print(
            f"STORAGE-GATE REGRESSION: {violation}",
            file=sys.stderr,
        )
        regressions.append(violation)
    for key, ratio, cost, status in rows:
        label = " ".join(str(part) for part in key)
        ratio_text = "  new" if ratio is None else f"{ratio:5.2f}"
        print(
            f"{label:44s} cost={cost:8.3f}x ref  "
            f"vs-baseline={ratio_text}  {status}"
        )
    if regressions:
        print(f"\n{len(regressions)} regression(s): {regressions}", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.factor:.1f}x (of {len(rows)} comparisons)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
