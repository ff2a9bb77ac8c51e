"""Table 3 reproduction: per-component comparison counts and runtime share.

Regenerates both columns of the paper's Table 3:

* comparison counts — the paper's closed forms evaluated at its n = 10^6
  next to our exact network counts and the *measured* counts of an
  instrumented run (exact and measured must agree comparator-for-
  comparator);
* runtime share — measured on this machine with the vector engine at the
  largest size the sweep allows, compared against the paper's 60/25/3/12
  percent split.
"""

from __future__ import annotations

from repro.analysis.counts import table3_analytic
from repro.core.join import oblivious_join
from repro.core.stats import TABLE3_GROUPS, JoinCounters
from repro.vector.join import vector_oblivious_join
from repro.workloads.generators import balanced_output

from bench_common import SCALE, fmt_table, report

#: Paper-reported runtime shares at n = 10^6 (m ~ n1 = n2).
PAPER_SHARES = {
    "initial sorts on TC": 0.60,
    "o.d. on T1, T2 (sort)": 0.25,
    "o.d. on T1, T2 (route)": 0.03,
    "align sort on S2": 0.12,
}

def test_table3_counts_paper_vs_exact_vs_measured(benchmark):
    n = 512 * SCALE
    w = balanced_output(n, seed=n)
    counters = JoinCounters()
    result = oblivious_join(w.left, w.right, counters=counters)

    analytic = table3_analytic(w.n1, w.n2, result.m)
    rows = []
    for row in analytic:
        measured = sum(
            counters.comparisons(p) for p in TABLE3_GROUPS[row.component]
        )
        rows.append([row.component, f"{row.paper_estimate:.0f}", row.exact, measured])
        assert measured == row.exact, row.component

    paper_scale = table3_analytic(500_000, 500_000, 500_000)
    text = (
        f"measured at n={n} (m~n1=n2):\n"
        + fmt_table(["component", "paper formula", "exact network", "measured"], rows)
        + "\n\npaper's n=10^6 analytic counts (comparisons):\n"
        + fmt_table(
            ["component", "paper formula", "exact network"],
            [[r.component, f"{r.paper_estimate:.3g}", f"{r.exact:.3g}"] for r in paper_scale],
        )
    )
    report("table3_counts", text)
    benchmark(lambda: oblivious_join(w.left, w.right))


def test_table3_runtime_share(benchmark):
    n = 2**15 * SCALE
    w = balanced_output(n, seed=1)
    _, stats = vector_oblivious_join(w.left, w.right)

    sort_total = sum(
        stats.seconds_by_phase[p] for group in TABLE3_GROUPS.values() for p in group
    )
    rows = []
    for component, phases in TABLE3_GROUPS.items():
        seconds = sum(stats.seconds_by_phase[p] for p in phases)
        share = seconds / sort_total
        rows.append(
            [component, f"{share:5.1%}", f"{PAPER_SHARES[component]:5.1%}"]
        )
    text = (
        f"vector engine, n={n} (m~n1=n2), share of component time:\n"
        + fmt_table(["component", "measured share", "paper share"], rows)
    )
    report("table3_runtime_share", text)

    shares = {
        comp: sum(stats.seconds_by_phase[p] for p in phases) / sort_total
        for comp, phases in TABLE3_GROUPS.items()
    }
    # Shape assertions: the initial sorts dominate; routing is the smallest.
    assert shares["initial sorts on TC"] == max(shares.values())
    assert shares["o.d. on T1, T2 (route)"] == min(shares.values())

    small = balanced_output(2**12, seed=2)
    benchmark(lambda: vector_oblivious_join(small.left, small.right))
