"""Algorithm 2: augment both tables with their group dimensions α1, α2.

The two input tables are concatenated (tagged with table ids), sorted by
``(j, tid)`` so each join-value group forms a contiguous block with T1
entries before T2 entries, and the per-group counts are computed in one
forward and one backward linear scan (Figure 2).  A final sort by
``(tid, j, d)`` separates the augmented tables again, each now sorted by
``(j, d)``.

The scans keep only constant state in local memory (the running counters and
the previous entry's attributes) and read/write every cell exactly once, so
their access pattern depends only on ``n1 + n2``.  The output size ``m`` is
accumulated during the backward scan from each group's boundary entry.
"""

from __future__ import annotations

from ..memory.local import LocalContext
from ..memory.public import PublicArray
from ..memory.tracer import Tracer
from ..obliv.bitonic import bitonic_sort
from ..obliv.compare import SortSpec, attr_key
from .entry import Entry
from .stats import PHASE_AUGMENT_SORT1, PHASE_AUGMENT_SORT2, PHASE_FILL_DIMS, JoinCounters

#: Sort that groups join values together, T1 entries before T2 entries.
SPEC_J_TID = SortSpec(attr_key("j"), attr_key("tid"))
#: Sort that separates the tables again, each ordered by (j, d).
SPEC_TID_J_D = SortSpec(attr_key("tid"), attr_key("j"), attr_key("d"))


def fill_dimensions(
    table: PublicArray, local: LocalContext | None = None
) -> int:
    """The two linear scans of Figure 2; returns the output size ``m``.

    ``table`` must be sorted by ``(j, tid)``.  The forward scan stores the
    running per-group counts ``c1, c2`` into each entry; after it, the last
    entry of every group (its *boundary* entry) holds the true dimensions.
    The backward scan propagates boundary values to the whole group and sums
    ``α1·α2`` over boundaries into ``m``.
    """
    local = local or LocalContext()
    n = len(table)
    if n == 0:
        return 0
    with local.slot(2):  # one entry register + the counter bundle
        c1 = 0
        c2 = 0
        prev_j = None
        for i in range(n):
            e = table.read(i).copy()
            if prev_j is None or e.j != prev_j:
                c1 = 0
                c2 = 0
                prev_j = e.j
            if e.tid == 1:
                c1 += 1
            else:
                c2 += 1
            e.a1 = c1
            e.a2 = c2
            table.write(i, e)

        m = 0
        prev_j = None
        final_a1 = 0
        final_a2 = 0
        for i in range(n - 1, -1, -1):
            e = table.read(i).copy()
            if prev_j is None or e.j != prev_j:
                # Boundary entry: its counts are the group's dimensions.
                prev_j = e.j
                final_a1 = e.a1
                final_a2 = e.a2
                m += final_a1 * final_a2
            else:
                e.a1 = final_a1
                e.a2 = final_a2
            table.write(i, e)
    return m


def augment_tables(
    table1: list[Entry],
    table2: list[Entry],
    tracer: Tracer,
    counters: JoinCounters | None = None,
    local: LocalContext | None = None,
) -> tuple[PublicArray, PublicArray, int]:
    """Algorithm 2: returns augmented ``(T1, T2, m)``.

    The returned arrays hold the original entries, each annotated with its
    group's ``(α1, α2)``, sorted lexicographically by ``(j, d)``.
    """
    n1 = len(table1)
    n2 = len(table2)
    n = n1 + n2
    combined = PublicArray(n, name="TC", tracer=tracer)
    for i, entry in enumerate(table1):
        e = entry.copy()
        e.tid = 1
        combined.write(i, e)
    for i, entry in enumerate(table2):
        e = entry.copy()
        e.tid = 2
        combined.write(n1 + i, e)

    counters = counters or JoinCounters()
    with tracer.phase("augment:sort(j,tid)"), counters.phase(PHASE_AUGMENT_SORT1):
        bitonic_sort(combined, SPEC_J_TID, stats=counters.stats(PHASE_AUGMENT_SORT1))
    with tracer.phase("augment:fill_dimensions"), counters.phase(PHASE_FILL_DIMS):
        m = fill_dimensions(combined, local=local)
    with tracer.phase("augment:sort(tid,j,d)"), counters.phase(PHASE_AUGMENT_SORT2):
        bitonic_sort(combined, SPEC_TID_J_D, stats=counters.stats(PHASE_AUGMENT_SORT2))

    out1 = PublicArray(n1, name="T1", tracer=tracer)
    out2 = PublicArray(n2, name="T2", tracer=tracer)
    with tracer.phase("augment:split"):
        for i in range(n1):
            out1.write(i, combined.read(i))
        for i in range(n2):
            out2.write(i, combined.read(n1 + i))
    return out1, out2, m
