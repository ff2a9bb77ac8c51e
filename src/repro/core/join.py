"""Algorithm 1: the full oblivious binary equi-join.

Pipeline (Figure 1): augment both tables with group dimensions, obliviously
expand ``T1`` by α2 and ``T2`` by α1 into the two m-row tables ``S1`` and
``S2``, align ``S2`` to ``S1``, and zip the data values row by row.

Total cost `O(n log^2 n + m log m)` public-memory operations with a
constant-size local working set; the access trace depends only on
``(n1, n2, m)`` — verified formally in :mod:`repro.typesys` and empirically
in ``tests/test_join_trace_obliviousness.py``.

With ``target_m`` set, the output is padded to that public bound instead:
one anchor row rides along in each input, its group dimensions are rewritten
after augmentation so both expansions produce exactly ``target_m`` rows, and
the trace becomes a function of ``(n1, n2, target_m)`` — ``m`` itself stays
hidden.  See :mod:`repro.core.padding` and ``docs/leakage.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.local import LocalContext
from ..memory.public import PublicArray
from ..memory.tracer import Tracer
from .align import align_table
from .augment import augment_tables
from .entry import Entry, entries_from_pairs
from .expand import oblivious_expand
from .padding import (
    ANCHOR_KEY,
    DUMMY_HANDLE,
    check_anchor_headroom,
    check_payload_headroom,
    check_target_m,
    exceeds_bound,
)
from .stats import (
    PHASE_ALIGN_SORT,
    PHASE_EXPAND1_ROUTE,
    PHASE_EXPAND1_SORT,
    PHASE_EXPAND2_ROUTE,
    PHASE_EXPAND2_SORT,
    PHASE_LINEAR,
    JoinCounters,
)


@dataclass
class JoinResult:
    """Output of an oblivious join.

    ``pairs`` lists the joined data values ``(d1, d2)`` grouped by
    ascending join value, each group's cross product row-major over its two
    d-sorted sides (not a lexicographic sort of the triples — duplicate
    left payloads interleave); ``m`` is the (revealed) output size; the
    counters carry the per-phase cost breakdown used by the Table 3 bench.
    """

    pairs: list[tuple[int, int]]
    m: int
    n1: int
    n2: int
    counters: JoinCounters = field(default_factory=JoinCounters)

    def __len__(self) -> int:
        return self.m


def _apply_output_padding(
    t1: PublicArray,
    t2: PublicArray,
    m_augmented: int,
    target_m: int,
    tracer: Tracer,
    local: LocalContext,
) -> None:
    """Rewrite the anchor rows' group dimensions to pad the output.

    The anchors carry :data:`~repro.core.padding.ANCHOR_KEY`, the maximum
    join key, so after augmentation they sit at the *last* cell of each
    table — a fixed public position.  ``m_augmented`` includes the anchor
    group's own ``1 * 1`` contribution; the real join size is one less.
    Setting the left anchor's α2 and the right anchor's α1 to
    ``target_m - m`` makes both expansions total exactly ``target_m``
    (α = 0 simply drops the anchor), with the dummy block landing after
    every real output row.  Two fixed-position read-modify-writes: the
    trace is identical for every ``m``.
    """
    exceeds_bound(m_augmented - 1, target_m)
    pad = target_m - (m_augmented - 1)
    with tracer.phase("pad:anchors"), local.slot(1):
        anchor1 = t1.read(len(t1) - 1).copy()
        anchor1.a2 = pad
        t1.write(len(t1) - 1, anchor1)
        anchor2 = t2.read(len(t2) - 1).copy()
        anchor2.a1 = pad
        t2.write(len(t2) - 1, anchor2)


def oblivious_join_arrays(
    table1: list[Entry],
    table2: list[Entry],
    tracer: Tracer,
    counters: JoinCounters | None = None,
    local: LocalContext | None = None,
    target_m: int | None = None,
) -> tuple[PublicArray, int, JoinCounters]:
    """Algorithm 1 over entry lists; returns ``(TD, m, counters)``.

    ``TD`` is the m-cell output array whose cells are ``(d1, d2)`` tuples.
    With ``target_m``, the inputs must already carry their anchor entries
    (as :func:`oblivious_join` appends them) and the output is exactly
    ``target_m`` cells — real rows first, ``(DUMMY_HANDLE, DUMMY_HANDLE)``
    padding after.
    """
    counters = counters or JoinCounters()
    local = local or LocalContext()

    t1, t2, _m = augment_tables(table1, table2, tracer, counters=counters, local=local)
    if target_m is not None:
        _apply_output_padding(t1, t2, _m, target_m, tracer, local)
        _m = target_m

    with tracer.phase("expand:S1"):
        s1, m1 = oblivious_expand(
            t1,
            lambda e: e.a2,
            tracer,
            counters=counters,
            phases=(PHASE_EXPAND1_SORT, PHASE_EXPAND1_ROUTE),
            local=local,
        )
    with tracer.phase("expand:S2"):
        s2, m2 = oblivious_expand(
            t2,
            lambda e: e.a1,
            tracer,
            counters=counters,
            phases=(PHASE_EXPAND2_SORT, PHASE_EXPAND2_ROUTE),
            local=local,
        )
    assert m1 == m2 == _m, "expansion sizes must agree with the group-dimension sum"

    with counters.phase(PHASE_ALIGN_SORT):
        align_table(s2, tracer, stats=counters.stats(PHASE_ALIGN_SORT), local=local)

    output = PublicArray(_m, name="TD", tracer=tracer)
    with tracer.phase("zip"), counters.phase(PHASE_LINEAR), local.slot(2):
        for i in range(_m):
            e1 = s1.read(i)
            e2 = s2.read(i)
            output.write(i, (e1.d, e2.d))
    return output, _m, counters


def oblivious_join(
    left: list[tuple[int, int]],
    right: list[tuple[int, int]],
    tracer: Tracer | None = None,
    counters: JoinCounters | None = None,
    target_m: int | None = None,
) -> JoinResult:
    """Compute the equi-join of two tables of ``(j, d)`` pairs obliviously.

    This is the library's top-level entry point for the paper's problem
    statement (§4.1): ``T1 ⋈ T2 = {(d1, d2) | (j, d1) ∈ T1, (j, d2) ∈ T2}``.

    Parameters
    ----------
    left / right:
        The input tables as lists of ``(join_value, data_value)`` int pairs.
    tracer:
        Optional tracer whose sink observes every public-memory access; pass
        a :class:`~repro.memory.tracer.HashSink`-backed tracer to reproduce
        the paper's §6.1 experiments.
    counters:
        Optional per-phase cost accumulator (Table 3).
    target_m:
        Optional public output bound, clamped to the cross product
        ``n1 * n2`` (uniformly across engines; the clamp is a public
        function).  The result is padded to exactly that many pairs — the
        true ``m`` real pairs in canonical order, then
        ``(DUMMY_HANDLE, DUMMY_HANDLE)`` dummies — and the access trace
        depends on ``(n1, n2, target_m)`` only.  Raises
        :class:`~repro.errors.BoundError` if the true output exceeds the
        bound (itself a one-bit leak; see :mod:`repro.core.padding`).

    Returns
    -------
    JoinResult
        With ``pairs`` sorted lexicographically by join value, then data
        values — the order induced by the algorithm itself.
    """
    tracer = tracer or Tracer()
    counters = counters or JoinCounters()
    t1 = entries_from_pairs(left, tid=1)
    t2 = entries_from_pairs(right, tid=2)
    if target_m is not None:
        target_m = check_target_m(target_m, len(left), len(right))
        for table in (t1, t2):
            check_anchor_headroom(e.j for e in table)
            check_payload_headroom(e.d for e in table)
            table.append(Entry(j=ANCHOR_KEY, d=DUMMY_HANDLE))
    output, m, counters = oblivious_join_arrays(
        t1, t2, tracer, counters=counters, target_m=target_m
    )
    return JoinResult(pairs=output.snapshot(), m=m, n1=len(left), n2=len(right), counters=counters)
