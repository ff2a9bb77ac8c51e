"""The vectorised oblivious join pipeline (numpy struct-of-arrays engine).

Stage-for-stage the same algorithm as :mod:`repro.core`: augment with group
dimensions, expand both tables through sort + routing network, align S2, and
zip.  Each stage is expressed as whole-array numpy operations whose index
patterns depend only on (n1, n2, m); per-element decisions become boolean
masks.  Outputs are bit-identical to the traced engine (asserted in
``tests/test_vector_vs_traced.py``), which justifies benchmarking with this
engine while proving security claims on the traced one.
"""

from __future__ import annotations

import numpy as np

from ..core.padding import (
    ANCHOR_KEY,
    DUMMY_HANDLE,
    check_anchor_headroom,
    check_payload_headroom,
    check_target_m,
    exceeds_bound,
)
from ..core.stats import PhaseStats
from ..errors import InputError
from ..obliv.routing import largest_hop
from .sort import Key, index_bits, vector_bitonic_sort

_INT = np.int64


def int64_cells(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; anything else is an
    :class:`~repro.errors.InputError` naming ``what``.

    A float, string or out-of-range cell is refused, never cast (``1.5``
    would truncate onto ``1``); an empty input is accepted whatever dtype
    numpy infers for it.
    """
    try:
        array = np.asarray(values)
    except ValueError:
        raise InputError(f"{what} has rows of different lengths") from None
    if array.size and array.dtype.kind == "u" and array.max() > np.iinfo(_INT).max:
        raise InputError(f"{what} holds a value outside int64")
    if array.size and array.dtype.kind not in "biu":
        raise InputError(f"{what} holds a value that is not an int64 int ({array.dtype} cells)")
    return array.astype(_INT, copy=False)


def _as_columns(pairs, tid: int, side: str | None = None) -> dict[str, np.ndarray]:
    """A ``(j, d)`` table as int64 columns; ``side`` names it in errors."""
    array = int64_cells(pairs, f"{side or ('left' if tid == 1 else 'right')} input")
    if array.size == 0:
        array = array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise InputError("input tables must be sequences of (j, d) pairs")
    n = array.shape[0]
    return {
        "j": array[:, 0].copy(),
        "d": array[:, 1].copy(),
        "tid": np.full(n, tid, dtype=_INT),
    }


def _group_starts(j: np.ndarray) -> np.ndarray:
    """Boolean mask over a j-sorted column: the row opens a new group."""
    new_group = np.empty(len(j), dtype=bool)
    new_group[0] = True
    np.not_equal(j[1:], j[:-1], out=new_group[1:])
    return new_group


def _group_ids(j: np.ndarray) -> np.ndarray:
    """0-based group index per row of a j-sorted column."""
    return np.cumsum(_group_starts(j)) - 1


def _route_forward(columns: dict[str, np.ndarray], m: int) -> None:
    """Vectorised Algorithm 3 routing: hop elements toward ``f`` targets.

    ``columns['f']`` holds 0-based targets (-1 for nulls).  Per phase, the
    element-wise hop decision ``target - position >= j`` matches the
    sequential inner loop exactly (the update rule in Theorem 1's proof is
    already element-wise).
    """
    if m <= 1:
        return
    size = len(columns["f"])
    positions = np.arange(size, dtype=_INT)
    hop = largest_hop(m)
    names = list(columns)
    while hop >= 1:
        targets = columns["f"]
        moving = (targets >= 0) & ((targets - positions) >= hop)
        src = np.flatnonzero(moving)
        dst = src + hop
        for name in names:
            col = columns[name]
            values = col[src].copy()
            col[src] = -1 if name == "f" else 0
            col[dst] = values
        hop //= 2


def expand_keys(m: int) -> list[Key]:
    """Both expansions' sort over ``m`` output slots: real rows by first slot."""
    return [("_null", True, 1), ("slot", True, index_bits(m))]


def _expand(
    columns: dict[str, np.ndarray],
    count_column: str,
    m: int,
    stats: PhaseStats,
    sort_phase: str,
    route_phase: str,
    sort=vector_bitonic_sort,
) -> dict[str, np.ndarray]:
    """Vectorised Algorithm 4: duplicate each row ``count_column`` times."""
    n = len(columns["j"])
    counts = columns[count_column]
    keep = counts > 0
    first_slot = np.cumsum(counts) - counts
    columns = dict(columns)
    # Sorted as a slot in [0, m) (a public width); ``f`` after the sort.
    columns["slot"] = np.where(keep, first_slot, 0).astype(_INT)
    columns["_null"] = (~keep).astype(_INT)

    size = max(n, m)
    extended = {}
    for name, col in columns.items():
        ext = np.zeros(size, dtype=_INT)
        ext[:n] = col
        extended[name] = ext
    extended["_null"][n:] = 1

    with stats.phase(sort_phase) as counter:
        extended = sort(extended, expand_keys(m), counter=counter)
    extended["f"] = extended.pop("slot") - extended["_null"]

    with stats.phase(route_phase) as counter:
        _route_forward(extended, m)
        # The routing network compares one pair of cells per inner step; the
        # vectorised loop covers the same (size - hop) slots per phase.
        hop = largest_hop(m)
        while hop >= 1:
            counter[0] += max(size - hop, 0)
            hop //= 2

    # Truncate to m cells and fill nulls downward from the last real row.
    result = {name: col[:m] for name, col in extended.items()}
    occupied = result["f"] >= 0
    source = np.where(occupied, np.arange(m, dtype=_INT), 0)
    np.maximum.accumulate(source, out=source)
    filled = {
        name: col[source]
        for name, col in result.items()
        if name not in ("_null", "f")
    }
    return filled


def align_keys(m: int) -> list[Key]:
    """The align sort over ``m`` slots: by group id, then transposed index."""
    bits = index_bits(m)
    return [("j", True, bits), ("ii", True, bits)]


def _align(
    s2: dict[str, np.ndarray], m: int, stats: PhaseStats, sort=vector_bitonic_sort
) -> dict[str, np.ndarray]:
    """Vectorised Algorithm 5: transpose each group block of S2."""
    new_group = _group_starts(s2["j"])
    gid = np.cumsum(new_group) - 1
    q = np.arange(m, dtype=_INT) - np.flatnonzero(new_group)[gid]
    # The group id stands in for j: same order, public width, j is not read again.
    s2 = {**s2, "j": gid, "ii": q // s2["a1"] + (q % s2["a1"]) * s2["a2"]}

    with stats.phase("align_sort") as counter:
        return sort(s2, align_keys(m), counter=counter)


def _append_anchor(columns: dict[str, np.ndarray], tid: int) -> dict[str, np.ndarray]:
    """One anchor row per table under padded execution (see core.padding)."""
    if len(columns["j"]):
        check_anchor_headroom((int(columns["j"].max()),))
        check_payload_headroom((int(columns["d"].min()),))
    return {
        "j": np.append(columns["j"], np.asarray([ANCHOR_KEY], dtype=_INT)),
        "d": np.append(columns["d"], np.asarray([DUMMY_HANDLE], dtype=_INT)),
        "tid": np.append(columns["tid"], np.asarray([tid], dtype=_INT)),
    }


def augment_keys(total: int) -> tuple[list[Key], list[Key]]:
    """The augment's two sorts over ``total`` rows: by ``(j, tid, d)``, then
    by ``tid ‖ position`` — the ``(tid, j, d)`` order as one public width."""
    first = [("j", True), ("tid", True, 2), ("d", True)]
    return first, [("tid", True, 2 + index_bits(total))]


def _augmented_tables(
    left,
    right,
    stats: PhaseStats,
    target_m: int | None,
    sort=vector_bitonic_sort,
):
    """Algorithm 1's augment prefix: sorted, dimension-filled tables.

    Runs the two bitonic sorts and group-dimension fill the expansions
    start from, recording the ``augment_sort1`` / ``fill_dimensions`` /
    ``augment_sort2`` phases into ``stats``.  Returns ``(table1, table2,
    m)`` where the tables are ``(tid, j, d)``-sorted with ``a1``/``a2``
    columns and anchor dimensions already rewritten to the pad size under
    padded execution (so ``m`` is ``target_m`` exactly when it is given).
    ``(None, None, 0)`` stands for the empty unpadded join.  A function of
    its own so that the combined-table temporaries are released before the
    expansions allocate theirs.
    """
    left_cols = _as_columns(left, tid=1)
    right_cols = _as_columns(right, tid=2)
    if target_m is not None:
        target_m = check_target_m(target_m, len(left_cols["j"]), len(right_cols["j"]))
        left_cols = _append_anchor(left_cols, tid=1)
        right_cols = _append_anchor(right_cols, tid=2)
    n1 = len(left_cols["j"])
    n2 = len(right_cols["j"])
    if n1 + n2 == 0:
        return None, None, 0

    combined = {
        name: np.concatenate([left_cols[name], right_cols[name]])
        for name in ("j", "d", "tid")
    }

    first, second = augment_keys(n1 + n2)
    with stats.phase("augment_sort1") as counter:
        combined = sort(combined, first, counter=counter)

    with stats.phase("fill_dimensions", counted=False):
        gid = _group_ids(combined["j"])
        group_count = int(gid[-1]) + 1
        count1 = np.bincount(gid, weights=(combined["tid"] == 1), minlength=group_count).astype(_INT)
        count2 = np.bincount(gid, weights=(combined["tid"] == 2), minlength=group_count).astype(_INT)
        combined["a1"] = count1[gid]
        combined["a2"] = count2[gid]
        m = int((count1 * count2).sum())
    stats.m = m

    # Sort 1 ordered by (j, tid, d), so a row's position is its rank under
    # (j, d) within its table: tid ‖ position is the (tid, j, d) order as one
    # key of public width, carried in the tid column (dropped below).
    with stats.phase("augment_sort2") as counter:
        bits = index_bits(n1 + n2)
        combined["tid"] = (combined["tid"] << bits) | np.arange(n1 + n2, dtype=_INT)
        combined = sort(combined, second, counter=counter)

    table1 = {name: col[:n1].copy() for name, col in combined.items() if name != "tid"}
    table2 = {name: col[n1:].copy() for name, col in combined.items() if name != "tid"}

    if target_m is not None:
        # The anchors hold the maximum key, so after the (tid, j, d) sort
        # they are each table's last row — a public position.  The anchor
        # group contributed 1*1 to m; rewriting its dimensions to the pad
        # size makes both expansions total exactly target_m (see
        # repro.core.padding — value writes don't shape the schedule).
        exceeds_bound(m - 1, target_m)
        pad = target_m - (m - 1)
        table1["a2"][-1] = pad
        table2["a1"][-1] = pad
        m = target_m
        stats.m = m

    return table1, table2, m


def vector_oblivious_join(
    left,
    right,
    stats: PhaseStats | None = None,
    target_m: int | None = None,
    sort=vector_bitonic_sort,
) -> tuple[np.ndarray, PhaseStats]:
    """Vectorised Algorithm 1; returns ``(pairs, stats)``.

    ``pairs`` is an ``(m, 2)`` int64 array of joined data values in the same
    order the traced engine produces: groups in ascending ``j`` order, each
    group's cross product row-major over its two d-sorted sides.

    ``target_m`` pads the output to that public bound exactly as the traced
    engine does (anchor rows, rewritten group dimensions — see
    :mod:`repro.core.padding`): real rows first, ``DUMMY_HANDLE`` rows
    after, and a primitive schedule that is a function of
    ``(n1, n2, target_m)`` only.  A true size above ``target_m`` raises
    :class:`~repro.errors.BoundError` right after the augment phase.

    ``sort`` is the oblivious sort all five sorting steps call, with
    :func:`~repro.vector.sort.vector_bitonic_sort`'s signature; a sharded
    engine and :mod:`repro.shard.join` pass a sharded sort.  Every tie the
    five key lists leave open is between rows that are identical or whose
    order a later step overwrites, so the output does not depend on how
    ``sort`` breaks them.
    """
    stats = stats if stats is not None else PhaseStats()
    table1, table2, m = _augmented_tables(left, right, stats, target_m, sort)
    if table1 is None or m == 0:
        return np.zeros((0, 2), dtype=_INT), stats

    s1 = _expand(table1, "a2", m, stats, "expand1_sort", "expand1_route", sort)
    s2 = _expand(table2, "a1", m, stats, "expand2_sort", "expand2_route", sort)
    s2 = _align(s2, m, stats, sort)

    with stats.phase("zip", counted=False):
        pairs = np.stack([s1["d"], s2["d"]], axis=1)
    return pairs, stats
