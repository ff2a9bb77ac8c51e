"""Property-based cross-engine differential suite.

Hypothesis generates adversarial tables — skewed key distributions, heavy
duplicates (in keys *and* payloads), empty sides, single rows — and every
engine in :func:`repro.engines.available_engines` must agree with the
non-oblivious hash-join oracle and, bit for bit, with every other engine.
A future backend only has to call ``register_engine`` to inherit this
fuzzing.

The sharded engine additionally runs once per *executor* substrate
(inline / shared-memory pool / asyncio overlap): executors may only change
wall-clock, never a single output bit, and this suite is what enforces
that.

``REPRO_ENGINES`` (comma-separated names) restricts the engine list and
``REPRO_EXECUTORS`` the executor list — the CI matrix uses them to
parametrise the differential job per (engine, executor).
``REPRO_STORE=file`` additionally re-routes every binary join's inputs
through an encrypted, file-backed block store
(:class:`~repro.store.StorePairs` over per-example ``FileStore``
directories), so the same differential suite pins the out-of-core path
bit-identical to the resident one on every engine and executor.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.hash_join import join_multiset
from repro.engines import ShardedEngine, available_engines, get_engine
from repro.plan import available_executors

#: These tests race and scramble the blocks and merges of sharded sorts at
#: test sizes, so every sort is cut into ``shards`` blocks however small.
pytestmark = pytest.mark.usefixtures("blocks_at_any_size")

#: Engines under test: the full registry, or the REPRO_ENGINES subset.
ENGINES = [
    name
    for name in available_engines()
    if name in os.environ.get("REPRO_ENGINES", ",".join(available_engines())).split(",")
]

#: Executor substrates under test (sharded engine only): the full registry,
#: or the REPRO_EXECUTORS subset.  "inline" is the registry default
#: configuration, so only the non-default substrates add configurations.
EXECUTORS = [
    name
    for name in available_executors()
    if name
    in os.environ.get("REPRO_EXECUTORS", ",".join(available_executors())).split(",")
]

#: Differential comparisons need >= 2 engines; always keep the oracle's peer.
REFERENCE = "traced"

#: Engine *configurations*: registry defaults plus a deliberately lopsided
#: sharded setup (more shards than most generated tables have rows) plus
#: one sharded configuration per non-default executor substrate.
CONFIGURATIONS = ENGINES + (
    [pytest.param(ShardedEngine(shards=5), id="sharded[shards=5]")]
    + [
        pytest.param(
            ShardedEngine(shards=3, workers=2, executor=name),
            id=f"sharded[executor={name}]",
        )
        for name in EXECUTORS
        if name != "inline"
    ]
    if "sharded" in ENGINES
    else []
)


@st.composite
def table(draw, max_rows: int = 16):
    """A (j, d) table biased toward the nasty corners.

    Key spaces of 1 (every row one giant group), 2-3 (heavy skew) and 40
    (mostly unmatched); payload spaces small enough to force duplicate
    ``(j, d)`` rows — the case where output order is not a plain sort of
    the value pairs.
    """
    key_space = draw(st.sampled_from([1, 2, 3, 40]))
    data_space = draw(st.sampled_from([2, 5, 1000]))
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=key_space - 1),
                st.integers(min_value=0, max_value=data_space - 1),
            ),
            max_size=max_rows,
        )
    )


def _engines(configuration):
    return get_engine(configuration)


#: "file" re-routes binary-join inputs through a file-backed block store.
REPRO_STORE = os.environ.get("REPRO_STORE", "")

_STORE_DIR = (
    tempfile.TemporaryDirectory(prefix="repro-store-differential-")
    if REPRO_STORE == "file"
    else None
)
_STORE_SEQ = itertools.count()


def join_inputs(left, right):
    """The suite's join inputs, per the ``REPRO_STORE`` storage mode.

    Default: the generated lists, unchanged.  Under ``REPRO_STORE=file``
    both tables are written into a fresh encrypted ``FileStore`` (tiny
    blocks and a tiny trusted-memory budget, so even 16-row examples
    span multiple blocks and evict) and come back as ``StorePairs`` —
    the engines must produce bit-identical output either way.
    """
    if REPRO_STORE != "file":
        return left, right
    from repro.store import FileStore, StorePairs, adopt
    from repro.store.columns import write_int_column

    path = os.path.join(_STORE_DIR.name, f"case{next(_STORE_SEQ)}")
    store = FileStore(path, block_bytes=32, key=b"differential-key")
    for name, rows in (("L", left), ("R", right)):
        write_int_column(store, f"{name}/j", [j for j, _ in rows])
        write_int_column(store, f"{name}/d", [d for _, d in rows])
    store.flush()
    spec = adopt(store, cache_bytes=64)
    return (
        StorePairs(spec, len(left), "L/j", "L/d"),
        StorePairs(spec, len(right), "R/j", "R/d"),
    )


# -- join --------------------------------------------------------------------


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(left=table(), right=table())
@settings(max_examples=25, deadline=None)
@example(left=[], right=[])
@example(left=[(0, 0)], right=[])
@example(left=[(0, 0)], right=[(0, 0)])
@example(left=[(0, 1), (0, 1), (0, 2)], right=[(0, 3), (0, 4)])
def test_join_matches_oracle_and_reference(configuration, left, right):
    engine = _engines(configuration)
    result = engine.join(*join_inputs(left, right))
    assert sorted(result.pairs) == join_multiset(left, right)
    assert result.m == len(result.pairs)
    assert (result.n1, result.n2) == (len(left), len(right))
    assert result.pairs == get_engine(REFERENCE).join(left, right).pairs


@given(left=table(), right=table())
@settings(max_examples=25, deadline=None)
def test_all_engines_join_bit_identically(left, right):
    results = [
        get_engine(name).join(*join_inputs(left, right)).pairs
        for name in ENGINES
    ]
    for other in results[1:]:
        assert other == results[0]


# -- aggregation -------------------------------------------------------------


def _aggregate_oracle(left, right):
    agg = defaultdict(lambda: [0, 0, 0, 0])
    for j1, d1 in left:
        for j2, d2 in right:
            if j1 == j2:
                entry = agg[j1]
                entry[0] += 1
                entry[1] += d1
                entry[2] += d2
                entry[3] += d1 * d2
    return dict(agg)


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(left=table(max_rows=12), right=table(max_rows=12))
@settings(max_examples=25, deadline=None)
@example(left=[], right=[])
@example(left=[(0, 0)], right=[(0, 0), (0, 1)])
def test_aggregate_matches_oracle_and_reference(configuration, left, right):
    engine = _engines(configuration)
    groups = engine.aggregate(left, right)
    got = {
        g.j: [g.pair_count, g.join_sum_d1, g.join_sum_d2, g.join_sum_product]
        for g in groups
    }
    assert got == _aggregate_oracle(left, right)
    assert groups == get_engine(REFERENCE).aggregate(left, right)


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(rows=table(max_rows=14))
@settings(max_examples=25, deadline=None)
@example(rows=[])
@example(rows=[(0, 0)])
def test_group_by_matches_oracle_and_reference(configuration, rows):
    engine = _engines(configuration)
    groups = engine.group_by(rows)
    oracle = defaultdict(list)
    for j, d in rows:
        oracle[j].append(d)
    assert {g.j: g.count1 for g in groups} == {
        j: len(ds) for j, ds in oracle.items()
    }
    assert {g.j: (g.sum_d1, g.min_d1, g.max_d1) for g in groups} == {
        j: (sum(ds), min(ds), max(ds)) for j, ds in oracle.items()
    }
    assert groups == get_engine(REFERENCE).group_by(rows)


# -- multiway ----------------------------------------------------------------


def _multiway_oracle(tables, keys):
    accumulated = [tuple(row) for row in tables[0]]
    for step, next_table in enumerate(tables[1:]):
        left_col, right_col = keys[step]
        accumulated = [
            a + tuple(b)
            for a in accumulated
            for b in next_table
            if a[left_col] == b[right_col]
        ]
    return sorted(accumulated)


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(t1=table(max_rows=6), t2=table(max_rows=6), t3=table(max_rows=6))
@settings(max_examples=15, deadline=None)
@example(t1=[(0, 0), (0, 0)], t2=[(0, 1), (0, 1)], t3=[(1, 9)])
def test_multiway_matches_oracle_and_reference(configuration, t1, t2, t3):
    engine = _engines(configuration)
    tables, keys = [t1, t2, t3], [(0, 0), (3, 0)]
    result = engine.multiway_join(tables, keys)
    assert sorted(result.rows) == _multiway_oracle(tables, keys)
    reference = get_engine(REFERENCE).multiway_join(tables, keys)
    assert result.rows == reference.rows
    assert result.intermediate_sizes == reference.intermediate_sizes


# -- padded execution --------------------------------------------------------

PADDINGS = ["worst_case", "bounded"]


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@pytest.mark.parametrize("padding", PADDINGS)
@given(t1=table(max_rows=5), t2=table(max_rows=5), t3=table(max_rows=5))
@settings(max_examples=10, deadline=None)
@example(t1=[(0, 0), (0, 0)], t2=[(0, 1), (0, 1)], t3=[(1, 9)])
@example(t1=[], t2=[(0, 1)], t3=[(0, 2)])
def test_padded_multiway_compacts_to_unpadded_result(
    configuration, padding, t1, t2, t3
):
    """Padded cascades return bit-identical rows and true sizes, on every
    engine, with the adversary-facing bounds a pure function of sizes."""
    engine = _engines(configuration)
    tables, keys = [t1, t2, t3], [(0, 0), (3, 0)]
    reference = get_engine(REFERENCE).multiway_join(tables, keys)
    # Worst-case bounds always hold; "bounded" uses them as explicit caps,
    # exercising the cap plumbing without risking a BoundError.
    bound = [len(t1) * len(t2), len(t1) * len(t2) * len(t3)]
    result = engine.multiway_join(
        tables, keys, padding=padding, bound=bound if padding == "bounded" else None
    )
    assert result.rows == reference.rows
    assert result.intermediate_sizes == reference.intermediate_sizes
    assert result.padding == padding
    assert result.bounds == tuple(bound)


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(left=table(max_rows=8), right=table(max_rows=8))
@settings(max_examples=10, deadline=None)
@example(left=[], right=[])
@example(left=[(0, 0), (0, 1)], right=[(0, 3), (0, 4)])
def test_padded_join_prefix_matches_unpadded(configuration, left, right):
    engine = _engines(configuration)
    reference = get_engine(REFERENCE).join(left, right)
    target = len(left) * len(right)
    padded = engine.join(*join_inputs(left, right), target_m=target)
    assert padded.m == target
    assert padded.pairs[: reference.m] == reference.pairs
    assert all(pair == (-1, -1) for pair in padded.pairs[reference.m :])


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(left=table(max_rows=10), right=table(max_rows=10))
@settings(max_examples=10, deadline=None)
@example(left=[(0, 0), (1, 1)], right=[(0, 2), (1, 3)])
@example(left=[(2**62, 1), (0, 2)], right=[(2**62, 3), (2**62 + 1, 4)])  # the join's anchor
@example(left=[(2**63 - 1, 1), (0, 4)], right=[(2**63 - 1, 5)])  # int64 max
def test_padding_configured_engines_aggregate_identically(
    configuration, left, right
):
    """padding="worst_case" as an engine *option*: joins/aggregates/group-bys
    still agree with the reference after compaction."""
    engine = get_engine(_engines(configuration), padding="worst_case")
    assert engine.aggregate(left, right) == get_engine(REFERENCE).aggregate(
        left, right
    )
    assert engine.group_by(left) == get_engine(REFERENCE).group_by(left)


# -- filter / order-by -------------------------------------------------------


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(mask=st.lists(st.booleans(), max_size=24))
@settings(max_examples=25, deadline=None)
@example(mask=[])
@example(mask=[False])
@example(mask=[True] * 9)
def test_filter_indices_match_reference(configuration, mask):
    engine = _engines(configuration)
    kept = engine.filter_indices(mask)
    assert kept == [i for i, keep in enumerate(mask) if keep]
    assert kept == get_engine(REFERENCE).filter_indices(mask)


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=20,
    ),
    ascending=st.booleans(),
)
@settings(max_examples=25, deadline=None)
@example(rows=[(1, 0), (1, 1), (1, 2)], ascending=True)  # all-tie sort keys
def test_order_permutation_is_stable_and_matches_reference(
    configuration, rows, ascending
):
    engine = _engines(configuration)
    columns = [([row[0] for row in rows], ascending)]
    permutation = engine.order_permutation(columns)
    # Stable contract: sorted by the key, original order breaking ties.
    expected = sorted(
        range(len(rows)),
        key=lambda i: (-rows[i][0] if not ascending else rows[i][0], i),
    )
    assert permutation == expected
    assert permutation == get_engine(REFERENCE).order_permutation(columns)
