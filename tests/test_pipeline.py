"""Cross-engine differential suite for operator chains.

A chain is the engine's operators called one at a time, each on the rows
the one before returned (:func:`conftest.run_chain`), so a chain must be
*bit-identical* to the traced reference on any engine x executor —
including when shard tasks run in adversarial order (the ``shuffle``
executor) and when they run on pickled payloads in workers (the ``pool``
executor).  Hypothesis drives whole chains — filter -> join,
join -> group_by, filter -> multiway -> order_by — through every
configuration, and a seed sweep pins that the shuffled execution order
changes neither the output nor the operators' plans.

``REPRO_ENGINES`` / ``REPRO_EXECUTORS`` restrict the configuration list
exactly as in ``test_engine_properties.py``.
"""

from __future__ import annotations

import os

import pytest
from conftest import run_chain
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engines import ShardedEngine, available_engines, get_engine
from repro.plan import ShuffleExecutor, available_executors

#: These tests race and scramble the blocks and merges of sharded sorts at
#: test sizes, so every sort is cut into ``shards`` blocks however small.
pytestmark = pytest.mark.usefixtures("blocks_at_any_size")

ENGINES = [
    name
    for name in available_engines()
    if name in os.environ.get("REPRO_ENGINES", ",".join(available_engines())).split(",")
]

EXECUTORS = [
    name
    for name in available_executors()
    if name
    in os.environ.get("REPRO_EXECUTORS", ",".join(available_executors())).split(",")
]

REFERENCE = "traced"

#: Registry defaults, a lopsided shard count, one sharded configuration per
#: non-default executor, and a padded configuration.
CONFIGURATIONS = ENGINES + (
    [
        pytest.param(ShardedEngine(shards=5), id="sharded[shards=5]"),
        pytest.param(
            ShardedEngine(shards=3, padding="worst_case"),
            id="sharded[padding=worst_case]",
        ),
    ]
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
def masked_table(draw, max_rows: int = 16):
    """A (j, d) table plus a same-length filter mask, biased nasty.

    Tiny key/payload spaces force duplicate rows and heavy groups; the
    mask is drawn independently so all-kept, all-dropped and ragged
    survivor patterns (including survivor-free shard blocks) all occur.
    """
    key_space = draw(st.sampled_from([1, 2, 3, 40]))
    data_space = draw(st.sampled_from([2, 5, 1000]))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=key_space - 1),
                st.integers(min_value=0, max_value=data_space - 1),
            ),
            max_size=max_rows,
        )
    )
    mask = draw(
        st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))
    )
    return rows, mask


@st.composite
def table(draw, max_rows: int = 16):
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


def _assert_chains_agree(configuration, stages):
    engine = get_engine(configuration)
    reference = run_chain(get_engine(REFERENCE), stages)
    result = run_chain(engine, stages)
    assert result.rows == reference.rows
    assert result.groups == reference.groups
    assert result.sizes == reference.sizes


# -- chains on every configuration vs the traced reference -------------------


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(source=masked_table(), right=table())
@settings(max_examples=15, deadline=None)
@example(source=([], []), right=[])
@example(source=([(0, 0)], [False]), right=[(0, 0)])
@example(source=([(0, 1), (0, 1), (0, 2)], [True, True, False]), right=[(0, 3), (0, 4)])
def test_filter_join_pipeline(configuration, source, right):
    rows, mask = source
    _assert_chains_agree(
        configuration, [("source", rows), ("filter", mask), ("join", right)]
    )


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(source=table(), right=table())
@settings(max_examples=15, deadline=None)
@example(source=[], right=[])
@example(source=[(0, 1), (0, 1), (1, 2)], right=[(0, 3), (1, 4), (1, 4)])
def test_join_group_by_pipeline(configuration, source, right):
    _assert_chains_agree(
        configuration, [("source", source), ("join", right), ("group_by",)]
    )


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(source=masked_table())
@settings(max_examples=15, deadline=None)
@example(source=([], []))
@example(source=([(1, 5), (0, 5), (1, 5), (0, 2)], [True, True, True, True]))
def test_filter_group_by_pipeline(configuration, source):
    rows, mask = source
    _assert_chains_agree(
        configuration, [("source", rows), ("filter", mask), ("group_by",)]
    )


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(source=masked_table())
@settings(max_examples=15, deadline=None)
@example(source=([], []))
@example(source=([(0, 1), (1, 1), (0, 1), (2, 0)], [True, False, True, True]))
def test_filter_order_by_pipeline(configuration, source):
    rows, mask = source
    _assert_chains_agree(
        configuration,
        [("source", rows), ("filter", mask), ("order_by", [(1, False), (0, True)])],
    )


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(source=masked_table(max_rows=8), mid=table(max_rows=6), last=table(max_rows=4))
@settings(max_examples=10, deadline=None)
@example(source=([], []), mid=[], last=[])
@example(
    source=([(0, 0), (0, 1)], [True, True]), mid=[(0, 0), (0, 1)], last=[(0, 7)]
)
def test_filter_multiway_order_by_pipeline(configuration, source, mid, last):
    rows, mask = source
    _assert_chains_agree(
        configuration,
        [
            ("source", rows),
            ("filter", mask),
            ("multiway", [mid, last], [(0, 0), (0, 0)]),
            ("order_by", [(1, True), (3, False), (5, True)]),
        ],
    )


# -- execution-order independence --------------------------------------------

#: A fixed adversarial chain: skewed keys, duplicate rows, a survivor-free
#: middle block at shards=3.
_SWEEP_SOURCE = [(0, 1), (0, 1), (1, 2), (0, 1), (2, 2), (1, 0), (0, 0), (1, 1), (0, 2)]
_SWEEP_MASK = [True, True, True, False, False, False, True, True, True]
_SWEEP_RIGHT = [(0, 5), (1, 6), (0, 5), (3, 7), (1, 6)]


@pytest.mark.parametrize(
    "chain",
    [
        pytest.param(
            [("source", _SWEEP_SOURCE), ("filter", _SWEEP_MASK), ("join", _SWEEP_RIGHT)],
            id="filter-join",
        ),
        pytest.param(
            [("source", _SWEEP_SOURCE), ("join", _SWEEP_RIGHT), ("group_by",)],
            id="join-group_by",
        ),
        pytest.param(
            [
                ("source", _SWEEP_SOURCE),
                ("filter", _SWEEP_MASK),
                ("order_by", [(1, True), (0, False)]),
            ],
            id="filter-order_by",
        ),
    ],
)
def test_shuffle_seed_sweep_is_arrival_order_independent(chain):
    """Ten adversarial execution orders: same bits, same plan."""
    if "sharded" not in ENGINES:
        pytest.skip("sharded engine excluded by REPRO_ENGINES")
    reference = run_chain(get_engine(REFERENCE), chain)
    digests = set()
    for seed in range(10):
        engine = ShardedEngine(shards=3, executor=ShuffleExecutor(seed=seed))
        result = run_chain(engine, chain)
        assert result.rows == reference.rows
        assert result.groups == reference.groups
        assert result.sizes == reference.sizes
        digests.add(tuple(plan.digest() for plan in result.plans))
    assert len(digests) == 1
