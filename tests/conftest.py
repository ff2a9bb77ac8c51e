"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from repro.core.padding import compact_pairs
from repro.memory.tracer import HashSink, ListSink, Tracer
from repro.obliv.bitonic import next_power_of_two
from repro.plan import partition
from repro.plan.partition import partition_plan, word_passes
from repro.shard.merge import merge_comparator_count


def shm_segments() -> set[str]:
    """Names of the live POSIX shared-memory segments (empty off-POSIX)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return set()


@pytest.fixture
def shm_leak_guard():
    """Assert a test leaves no new /dev/shm segments behind.

    Segments live *before* the test are fine; anything the test itself
    created must be gone by the end — including after aborts mid-dispatch.
    Yields the baseline set so tests can also assert mid-flight (no
    segment outlives the query that created it).
    """
    before = shm_segments()
    yield before
    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def blocks_at_any_size(monkeypatch):
    """Every sharded sort is cut into ``shards`` blocks however few its rows
    (the shipped rule cuts no block under ``MIN_BLOCK_ROWS``), so its plan
    shows them and every multi-payload ``pool`` dispatch runs on the
    threads."""
    monkeypatch.setattr(partition, "MIN_BLOCK_ROWS", 0)


@pytest.fixture(autouse=True)
def _executor_matrix_cuts_blocks(request):
    """The ``REPRO_EXECUTORS`` rows of the differential matrix cut every sort
    into ``shards`` blocks, so at test sizes the pool keeps racing the
    threads, the shuffle keeps scrambling tasks and every row keeps
    merging."""
    if os.environ.get("REPRO_EXECUTORS"):
        request.getfixturevalue("blocks_at_any_size")


@pytest.fixture
def tracer() -> Tracer:
    """A tracer recording full event lists."""
    return Tracer(ListSink())


@pytest.fixture
def hash_tracer() -> Tracer:
    """A tracer with the paper's rolling SHA-256 sink."""
    return Tracer(HashSink())


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def pairs_strategy(max_rows: int = 10, key_space: int = 5, data_space: int = 40):
    """Hypothesis strategy: a small table of (j, d) pairs."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=key_space - 1),
            st.integers(min_value=0, max_value=data_space - 1),
        ),
        max_size=max_rows,
    )


def int_lists(max_size: int = 32, low: int = -100, high: int = 100):
    return st.lists(
        st.integers(min_value=low, max_value=high), max_size=max_size
    )


def _bitonic_comparators(n: int) -> int:
    """Comparators of one bitonic sort of ``n`` rows (padded to 2**s)."""
    if n <= 1:
        return 0
    stages = (next_power_of_two(n) - 1).bit_length()
    return stages * (stages + 1) // 2 * next_power_of_two(n) // 2


def sharded_sort_comparators(n: int, k: int, passes: int = 1) -> int:
    """What ``sharded_sort`` must count for ``n`` rows over ``k`` blocks in
    ``passes`` one-word passes: each pass is the block networks plus the
    merges."""
    _, counts = partition_plan(n, k)
    return passes * (sum(map(_bitonic_comparators, counts)) + merge_comparator_count(counts))


def sort_comparators(n: int, k: int, keys) -> int:
    """What ``sharded_sort`` must count for ``n`` rows by ``keys`` over ``k``
    blocks: ``word_passes(keys, n)`` x (block networks + merges)."""
    return sharded_sort_comparators(n, k, word_passes(keys, n))


def plan_sort_comparators(plan, stage: str) -> int:
    """What the sharded sort ``stage`` of a compiled plan must count: its
    ``partition`` node's ``passes`` x (every ``shard_sort`` block's network
    plus the merges)."""
    (part,) = [n for n in plan.nodes_by_op("partition") if n.attr("stage") == stage]
    rows = [n.attr("rows") for n in plan.nodes_by_op("shard_sort") if n.attr("stage") == stage]
    network = sum(map(_bitonic_comparators, rows)) + merge_comparator_count(rows)
    return part.attr("passes") * network


@dataclass
class ChainRun:
    """One operator chain's output: rows, or groups after a ``group_by``.

    ``sizes`` are the source's size, then every operator's output size (the
    values the operators reveal one call at a time).  ``plans`` are the
    operators' plans, each compiled at the size of the input it received.
    """

    rows: list[tuple] | None
    groups: list | None
    sizes: list[int]
    plans: list


def run_chain(engine, stages) -> ChainRun:
    """Run ``[("source", rows), stage, ...]`` the way a caller chains an
    engine's operators: one at a time, each on the rows the one before
    returned, a padded join's dummies dropped.  The stages are
    ``("filter", mask)``, ``("join", right)``, ``("multiway", tables,
    keys)``, ``("group_by",)`` (last) and ``("order_by", [(column,
    ascending), ...])``."""
    rows = [tuple(row) for row in stages[0][1]]
    sizes, plans, groups = [len(rows)], [], None
    for stage in stages[1:]:
        name, n = stage[0], len(rows)
        if name == "filter":
            plans.append(engine.compile_plan("filter", n=n))
            rows = [rows[index] for index in engine.filter_indices(list(stage[1]))]
        elif name == "join":
            right = [tuple(pair) for pair in stage[1]]
            plans.append(engine.compile_plan("join", n1=n, n2=len(right)))
            rows = [tuple(pair) for pair in compact_pairs(engine.join(rows, right).pairs)]
        elif name == "multiway":
            tables = [[tuple(row) for row in table] for table in stage[1]]
            plans.append(
                engine.compile_plan("multiway", sizes=[n] + [len(t) for t in tables])
            )
            result = engine.multiway_join([rows] + tables, list(stage[2]))
            rows = [tuple(row) for row in result.rows]
        elif name == "group_by":
            plans.append(engine.compile_plan("group_by", n=n))
            groups = engine.group_by(rows)
            sizes.append(len(groups))
            continue
        else:
            assert name == "order_by", name
            plans.append(engine.compile_plan("order_by", n=n, columns=len(stage[1])))
            permutation = engine.order_permutation(
                [([row[column] for row in rows], ascending) for column, ascending in stage[1]]
            )
            rows = [rows[index] for index in permutation]
        sizes.append(len(rows))
    return ChainRun(None if groups is not None else rows, groups, sizes, plans)
