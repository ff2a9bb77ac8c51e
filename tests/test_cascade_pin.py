"""Pins of the left-deep multiway cascade (§7) at every layer that runs it.

The cascade folds binary oblivious joins left to right; the ``traced``
reference, the ``vector`` text (over either sort), and the db layer's
``ObliviousEngine.multiway_join`` all run it.  These tests pin what each
of them produces for two fixed 3-table inputs with duplicate keys, in every
padding mode, as literal values: the SHA-256 of the traced cascade's access
trace with its rows, true intermediate sizes and public bounds; the
``vector`` cascade's primitive schedule and rows under
``vector_bitonic_sort`` and under ``sharded_sort`` at ``k = 1`` and
``k = 2``; and the db layer's rows on every engine.  A restructuring of the
cascade must leave every one of these values unchanged.

The db-level chain joins one table on two ``str`` key columns, at different
steps, whose values overlap, so the pinned row order also pins the order in
which the dictionary encoder assigns their codes (the canonical join order
sorts by code).

``REPRO_ENGINES`` / ``REPRO_EXECUTORS`` restrict the engine/executor lists
exactly as in ``test_join_tree.py`` — the CI ``differential`` job's sharded
step uses them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import pytest

from repro.core.multiway import oblivious_multiway_join
from repro.db.query import ObliviousEngine
from repro.db.table import DBTable
from repro.engines import available_engines
from repro.plan import available_executors
from repro.plan.executors import get_executor
from repro.shard.sort import sharded_sort
from repro.vector.multiway import VectorMultiwayStats, vector_multiway_join
from repro.vector.sort import vector_bitonic_sort

#: These tests pin block structure (counts, schedules, dispatches) at test
#: sizes, so every sort is cut into ``shards`` blocks however small.
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

MODES = ("revealed", "bounded", "worst_case")

INPUTS = {
    # Joins table 2 on table 1's payload (accumulated column 3).
    "chain": (
        [
            [(1, 10), (2, 11), (1, 12), (3, 13)],
            [(1, 20), (1, 21), (2, 22)],
            [(20, 30), (21, 31), (21, 32), (9, 33)],
        ],
        [(0, 0), (3, 0)],
    ),
    # Joins both later tables on table 0's key.
    "star": (
        [
            [(5, 0), (5, 1), (6, 2)],
            [(5, 7), (6, 8), (5, 9), (7, 6)],
            [(6, 40), (5, 41), (5, 42)],
        ],
        [(0, 0), (0, 0)],
    ),
}

#: The ``bounded`` caps: one int for every step, and one cap per step.
BOUNDS = {"chain": 6, "star": (6, 10)}

ROWS = {
    "chain": [
        (1, 10, 1, 20, 20, 30),
        (1, 12, 1, 20, 20, 30),
        (1, 10, 1, 21, 21, 31),
        (1, 10, 1, 21, 21, 32),
        (1, 12, 1, 21, 21, 31),
        (1, 12, 1, 21, 21, 32),
    ],
    "star": [
        (5, 0, 5, 7, 5, 41),
        (5, 0, 5, 7, 5, 42),
        (5, 0, 5, 9, 5, 41),
        (5, 0, 5, 9, 5, 42),
        (5, 1, 5, 7, 5, 41),
        (5, 1, 5, 7, 5, 42),
        (5, 1, 5, 9, 5, 41),
        (5, 1, 5, 9, 5, 42),
        (6, 2, 6, 8, 6, 40),
    ],
}

#: The phases of one step's schedule, in the order it lists them.
PHASES = (
    "align_sort",
    "augment_sort1",
    "augment_sort2",
    "expand1_route",
    "expand1_sort",
    "expand2_route",
    "expand2_sort",
)


@dataclass(frozen=True)
class CascadePin:
    """One cascade's pinned values; schedules are per-step comparator
    counts in :data:`PHASES` order, ``sharded`` keyed by shard count."""

    digest: str
    sizes: list[int]
    bounds: tuple[int, ...] | None
    vector: tuple[tuple[int, ...], ...]
    sharded: dict[int, tuple[tuple[int, ...], ...]]


PINS = {
    ("chain", "revealed"): CascadePin(
        digest="ab723e43ad7d50f47e1c099f05c2bf13c2620ce70144677ecf49264743e2ec1b",
        sizes=[5, 6],
        bounds=None,
        vector=((24, 24, 24, 8, 24, 8, 24), (24, 80, 80, 11, 24, 11, 24)),
        sharded={
            1: ((24, 72, 24, 8, 24, 8, 24), (24, 240, 80, 11, 24, 11, 24)),
            2: ((19, 72, 24, 8, 19, 8, 19), (24, 186, 62, 11, 24, 11, 24)),
        },
    ),
    ("chain", "bounded"): CascadePin(
        digest="a8b9b47f3550adc6bb37e32a2535d762dd4aa7accae27a8355505d1887aff1ce",
        sizes=[5, 6],
        bounds=(6, 6),
        vector=((24, 80, 80, 11, 24, 11, 24), (24, 80, 80, 14, 24, 11, 24)),
        sharded={
            1: ((24, 240, 80, 11, 24, 11, 24), (24, 240, 80, 14, 24, 11, 24)),
            2: ((24, 186, 62, 11, 24, 11, 24), (24, 240, 80, 14, 24, 11, 24)),
        },
    ),
    ("chain", "worst_case"): CascadePin(
        digest="9f0b8763a93f301ed113c14953e1d6890c59e77c2bf2fc30cae5fe73676d5a49",
        sizes=[5, 6],
        bounds=(12, 48),
        vector=((80, 80, 80, 33, 80, 33, 80), (672, 240, 240, 225, 672, 225, 672)),
        sharded={
            1: ((80, 240, 80, 33, 80, 33, 80), (672, 720, 240, 225, 672, 225, 672)),
            2: ((80, 186, 62, 33, 80, 33, 80), (672, 720, 240, 225, 672, 225, 672)),
        },
    ),
    ("star", "revealed"): CascadePin(
        digest="5dd07652d8472689b7707ae48af861e5f28878f5686ca8ebaad9c42ccd24c914",
        sizes=[5, 9],
        bounds=None,
        vector=((24, 24, 24, 8, 24, 8, 24), (80, 24, 24, 21, 80, 21, 80)),
        sharded={
            1: ((24, 72, 24, 8, 24, 8, 24), (80, 72, 24, 21, 80, 21, 80)),
            2: ((19, 72, 24, 8, 19, 8, 19), (62, 72, 24, 21, 62, 21, 62)),
        },
    ),
    ("star", "bounded"): CascadePin(
        digest="fb1f0f19aaa01af593e7a83384167f02c0a1de434681153107ab8a3af5242e30",
        sizes=[5, 9],
        bounds=(6, 10),
        vector=((24, 80, 80, 11, 24, 11, 24), (80, 80, 80, 25, 80, 25, 80)),
        sharded={
            1: ((24, 240, 80, 11, 24, 11, 24), (80, 240, 80, 25, 80, 25, 80)),
            2: ((24, 186, 62, 11, 24, 11, 24), (80, 240, 80, 25, 80, 25, 80)),
        },
    ),
    ("star", "worst_case"): CascadePin(
        digest="38501728a1d133008ba49941512ce99e3e995a447fb0520737a0a70ba2d7e6ea",
        sizes=[5, 9],
        bounds=(12, 36),
        vector=((80, 80, 80, 33, 80, 33, 80), (672, 240, 240, 153, 672, 153, 672)),
        sharded={
            1: ((80, 240, 80, 33, 80, 33, 80), (672, 720, 240, 153, 672, 153, 672)),
            2: ((80, 186, 62, 33, 80, 33, 80), (672, 552, 184, 153, 672, 153, 672)),
        },
    ),
}


def _bound(name: str, mode: str):
    return BOUNDS[name] if mode == "bounded" else None


def _schedule(counts) -> tuple[tuple[int, str, int], ...]:
    return tuple(
        (step, phase, count)
        for step, row in enumerate(counts)
        for phase, count in zip(PHASES, row)
    )


CASES = [(name, mode) for name in INPUTS for mode in MODES]


@pytest.mark.parametrize("name,mode", CASES)
def test_traced_cascade_trace_rows_sizes_and_bounds(name, mode, hash_tracer):
    tables, keys = INPUTS[name]
    pin = PINS[name, mode]
    result = oblivious_multiway_join(
        tables, keys, tracer=hash_tracer, padding=mode, bound=_bound(name, mode)
    )
    assert hash_tracer.sink.hexdigest == pin.digest
    assert result.rows == ROWS[name]
    assert result.intermediate_sizes == pin.sizes
    assert result.bounds == pin.bounds
    assert result.padding == mode


SORTS = [pytest.param(None, vector_bitonic_sort, id="vector")] + [
    pytest.param(
        k,
        partial(sharded_sort, shards=k, executor=get_executor(executor, workers=2)),
        id=f"sharded[k={k},executor={executor}]",
    )
    for executor in EXECUTORS
    for k in (1, 2)
]


@pytest.mark.parametrize("name,mode", CASES)
@pytest.mark.parametrize("shards,sort", SORTS)
def test_vector_cascade_schedule_and_rows(name, mode, shards, sort):
    tables, keys = INPUTS[name]
    pin = PINS[name, mode]
    stats = VectorMultiwayStats()
    result = vector_multiway_join(
        tables, keys, stats=stats, padding=mode, bound=_bound(name, mode), sort=sort
    )
    expected = pin.vector if shards is None else pin.sharded[shards]
    assert stats.schedule == _schedule(expected)
    assert result.rows == ROWS[name]
    assert result.intermediate_sizes == pin.sizes
    assert result.bounds == pin.bounds
    assert stats.step_bounds == list(pin.bounds or ())


def _db_tables() -> list[DBTable]:
    """Table 1 joins step 0 on ``a`` and step 1 on ``b``; ``q`` first
    appears in its ``a`` column at row 1, after ``p`` in ``b`` at row 0."""
    return [
        DBTable.from_rows(["a:str", "x:int"], [("u", 1), ("u", 2), ("v", 3)]),
        DBTable.from_rows(
            ["a:str", "b:str", "y:int"],
            [("u", "p", 10), ("q", "q", 11), ("u", "q", 12), ("v", "p", 13)],
        ),
        DBTable.from_rows(["b:str", "z:int"], [("q", 100), ("p", 200), ("p", 201)]),
    ]


DB_ON = [("a", "a"), ("b", "b")]

DB_COLUMNS = ["t0.a", "x", "t1.a", "t1.b", "y", "t2.b", "z"]

DB_ROWS = [
    ("u", 1, "u", "q", 12, "q", 100),
    ("u", 2, "u", "q", 12, "q", 100),
    ("u", 1, "u", "p", 10, "p", 200),
    ("u", 1, "u", "p", 10, "p", 201),
    ("u", 2, "u", "p", 10, "p", 200),
    ("u", 2, "u", "p", 10, "p", 201),
    ("v", 3, "v", "p", 13, "p", 200),
    ("v", 3, "v", "p", 13, "p", 201),
]

DB_CONFIGS = [pytest.param(name, {}, id=name) for name in ENGINES] + (
    [
        pytest.param(
            "sharded",
            {"shards": 2, "workers": 2, "executor": executor},
            id=f"sharded[executor={executor}]",
        )
        for executor in EXECUTORS
        if executor != "inline"
    ]
    if "sharded" in ENGINES
    else []
)


@pytest.mark.parametrize("mode", ["revealed", "worst_case"])
@pytest.mark.parametrize("engine,options", DB_CONFIGS)
def test_db_multiway_rows(engine, options, mode):
    db = ObliviousEngine(engine=engine, padding=mode, **options)
    result = db.multiway_join(_db_tables(), DB_ON)
    assert result.schema.names() == DB_COLUMNS
    assert result.rows == DB_ROWS
    # A second call on the same (warm) engine answers identically.
    assert db.multiway_join(_db_tables(), DB_ON).rows == DB_ROWS
