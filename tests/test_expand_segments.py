"""Segmented distribute-expand: the plan's ``expand_segment`` windows are
public, their tasks dispatch independently, and the reassembled output is
bit-identical to the whole-cell path — across engines, executors, padding
modes, and adversarial data shapes (zero-output cells, one-segment cells,
maximally skewed cells)."""

from __future__ import annotations

import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.padding import check_target_m
from repro.engines import get_engine
from repro.errors import InputError
from repro.plan.executors import (
    InlineExecutor,
    PoolExecutor,
    ShuffleExecutor,
    _Immediate,
)
from repro.shard.join import ShardedJoinStats, sharded_oblivious_join
from repro.vector.join import vector_join_segment, vector_oblivious_join

#: Grid-cell-shaped fixtures the sharded sweep runs: skew (every row in one
#: group), disjoint keys (every grid cell's real output is zero), an empty
#: side, and a mixed catalogue.
DATASETS = {
    "skewed": (
        [(0, v) for v in range(7)],
        [(0, v) for v in range(6)],
    ),
    "disjoint": (
        [(k, k) for k in range(6)],
        [(k + 10, k) for k in range(6)],
    ),
    "empty-right": ([(0, 1), (1, 2), (2, 3)], []),
    "mixed": (
        [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (3, 6), (4, 7)],
        [(0, 9), (0, 8), (3, 7), (3, 6), (3, 5), (5, 4)],
    ),
}


# -- the segment kernel: windows concatenate to the whole cell ----------------


@st.composite
def _cell(draw):
    """One grid cell's inputs plus a public window partition of its output."""
    n1 = draw(st.integers(0, 8))
    n2 = draw(st.integers(0, 8))
    # Keys drawn from a 3-symbol alphabet force heavy group skew at these
    # sizes; values stay distinct enough to catch ordering bugs.
    left = [
        (draw(st.integers(0, 2)), draw(st.integers(0, 9))) for _ in range(n1)
    ]
    right = [
        (draw(st.integers(0, 2)), draw(st.integers(0, 9))) for _ in range(n2)
    ]
    target = check_target_m(n1 * n2, n1, n2) if n1 and n2 else 0
    cut_count = draw(st.integers(0, 4))
    cuts = draw(
        st.lists(
            st.integers(0, target), min_size=cut_count, max_size=cut_count
        )
    )
    bounds = sorted([0, *cuts, target])
    windows = list(zip(bounds, bounds[1:]))
    return left, right, target, windows


@settings(max_examples=60, deadline=None)
@given(_cell())
@example(
    (
        [(0, v) for v in range(6)],  # maximal skew: one group both sides
        [(0, v) for v in range(6)],
        36,
        [(0, 1), (1, 36)],  # includes a one-row and a nearly-whole window
    )
)
@example(([(1, 1)], [(2, 2)], 1, [(0, 0), (0, 1), (1, 1)]))  # zero output
def test_segment_windows_concatenate_to_the_whole_cell(cell):
    """The oracle: vector_join_segment over any public partition of
    ``[0, m)`` concatenates to the whole-cell padded keyed output,
    bit for bit — empty windows included."""
    left, right, target, windows = cell
    whole, _ = vector_oblivious_join(
        left, right, with_keys=True, target_m=target
    )
    parts = [
        vector_join_segment(left, right, target, lo, hi)[0]
        for lo, hi in windows
    ]
    stitched = (
        np.concatenate(parts) if parts else np.zeros((0, 3), dtype=np.int64)
    )
    assert stitched.tobytes() == whole.tobytes()


def test_segment_kernel_validates_its_window_and_target():
    left, right = DATASETS["mixed"]
    target = len(left) * len(right)
    with pytest.raises(InputError, match="padded target_m"):
        vector_join_segment(left, right, None, 0, 1)
    with pytest.raises(InputError, match="outside the padded output"):
        vector_join_segment(left, right, target, 0, target + 1)
    with pytest.raises(InputError, match="outside the padded output"):
        vector_join_segment(left, right, target, -1, 2)


# -- the sharded driver: segmented == whole-cell, every substrate -------------


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(None, id="default"),
        pytest.param(InlineExecutor(), id="inline"),
        pytest.param(ShuffleExecutor(seed=3), id="shuffle"),
    ],
)
@pytest.mark.parametrize("segments", [None, 1, 2, 5])
def test_sharded_segmented_join_matches_the_vector_oracle(executor, segments):
    for name, (left, right) in DATASETS.items():
        target = check_target_m(
            max(len(left) * len(right), 1), len(left), len(right)
        )
        oracle, _ = vector_oblivious_join(left, right, target_m=target)
        stats = ShardedJoinStats()
        pairs, stats = sharded_oblivious_join(
            left,
            right,
            shards=3,
            stats=stats,
            target_m=target,
            executor=executor,
            expand_segments=segments,
        )
        assert pairs.tobytes() == oracle.tobytes(), (name, segments)
        # The executed plan carries the segment nodes the grid dispatched.
        nodes = stats.plan.nodes_by_op("expand_segment")
        assert len(nodes) == len(stats.task_m)
        if segments is not None:
            assert stats.plan.shape("segments") == segments


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(PoolExecutor(workers=2), id="pool"),
    ],
)
def test_segmented_join_publishes_runs_on_remote_executors(executor):
    """Shared-memory substrates exercise the publish path: each segment
    task's sub-run crosses back as a ref tree, is adopted as a tournament
    leaf, and the output stays bit-identical."""
    left, right = DATASETS["skewed"]
    target = len(left) * len(right)
    oracle, _ = vector_oblivious_join(left, right, target_m=target)
    for segments in (None, 3):
        pairs, _ = sharded_oblivious_join(
            left,
            right,
            shards=2,
            target_m=target,
            executor=executor,
            expand_segments=segments,
        )
        assert pairs.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("padding,bound", [("worst_case", None), ("bounded", 50)])
def test_engine_level_segmented_join_matches_the_vector_engine(padding, bound):
    left, right = DATASETS["mixed"]
    reference = get_engine("vector", padding=padding, bound=bound).join(
        left, right
    )
    engine = get_engine(
        "sharded",
        shards=2,
        padding=padding,
        bound=bound,
        expand_segments=2,
    )
    assert engine.join(left, right).pairs == reference.pairs


def test_revealed_mode_never_segments():
    """Unpadded cell sizes are data-dependent; splitting them would leak a
    data-dependent boundary, so revealed plans carry no segment nodes and
    the driver runs whole cells."""
    left, right = DATASETS["mixed"]
    stats = ShardedJoinStats()
    sharded_oblivious_join(left, right, shards=3, stats=stats)
    assert stats.plan.nodes_by_op("expand_segment") == []
    assert len(stats.task_m) == 9  # one whole-cell task per grid cell


# -- acceptance: >= 2 segments of one skewed cell dispatch separately ---------


class RecordingExecutor:
    """Inline executor recording every dispatch by task kind (no publish)."""

    name = "recording"
    remote_submit = False

    def __init__(self) -> None:
        self.events: list[tuple[str, str]] = []

    def map(self, task, payloads):
        return [task(payload) for payload in payloads]

    def imap(self, task, payloads):
        for index, payload in enumerate(list(payloads)):
            result = task(payload)
            self.events.append(("complete", task.__name__))
            yield index, result

    def submit(self, task, payload):
        self.events.append(("submit", task.__name__))
        return _Immediate(task(payload))


def test_skewed_cell_expansion_dispatches_as_separate_segment_tasks():
    """The tentpole acceptance pin: a maximally skewed cell's expansion
    runs as >= 2 independent executor tasks — one per plan window, no
    whole-cell barrier — and the output is bit-identical to the
    unsegmented (whole-cell vector) path."""
    left = [(0, v) for v in range(8)]
    right = [(0, v) for v in range(8)]
    target = 64
    oracle, _ = vector_oblivious_join(left, right, target_m=target)
    executor = RecordingExecutor()
    stats = ShardedJoinStats()
    pairs, stats = sharded_oblivious_join(
        left,
        right,
        shards=2,
        stats=stats,
        target_m=target,
        executor=executor,
        expand_segments=4,
    )
    assert pairs.tobytes() == oracle.tobytes()
    completions = [
        task for kind, task in executor.events if kind == "complete"
    ]
    # Every cell is a 4x4 sub-join bounded at 16, so each splits into the
    # requested 4 windows: 16 segment tasks, 4 of them for cell (0, 0).
    assert completions.count("_expand_segment_task") == 16
    cell_nodes = [
        node
        for node in stats.plan.nodes_by_op("expand_segment")
        if node.attr("cell") == (0, 0)
    ]
    assert len(cell_nodes) >= 2
    windows = [(n.attr("lo"), n.attr("hi")) for n in cell_nodes]
    assert windows == [(0, 4), (4, 8), (8, 12), (12, 16)]


# -- satellite: phase accounting partitions the wall clock --------------------


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(InlineExecutor(), id="inline"),
        pytest.param(ShuffleExecutor(seed=1), id="shuffle"),
        pytest.param(PoolExecutor(workers=2), id="pool"),
    ],
)
@pytest.mark.parametrize("target", [None, 7 * 6], ids=["revealed", "padded"])
def test_phase_seconds_partition_the_wall_clock_on_every_executor(
    executor, target
):
    """The accounting contract: the five phase keys are exactly
    {partition, presort, presort_merge, tasks, merge}, every phase is
    non-negative, and their sum never exceeds the measured wall time —
    i.e. no phase double-attributes the tournament fold the way the
    presort once did on eager executors."""
    left, right = DATASETS["skewed"]
    stats = ShardedJoinStats()
    start = time.perf_counter()
    sharded_oblivious_join(
        left, right, shards=2, stats=stats, target_m=target, executor=executor
    )
    wall = time.perf_counter() - start
    assert set(stats.seconds_by_phase) == {
        "partition",
        "presort",
        "presort_merge",
        "tasks",
        "merge",
    }
    assert all(seconds >= 0.0 for seconds in stats.seconds_by_phase.values())
    assert stats.total_seconds <= wall + 1e-6


# -- randomized end-to-end sweep (seeded, executor-light) ---------------------


def test_randomized_segment_sweep_is_bit_identical():
    rng = random.Random(29)
    for trial in range(8):
        n1, n2 = rng.randrange(0, 12), rng.randrange(0, 12)
        left = [(rng.randrange(4), rng.randrange(8)) for _ in range(n1)]
        right = [(rng.randrange(4), rng.randrange(8)) for _ in range(n2)]
        target = check_target_m(max(n1 * n2, 1), n1, n2)
        oracle, _ = vector_oblivious_join(left, right, target_m=target)
        for segments in (None, 1, rng.randrange(2, 7)):
            pairs, _ = sharded_oblivious_join(
                left,
                right,
                shards=2,
                target_m=target,
                executor=ShuffleExecutor(seed=trial),
                expand_segments=segments,
            )
            assert pairs.tobytes() == oracle.tobytes(), (trial, segments)
