"""Vectorised bitonic sort over struct-of-arrays tables."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InputError
from repro.obliv.bitonic import comparison_count, next_power_of_two
from repro.obliv.network import is_valid_schedule
from repro.plan.executors import PoolExecutor
from repro.shard import sort as shard_sort_module
from repro.shard.merge import bitonic_merge_two, merge_comparator_count
from repro.shard.sort import sharded_sort
from repro.vector import sort as sort_module
from repro.vector.sort import (
    is_sorted_by,
    lexicographic_greater,
    sort_words,
    stage_pairs,
    vector_bitonic_sort,
    word_column,
)


def _table(**cols):
    return {k: np.asarray(v, dtype=np.int64) for k, v in cols.items()}


def test_single_key_sort():
    table = vector_bitonic_sort(_table(k=[3, 1, 2, 0]), [("k", True)])
    assert table["k"].tolist() == [0, 1, 2, 3]


def test_payload_moves_with_keys():
    table = vector_bitonic_sort(
        _table(k=[2, 0, 1], v=[20, 0, 10]), [("k", True)]
    )
    assert table["v"].tolist() == [0, 10, 20]


def test_descending_key():
    table = vector_bitonic_sort(_table(k=[1, 3, 2]), [("k", False)])
    assert table["k"].tolist() == [3, 2, 1]


def test_two_key_lexicographic():
    table = vector_bitonic_sort(
        _table(a=[1, 0, 1, 0], b=[0, 1, 1, 0]), [("a", True), ("b", False)]
    )
    assert list(zip(table["a"].tolist(), table["b"].tolist())) == [
        (0, 1), (0, 0), (1, 1), (1, 0),
    ]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 32, 100])
def test_arbitrary_sizes_with_padding(n):
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 50, size=n)
    table = vector_bitonic_sort(_table(k=keys), [("k", True)])
    assert table["k"].tolist() == sorted(keys.tolist())
    assert len(table["k"]) == n


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=64)
)
@settings(max_examples=60, deadline=None)
def test_matches_python_sorted(values):
    table = vector_bitonic_sort(_table(k=values), [("k", True)])
    assert table["k"].tolist() == sorted(values)


def test_input_not_mutated():
    original = _table(k=[2, 1])
    vector_bitonic_sort(original, [("k", True)])
    assert original["k"].tolist() == [2, 1]


def test_counter_counts_stage_comparators():
    counter = [0]
    vector_bitonic_sort(_table(k=[3, 2, 1, 0]), [("k", True)], counter=counter)
    from repro.obliv.bitonic import comparison_count

    assert counter[0] == comparison_count(4)


def test_stage_pairs_match_scalar_network():
    from repro.obliv.bitonic import bitonic_stages

    for n in (2, 4, 8, 16):
        vec = [sorted(zip(lo.tolist(), hi.tolist())) for lo, hi in stage_pairs(n)]
        ref = [sorted(stage) for stage in bitonic_stages(n)]
        assert vec == ref


def test_stage_pairs_validate():
    for n in (2, 8, 32):
        stages = [list(zip(lo.tolist(), hi.tolist())) for lo, hi in stage_pairs(n)]
        assert is_valid_schedule(n, stages)
    with pytest.raises(InputError):
        list(stage_pairs(6))


def test_is_sorted_by():
    assert is_sorted_by(_table(k=[1, 2, 3]), [("k", True)])
    assert not is_sorted_by(_table(k=[2, 1]), [("k", True)])
    assert is_sorted_by(_table(k=[3, 2]), [("k", False)])
    assert is_sorted_by(_table(k=[]), [("k", True)])


def test_lexicographic_greater_tie_break():
    table = _table(a=[1, 1], b=[5, 2])
    gt = lexicographic_greater(table, [("a", True), ("b", True)], np.array([0]), np.array([1]))
    assert gt.tolist() == [True]


# -- the payload-free shape: one word column sorted ascending by itself --------

WORD_SIZES = sorted(
    set(range(131)) | {2**k + step for k in range(1, 13) for step in (-1, 0, 1)}
)


@pytest.mark.parametrize(
    "flavour", ["distinct", "duplicates", "with_int64_max", "with_uint32_max"]
)
def test_single_column_kernel_matches_numpy_sort_at_every_size(flavour):
    """The min / max kernel against ``np.sort`` for every n in 0..130 and
    2**k - 1, 2**k, 2**k + 1 up to 2**12: the padding is the word dtype's
    maximum, so rows holding that very value must survive it; the comparator
    count is the padded network's, as on the multi-column path."""
    dtype = np.uint32 if flavour == "with_uint32_max" else np.int64
    rng = np.random.default_rng(11)
    for n in WORD_SIZES:
        if flavour == "distinct":
            words = rng.permutation(n).astype(np.int64) - n // 2
        else:
            words = rng.integers(0, 4, n).astype(dtype)
        if flavour.startswith("with_"):
            words[rng.random(n) < 0.3] = np.iinfo(dtype).max
        before = words.copy()
        counter = [0]
        got = vector_bitonic_sort({"w": words}, [("w", True, 62)], counter=counter)
        assert list(got) == ["w"] and got["w"].dtype == dtype
        assert np.array_equal(got["w"], np.sort(before)), (flavour, n)
        assert np.array_equal(words, before)  # input not mutated
        assert counter[0] == comparison_count(next_power_of_two(n)), n


def test_single_column_kernel_agrees_with_the_masked_swap_network():
    """Same rows and same count as the multi-column text, which a second
    (constant) column forces."""
    rng = np.random.default_rng(12)
    for n in (2, 3, 64, 100, 1000):
        words = rng.integers(-5, 5, n)
        narrow, wide = [0], [0]
        got = vector_bitonic_sort({"w": words}, [("w", True)], counter=narrow)
        reference = vector_bitonic_sort(
            {"w": words, "z": np.zeros(n, dtype=np.int64)}, [("w", True)], counter=wide
        )
        assert np.array_equal(got["w"], reference["w"])
        assert narrow == wide


@pytest.mark.parametrize(
    "columns,keys",
    [
        pytest.param({"w": [3, 1, 2]}, [("w", False)], id="descending"),
        pytest.param({"w": [3, 1, 2], "v": [0, 1, 2]}, [("w", True)], id="payload"),
        pytest.param({"w": [3.5, 1.5, 2.5]}, [("w", True)], id="float"),
        pytest.param({"w": [3, 1, 2], "v": [0, 1, 2]}, [("v", True)], id="other-key"),
    ],
)
def test_every_other_table_shape_takes_the_multi_column_text(columns, keys):
    table = {name: np.asarray(column) for name, column in columns.items()}
    assert word_column(table, keys) is None
    assert is_sorted_by(vector_bitonic_sort(table, keys), keys)
    assert word_column({"w": np.arange(3)}, [("w", True)]) == "w"
    assert word_column({"w": np.arange(3)}, [("w", True, 2)]) == "w"


def test_widths_are_accepted_and_ignored():
    table = _table(a=[1, 0, 1, 0], b=[0, 1, 1, 0], v=[0, 1, 2, 3])
    plain = vector_bitonic_sort(table, [("a", True), ("b", False)])
    # Even a width the data breaks: this module never reads it.
    wide = vector_bitonic_sort(table, [("a", True, 0), ("b", False, 1)])
    for name in table:
        assert np.array_equal(plain[name], wide[name])


def test_empty_table_sorts_to_an_empty_table():
    assert vector_bitonic_sort({}, [("k", True)]) == {}


# -- the one-word kernel's layouts: the same network as the strided text -----


def _exchange(lo, hi):
    smaller = np.minimum(lo, hi)
    np.maximum(lo, hi, out=hi)
    lo[...] = smaller


def strided_sort_words(words, k=2):
    """The one-word kernel before its short strides were transposed: every
    stage two views of the natural buffer, inner runs ``j`` long."""
    n = len(words)
    while k <= n:
        j = k // 2
        while j >= 1:
            view = words.reshape(-1, min(2, n // k), k // (2 * j), 2, j)
            _exchange(view[:, 0, :, 0], view[:, 0, :, 1])
            _exchange(view[:, 1:, :, 1], view[:, 1:, :, 0])
            j //= 2
        k *= 2


WORD_DTYPES = (np.int64, np.uint32)


def _random_words(n, rng, dtype):
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, endpoint=True, dtype=dtype)


def _word_inputs(n, rng, dtype):
    """Arbitrary words, a few values with many ties, and the dtype's limits:
    its maximum (the pad) and ``~`` of it, the pair the complement swaps —
    ~40 % of int64 words, ~40 % each of uint32 words."""
    top = np.iinfo(dtype).max
    draw = rng.random(n)
    if dtype == np.int64:
        limits = np.where(draw < 0.4, rng.choice([top, ~top], n), rng.integers(-9, 9, n))
        ties = rng.integers(-2, 2, n, endpoint=True)
    else:
        limits = np.select([draw < 0.4, draw < 0.8], [0, top], rng.integers(1, 9, n))
        ties = rng.integers(0, 4, n, endpoint=True)
    return {
        "random": _random_words(n, rng, dtype),
        "ties": ties.astype(dtype),
        "limits": limits.astype(dtype),
    }


@pytest.mark.parametrize("log_n", range(13))
def test_transposed_kernel_runs_the_strided_network(log_n):
    """Every starting phase, on unsorted input of either word dtype: partial
    networks agree only if their comparators do, so this pins the network,
    not just the order."""
    n = 2**log_n
    rng = np.random.default_rng(log_n)
    for k in [2**e for e in range(1, log_n + 1)] or [2]:
        for dtype in WORD_DTYPES:
            for flavour, words in _word_inputs(n, rng, dtype).items():
                expected = words.copy()
                strided_sort_words(expected, k)
                got = words.copy()
                sort_words(got, k)
                assert got.dtype == dtype
                assert np.array_equal(got, expected), (n, k, dtype, flavour)


@pytest.mark.parametrize("la,lb", [(1, 3), (300, 257), (5000, 7000)])
def test_one_word_merge_matches_the_masked_swap_merge(la, lb):
    """A merge of two one-word runs is ``sort_words(words, k=padded)``: it
    equals the masked-swap network — forced by a second, constant column —
    over both runs, and counts the bitonic merger's comparators."""
    rng = np.random.default_rng(la)
    a, b = (np.sort(rng.integers(-50, 50, size)) for size in (la, lb))
    counter = [0]
    got = bitonic_merge_two({"w": a}, {"w": b}, [("w", True)], counter=counter)
    both = np.concatenate([a, b])
    reference = vector_bitonic_sort({"w": both, "z": np.zeros_like(both)}, [("w", True)])
    assert np.array_equal(got["w"], reference["w"])
    assert np.array_equal(got["w"], np.sort(both))
    assert counter[0] == merge_comparator_count([la, lb])


def _access_log(monkeypatch, words, k):
    """Every exchange, complement and transpose of one ``sort_words`` call as
    ``(name, [(buffer, shape, strides, byte offset)])`` — ``buffer`` says
    whether the view is of the caller's words or of the kernel's own."""
    log = []
    start = words.ctypes.data

    def where(view):
        root = view if view.base is None else view.base
        owner = "words" if root.ctypes.data == start else "rows"
        return owner, view.shape, view.strides, view.ctypes.data - root.ctypes.data

    for name in ("exchange", "complement", "transpose"):
        original = getattr(sort_module, name)

        def spy(*views, name=name, original=original):
            log.append((name, [where(view) for view in views]))
            original(*views)

        monkeypatch.setattr(sort_module, name, spy)
    sort_words(words, k)
    monkeypatch.undo()
    return log


@pytest.mark.parametrize("n", [2, 64, 256, 1024, 4096])
def test_access_schedule_is_a_function_of_n(monkeypatch, n):
    """Two inputs of one size and dtype take the same views, complements and
    transposes, at the same offsets; and the stages are the network's."""
    rng = np.random.default_rng(n)
    log_n = n.bit_length() - 1
    for dtype in WORD_DTYPES:
        for k, stages in ((2, log_n * (log_n + 1) // 2), (n, log_n)):
            first, second = (_random_words(n, rng, dtype) for _ in "ab")
            log = _access_log(monkeypatch, first, k)
            assert log == _access_log(monkeypatch, second, k), (n, dtype, k)
            # Every stage, long on the words or short on rows, is one exchange.
            assert [name for name, _ in log].count("exchange") == stages
            complements = [views for name, views in log if name == "complement"]
            assert complements[::2] == complements[1::2]  # each phase's, undone
            assert k == n or np.array_equal(first, np.sort(first))


# -- numpy's ufunc buffer: stages on both sides of its size --------------------

#: 2**13 … 2**17, ±1: stages whose inner runs are shorter and longer than
#: :data:`~repro.vector.sort.BUFFER`, and than numpy's default 8192.
BUFFER_SIZES = [2**e + step for e in range(13, 18) for step in (-1, 0, 1)]


def _pad_heavy(n, rng, dtype):
    """Words of which ~half are the dtype's maximum, the pad itself."""
    words = _random_words(n, rng, dtype)
    words[rng.random(n) < 0.5] = np.iinfo(dtype).max
    return words


@pytest.mark.parametrize("n", BUFFER_SIZES, ids=lambda n: f"n={n}")
def test_kernel_matches_numpy_sort_across_the_buffer_size(n):
    """The full sort and a merge of unequal runs against ``np.sort``, on
    random and pad-heavy words of either dtype."""
    rng = np.random.default_rng(n)
    for dtype in WORD_DTYPES:
        for words in (_random_words(n, rng, dtype), _pad_heavy(n, rng, dtype)):
            got = vector_bitonic_sort({"w": words}, [("w", True)])["w"]
            assert got.dtype == dtype
            assert np.array_equal(got, np.sort(words)), (n, dtype)
            split = n // 3
            a, b = np.sort(words[:split]), np.sort(words[split:])
            merged = bitonic_merge_two({"w": a}, {"w": b}, [("w", True)])["w"]
            assert np.array_equal(merged, np.sort(words)), (n, dtype, split)


def _bufsize_spy(monkeypatch, module, name, readings):
    original = getattr(module, name)

    def spy(*args, **kwargs):
        readings.append(np.getbufsize())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("caller", [None, 4096], ids=["default", "caller-set"])
def test_the_buffer_size_is_scoped_to_the_kernel(monkeypatch, blocks_at_any_size, caller):
    """The kernel runs at ``BUFFER`` and leaves every thread's own setting as
    it found it: the caller's, at numpy's default or its own value, and a
    pool thread's; a masked-swap sort never runs at ``BUFFER``."""
    inside, tasks, masked = [], [], []
    _bufsize_spy(monkeypatch, sort_module, "exchange", inside)
    _bufsize_spy(monkeypatch, sort_module, "lexicographic_greater", masked)
    original_task = shard_sort_module._sort_task

    def task(payload):
        before = np.getbufsize()
        result = original_task(payload)
        tasks.append((threading.get_ident(), before, np.getbufsize()))
        return result

    monkeypatch.setattr(shard_sort_module, "_sort_task", task)
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**40, 4096)
    with np.errstate():
        if caller is not None:
            np.setbufsize(caller)
        expected = np.getbufsize()
        vector_bitonic_sort({"w": words}, [("w", True)])
        assert np.getbufsize() == expected
        table = {"a": rng.integers(0, 9, 300), "b": rng.integers(0, 9, 300)}
        keys = [("a", True, 4), ("b", True, 4)]  # one pass: two blocks, one merge
        got = sharded_sort(table, keys, shards=2, executor=PoolExecutor(workers=2))
        assert np.getbufsize() == expected
        assert is_sorted_by(got, keys)
        vector_bitonic_sort(table, [("a", True), ("b", False)])
        assert np.getbufsize() == expected
    assert inside and set(inside) == {sort_module.BUFFER}
    assert len(tasks) == 2 and all(before == after for _, before, after in tasks)
    assert threading.get_ident() not in {thread for thread, _, _ in tasks}
    assert {before for _, before, _ in tasks} == {8192}  # numpy's default, a pool thread's
    assert masked and set(masked) == {expected}
