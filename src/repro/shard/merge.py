"""Oblivious merging of sorted runs: bitonic merge + pad compaction.

Runs that are already sorted by the keys do not need a full
`O(m log^2 m)` sort to become one — a tournament of Batcher bitonic *merge*
networks (`O(m log m)` comparators per round, `log` rounds over the runs)
suffices, and `k` sorted blocks plus this tournament *are* one bitonic sort
(:mod:`repro.shard.sort`).

One pairwise merge of ascending runs ``A`` and ``B`` lays the rows out as

    [ A ascending | padding | B reversed ]

padded to the next power of two.  A run is one word per row (the sharded
sort's ``digit ‖ position``, int64 or uint32), and the padding is the
dtype's maximum, which sorts no earlier than any real word and keeps the
layout bitonic
(non-decreasing then non-increasing), so the classic ``log P``
half-cleaner stages — ``minimum`` / ``maximum`` on views — sort it
ascending.  The padding then sits in the tail — its position is a
function of the (public) run lengths alone — and is cut off.

The bracket — which runs pair in which round, an odd tail run carried up
unmerged — is :func:`repro.plan.ir.tournament_schedule`, the same pure
function of the run count the plan compilers emit ``merge_pair`` nodes
from.  :func:`oblivious_merge_runs` walks it one round at a time, each
round one ``executor.map`` of :func:`merge_pair_task`, so the comparator
schedule is fixed by the run lengths and the obliviousness tests pin it.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

import numpy as np

from ..errors import InputError
from ..obliv.bitonic import next_power_of_two
from ..plan.executors import Executor, InlineExecutor
from ..plan.ir import tournament_schedule
from ..plan.partition import merge_comparator_count
from ..vector.sort import Key, padded_words, sort_words, word_column


def _run_length(run: dict[str, np.ndarray]) -> int:
    return len(next(iter(run.values())))


def _copy(run: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: col.copy() for name, col in run.items()}


def bitonic_merge_two(
    a: dict[str, np.ndarray],
    b: dict[str, np.ndarray],
    keys: list[Key],
    counter: list | None = None,
) -> dict[str, np.ndarray]:
    """Merge two one-word runs sorted ascending into one sorted run.

    Each run is one word column (int64 or uint32, both runs alike) sorted
    ascending by itself (:func:`~repro.vector.sort.word_column`), so the
    half-cleaners are ``minimum`` / ``maximum`` on views and the padding is
    the dtype's maximum.
    Executes exactly the ``log P`` comparator stages of a bitonic merger of
    size ``P = next_power_of_two(len(a) + len(b))``; when ``counter`` (a
    one-element list) is given, the comparator count is added to it.
    """
    la, lb = _run_length(a), _run_length(b)
    if la == 0:
        return _copy(b)
    if lb == 0:
        return _copy(a)
    word = word_column(a, keys)
    if word is None:
        raise InputError("merges take one-word runs: one word column, its own ascending key")
    padded = next_power_of_two(la + lb)
    words = padded_words(padded, a[word].dtype)
    words[:la] = a[word]
    words[padded - lb :] = b[word][::-1]
    sort_words(words, k=padded)
    if counter is not None:
        counter[0] += merge_comparator_count([la, lb])
    return {word: words[: la + lb]}


def merge_pair_task(payload) -> tuple[dict[str, np.ndarray], int]:
    """One tournament pairing as an executor task.

    ``payload`` is ``(a, b, keys)`` — two runs (column dicts) and the sort
    keys.  Returns ``(run, comparators)``.
    """
    a, b, keys = payload
    counter = [0]
    merged = bitonic_merge_two(a, b, keys, counter=counter)
    return merged, counter[0]


def oblivious_merge_runs(
    runs: list[dict[str, np.ndarray]],
    keys: list[Key],
    counter: list | None = None,
    executor: Executor | None = None,
) -> dict[str, np.ndarray]:
    """Tournament-merge sorted runs into one run sorted ascending by ``keys``.

    Walks :func:`~repro.plan.ir.tournament_schedule` round by round: each
    round's pairings are one ``executor.map`` of :func:`merge_pair_task`
    (``None`` runs them inline), and an odd tail run is carried to the next
    round.  The network depth over the runs is ``ceil(log2(len(runs)))``
    rounds; the comparator schedule depends only on the run lengths.
    """
    if not runs:
        return {}
    if len(runs) == 1:
        return _copy(runs[0])
    executor = executor or InlineExecutor()
    # Rebinding ``runs`` (not a copy) lets each round free the runs it
    # merged, when the caller handed over a list it does not keep.
    for _, nodes in groupby(tournament_schedule(len(runs)), key=attrgetter("round")):
        nodes = list(nodes)
        results = executor.map(
            merge_pair_task,
            [(runs[n.left], runs[n.right], keys) for n in nodes if not n.is_carry],
        )
        if counter is not None:
            counter[0] += sum(comparators for _, comparators in results)
        # A carry is always its round's last slot.
        carried = [runs[node.left] for node in nodes if node.is_carry]
        runs = [run for run, _ in results] + carried
    return runs[0]
