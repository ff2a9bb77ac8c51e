"""Oblivious merging of sorted runs: bitonic merge + pad compaction.

Runs that are already sorted by the keys do not need a full
`O(m log^2 m)` sort to become one — a tournament of Batcher bitonic *merge*
networks (`O(m log m)` comparators per round, `log` rounds over the runs)
suffices, and `k` sorted blocks plus this tournament *are* one bitonic sort
(:mod:`repro.shard.sort`).

One pairwise merge of ascending runs ``A`` and ``B`` lays the rows out as

    [ A ascending | padding | B reversed ]

padded to the next power of two.  Padding rows carry a flag column that
orders them after every real row, which keeps the layout bitonic
(non-decreasing then non-increasing), so the classic ``log P`` half-cleaner
stages sort it ascending.  The padding then sits in the tail — its position
is a function of the (public) run lengths alone — and is cut off.

The comparator schedule of the whole tournament is determined by the run
lengths only; the obliviousness tests pin it.

Two ways to run the tournament:

:func:`oblivious_merge_runs`
    The single-process barrier form: all runs in hand, merged round by
    round on the calling core.

:class:`StreamingTournament`
    The streaming form :func:`repro.shard.sort.sharded_sort` uses: runs are
    *folded in as their producing tasks complete* (fed from the executor's
    ordered-completion seam), a pairwise merge fires the moment a run's
    bracket mate exists, and — on executors whose ``submit`` crosses a
    process boundary — the merges themselves run as worker tasks, their
    runs travelling pickled.  The bracket comes from
    :func:`repro.plan.ir.tournament_schedule` — the same pure function of
    the run count the plan compilers emit ``merge_pair`` nodes from — so
    the pairing (and with it the comparator schedule) is fixed by the
    compiled plan, never by arrival order, and the output is bit-identical
    to the barrier form under any completion order.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import InputError
from ..obliv.bitonic import next_power_of_two
from ..plan.executors import submit_task
from ..plan.ir import tournament_schedule
from ..vector.sort import WORD_PAD, Key, lexicographic_greater, sort_words, word_column

_INT = np.int64

#: Flag column marking padding rows inside a merge network (sorts last).
PAD_FLAG = "_mergepad"


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
    """Merge two runs sorted ascending by ``keys`` into one sorted run.

    Both runs are struct-of-arrays column dicts with identical column sets.
    Executes exactly the ``log P`` comparator stages of a bitonic merger of
    size ``P = next_power_of_two(len(a) + len(b))``; when ``counter`` (a
    one-element list) is given, the comparator count is added to it.
    """
    la, lb = _run_length(a), _run_length(b)
    if la == 0:
        return _copy(b)
    if lb == 0:
        return _copy(a)
    names = list(a)
    total = la + lb
    padded = next_power_of_two(total)

    word = word_column(a, keys)
    if word is not None:  # payload-free: half-cleaners are min / max on views
        words = np.full(padded, WORD_PAD)
        words[:la] = a[word]
        words[padded - lb :] = b[word][::-1]
        sort_words(words, k=padded)
        if counter is not None:
            counter[0] += merge_comparator_count([la, lb])
        return {word: words[:total]}

    work: dict[str, np.ndarray] = {}
    for name in names:
        col = np.zeros(padded, dtype=np.asarray(a[name]).dtype)
        col[:la] = a[name]
        col[padded - lb :] = b[name][::-1]
        work[name] = col
    merge_keys = list(keys)
    if padded != total:
        flags = np.zeros(padded, dtype=_INT)
        flags[la : padded - lb] = 1
        work[PAD_FLAG] = flags
        merge_keys = [(PAD_FLAG, True)] + merge_keys

    indices = np.arange(padded)
    gap = padded // 2
    while gap >= 1:
        lo = indices[(indices & gap) == 0]
        hi = lo + gap
        swap = lexicographic_greater(work, merge_keys, lo, hi)
        if counter is not None:
            counter[0] += len(lo)
        src = lo[swap]
        dst = hi[swap]
        for col in work.values():
            col[src], col[dst] = col[dst].copy(), col[src].copy()
        gap //= 2

    return {name: work[name][:total] for name in names}


def merge_comparator_count(lengths: list[int]) -> int:
    """Comparators the tournament executes for runs of the given lengths.

    A pure function of the run lengths — used to document (and test) that
    the merge schedule is independent of the data being merged.
    """
    lengths = list(lengths)
    count = 0
    while len(lengths) > 1:
        merged = []
        for i in range(0, len(lengths) - 1, 2):
            la, lb = lengths[i], lengths[i + 1]
            if la and lb:
                padded = next_power_of_two(la + lb)
                gap = padded // 2
                while gap >= 1:
                    count += padded // 2
                    gap //= 2
            merged.append(la + lb)
        if len(lengths) % 2:
            merged.append(lengths[-1])
        lengths = merged
    return count


def oblivious_merge_runs(
    runs: list[dict[str, np.ndarray]],
    keys: list[Key],
    counter: list | None = None,
) -> dict[str, np.ndarray]:
    """Tournament-merge sorted runs into one run sorted ascending by ``keys``.

    Runs are merged pairwise round by round (a balanced tournament), so the
    network depth over the runs is ``ceil(log2(len(runs)))`` rounds; the
    comparator schedule depends only on the run lengths.
    """
    if not runs:
        return {}
    current = [_copy(run) for run in runs]
    while len(current) > 1:
        merged = []
        for i in range(0, len(current) - 1, 2):
            merged.append(
                bitonic_merge_two(current[i], current[i + 1], keys, counter=counter)
            )
        if len(current) % 2:
            merged.append(current[-1])
        current = merged
    return current[0]


# -- the streaming tournament -------------------------------------------------


def merge_pair_task(payload) -> tuple[dict[str, np.ndarray], int]:
    """One tournament pairing as an executor task (worker side).

    ``payload`` is ``(a, b, keys)`` — two runs (column dicts) and the sort
    keys.  Returns ``(run, comparators)``.
    """
    a, b, keys = payload
    counter = [0]
    merged = bitonic_merge_two(a, b, keys, counter=counter)
    return merged, counter[0]


class StreamingTournament:
    """Fold sorted runs into the fixed merge bracket as they arrive.

    The bracket — which leaf pairs with which, round by round — is
    precomputed from the run *count* by
    :func:`repro.plan.ir.tournament_schedule`, the same pure function the
    plan compilers emit ``merge_pair`` nodes from.  :meth:`add` may be
    called in **any** order (the executor's completion order is scheduling
    jitter, not schedule): a pairwise merge is dispatched the moment both
    bracket mates exist, and an odd tail run is carried to the next round
    untouched.  Because every merge is a deterministic function of its two
    inputs and the pairing is fixed, the final run — and the total
    comparator count, accumulated into ``counter`` — is bit-identical to
    :func:`oblivious_merge_runs` under every arrival order.

    ``executor`` decides where the merges run: executors exposing
    ``submit`` get each pairing as a task (overlapping merge work with
    still-running producers).  ``executor=None`` folds inline.
    """

    def __init__(
        self,
        runs: int,
        keys: list[Key],
        executor=None,
        counter: list | None = None,
    ) -> None:
        if runs < 0:
            raise InputError(f"tournament needs a non-negative run count, got {runs}")
        self.runs = runs
        self.keys = list(keys)
        self.counter = counter
        self._executor = executor
        #: child (round, slot) -> the MergeNode consuming it.
        self._up = {}
        for node in tournament_schedule(runs):
            self._up[(node.round - 1, node.left)] = node
            if node.right is not None:
                self._up[(node.round - 1, node.right)] = node
        self._slots: dict[tuple[int, int], object] = {}
        #: dispatched merges, in dispatch order: (round, slot) -> completion.
        self._pending: "OrderedDict[tuple[int, int], object]" = OrderedDict()
        self._added: set[int] = set()
        self._root = None

    def add(self, index: int, run: dict[str, np.ndarray]) -> None:
        """Fold leaf run ``index`` in; safe in any arrival order."""
        if not 0 <= index < self.runs:
            raise InputError(
                f"tournament over {self.runs} runs got leaf index {index}"
            )
        if index in self._added:
            raise InputError(f"tournament leaf {index} was already added")
        self._added.add(index)
        self._place(0, index, run)

    def _place(self, rnd: int, slot: int, value) -> None:
        node = self._up.get((rnd, slot))
        if node is None:
            self._root = value
            return
        if node.is_carry:
            self._place(node.round, node.slot, value)
            return
        mate_slot = node.left if slot == node.right else node.right
        mate = self._slots.pop((rnd, mate_slot), None)
        if mate is None:
            self._slots[(rnd, slot)] = value
            return
        left, right = (value, mate) if slot == node.left else (mate, value)
        payload = (left, right, self.keys)
        self._pending[(node.round, node.slot)] = submit_task(
            self._executor, merge_pair_task, payload
        )

    def _collect(self, completion) -> dict[str, np.ndarray]:
        value, comparators = completion.result()
        if self.counter is not None:
            self.counter[0] += comparators
        return value

    def result(self) -> dict[str, np.ndarray]:
        """Drain pending merges and return the final sorted run.

        Requires every leaf to have been added.  The drain order is the
        dispatch order (deterministic given arrival order), but the
        result does not depend on it — each collected merge just fills
        its bracket slot, possibly firing the next round's pairing.
        """
        if len(self._added) != self.runs:
            raise InputError(
                f"tournament expected {self.runs} runs, got {len(self._added)}"
            )
        try:
            while self._pending:
                key, completion = next(iter(self._pending.items()))
                del self._pending[key]
                self._place(*key, self._collect(completion))
        finally:
            self.close()
        return {} if self._root is None else self._root

    def close(self) -> None:
        """Best-effort cleanup: collect stray merges.

        Called by :meth:`result` on success *and* failure, and safe to
        call directly when abandoning a tournament mid-stream (e.g. a
        bound-exceeded abort): pending worker merges are drained so no
        task of this tournament is still running when the caller moves on.
        """
        while self._pending:
            _, completion = self._pending.popitem(last=False)
            try:
                completion.result()
            except Exception:
                pass
