"""The ``sharded`` engine: :mod:`repro.shard` behind the Engine protocol.

The first backend to carry a genuinely new *execution strategy* through the
engine seam: every workload is split into equal, padded, position-based
shards (:mod:`repro.shard.partition`), its public schedule is compiled into
a plan up front (:mod:`repro.plan.compile`), and the tasks run on a
pluggable executor (:mod:`repro.plan.executors`).  What is sharded is the
*sort* (:mod:`repro.shard.sort`): per one-word pass, ``shards`` local
bitonic sorts, one ``executor.map``, then a bitonic merge tournament
(:mod:`repro.shard.merge`), one ``executor.map`` per round.  The engine is
:class:`~repro.engines.vector.VectorEngine` with that sort in its ``_sort``
slot: the join, the multiway cascade, the join tree, aggregation, GROUP BY,
FILTER and ORDER BY are the ``vector`` engine's own operators over
``sort=sharded_sort``, so outputs are bit-identical and the leakage is the
``vector`` engine's plus the ``(n, k)``-determined block layout.  Nothing
but the sort is its own: the class defines only ``__init__`` and
``shards``.

Five knobs:

``shards``
    How many positional blocks each sort is split into — one task per
    block and one-word pass.  The comparator work does not depend on
    ``shards`` (at power-of-two block sizes, exactly): every sort runs
    ``word_passes(keys, n)`` one-word passes of the single-process
    network, 3 for the join's first sort and 1 for the other four.
    Measured on a 2-core guest (nothing here has been run on more),
    ``shards=2 workers=2`` takes 0.23–0.27x the ``vector`` engine's time
    at ``n1 = n2 = 16384`` through the one-word sort kernel, not the
    second core: blocks that small run in the calling thread.  Defaults to
    ``max(2, workers)`` so a pooled dispatch has a task per thread.
``workers``
    Parallelism of the executor.  ``workers=1`` defaults to the inline
    executor — deterministic, what the test suite uses; ``workers>1``
    defaults to the thread pool, which refuses more than
    :data:`~repro.plan.executors.MAX_POOL_WORKERS`.  Threads pay only
    from blocks of :data:`~repro.plan.executors.POOL_MIN_CELLS` (2**16)
    words on two cores, so the pool runs smaller dispatches in the
    calling thread; which ones is a function of ``(n, shards)``.
``executor``
    The execution substrate, overriding the workers-derived default:
    ``"inline"`` (calling thread), ``"pool"`` (persistent thread pool in
    the calling process; blocks are handed over by reference), or ``"shuffle"``
    (inline compute executing in adversarially shuffled order — a
    validation substrate).
    Executors cannot change results or leakage, only wall-clock; the
    executor-parametrised differential suite pins the former.
``padding`` / ``bound``
    Padded execution (:mod:`repro.core.padding`) of joins, cascades and
    join trees: a padded join is the ``vector`` engine's padded join and
    reveals what it reveals.  Aggregation, GROUP BY and FILTER reveal only
    their output size in every mode, as in ``vector``, so ``padding`` does
    not touch them (``docs/leakage.md``).

Configured copies come from :func:`repro.engines.get_engine`::

    get_engine("sharded", shards=4, workers=4, executor="pool",
               padding="worst_case")

or equivalently ``ObliviousEngine(engine="sharded", shards=4, workers=4)``
and ``--engine sharded --workers 4 --executor pool`` on the CLI.
"""

from __future__ import annotations

from functools import partial

from ..plan.executors import check_workers, resolve_executor
from ..plan.partition import check_shards
from ..shard.sort import sharded_sort
from .vector import VectorEngine


class ShardedEngine(VectorEngine):
    """Sharded multi-threaded engine: padded partitions, identical outputs."""

    name = "sharded"
    OPTIONS = ("shards", "workers", "executor", "padding", "bound")

    def __init__(
        self,
        shards: int | None = None,
        workers: int = 1,
        executor: str | None = None,
        padding: str | None = None,
        bound=None,
    ) -> None:
        self.workers = check_workers(workers)
        self._shards = None if shards is None else check_shards(shards)
        # Resolve eagerly so an unknown name fails at configuration time.
        self.executor = resolve_executor(executor, workers=self.workers)
        super().__init__(
            padding, bound, shards=shards, workers=self.workers, executor=executor
        )
        # The sort every inherited operator hands the vector text.
        self._sort = partial(sharded_sort, shards=self.shards, executor=self.executor)

    @property
    def shards(self) -> int:
        """Partitions per input: explicit, or ``max(2, workers)``."""
        return self._shards if self._shards is not None else max(2, self.workers)
