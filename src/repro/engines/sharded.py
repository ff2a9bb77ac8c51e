"""The ``sharded`` engine: :mod:`repro.shard` behind the Engine protocol.

The first backend to carry a genuinely new *execution strategy* through the
engine seam: every workload is split into equal, padded, position-based
shards (:mod:`repro.shard.partition`), its public schedule is compiled into
a plan up front (:mod:`repro.plan.compile`), and the tasks run on a
pluggable executor (:mod:`repro.plan.executors`).  What is sharded is the
*sort* (:mod:`repro.shard.sort`): per one-word pass, at most ``shards``
local bitonic sorts, one ``executor.map``, then a bitonic merge tournament
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
    The most positional blocks a sort is split into — one task per block
    and one-word pass.  A sort of ``n`` rows runs
    :func:`~repro.plan.partition.blocks` ``(n, shards)`` of them: no block
    is cut under :data:`~repro.plan.partition.MIN_BLOCK_ROWS` (2**16)
    rows, below which threads do not pay on two cores, unless fewer blocks
    pad to more comparators than ``shards``, so a sort of fewer than 2**17
    rows is one block except just above a power of two.  Measured on a
    2-core guest (nothing here has been run on more), ``shards=2
    workers=2`` takes about 0.11x the ``vector`` engine's time at ``n1 =
    n2 = 16384`` through the one-word sort kernel, not the second core:
    every sort at that size is one block.  Defaults to ``max(2, workers)``
    so a pooled dispatch has a task per thread.
``workers``
    Parallelism of the executor.  ``workers=1`` defaults to the inline
    executor — deterministic, what the test suite uses; ``workers>1``
    defaults to the thread pool, which refuses more than
    :data:`~repro.plan.executors.MAX_POOL_WORKERS`.
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
