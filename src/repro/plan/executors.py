"""Pluggable executors: *how* a compiled plan's tasks run.

A :class:`~repro.plan.ir.Plan` fixes the public schedule — which tasks run
at which sizes, in which order.  Executors fix the substrate.  The contract
has two seams::

    executor.map(task, payloads)  -> list                  # payload order
    executor.imap(task, payloads) -> iter[(index, result)] # completion order
    executor.submit(task, payload) -> completion           # one deferred task

``task`` must be a module-level (picklable) function of one payload; every
payload's *shape* is already data-independent (padded shards), so no
executor can change the leakage — only the wall clock.  ``imap`` is the
**ordered-completion seam**: it hands results back as they finish, so a
streaming consumer (the sharded drivers' merge tournaments) can fold
result ``i`` while task ``i + 1`` is still running, instead of waiting on
a barrier.  Consumers must therefore be *arrival-order independent* —
``tests/test_streaming_merge.py`` pins that with the adversarial
``shuffle`` executor.  ``submit`` dispatches one task (a tournament's
pairwise merge) and returns a completion whose ``.result()`` blocks.
Three executors ship in-tree:

``inline``
    Runs the task list in the calling process.  Deterministic, fork-free,
    the default for ``workers=1`` and what the test suite hammers.
``pool``
    A persistent ``multiprocessing`` pool with **shared-memory column
    transport**: every distinct numpy array in a dispatch is written once
    into a ``multiprocessing.shared_memory`` segment and workers attach
    zero-copy, read-only views.  This replaces pickling the shard payloads:
    an array referenced by several tasks of a dispatch is written exactly
    once.
``shuffle``
    A validation substrate: inline compute, adversarially shuffled
    *completion* order.  It exists to prove (in tests and the CI
    differential matrix) that no consumer depends on arrival order.

Worker-side results can also stay in shared memory across dispatches (the
**cross-dispatch column cache**): a task calls :func:`publish_columns` to
write its output into a fresh segment and returns the ref tree instead of
the bytes; the parent holds the refs, ships them verbatim inside later
payloads (``_encode`` passes refs through), and only
:func:`materialize_columns` / :func:`release_segments` at the very end.
This is what lets a merge tournament run round after round on workers
without the intermediate runs ever round-tripping through the parent.

Pools are *persistent*: the first ``workers=N`` dispatch forks the pool,
later dispatches reuse it (:func:`shutdown_pools` tears them down; an
``atexit`` hook does so at interpreter exit).  ``map`` returns results in
payload order, so the execution strategy never changes the output — the
executor-parametrised differential suite pins that bit for bit.

What is process-wide here is stateless between queries: the pools in
``_POOLS``, the warm-executor registry (:func:`warm_executor`) and each
worker's two attach caches (dispatch arena, published runs).  No segment
outlives the query that created it.  The one sharing rule callers must
keep is **one dispatching thread per process** on the pool transport:
:func:`_borrowed_segment_ownership` patches the resource tracker for the
length of a borrowed open.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_module
import random
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from ..errors import InputError

#: Live pools keyed by worker count (see :func:`_pool`).
_POOLS: dict[int, multiprocessing.pool.Pool] = {}

#: The dispatch *arena* a worker currently has attached (name -> shm).
#: One dispatch = one arena, so a single slot captures all the reuse there
#: is (consecutive tasks of the same dispatch); keeping more would only
#: pin dead, already-unlinked arenas in memory — a new dispatch's first
#: task evicts (and frees) the previous dispatch's arena.
_ATTACHED_ARENAS: "OrderedDict[str, object]" = OrderedDict()
_ARENA_LIMIT = 1

#: Worker-*published* run segments (the merge tournament's cross-dispatch
#: column cache) a worker has attached.  A merge task touches two at once
#: and no run is read twice, so two slots are all the reuse there is: a
#: join is five sorts, and every extra slot pins one more dead,
#: parent-unlinked ~1 MiB run per worker until a later attach evicts it.
#: Late tournament rounds can be ``O(m)`` each, so the cache is
#: *byte*-bounded as well.
_ATTACHED_RUNS: "OrderedDict[str, object]" = OrderedDict()
_RUN_LIMIT = 2
_RUN_BYTES_LIMIT = 64 * 2**20


def check_workers(workers: int) -> int:
    """Validate a worker count; returns it for chaining."""
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise InputError(f"worker count must be an int >= 1, got {workers!r}")
    return workers


def _context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, POSIX) and fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _pool(workers: int) -> multiprocessing.pool.Pool:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _context().Pool(processes=workers)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Terminate every cached worker pool (idempotent)."""
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()


atexit.register(shutdown_pools)


def warm_pool(workers: int) -> None:
    """Fork the ``workers``-process pool ahead of time (bench warm-up)."""
    check_workers(workers)
    if workers > 1:
        _pool(workers)


# -- shared-memory column transport ------------------------------------------


@dataclass(frozen=True)
class _ArrayRef:
    """Wire stand-in for one ndarray: segment name + layout, no bytes.

    ``published`` marks refs into worker-published run segments (the
    cross-dispatch cache) as opposed to a dispatch's arena; the worker
    attach cache treats the two differently.
    """

    segment: str
    offset: int
    dtype: str
    shape: tuple[int, ...]
    published: bool = False


@contextmanager
def _borrowed_segment_ownership():
    """Suppress resource-tracker bookkeeping inside the block.

    One process owns each segment's tracker entry (the process that
    creates it under normal registration); every *borrowed* open — a
    worker attach, a worker creating a published-run segment whose
    lifecycle it immediately hands to the parent, the parent
    materialising or unlinking a published run it never registered — must
    neither register the name a second time with the (shared, under fork)
    resource tracker nor unregister a name the tracker never booked, or
    the tracker's books go inconsistent and it prints spurious KeyErrors
    at exit.  Pool workers and the parent's dispatch path are
    single-threaded, so the patch window is safe.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister
    resource_tracker.register = lambda *args, **kwargs: None
    resource_tracker.unregister = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = original_register
        resource_tracker.unregister = original_unregister


def _map_tree(node, leaf):
    """Rebuild a payload tree (tuples/lists/dicts), applying ``leaf`` to
    every non-container value — the one traversal all transport walkers
    (:func:`_encode`, :func:`_rename`, :func:`_decode`,
    :func:`materialize_columns`) share."""
    if isinstance(node, tuple):
        return tuple(_map_tree(item, leaf) for item in node)
    if isinstance(node, list):
        return [_map_tree(item, leaf) for item in node]
    if isinstance(node, dict):
        return {key: _map_tree(value, leaf) for key, value in node.items()}
    return leaf(node)


def _encode(obj, arena: dict, chunks: list):
    """Replace every ndarray in a payload tree with an :class:`_ArrayRef`.

    ``arena`` maps ``id(array)`` to its assigned ref so an array referenced
    by many payloads is written exactly once; ``chunks`` collects ``(offset, array)`` copy
    instructions for :func:`_pack`.  Offsets are 64-byte aligned.
    :class:`_ArrayRef` leaves already in the tree (runs published by a
    worker in an earlier dispatch) pass through untouched — that is the
    cross-dispatch cache's no-round-trip property.
    """

    def leaf(value):
        if not isinstance(value, np.ndarray):
            return value
        if value.nbytes == 0:
            return value  # zero-size arrays ship inline (nothing to share)
        ref = arena.get(id(value))
        if ref is None:
            contiguous = np.ascontiguousarray(value)
            if chunks:
                last_offset, last = chunks[-1]
                offset = -(-(last_offset + last.nbytes) // 64) * 64
            else:
                offset = 0
            ref = _ArrayRef(
                segment="",  # patched by _pack once the segment exists
                offset=offset,
                dtype=contiguous.dtype.str,
                shape=tuple(contiguous.shape),
            )
            arena[id(value)] = ref
            chunks.append((offset, contiguous))
        return ref

    return _map_tree(obj, leaf)


def _pack(
    payloads: Sequence, run_sized: bool = False, owned: bool = True
) -> tuple[object, list]:
    """Encode a batch: one shared segment for all arrays, refs in payloads.

    ``run_sized`` marks the segment for the worker's published-run LRU
    rather than the single dispatch-arena slot — used by ``submit`` (one
    merge's pair of runs), whose small segments must not evict a live
    dispatch arena between two of its dispatch's tasks.  ``owned=False``
    creates the segment under borrowed ownership (no tracker entry):
    the caller is handing the lifecycle to another process
    (:func:`publish_columns`).
    """
    from multiprocessing import shared_memory

    arena: dict = {}
    chunks: list = []
    encoded = [_encode(payload, arena, chunks) for payload in payloads]
    if not chunks:
        return None, encoded
    last_offset, last = chunks[-1]
    size = last_offset + last.nbytes
    if owned:
        segment = shared_memory.SharedMemory(create=True, size=size)
    else:
        with _borrowed_segment_ownership():
            segment = shared_memory.SharedMemory(create=True, size=size)
    for offset, array in chunks:
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf, offset=offset
        )
        view[...] = array
    encoded = _rename(encoded, segment.name, published=run_sized)
    return segment, encoded


def _rename(obj, name: str, published: bool = False):
    """Stamp the final segment name into every *unnamed* ref of a tree.

    Refs that already carry a segment name (published runs from earlier
    dispatches) keep it — only the refs this pack created are patched.
    """

    def leaf(value):
        if isinstance(value, _ArrayRef) and not value.segment:
            return _ArrayRef(name, value.offset, value.dtype, value.shape, published)
        return value

    return _map_tree(obj, leaf)


def _attach(name: str, published: bool = False):
    """Worker side: map a segment by name, caching recent attachments.

    The parent owns every segment's lifecycle (it unlinks after the
    dispatch, or — for published runs — when the consuming tournament
    finishes); a worker's mapping stays valid until closed, which is what
    lets the tasks of one dispatch share a single attach.  Dispatch arenas
    and published run segments cache separately: a new dispatch's first
    task evicts (and frees) the previous dispatch's O(n) arena
    immediately, while the small published-run segments keep a short LRU
    of their own.
    """
    from multiprocessing import shared_memory

    if published:
        cache, limit, bytes_limit = _ATTACHED_RUNS, _RUN_LIMIT, _RUN_BYTES_LIMIT
    else:
        cache, limit, bytes_limit = _ATTACHED_ARENAS, _ARENA_LIMIT, None
    segment = cache.get(name)
    if segment is None:
        with _borrowed_segment_ownership():
            segment = shared_memory.SharedMemory(name=name)
        cache[name] = segment

        def over_budget() -> bool:
            if len(cache) > limit:
                return True
            return bytes_limit is not None and len(cache) > 1 and (
                sum(entry.size for entry in cache.values()) > bytes_limit
            )

        while over_budget():
            _, oldest = cache.popitem(last=False)
            try:
                oldest.close()
            except BufferError:  # a live view still references the buffer;
                pass  # dropping the reference frees it with the gc instead
    else:
        cache.move_to_end(name)
    return segment


def _decode(obj):
    """Rebuild a payload tree, materialising refs as read-only shm views."""

    def leaf(value):
        if not isinstance(value, _ArrayRef):
            return value
        segment = _attach(value.segment, value.published)
        view = np.ndarray(
            value.shape,
            dtype=np.dtype(value.dtype),
            buffer=segment.buf,
            offset=value.offset,
        )
        view.flags.writeable = False  # tasks must copy before mutating
        return view

    return _map_tree(obj, leaf)


def _run_encoded(call):
    """Worker entry point: decode one payload and run the task on it."""
    task, payload = call
    return task(_decode(payload))


# -- cross-dispatch column cache ---------------------------------------------


def publish_columns(tree) -> tuple[object, str | None]:
    """Worker side: park a task's output arrays in a fresh shm segment.

    Returns ``(encoded, segment_name)`` — the encoded tree references the
    new segment by name and the calling process keeps **no** mapping, so
    the result can be handed to the parent as a few hundred bytes of refs
    instead of the array payload.  The parent adopts ownership: it should
    :func:`adopt_segments` the name on receipt (crash-safe tracker
    booking) and must eventually :func:`release_segments` it (the
    streaming tournament does both).  A tree with no (non-empty) arrays
    publishes nothing and comes back with ``segment_name=None``.
    """
    segment, encoded = _pack([tree], run_sized=True, owned=False)
    if segment is None:
        return encoded[0], None
    name = segment.name
    segment.close()
    return encoded[0], name


def adopt_segments(names) -> None:
    """Parent side: take resource-tracker ownership of published segments.

    The worker created each segment under borrowed ownership — no tracker
    entry anywhere — so a hard parent crash (SIGKILL, OOM) between publish
    and release would orphan the shm until reboot.  Booking the name here,
    the moment the parent learns it, leaves the (shared, under fork)
    resource tracker to unlink it when the process tree dies.
    :func:`release_segments` unlinks normally, which unregisters the
    booking again.  POSIX only; Windows shared memory has no tracker and
    frees on last close.
    """
    if os.name != "posix":
        return
    from multiprocessing import resource_tracker

    for name in names:
        # SharedMemory registers the slash-prefixed internal name on
        # POSIX; book the same form so unlink()'s unregister matches.
        resource_tracker.register(f"/{name}", "shared_memory")


def materialize_columns(tree):
    """Parent side: copy a (possibly ref-encoded) result tree into local arrays.

    Plain trees pass through unchanged; :class:`_ArrayRef` leaves are read
    out of their segments into fresh owned copies, and every mapping this
    call opened is closed before returning (unlinking stays the caller's
    job — :func:`release_segments`).
    """
    from multiprocessing import shared_memory

    segments: dict[str, object] = {}

    def leaf(value):
        if not isinstance(value, _ArrayRef):
            return value
        segment = segments.get(value.segment)
        if segment is None:
            with _borrowed_segment_ownership():
                segment = shared_memory.SharedMemory(name=value.segment)
            segments[value.segment] = segment
        view = np.ndarray(
            value.shape,
            dtype=np.dtype(value.dtype),
            buffer=segment.buf,
            offset=value.offset,
        )
        return view.copy()

    try:
        return _map_tree(tree, leaf)
    finally:
        for segment in segments.values():
            segment.close()


def release_segments(names) -> None:
    """Unlink published segments the parent adopted and has finished with.

    Pairs with :func:`adopt_segments`: the unlink also unregisters the
    tracker booking made there.  Idempotent and tolerant of already-gone
    names (a crashed worker, a double release) — and a name released
    without ever being unlinked here is still reclaimed by the tracker at
    process-tree death, never leaked past it.
    """
    from multiprocessing import shared_memory

    for name in names:
        try:
            with _borrowed_segment_ownership():
                segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        try:
            segment.unlink()  # unregisters the adopt_segments() booking
        except FileNotFoundError:
            pass


# -- completions -------------------------------------------------------------


@dataclass
class _Immediate:
    """A completion whose task already ran (inline substrates)."""

    value: object

    def result(self):
        return self.value


class _LazyCall:
    """A completion that runs its task on first ``result()`` (shuffle)."""

    def __init__(self, task: Callable, payload) -> None:
        self._task = task
        self._payload = payload
        self._value = None
        self._ran = False

    def result(self):
        if not self._ran:
            self._value = self._task(self._payload)
            self._task = self._payload = None
            self._ran = True
        return self._value


class _PoolCompletion:
    """A completion backed by ``apply_async``; owns its dispatch segment."""

    def __init__(self, async_result, segment) -> None:
        self._async_result = async_result
        self._segment = segment

    def result(self):
        try:
            return self._async_result.get()
        finally:
            if self._segment is not None:
                self._segment.close()
                self._segment.unlink()
                self._segment = None


def _published_result_segments(tree) -> set[str]:
    """Worker-published segment names a result tree references."""
    names: set[str] = set()

    def leaf(value):
        if isinstance(value, _ArrayRef) and value.published:
            names.add(value.segment)
        return value

    _map_tree(tree, leaf)
    return names


def _pool_imap(
    pool, task: Callable, payloads: Sequence
) -> Iterator[tuple[int, object]]:
    """Dispatch a packed batch and yield ``(index, result)`` as they finish.

    One shared-memory arena for the whole batch; per-task completion
    callbacks push into a thread-safe queue (no helper thread per pending
    result), and the arena is unlinked once every result is in.

    The error path must not abandon the stragglers: a failing task aborts
    the stream, but sibling tasks that already completed — or complete
    while the abort propagates — may have *published* their results
    (:func:`publish_columns`), and a published segment has no
    resource-tracker entry until the parent adopts it.  Dropping those
    results on the floor would leak the segments until reboot, so the
    abort drains the remaining completions and releases every published
    segment nobody will ever adopt before re-raising.
    """
    segment, encoded = _pack(payloads)
    results: queue_module.SimpleQueue = queue_module.SimpleQueue()
    try:
        for index, payload in enumerate(encoded):
            pool.apply_async(
                _run_encoded,
                ((task, payload),),
                callback=lambda value, index=index: results.put(
                    (index, value, None)
                ),
                error_callback=lambda error, index=index: results.put(
                    (index, None, error)
                ),
            )
        pending = len(encoded)
        failure: BaseException | None = None
        while pending:
            index, value, error = results.get()
            pending -= 1
            if error is not None:
                failure = error
                break
            yield index, value
        if failure is not None:
            orphaned: set[str] = set()
            while pending:
                try:
                    _, value, error = results.get(timeout=60.0)
                except queue_module.Empty:
                    break  # a wedged worker; the tracker reclaims at exit
                pending -= 1
                if error is None:
                    orphaned |= _published_result_segments(value)
            if orphaned:
                adopt_segments(orphaned)
                release_segments(orphaned)
            raise failure
    finally:
        if segment is not None:
            segment.close()
            segment.unlink()


def _pool_submit(pool, task: Callable, payload) -> _PoolCompletion:
    """Dispatch one task over its own (run-sized) shared-memory segment."""
    segment, encoded = _pack([payload], run_sized=True)
    return _PoolCompletion(
        pool.apply_async(_run_encoded, ((task, encoded[0]),)), segment
    )


# -- executors ---------------------------------------------------------------


@runtime_checkable
class Executor(Protocol):
    """The execution substrate contract: ordered map over padded payloads.

    ``transport`` reports how the *last* dispatch's payload bytes reached
    the compute ("none" for in-process calls, "shared_memory" for the
    column transport) — before any dispatch it reports the configured
    default.  ``imap``/``submit`` are optional seams; drivers reach them
    through :func:`completion_stream` / :func:`submit_task`, which fall
    back to ordered ``map`` / inline execution for executors that only
    implement the minimal contract.
    """

    name: str
    #: How the most recent dispatch's bytes reached the compute.
    transport: str

    def map(self, task: Callable, payloads: Sequence) -> list: ...


def completion_stream(
    executor, task: Callable, payloads: Sequence
) -> Iterator[tuple[int, object]]:
    """Yield ``(index, result)`` pairs as tasks complete.

    The streaming seam the sharded drivers consume: uses the executor's
    ``imap`` when it has one (completion order — arbitrary, even
    adversarial), else falls back to ``map`` and yields in payload order.
    Consumers must not depend on arrival order; the fold they feed must be
    a pure function of the index space (the compiled bracket).
    """
    payloads = list(payloads)
    imap = getattr(executor, "imap", None)
    if imap is not None:
        yield from imap(task, payloads)
        return
    for index, result in enumerate(executor.map(task, payloads)):
        yield index, result


def submit_task(executor, task: Callable, payload):
    """Dispatch one task; returns a completion with ``.result()``.

    Falls back to running inline for executors without ``submit``.
    """
    submit = getattr(executor, "submit", None)
    if submit is not None:
        return submit(task, payload)
    return _Immediate(task(payload))


class InlineExecutor:
    """Run the task list in the calling process (no pool, no transport)."""

    name = "inline"
    transport = "none"
    #: Inline submits stay in-process: published runs would be pure waste.
    remote_submit = False

    def __init__(self, workers: int = 1) -> None:
        self.workers = check_workers(workers)  # accepted for uniformity

    def map(self, task: Callable, payloads: Sequence) -> list:
        return [task(payload) for payload in payloads]

    def imap(self, task: Callable, payloads: Sequence):
        for index, payload in enumerate(payloads):
            yield index, task(payload)

    def submit(self, task: Callable, payload):
        return _Immediate(task(payload))


class ShuffleExecutor:
    """Inline compute, adversarial completion order (a validation substrate).

    Every task runs in the calling process, but ``map``/``imap`` *execute*
    (and ``imap`` yields) the tasks in a deterministic shuffled order, and
    ``submit`` defers execution until the consumer first blocks on the
    completion.  Outputs are bit-identical to ``inline`` by the executor
    contract; what this substrate exists to falsify is any *consumer*
    assumption about arrival order — the streaming-merge suite and the CI
    differential matrix run the sharded engine on it.  The shuffle is
    seeded (``seed`` plus a per-dispatch counter), so failures reproduce.
    """

    name = "shuffle"
    transport = "none"
    remote_submit = False

    def __init__(self, workers: int = 1, seed: int = 0) -> None:
        self.workers = check_workers(workers)  # accepted for uniformity
        self.seed = seed
        self._dispatches = 0

    def _order(self, count: int) -> list[int]:
        order = list(range(count))
        random.Random(1_000_003 * self.seed + self._dispatches).shuffle(order)
        self._dispatches += 1
        return order

    def map(self, task: Callable, payloads: Sequence) -> list:
        payloads = list(payloads)
        results: dict[int, object] = {}
        for index in self._order(len(payloads)):
            results[index] = task(payloads[index])
        return [results[index] for index in range(len(payloads))]

    def imap(self, task: Callable, payloads: Sequence):
        payloads = list(payloads)
        for index in self._order(len(payloads)):
            yield index, task(payloads[index])

    def submit(self, task: Callable, payload):
        return _LazyCall(task, payload)


class PoolExecutor:
    """Persistent process pool + shared-memory column transport."""

    name = "pool"

    def __init__(self, workers: int = 2) -> None:
        self.workers = check_workers(workers)
        self._last_transport: str | None = None

    @property
    def transport(self) -> str:
        """The path the last dispatch actually took.

        ``workers=1`` always runs inline, so nothing ever crosses; above
        that, single-payload dispatches short-circuit inline ("none") and
        real batches ship over shared memory.
        """
        if self.workers == 1:
            return "none"
        return self._last_transport or "shared_memory"

    @property
    def remote_submit(self) -> bool:
        """Submits cross a process boundary (so published runs pay off).

        POSIX-only: publishing relies on a segment surviving after its
        creating worker closes its mapping, which Windows named shared
        memory (freed on last close) does not guarantee — there the
        tournament falls back to plain result dicts.
        """
        return self.workers > 1 and os.name == "posix"

    def map(self, task: Callable, payloads: Sequence) -> list:
        if len(payloads) <= 1 or self.workers == 1:
            # A single task (or a 1-process pool) gains nothing from the
            # round-trip; inline keeps the fast path fast.  Results are
            # identical either way — executors cannot change outputs.
            self._last_transport = "none"
            return [task(payload) for payload in payloads]
        self._last_transport = "shared_memory"
        segment, encoded = _pack(payloads)
        try:
            return _pool(self.workers).map(
                _run_encoded, [(task, payload) for payload in encoded]
            )
        finally:
            if segment is not None:
                segment.close()
                segment.unlink()

    def imap(self, task: Callable, payloads: Sequence):
        payloads = list(payloads)
        if len(payloads) <= 1 or self.workers == 1:
            self._last_transport = "none"
            for index, payload in enumerate(payloads):
                yield index, task(payload)
            return
        self._last_transport = "shared_memory"
        yield from _pool_imap(_pool(self.workers), task, payloads)

    def submit(self, task: Callable, payload):
        if self.workers == 1:
            self._last_transport = "none"
            return _Immediate(task(payload))
        self._last_transport = "shared_memory"
        return _pool_submit(_pool(self.workers), task, payload)


#: Executor factories by name (the ``--executor`` choices).
_EXECUTORS: dict[str, type] = {
    InlineExecutor.name: InlineExecutor,
    PoolExecutor.name: PoolExecutor,
    ShuffleExecutor.name: ShuffleExecutor,
}


def available_executors() -> list[str]:
    """Sorted names of all registered executors."""
    return sorted(_EXECUTORS)


def get_executor(executor: str | Executor, workers: int = 1) -> Executor:
    """Resolve an executor by name (instances pass straight through)."""
    if not isinstance(executor, str):
        return executor
    try:
        factory = _EXECUTORS[executor]
    except KeyError:
        raise InputError(
            f"unknown executor {executor!r}; "
            f"available: {', '.join(available_executors())}"
        ) from None
    return factory(workers=check_workers(workers))


def resolve_executor(executor: str | Executor | None, workers: int = 1) -> Executor:
    """The drivers' default rule: explicit choice wins, else by workers.

    ``None`` keeps the historical behaviour — ``workers=1`` runs inline,
    ``workers>1`` runs on the (shared-memory) process pool.
    """
    check_workers(workers)
    if executor is None:
        executor = "inline" if workers == 1 else "pool"
    return get_executor(executor, workers=workers)


#: Warm executor instances the service layer reuses across queries,
#: keyed by ``(name, workers)``.
_WARM_EXECUTORS: dict[tuple[str, int], Executor] = {}


def warm_executor(executor: str | Executor | None, workers: int = 1) -> Executor:
    """The cross-query warm executor registry.

    Same resolution rule as :func:`resolve_executor`, but the instance is
    cached by ``(name, workers)`` and handed out again on the next query,
    and its process pool (persistent in :data:`_POOLS`) is forked eagerly
    rather than on the first dispatch.  Nothing a query shipped outlives
    it: the workers' two attach caches hold only segments the parent has
    already unlinked.  Instances pass straight through (the caller
    already owns their lifetime).
    """
    resolved = resolve_executor(executor, workers=workers)
    if resolved is executor:
        return resolved
    key = (resolved.name, workers)
    instance = _WARM_EXECUTORS.get(key)
    if instance is None:
        instance = _WARM_EXECUTORS[key] = resolved
        if isinstance(instance, PoolExecutor):
            warm_pool(workers)
    return instance


def shutdown_warm_executors() -> None:
    """Forget the warm executor instances (their pools stay in _POOLS)."""
    _WARM_EXECUTORS.clear()


def executor_stats() -> dict:
    """Live substrate state, for the service layer's queue stats."""
    return {
        "pools": sorted(_POOLS),
        "warm_executors": sorted(
            f"{name}:{workers}" for name, workers in _WARM_EXECUTORS
        ),
    }
