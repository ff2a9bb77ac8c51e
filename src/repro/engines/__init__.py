"""Pluggable execution engines for every oblivious workload.

Usage::

    from repro.engines import get_engine

    engine = get_engine("vector")               # or "traced" / "sharded"
    engine = get_engine("sharded", workers=4)   # engines with knobs
    engine = get_engine("vector", padding="worst_case")  # hide result sizes
    result = engine.join(left, right)           # same results on every engine

The registry is the architectural seam future backends plug into: implement
the :class:`Engine` protocol, call :func:`register_engine`, and the db
layer, CLI (``--engine``), and differential test suite pick the engine up
by name.

Picking an engine
-----------------
All engines produce bit-identical results (the cross-engine differential
suite in ``tests/test_engines.py`` and ``tests/test_engine_properties.py``
enforces it); they differ in speed, leakage granularity, and parallelism.
All three also support *padded execution* —
``get_engine(name, padding="bounded"|"worst_case", bound=...)`` — which
hides result sizes (including every multiway intermediate) behind public
bounds;
``docs/leakage.md`` is the full leakage-profile table.

``traced``
    The reference. Pure Python, every public-memory access routed through a
    :class:`~repro.memory.tracer.Tracer` — the engine security proofs and
    the §6.1 trace-equality experiments run on.  Slowest by ~10^3x; the only
    engine whose adversary view is a per-access trace.  Use it for security
    experiments and as the differential oracle, not for throughput.

``vector``
    The numpy fast path: whole-array bitonic/routing networks whose
    schedule depends only on public sizes.  The default choice for
    benchmarks and production-sized single-process runs.  Its adversary
    view is the primitive schedule (``PhaseStats.schedule``).

``sharded``
    The multi-threaded scale-out path: every operator is the ``vector``
    engine's own text over a ``shards``-way sharded sort — ``shards``
    equal, padded, positional blocks sorted on a pluggable *executor*
    (``executor="inline"|"pool"|"shuffle"`` — calling thread, thread
    pool, or adversarially shuffled execution order), then a tournament of
    bitonic merges, one ``map`` per round.  The public schedule is compiled into a
    :class:`~repro.plan.ir.Plan` up front.  Same comparator work, shared
    between the workers; reveals what ``vector`` reveals plus the
    ``(n, shards)`` block layout.
    Prefer it at ``n >= 2^14`` on multi-core hardware (measured on two
    cores only — nothing here has been run on more); knobs via
    ``get_engine("sharded", shards=K, workers=N, executor="pool")``.

Every engine also *emits* its public schedule before execution:
``engine.compile_plan(workload, **shapes)`` returns the serializable
:class:`~repro.plan.ir.Plan` the run will follow (``python -m repro plan``
prints it) — plan equality across same-shape inputs is the obliviousness
contract, tested in ``tests/test_plan.py``.
"""

from .base import (
    Engine,
    Pairs,
    available_engines,
    engine_option_names,
    get_engine,
    register_engine,
)
from .sharded import ShardedEngine
from .traced import TracedEngine
from .vector import VectorEngine

#: The three in-tree engines, registered at import time.
TRACED_ENGINE = register_engine(TracedEngine())
VECTOR_ENGINE = register_engine(VectorEngine())
SHARDED_ENGINE = register_engine(ShardedEngine())

__all__ = [
    "Engine",
    "Pairs",
    "available_engines",
    "engine_option_names",
    "get_engine",
    "register_engine",
    "ShardedEngine",
    "TracedEngine",
    "VectorEngine",
    "SHARDED_ENGINE",
    "TRACED_ENGINE",
    "VECTOR_ENGINE",
]
