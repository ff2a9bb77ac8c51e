"""repro — a reproduction of "Efficient Oblivious Database Joins" (VLDB'20).

The package implements Krastnikov, Kerschbaum and Stebila's oblivious
equi-join algorithm end to end: the traced reference engine whose
public-memory access pattern is provably input-independent, a vectorised
numpy engine for benchmark-scale runs, a sharded multi-threaded engine,
padded multiway cascades that hide intermediate result sizes behind public
bounds (``padding="bounded"|"worst_case"``; see ``docs/leakage.md``), a
compile-then-execute core (:mod:`repro.plan`: a public Plan IR compiled
from input shapes, run by pluggable inline / thread-pool
executors), the Table 1 baselines, the Figure 6 type system, an SGX cost
model for the Figure 8 series, and a small oblivious relational layer.

Quickstart::

    from repro import oblivious_join
    result = oblivious_join([(1, 10), (2, 20)], [(1, 77), (1, 78)])
    result.pairs   # [(10, 77), (10, 78)]

See README.md for the quickstart and engine matrix, docs/architecture.md
for the layer map, docs/leakage.md for the per-engine leakage profiles,
and benchmarks/ for the paper-vs-measured record of every table and
figure.
"""

from . import analysis, baselines, core, db, enclave, engines, memory, obliv, plan
from . import security, typesys, vector, workloads
from .plan import (
    Plan,
    available_executors,
    compile_workload,
    get_executor,
)
from .core.aggregate import GroupAggregate, oblivious_group_by, oblivious_join_aggregate
from .core.join import JoinResult, oblivious_join
from .core.multiway import MultiwayResult, oblivious_multiway_join
from .core.padding import PADDING_MODES, cascade_bounds, compact_pairs, join_bound
from .db.query import ObliviousEngine
from .db.table import DBTable
from .engines import Engine, available_engines, get_engine, register_engine
from .errors import (
    BoundError,
    CapacityError,
    EnclaveError,
    InjectivityError,
    InputError,
    ObliviousnessError,
    ReproError,
    SchemaError,
    StoreIntegrityError,
    TraceMismatchError,
    TypingError,
)
from .memory.monitor import verify_oblivious
from .memory.tracer import CountSink, HashSink, ListSink, Tracer
from .vector.aggregate import vector_group_by, vector_join_aggregate
from .vector.join import vector_oblivious_join
from .vector.multiway import vector_multiway_join

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "core",
    "db",
    "enclave",
    "engines",
    "memory",
    "obliv",
    "plan",
    "security",
    "typesys",
    "vector",
    "workloads",
    "Engine",
    "available_engines",
    "get_engine",
    "register_engine",
    "Plan",
    "available_executors",
    "compile_workload",
    "get_executor",
    "GroupAggregate",
    "oblivious_group_by",
    "oblivious_join_aggregate",
    "JoinResult",
    "oblivious_join",
    "MultiwayResult",
    "oblivious_multiway_join",
    "PADDING_MODES",
    "cascade_bounds",
    "compact_pairs",
    "join_bound",
    "ObliviousEngine",
    "DBTable",
    "BoundError",
    "CapacityError",
    "EnclaveError",
    "InjectivityError",
    "InputError",
    "ObliviousnessError",
    "ReproError",
    "SchemaError",
    "StoreIntegrityError",
    "TraceMismatchError",
    "TypingError",
    "verify_oblivious",
    "CountSink",
    "HashSink",
    "ListSink",
    "Tracer",
    "vector_oblivious_join",
    "vector_multiway_join",
    "vector_join_aggregate",
    "vector_group_by",
    "__version__",
]
