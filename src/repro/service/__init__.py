"""The query service layer: an engine, an encoding cache and a warm pool.

A single oblivious query pays two setup costs a *series* of queries over
unchanged tables can share: dictionary-encoding the input tables, and — on
the sharded engine — starting a thread pool.  Neither depends on anything
but the (unchanged) tables and the public engine configuration, so a
process serving a series of queries pays them once.  This package is that
process:

:mod:`~repro.service.engine`
    :class:`ServiceEngine` — one warm engine, its
    :class:`~repro.db.encoding_cache.EncodingCache` and a warm executor
    pool, admitting concurrent queries (serialized on the engine),
    reporting per-query cache deltas and queue stats.  It installs nothing
    process-wide: several can share a process.
:mod:`~repro.service.server` / :mod:`~repro.service.client`
    The ``python -m repro serve`` asyncio JSON-lines front end and its
    client.

What a observer of the *service* learns beyond single-query leakage —
cache-hit timing, table-version reuse across a series of queries — is
catalogued in ``docs/leakage.md`` ("what repetition reveals") and pinned
as :data:`repro.security.SERVICE_LEAKAGE`.
"""

from ..db.encoding_cache import EncodingCache
from .client import ServiceClient, ServiceError
from .engine import FILTER_CMPS, QUERY_OPS, QueryResult, QueryStats, ServiceEngine
from .server import QueryServer, payload_table, run_server, table_payload

__all__ = [
    "EncodingCache",
    "FILTER_CMPS",
    "QUERY_OPS",
    "QueryResult",
    "QueryServer",
    "QueryStats",
    "ServiceClient",
    "ServiceEngine",
    "ServiceError",
    "payload_table",
    "run_server",
    "table_payload",
]
