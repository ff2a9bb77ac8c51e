"""The ``repro serve`` front end: a JSON-lines query server over TCP.

One :class:`~repro.service.engine.ServiceEngine` behind an asyncio server:
each client connection speaks newline-delimited JSON requests —

``{"op": "ping"}``
    Liveness check.
``{"op": "register", "name": ..., "specs": [...], "rows": [...]}``
    Register (or replace) a named table; ``specs`` are ``"name:type"``
    column specs, rows are value lists.
``{"op": "tables"}``
    The registered table names.
``{"op": "query", "spec": {...}}``
    Run one query spec (see :data:`~repro.service.engine.QUERY_OPS`);
    the response carries the result schema/rows and the per-query stats
    (cache hit/miss deltas, queue depth, warm flag, seconds).
``{"op": "stats"}``
    Service-level counters (encoding cache, warm executors, store IO).
``{"op": "shutdown"}``
    Acknowledge, then stop the server.

Responses are one JSON object per line: ``{"ok": true, ...}`` or
``{"ok": false, "error": ..., "kind": ...}``.  *Every* request line gets
exactly one response line: a library error answers with its class name as
``kind``, a line that is not a JSON object with ``InputError``, and any
other exception with ``InternalError`` (traceback logged under
``repro.service.server``) — the connection stays usable.  The one
exception: a line longer than :data:`MAX_REQUEST_BYTES` is answered with
``InputError`` and its connection is then closed.  Queries from
concurrent connections are admitted concurrently and serialized on the
engine lock;
the JSON hop is deliberately boring — the ``service_mix`` workload of
``benchmarks/e2e`` measures what it adds around the engine.

Security note: the server trusts its clients (it binds loopback by
default).  What a *network* observer learns from serving repeated queries
— cache-hit timing, table-version reuse — is the subject of the
"what repetition reveals" section of ``docs/leakage.md``.
"""

from __future__ import annotations

import asyncio
import json
import logging

from ..db.schema import Schema
from ..db.table import DBTable
from ..errors import InputError, ReproError, SchemaError
from .engine import ServiceEngine

_LOG = logging.getLogger(__name__)

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Longest request line the server buffers (asyncio's default is 64 KiB,
#: under a 9 000-row ``register``).  Sized for the largest table a line is
#: meant to carry: 2^16 rows of two int64 cells at 20 digits each are
#: about 3 MiB of JSON.
MAX_REQUEST_BYTES = 4 * 2**20


def table_payload(table: DBTable) -> dict:
    """A table as wire data: column specs plus row value lists."""
    return {
        "specs": [f"{c.name}:{c.type}" for c in table.schema.columns],
        "rows": [list(row) for row in table.rows],
    }


def payload_table(payload: dict) -> DBTable:
    """The inverse of :func:`table_payload`."""
    schema = Schema.of(*payload["specs"])
    return DBTable(schema, [tuple(row) for row in payload["rows"]])


def _failure(error: str, kind: str) -> dict:
    """The ``ok: false`` response line."""
    return {"ok": False, "error": error, "kind": kind}


def _check_int64_cells(table: DBTable) -> None:
    """Reject ``int`` cells the int64 kernels cannot hold.

    JSON integers are unbounded; an out-of-range key would otherwise be
    accepted here and overflow inside the first query that encodes it.
    """
    for position, column in enumerate(table.schema.columns):
        if column.type != "int":
            continue
        for row in table.rows:
            if not _INT64_MIN <= row[position] <= _INT64_MAX:
                raise SchemaError(
                    f"column {column.name!r}: {row[position]} is outside "
                    "the int64 range"
                )


async def _read_request_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line (``b""`` at EOF), or ``None`` for an over-limit one.

    An over-limit line is read to its newline and dropped chunk by chunk, so
    nothing past the limit is ever buffered and the client can finish
    sending: closing on it with input still unread would reset the
    connection before the refusal could be read.
    """
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # EOF, possibly after an unterminated line
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        return None if oversized else line


class QueryServer:
    """Serve one :class:`ServiceEngine` over newline-delimited JSON."""

    def __init__(
        self,
        service: ServiceEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> "QueryServer":
        """Bind the socket (resolving ``port=0`` to the kernel's pick)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`) arrives."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._shutdown.wait()
        self.service.close()

    def stop(self) -> None:
        self._shutdown.set()

    # -- request handling ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while not self._shutdown.is_set():
                line = await _read_request_line(reader)
                if line == b"":
                    break
                try:
                    if line is None:
                        raise InputError(
                            "request line exceeds MAX_REQUEST_BYTES "
                            f"({MAX_REQUEST_BYTES} bytes)"
                        )
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise InputError(
                            "a request must be a JSON object, got "
                            f"{type(request).__name__}"
                        )
                    response = await self._dispatch(request)
                except ReproError as exc:
                    response = _failure(str(exc), type(exc).__name__)
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    response = _failure(
                        f"malformed request: {exc}", type(exc).__name__
                    )
                except Exception as exc:
                    # The connection boundary: one failed request must not
                    # take the client's connection (or the server) with it.
                    _LOG.exception("request failed with an internal error")
                    response = _failure(
                        f"{type(exc).__name__}: {exc}", "InternalError"
                    )
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if response.get("bye"):
                    self.stop()
                    break
                if line is None:
                    break  # an over-limit sender gets its answer, then goes
        finally:
            writer.close()

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "register":
            table = payload_table(request)
            _check_int64_cells(table)
            self.service.register_table(request["name"], table)
            return {"ok": True, "name": request["name"], "rows": len(table)}
        if op == "tables":
            return {"ok": True, "tables": sorted(self.service.tables)}
        if op == "query":
            result = await self.service.submit(request["spec"])
            return {
                "ok": True,
                "table": table_payload(result.table),
                "stats": result.stats.to_dict(),
            }
        if op == "stats":
            return {"ok": True, "stats": self.service.service_stats()}
        if op == "shutdown":
            return {"ok": True, "bye": True}
        return _failure(f"unknown op {op!r}", "InputError")


async def _serve(service: ServiceEngine, host: str, port: int) -> None:
    server = await QueryServer(service, host, port).start()
    # The smoke harness and CLI clients parse this exact line for the
    # resolved port, so keep it first and stable.
    print(f"listening on {server.host}:{server.port}", flush=True)
    await server.serve_until_shutdown()


def run_server(service: ServiceEngine, host: str = "127.0.0.1", port: int = 0) -> None:
    """Blocking entry point used by ``python -m repro serve``."""
    asyncio.run(_serve(service, host, port))
