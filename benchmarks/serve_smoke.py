"""CI smoke for the service layer: boot ``repro serve``, prove the warm hit.

Spawns ``python -m repro serve --port 0`` as a real subprocess, parses the
``listening on HOST:PORT`` line it prints, registers two tables through
:class:`ServiceClient`, and runs the same join three times.  The contract
under test is the service layer's reason to exist: the first query is
cold (the encoding cache misses), the second and third report
``warm: true`` with encoding-cache hits and no new encoder pass — and all
three return byte-identical rows, because caching must be invisible in
every output.  ``--engine sharded`` serves with ``--workers 2 --executor
pool`` and runs the same contract on the sharded engine's warm thread pool,
which the server's stats must list as live after the three queries.

Exits non-zero (assertion) on any violation; the server is torn down via
the protocol's ``shutdown`` op so the clean-exit path is exercised too.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from repro.db.table import DBTable
from repro.service import ServiceClient


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", default="vector", help="serve --engine")
    args = parser.parse_args(argv)

    pooled = args.engine == "sharded"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--engine", args.engine,
            *(["--workers", "2", "--executor", "pool"] if pooled else []),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on "), f"unexpected banner: {banner!r}"
        host, _, port = banner.removeprefix("listening on ").rpartition(":")

        left = DBTable.from_rows(
            ["k:str", "v:int"],
            [("apple", 1), ("pear", 2), ("apple", 3), ("plum", 4)],
        )
        right = DBTable.from_rows(
            ["k:str", "w:int"], [("apple", 10), ("plum", 20), ("quince", 30)]
        )
        spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}

        with ServiceClient(host, int(port)) as client:
            assert client.ping(), "ping failed"
            client.register_table("l", left)
            client.register_table("r", right)
            results = [client.query(spec) for _ in range(3)]

        rows = [table.rows for table, _ in results]
        assert rows[0] == rows[1] == rows[2], "repeat queries changed the output"
        stats = [s for _, s in results]
        assert not stats[0]["warm"], f"first query reported warm: {stats[0]}"
        for which, stat in enumerate(stats[1:], start=2):
            assert stat["warm"], f"query {which} was not a warm hit: {stat}"
            cache = stat["encoding_cache"]
            assert cache["hits"] > 0 and cache["encode_passes"] == 0, (
                f"query {which} re-encoded a table: {stat}"
            )

        with ServiceClient(host, int(port)) as client:
            totals = client.stats()
            assert totals["queries"] == 3, f"server counted {totals['queries']}"
            if pooled:
                executors = totals["executors"]
                assert executors["pools"] == [2], f"no warm 2-thread pool: {executors}"
                assert "pool:2" in executors["warm_executors"], executors
            client.shutdown()
        proc.wait(timeout=30)
        assert proc.returncode == 0, f"server exited {proc.returncode}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(
        f"serve smoke ok ({args.engine}): 3 queries, "
        f"warm hits on 2 and 3, {len(rows[0])} joined rows"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
