"""Launcher of the `service_mix` server subprocess.

Builds the three generated tables from the seed, registers them in-process
(wire `register` breaks above 64 KiB) on a `ServiceEngine(engine="vector")`
and serves until a client sends `shutdown`.  The first line printed is
`listening on HOST:PORT`, which the benchmark parses.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from repro.service import ServiceEngine, run_server  # noqa: E402

from workloads import db_tables, service_tables  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    args = parser.parse_args()
    service = ServiceEngine(engine="vector")
    tables = db_tables(service_tables(np.random.default_rng(args.seed), args.rows))
    for name, table in tables.items():
        service.register_table(name, table)
    run_server(service, "127.0.0.1", 0)


if __name__ == "__main__":
    main()
