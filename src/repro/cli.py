"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``join``     oblivious equi-join of two CSV files — or, with ``--join-tree
             EDGE ...``, an acyclic multiway join of three or more CSVs in
             one Yannakakis-style pass
             (``--engine traced|vector|sharded``, ``--workers``/``--shards``/
             ``--executor inline|pool|shuffle``,
             ``--padding revealed|bounded|worst_case`` with ``--bound``)
``plan``     compile and print a query's *public plan* — the serialized
             schedule of oblivious primitives, a pure function of input
             sizes, the shard count and the padding bounds
             (``python -m repro plan --engine sharded --padding worst_case
             --n1 1024 --n2 1024``)
``verify``   run the §6.1 trace-equality experiment and print the hashes
``trace``    print a Figure-7-style access-pattern raster for a small join
``predict``  Figure-8 enclave cost predictions for a given input size
``engines``  list the registered execution engines and their options
``serve``    start the query service: one warm engine, its encoding cache
             and a warm executor pool behind a JSON-lines TCP server
             (``python -m repro serve --engine sharded --workers 4
             --table orders=orders.csv``); prints ``listening on
             HOST:PORT`` once bound (``--port 0`` picks a free port)
``client``   talk to a running server: ``--register NAME=CSV``,
             ``--query '{"op": "join", ...}'``, ``--stats``,
             ``--shutdown`` (results as CSV on stdout, per-query cache
             stats on stderr)

Every engine produces identical results; ``traced`` is the per-access-traced
reference implementation, ``vector`` the numpy fast path (~10^3x faster),
``sharded`` the multi-threaded scale-out path (``--engine sharded --workers 4``,
with ``--executor`` selecting inline / thread pool / adversarially
shuffled execution order; each sort maps its blocks, then maps each round of
its merge tournament, on every substrate).
"""

from __future__ import annotations

import argparse
import csv
import sys

from .analysis.viz import rasterize, render_text
from .core.join import oblivious_join
from .core.padding import PADDING_MODES
from .db.query import ObliviousEngine
from .engines import available_engines, engine_option_names, get_engine
from .db.schema import Schema
from .db.table import DBTable
from .enclave.costmodel import EnclaveCostModel
from .errors import BoundError, InputError
from .memory.monitor import run_hashed, run_logged
from .plan import WORKLOADS, available_executors
from .plan.executors import MAX_POOL_WORKERS
from .workloads.generators import matched_class


def _infer_table(path: str) -> DBTable:
    """Load a headered CSV, inferring int columns when every value parses."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise SystemExit(f"{path}: empty file")
    header, data = rows[0], rows[1:]

    def is_int(col: int) -> bool:
        try:
            for row in data:
                int(row[col])
        except (ValueError, IndexError):
            return False
        return True

    specs = [
        f"{name}:{'int' if is_int(i) else 'str'}" for i, name in enumerate(header)
    ]
    schema = Schema.of(*specs)
    typed = [
        tuple(
            int(value) if column.type == "int" else value
            for value, column in zip(row, schema.columns)
        )
        for row in data
    ]
    return DBTable(schema, typed)


def check_padding_args(padding: str, bound) -> None:
    """Reject ``--padding``/``--bound`` combinations that silently no-op.

    Shared by the CLI join command and the bench script: a bound without
    bounded padding would leave the trace fully revealed while the user
    believes it capped, and bounded padding without a bound has no public
    cap to pad to.
    """
    if bound is not None and padding != "bounded":
        raise SystemExit(
            f"--bound only applies with --padding bounded (got --padding {padding})"
        )
    if padding == "bounded" and bound is None:
        raise SystemExit("--padding bounded needs an explicit --bound")
    if bound is not None and bound < 0:
        raise SystemExit(f"--bound must be >= 0, got {bound}")


def engine_options(args: argparse.Namespace) -> dict:
    """Collect the engine knobs that were set on the command line.

    ``--workers``/``--shards``/``--executor`` configure the sharded engine;
    ``--padding``/``--bound`` configure padded execution on any engine.
    """
    options = {}
    if getattr(args, "workers", None) is not None:
        options["workers"] = args.workers
    if getattr(args, "shards", None) is not None:
        options["shards"] = args.shards
    if getattr(args, "executor", None) is not None:
        options["executor"] = args.executor
    if getattr(args, "padding", None) not in (None, "revealed"):
        options["padding"] = args.padding
    if getattr(args, "bound", None) is not None:
        options["bound"] = args.bound
    return options


def _parse_tree_edge(text: str, numeric: bool = False):
    """One join-tree edge token: ``PARENT:CHILD:PCOL:CCOL[:BAND]``.

    Tables are numbered by position (0 = first CSV / the root); columns are
    names on the ``join`` command and integer indices on ``plan``
    (``numeric=True``); ``BAND=w`` matches ``|parent - child| <= w``.
    """
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise SystemExit(
            f"join-tree edges are PARENT:CHILD:PCOL:CCOL[:BAND], got {text!r}"
        )
    try:
        parent, child = int(parts[0]), int(parts[1])
        band = int(parts[4]) if len(parts) == 5 else 0
        pcol = int(parts[2]) if numeric else parts[2]
        ccol = int(parts[3]) if numeric else parts[3]
    except ValueError:
        raise SystemExit(
            f"join-tree edge {text!r}: table indices"
            f"{' and columns' if numeric else ''} and BAND must be integers"
        )
    return (parent, child, pcol, ccol, band)


def _cmd_join(args: argparse.Namespace) -> int:
    check_padding_args(args.padding, args.bound)
    try:
        engine = ObliviousEngine(engine=args.engine, **engine_options(args))
        if args.join_tree:
            tables = [
                _infer_table(path)
                for path in [args.left, args.right, *args.tables]
            ]
            edges = [_parse_tree_edge(token) for token in args.join_tree]
            result = engine.join_tree(tables, edges)
        else:
            if args.tables:
                raise SystemExit(
                    "extra table arguments need --join-tree edge specs"
                )
            if args.left_on is None or args.right_on is None:
                raise SystemExit(
                    "--left-on and --right-on are required without --join-tree"
                )
            left = _infer_table(args.left)
            right = _infer_table(args.right)
            result = engine.join(left, right, on=(args.left_on, args.right_on))
    except BoundError as error:
        # The documented bounded-mode abort (a deliberate one-bit leak, see
        # docs/leakage.md) — a clean message, not a traceback.
        raise SystemExit(f"padding bound exceeded: {error}") from None
    except InputError as error:
        raise SystemExit(str(error)) from None
    writer = csv.writer(sys.stdout if args.output == "-" else open(args.output, "w", newline=""))
    writer.writerow(result.schema.names())
    for row in result.rows:
        writer.writerow(row)
    note = ""
    if args.padding != "revealed":
        note = f" (trace padded: {args.padding})"
    print(f"m = {len(result)} rows{note}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inputs = matched_class(args.n1, args.n2, seed=args.seed)
    hashes = []
    for workload in inputs:
        digest, count, _ = run_hashed(
            lambda t, w=workload: oblivious_join(w.left, w.right, tracer=t)
        )
        hashes.append(digest)
        print(f"{workload.name:10s} (n1={workload.n1}, n2={workload.n2}, "
              f"m={workload.m}): {digest[:40]}... [{count} accesses]")
    if len(set(hashes)) == 1:
        print("OBLIVIOUS: all trace hashes in the class are identical")
        return 0
    print("VIOLATION: trace hashes differ within one input class")
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    half = max(args.n // 2, 1)
    left = [(k, k) for k in range(half)]
    right = [(k, k + 100) for k in range(half)]
    events, result = run_logged(
        lambda t: oblivious_join(left, right, tracer=t)
    )
    raster = rasterize(events, width=args.width, height=args.height)
    print(f"join {half}x{half} -> m={result.m}: {len(events)} accesses")
    print(render_text(raster))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Compile and print a workload's public plan (no data touched).

    The serialization is a pure function of the sizes, the shard count and
    the padding bounds — ``tests/test_plan.py`` pins that — so the printed
    artifact is exactly what an adversary may learn from the eventual run.
    """
    check_padding_args(args.padding, args.bound)
    shapes = {}
    if args.n1 is not None:
        shapes["n1"] = args.n1
    if args.n2 is not None:
        shapes["n2"] = args.n2
    if args.n is not None:
        shapes["n"] = args.n
    if args.sizes is not None:
        shapes["sizes"] = args.sizes
    if getattr(args, "edges", None) is not None:
        shapes["edges"] = [
            _parse_tree_edge(token, numeric=True) for token in args.edges
        ]
    try:
        engine = get_engine(args.engine, **engine_options(args))
        plan = engine.compile_plan(args.workload, **shapes)
    except InputError as error:
        raise SystemExit(str(error)) from None
    if args.json:
        sys.stdout.write(plan.serialize().decode("utf-8") + "\n")
    else:
        print(plan.render())
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    for name in available_engines():
        engine = get_engine(name)
        lines = (type(engine).__doc__ or "").strip().splitlines()
        print(f"{name:10s} {lines[0] if lines else ''}".rstrip())
        options = engine_option_names(engine)
        if options:
            print(f"{'':10s} options: {', '.join(options)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    check_padding_args(args.padding, args.bound)
    from .service import ServiceEngine, run_server

    try:
        service = ServiceEngine(engine=args.engine, **engine_options(args))
        for token in args.table or []:
            name, _, path = token.partition("=")
            if not name or not path:
                raise SystemExit(f"--table takes NAME=CSV, got {token!r}")
            service.register_table(name, _infer_table(path))
    except InputError as error:
        raise SystemExit(str(error)) from None
    run_server(service, host=args.host, port=args.port)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceClient, ServiceError

    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            for token in args.register or []:
                name, _, path = token.partition("=")
                if not name or not path:
                    raise SystemExit(f"--register takes NAME=CSV, got {token!r}")
                rows = client.register_table(name, _infer_table(path))
                print(f"registered {name}: {rows} rows", file=sys.stderr)
            if args.query is not None:
                try:
                    spec = json.loads(args.query)
                except json.JSONDecodeError as error:
                    raise SystemExit(f"--query is not valid JSON: {error}")
                table, stats = client.query(spec)
                writer = csv.writer(sys.stdout)
                writer.writerow(table.schema.names())
                for row in table.rows:
                    writer.writerow(row)
                print(json.dumps(stats), file=sys.stderr)
            if args.stats:
                print(json.dumps(client.stats(), indent=2))
            if args.shutdown:
                client.shutdown()
                print("server shut down", file=sys.stderr)
            if not (args.register or args.query or args.stats or args.shutdown):
                client.ping()
                print("pong", file=sys.stderr)
    except ServiceError as error:
        raise SystemExit(f"server error ({error.kind}): {error}") from None
    except OSError as error:
        raise SystemExit(
            f"cannot reach {args.host}:{args.port}: {error}"
        ) from None
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = EnclaveCostModel()
    point = model.figure8_point(args.n)
    print(f"predicted runtimes at n = {args.n:,} (m ~ n1 = n2 = n/2):")
    for variant, seconds in point.items():
        print(f"  {variant:22s} {seconds:10.3f} s")
    knee = model.epc_knee_input_size()
    print(f"EPC paging knee at n ~ {knee:,}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Oblivious database joins (VLDB 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    join = sub.add_parser("join", help="oblivious equi-join of two CSV files")
    join.add_argument("left")
    join.add_argument("right")
    join.add_argument(
        "tables",
        nargs="*",
        help="additional CSV tables (indices 2, 3, ... for --join-tree)",
    )
    join.add_argument("--left-on", default=None, help="left join column")
    join.add_argument("--right-on", default=None, help="right join column")
    join.add_argument(
        "--join-tree",
        nargs="+",
        default=None,
        metavar="EDGE",
        dest="join_tree",
        help="acyclic multiway join: tree edges PARENT:CHILD:PCOL:CCOL[:BAND] "
        "over the tables by position (0 = first CSV, the root); column names "
        "from each table's header; BAND=w matches |parent - child| <= w; "
        "replaces --left-on/--right-on",
    )
    join.add_argument("--output", default="-", help="output CSV ('-' = stdout)")
    join.add_argument(
        "--engine",
        default="traced",
        choices=available_engines(),
        help="execution engine: 'traced' = per-access-traced reference, "
        "'vector' = numpy fast path, 'sharded' = multi-threaded scale-out; "
        "identical results (default: traced)",
    )
    join.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sharded engine: thread-pool size (default: 1 = inline)",
    )
    join.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="sharded engine: at most K blocks per sort, each >= 2^16 rows "
        "unless fewer would pad to more comparators (default: workers, min 2)",
    )
    join.add_argument(
        "--executor",
        default=None,
        choices=available_executors(),
        help="sharded engine: execution substrate — 'inline' (calling "
        f"thread), 'pool' (persistent thread pool, at most {MAX_POOL_WORKERS} "
        "threads), 'shuffle' (inline compute, adversarially shuffled execution "
        "order — validates that no task depends on it); default: inline at "
        "--workers 1, pool above",
    )
    join.add_argument(
        "--padding",
        default="revealed",
        choices=PADDING_MODES,
        help="output-size padding: 'revealed' leaks m (default), 'bounded' "
        "pads the trace to --bound, 'worst_case' pads to n1*n2; the CSV "
        "output is compacted either way (see docs/leakage.md)",
    )
    join.add_argument(
        "--bound",
        type=int,
        default=None,
        help="public output bound for --padding bounded",
    )
    join.set_defaults(func=_cmd_join)

    plan = sub.add_parser(
        "plan",
        help="compile and print a query's public plan (no data touched)",
    )
    plan.add_argument(
        "--workload",
        default="join",
        choices=WORKLOADS,
        help="which workload to compile (default: join)",
    )
    plan.add_argument(
        "--engine",
        default="vector",
        choices=available_engines(),
        help="engine whose schedule to compile (default: vector)",
    )
    plan.add_argument("--n1", type=int, default=None, help="left table size")
    plan.add_argument("--n2", type=int, default=None, help="right table size")
    plan.add_argument(
        "--n", type=int, default=None, help="table size (filter/group_by/order_by)"
    )
    plan.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="table sizes of a multiway cascade (one per table)",
    )
    plan.add_argument(
        "--edges",
        nargs="+",
        default=None,
        metavar="EDGE",
        help="join-tree edges PARENT:CHILD:PCOL:CCOL[:BAND] with integer "
        "column indices (--workload join_tree, together with --sizes)",
    )
    plan.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="sharded engine: at most K blocks per sort, each >= 2^16 rows "
        "unless fewer would pad to more comparators (default: 2)",
    )
    plan.add_argument(
        "--padding",
        default="revealed",
        choices=PADDING_MODES,
        help="padding mode to compile for (default: revealed; sizes the "
        "plan cannot fix at compile time print as null)",
    )
    plan.add_argument(
        "--bound",
        type=int,
        default=None,
        help="public output bound for --padding bounded",
    )
    plan.add_argument(
        "--json",
        action="store_true",
        help="print the canonical serialization instead of the rendering "
        "(byte equality of this output is plan equality)",
    )
    plan.set_defaults(func=_cmd_plan)

    verify = sub.add_parser("verify", help="trace-equality experiment (§6.1)")
    verify.add_argument("--n1", type=int, default=8)
    verify.add_argument("--n2", type=int, default=8)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    trace = sub.add_parser("trace", help="Figure-7-style access raster")
    trace.add_argument("--n", type=int, default=8, help="total input size")
    trace.add_argument("--width", type=int, default=100)
    trace.add_argument("--height", type=int, default=30)
    trace.set_defaults(func=_cmd_trace)

    predict = sub.add_parser("predict", help="Figure-8 enclave predictions")
    predict.add_argument("--n", type=int, default=1_000_000)
    predict.set_defaults(func=_cmd_predict)

    engines = sub.add_parser("engines", help="list registered execution engines")
    engines.set_defaults(func=_cmd_engines)

    serve = sub.add_parser(
        "serve",
        help="start the query service (warm engine + encoding cache + warm pool)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free one; the chosen port is "
        "printed as 'listening on HOST:PORT')",
    )
    serve.add_argument(
        "--engine",
        default="vector",
        choices=available_engines(),
        help="engine every query runs on (default: vector)",
    )
    serve.add_argument(
        "--table",
        action="append",
        default=None,
        metavar="NAME=CSV",
        help="preload a table (repeatable); clients can also register "
        "tables over the wire",
    )
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument("--shards", type=int, default=None)
    serve.add_argument(
        "--executor", default=None, choices=available_executors()
    )
    serve.add_argument("--padding", default="revealed", choices=PADDING_MODES)
    serve.add_argument("--bound", type=int, default=None)
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="talk to a running query server (register/query/stats/shutdown)",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument(
        "--register",
        action="append",
        default=None,
        metavar="NAME=CSV",
        help="register a CSV as a named table (repeatable)",
    )
    client.add_argument(
        "--query",
        default=None,
        metavar="JSON",
        help="a query spec, e.g. "
        '\'{"op": "join", "left": "a", "right": "b", "on": ["k", "k"]}\'',
    )
    client.add_argument(
        "--stats", action="store_true", help="print service-level stats"
    )
    client.add_argument(
        "--shutdown", action="store_true", help="stop the server"
    )
    client.set_defaults(func=_cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
