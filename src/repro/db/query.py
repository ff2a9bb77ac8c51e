"""Oblivious query operators over :class:`~repro.db.table.DBTable`.

An :class:`ObliviousEngine` wires the relational layer to the oblivious
core: join keys are dictionary-encoded to ints, row payloads travel through
the oblivious operators as opaque handles (indices into the client-side row
catalogue), and every data-dependent rearrangement happens inside an
oblivious primitive.  What the adversary sees is the primitives' traces —
determined by table sizes and (deliberately revealed) result sizes only.

Every relational operator — join, multiway join, group-by, join-aggregate,
filter, order-by — runs on a pluggable execution engine from
:mod:`repro.engines` (``engine="traced"`` for the per-access-traced
reference, ``engine="vector"`` for the numpy fast path, ``engine="sharded"``
for the multi-threaded scale-out path; results are identical).  Engine knobs
pass straight through — including the sharded engine's execution substrate:
``ObliviousEngine(engine="sharded", workers=4, executor="pool")`` (see
:mod:`repro.plan.executors`).
``order_by`` is a *stable* sort (original row order breaks ties), which is
what keeps the permutation identical across engines.

Padded execution rides the same knobs:
``ObliviousEngine(engine="vector", padding="worst_case")`` (or
``padding="bounded", bound=...``) hides every intermediate size of
:meth:`ObliviousEngine.multiway_join` behind public bounds and pads single
joins to their bound too; the relational layer compacts the tagged dummy
rows out, so results stay bit-identical while only the *final* output size
is revealed.  See :mod:`repro.core.padding` and ``docs/leakage.md``.
"""

from __future__ import annotations

from typing import Callable

from ..core.join_tree import validate_join_tree
from ..core.padding import compact_pairs
from ..engines import Engine, get_engine
from ..errors import SchemaError
from ..memory.tracer import Tracer
from .encoding import DictionaryEncoder
from .encoding_cache import EncodingCache
from .schema import Column, Schema
from .table import DBTable, require_int_column


def _check_key_types(left: Column, right: Column) -> None:
    """Equi-join keys must share a type: a ``str`` key reaches the engine as
    dictionary codes, so an ``int`` key would meet codes, not values."""
    if left.type != right.type:
        raise SchemaError(
            f"join key columns {left.name!r} ({left.type}) and "
            f"{right.name!r} ({right.type}) have different types"
        )


class ObliviousEngine:
    """Executes relational operators with oblivious access patterns."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        engine: str | Engine = "traced",
        encoding_cache: EncodingCache | None = None,
        **engine_options,
    ) -> None:
        self.tracer = tracer or Tracer()
        self.encoder = DictionaryEncoder()
        # Encoder passes are cached per (table, version): a one-shot engine
        # pays each scan once, a long-lived one (the service layer's) skips
        # them on repeat queries.
        self.encoding = encoding_cache if encoding_cache is not None else EncodingCache()
        self.engine = get_engine(engine, **engine_options)

    # -- helpers -----------------------------------------------------------

    def _encode_key(self, table: DBTable, column: str) -> list[int]:
        return self.encoding.encoded_keys(table, column, self.encoder)

    def _join_input(self, table: DBTable, column: str):
        """One join side as ``(encoded key, row handle)`` pairs, in the form
        the engine reads without a rebuild.

        A store-backed table joining on an int column hands a numpy engine
        a :class:`~repro.store.StorePairs` descriptor instead of a
        materialised array: the engine's ``join`` scans each column's
        blocks once per call (``StorePairs.scan``), and a sharded sort
        ships the workers one int64 word per row (``str`` keys need the
        dictionary encoder, so they take the resident path).  Resident
        tables give the numpy engines the cached ``(n, 2)`` array;
        ``traced`` iterates tuples.
        """
        if self.engine.name in ("vector", "sharded"):
            if (
                hasattr(table, "store_pairs")
                and table.schema.column(column).type == "int"
            ):
                return table.store_pairs(column)
            return self.encoding.key_handle_pairs(table, column, self.encoder)
        keys = self._encode_key(table, column)
        return list(zip(keys, range(len(keys))))

    # -- operators ----------------------------------------------------------

    def join(
        self,
        left: DBTable,
        right: DBTable,
        on: tuple[str, str],
        prefixes: tuple[str, str] = ("l", "r"),
    ) -> DBTable:
        """Oblivious equi-join of two tables on ``on = (left_col, right_col)``.

        The result contains all columns of both inputs (clashing names get
        dotted prefixes).  Core algorithm: the paper's Algorithm 1.
        """
        _check_key_types(left.schema.column(on[0]), right.schema.column(on[1]))
        result = self.engine.join(
            self._join_input(left, on[0]),
            self._join_input(right, on[1]),
            tracer=self.tracer,
        )
        schema = left.schema.concat(right.schema, prefixes)
        # Padded engines append (-1, -1) dummy pairs after the real rows;
        # compaction is exact because real handles are >= 0 (and a no-op
        # for unpadded engines).
        rows = [
            left.rows[li] + right.rows[ri]
            for li, ri in compact_pairs(result.pairs)
        ]
        return DBTable(schema, rows)

    def filter(self, table: DBTable, predicate: Callable[[tuple], bool]) -> DBTable:
        """Oblivious selection: mark-and-compact, revealing only the count.

        ``predicate`` is evaluated on rows held in local memory; the engine
        compacts the survivor indices obliviously (a traced routing network,
        or the vector/sharded bitonic fast paths).
        """
        n = len(table)
        if n == 0:
            return DBTable(table.schema, [])
        mask = [bool(predicate(row)) for row in table.rows]
        kept = self.engine.filter_indices(mask, tracer=self.tracer)
        return DBTable(table.schema, [table.rows[i] for i in kept])

    def order_by(self, table: DBTable, columns: list[tuple[str, bool]]) -> DBTable:
        """Oblivious, *stable* ORDER BY via the engine's sort permutation.

        Rows equal on every sort column keep their input order; int columns
        ride the vector/sharded numpy networks, other types fall back to
        the traced network — the permutation is identical either way.
        """
        n = len(table)
        if n <= 1 or not columns:  # ordering by nothing is the identity
            return DBTable(table.schema, table.rows)
        indices = [table.schema.index(name) for name, _ in columns]
        key_columns = [
            ([row[idx] for row in table.rows], asc)
            for idx, (_, asc) in zip(indices, columns)
        ]
        permutation = self.engine.order_permutation(key_columns, tracer=self.tracer)
        return DBTable(table.schema, [table.rows[i] for i in permutation])

    def group_by(
        self, table: DBTable, key: str, value: str
    ) -> DBTable:
        """Oblivious GROUP BY ``key`` with count/sum/min/max over ``value``."""
        require_int_column(table, value)
        keys = self._encode_key(table, key)
        value_index = table.schema.index(value)
        pairs = [(k, row[value_index]) for k, row in zip(keys, table.rows)]
        groups = self.engine.group_by(pairs, tracer=self.tracer)
        key_type = table.schema.column(key).type
        schema = Schema.of(
            f"{key}:{key_type}", "count:int", f"sum_{value}:int",
            f"min_{value}:int", f"max_{value}:int",
        )
        rows = []
        for g in groups:
            key_value = g.j if key_type == "int" else self.encoder.decode(g.j)
            rows.append((key_value, g.count1, g.sum_d1, g.min_d1, g.max_d1))
        return DBTable(schema, rows)

    def join_aggregate(
        self,
        left: DBTable,
        right: DBTable,
        on: tuple[str, str],
        values: tuple[str, str],
    ) -> DBTable:
        """Grouped aggregates over a join *without* materialising it (§7).

        Returns per-key: the joined-pair count, SUM of each side's value
        over the joined rows, and SUM of their product — all computed in
        `O(n log^2 n)` independent of the join size.
        """
        _check_key_types(left.schema.column(on[0]), right.schema.column(on[1]))
        left_keys = self._encode_key(left, on[0])
        right_keys = self._encode_key(right, on[1])
        lv = require_int_column(left, values[0])
        rv = require_int_column(right, values[1])
        pairs_left = [(k, row[lv]) for k, row in zip(left_keys, left.rows)]
        pairs_right = [(k, row[rv]) for k, row in zip(right_keys, right.rows)]
        groups = self.engine.aggregate(pairs_left, pairs_right, tracer=self.tracer)
        key_type = left.schema.column(on[0]).type
        schema = Schema.of(
            f"{on[0]}:{key_type}", "pairs:int",
            f"sum_{values[0]}:int", f"sum_{values[1]}:int", "sum_product:int",
        )
        rows = []
        for g in groups:
            key_value = g.j if key_type == "int" else self.encoder.decode(g.j)
            rows.append(
                (key_value, g.pair_count, g.join_sum_d1, g.join_sum_d2,
                 g.join_sum_product)
            )
        return DBTable(schema, rows)

    def multiway_join(
        self,
        tables: list[DBTable],
        on: list[tuple[str, str]],
    ) -> DBTable:
        """Left-deep cascade of oblivious joins (§7): ``t0 ⋈ t1 ⋈ ...``.

        ``on[k] = (accumulated_col, next_col)`` names the key columns for
        step k; accumulated column names follow :meth:`join`'s prefixing.
        The cascade is *one* engine-level multiway join in every padding
        mode: rows travel through it as opaque tuples, ``str`` key columns
        dictionary-encoded in place and decoded again in the result, and
        no intermediate relation ever surfaces as a table — under padding,
        that is what keeps the intermediate sizes (and their dummy tails)
        hidden; only the final compacted result is returned.
        """
        if len(tables) < 2 or len(on) != len(tables) - 1:
            raise SchemaError("need k tables and k-1 key column pairs")
        keys, encoded, offsets, folded = self._multiway_key_plan(tables, on)
        # The canonical output order sorts by encoded key, so the order in
        # which codes are first assigned is part of the answer.  Pre-warm
        # them key column by key column: ``encoded_rows`` alone assigns
        # them row by row, which orders the values differently when one
        # table's two key columns share values (tests/test_cascade_pin.py).
        for owner, col in sorted(encoded):
            self.encoding.prewarm(tables[owner], col, self.encoder)
        return self._encoded_query(
            tables,
            encoded,
            offsets,
            folded,
            lambda rows: self.engine.multiway_join(rows, keys, tracer=self.tracer).rows,
        )

    def join_tree(self, tables: list[DBTable], tree) -> DBTable:
        """Acyclic multi-table join via the Yannakakis-style join tree.

        ``tree`` is the edge list: ``(parent, child, parent_col, child_col
        [, band])`` with tables indexed by position (table 0 the root) and
        key columns named (or given as indices).  ``band=w`` matches rows
        with ``|parent_key - child_key| <= w`` — the band/inequality
        predicate class the cascade cannot express.

        Unlike :meth:`multiway_join`, the engine pays **one** padding bound
        for the final output instead of one per binary step, and no
        intermediate relation is ever materialised; the result folds every
        table's full row in table order (same ``t<k>`` prefixing as the
        cascade), in the canonical join-tree slot order.
        """
        if len(tables) < 2:
            raise SchemaError("a join tree needs at least two tables")
        edges = []
        encoded: set[tuple[int, int]] = set()  # (table index, column index)
        for edge in tree:
            parts = tuple(edge)
            if len(parts) == 4:
                parts = parts + (0,)
            if len(parts) != 5:
                raise SchemaError(
                    "join-tree edges are (parent, child, parent_col, "
                    f"child_col[, band]) tuples, got {edge!r}"
                )
            parent, child, pcol, ccol, band = parts
            for node in (parent, child):
                if not 0 <= node < len(tables):
                    raise SchemaError(
                        f"join-tree edge references table {node}; "
                        f"only {len(tables)} tables were given"
                    )
            p_index = (
                tables[parent].schema.index(pcol) if isinstance(pcol, str) else pcol
            )
            c_index = (
                tables[child].schema.index(ccol) if isinstance(ccol, str) else ccol
            )
            key_columns = [
                tables[node].schema.columns[col]
                for node, col in ((parent, p_index), (child, c_index))
                if isinstance(col, int) and 0 <= col < len(tables[node].schema)
            ]
            # Any other column is left to the engine, which coerces or refuses it.
            if len(key_columns) == 2:
                _check_key_types(*key_columns)
                if band and key_columns[0].type == "str":
                    raise SchemaError(
                        "band predicates need int key columns; a distance over "
                        "dictionary codes has no meaning"
                    )
            edges.append((parent, child, p_index, c_index, band))
        # Refuse a malformed tree before any column is encoded.
        validate_join_tree([len(table.schema) for table in tables], edges)
        # The join-tree engines carry whole rows as int arrays (no opaque
        # payload handles like the cascade), so *every* str column is
        # dictionary-encoded — in base-table row order, which keeps the
        # codes and with them the canonical output order deterministic.
        for index, table in enumerate(tables):
            for col, column in enumerate(table.schema.columns):
                if column.type == "str":
                    encoded.add((index, col))
        offsets = [0]
        folded = tables[0].schema
        for index, table in enumerate(tables[1:], start=1):
            offsets.append(offsets[-1] + len(tables[index - 1].schema.columns))
            folded = folded.concat(table.schema, (f"t{index - 1}", f"t{index}"))
        return self._encoded_query(
            tables,
            encoded,
            offsets,
            folded,
            lambda rows: self.engine.join_tree(rows, edges, tracer=self.tracer).rows,
        )

    def _multiway_key_plan(self, tables: list[DBTable], on: list[tuple[str, str]]):
        """Resolve a cascade's key columns against the folding schemas.

        Returns ``(keys, encoded, offsets, folded)``: per-step global/local
        key indices, the ``(table, column)`` pairs needing dictionary
        encoding, each table's column offset in the folded row, and the
        final folded schema (same ``t<k>`` prefixing as the join loop).
        """
        offsets = [0]
        for table in tables:
            offsets.append(offsets[-1] + len(table.schema.columns))
        folded = tables[0].schema
        keys: list[tuple[int, int]] = []
        encoded: set[tuple[int, int]] = set()  # (table index, column index)
        for step, next_table in enumerate(tables[1:]):
            left_index = folded.index(on[step][0])
            right_index = next_table.schema.index(on[step][1])
            _check_key_types(
                folded.columns[left_index], next_table.schema.columns[right_index]
            )
            keys.append((left_index, right_index))
            owner = max(t for t in range(len(tables)) if offsets[t] <= left_index)
            owner_col = left_index - offsets[owner]
            if tables[owner].schema.columns[owner_col].type == "str":
                encoded.add((owner, owner_col))
            if next_table.schema.columns[right_index].type == "str":
                encoded.add((step + 1, right_index))
            folded = folded.concat(
                next_table.schema, (f"t{step}", f"t{step + 1}")
            )
        return keys, encoded, offsets, folded

    def _encoded_query(self, tables, encoded, offsets, folded, run) -> DBTable:
        """Run ``run`` over every table's rows with the ``(table, column)``
        pairs in ``encoded`` dictionary-encoded in place, and decode those
        columns (at ``offsets``) in the folded rows it returns."""
        rows_per_table = [
            self.encoding.encoded_rows(
                table,
                {col for owner, col in encoded if owner == index},
                self.encoder,
            )
            for index, table in enumerate(tables)
        ]
        decode_positions = {offsets[owner] + col for owner, col in encoded}
        rows = [
            tuple(
                self.encoder.decode(value) if pos in decode_positions else value
                for pos, value in enumerate(row)
            )
            for row in run(rows_per_table)
        ]
        return DBTable(folded, rows)
