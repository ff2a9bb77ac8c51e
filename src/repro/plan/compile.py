"""Compilers: public workload shapes -> :class:`~repro.plan.ir.Plan`.

One compiler per workload (join / multiway cascade / aggregate / group-by /
filter / order-by), each a *pure function of public values* — input sizes,
the shard count ``k``, and the padding bounds.  They reuse the padding
planner (:mod:`repro.core.padding`: ``join_bound`` / ``cascade_bounds``)
and the partitioner's plan functions (:mod:`repro.shard.partition`:
``partition_plan``), so a compiled plan and the engine that executes it
agree by construction.

Two levels of entry point:

* the ``*_plan`` functions take already resolved bounds (``target`` /
  ``bounds`` arguments) and the shard count ``k``: each compiles the
  ``vector`` text's pipeline and, under ``k``, expands every sort in it
  into a sharded sort (``partition`` -> ``shard_sort`` x ``blocks(n, k)``
  -> ``merge_pair`` bracket; ``k`` is a cap);
* :func:`compile_workload` (and the per-workload ``compile_*`` wrappers)
  additionally resolve a ``padding`` mode + ``bound`` cap into bounds and
  an engine name into ``k`` (:func:`_plan_shards`, the only place an
  engine's name decides anything), and are what the engines'
  ``compile_plan`` method and the CLI ``plan`` subcommand call.

Everywhere, an attribute value of ``None`` means "not fixed at compile
time": the size will be *revealed* at run time, which is exactly the
``"revealed"`` padding mode's documented leak.  Under
``"bounded"``/``"worst_case"`` every size is resolved up front, so the
serialized plan — and therefore the execution schedule — is a function of
``(sizes, k, bounds)`` alone.
"""

from __future__ import annotations

from functools import partial

from ..core.join_tree import (
    child_edge_indices,
    join_tree_bound,
    topdown_edge_order,
    validate_join_tree,
)
from ..core.padding import cascade_bounds, check_padding, join_bound
from ..errors import InputError
from ..vector.aggregate import aggregate_keys
from ..vector.join import align_keys, augment_keys, expand_keys
from ..vector.join_tree import prefix_keys, stab_keys
from ..vector.relational import filter_keys, order_keys
from ..vector.sort import Key
from .ir import Plan, PlanBuilder, tournament_schedule
from .partition import block_count, blocks, check_shards, partition_plan, word_passes

#: Workload names `compile_workload` accepts.
WORKLOADS = (
    "join",
    "multiway",
    "join_tree",
    "aggregate",
    "group_by",
    "filter",
    "order_by",
)

# -- merge tournaments -------------------------------------------------------


def _add_merge_tournament(
    builder: PlanBuilder,
    leaves: tuple[int, ...],
    run_lengths,
    stage: str,
) -> int:
    """Emit one ``merge_pair`` node per tournament pairing; returns the root.

    The pairing schedule comes from :func:`~repro.plan.ir.tournament_schedule`
    — the same pure function :func:`repro.shard.merge.oblivious_merge_runs`
    walks round by round — so a plan's ``merge_pair`` nodes *are* the
    bracket the drivers execute, with carries (odd tail runs) skipping
    straight to the next round without a node (they execute zero
    comparators).  ``run_lengths=None`` compiles
    the bracket structure with run-time-revealed lengths (``rows=None``).
    """
    current = list(leaves)
    schedule = tournament_schedule(len(leaves), run_lengths)
    rnd = 0
    nxt: list[int] = []
    for node in schedule:
        if node.round != rnd:
            if rnd:
                current = nxt
            nxt = []
            rnd = node.round
        if node.is_carry:
            nxt.append(current[node.left])
            continue
        nxt.append(
            builder.add(
                "merge_pair",
                inputs=(current[node.left], current[node.right]),
                stage=stage,
                round=node.round,
                slot=node.slot,
                left_rows=node.left_rows,
                right_rows=node.right_rows,
                rows=node.rows,
            )
        )
    if schedule:
        current = nxt
    return current[0]


def _add_sharded_sort(
    builder: PlanBuilder,
    inputs: tuple[int, ...],
    n: int | None,
    k: int,
    stage: str,
    keys: list[Key],
) -> int:
    """Emit one sharded sort of ``n`` rows by ``keys``; returns its root node.

    ``partition`` into ``blocks(n, k)`` positional blocks, one ``shard_sort``
    per block, then the ``merge_pair`` bracket — the public schedule of
    :func:`repro.shard.sort.sharded_sort`, a function of ``(n, k)`` and the
    key widths.  The partition's ``passes`` is how many times that subgraph
    runs, one stable one-word pass each.  ``n=None`` is a size revealed at
    run time: its passes are not compiled, nor its blocks unless fixed.
    """
    count = blocks(n, k)
    capacity, counts = (None, None) if n is None else partition_plan(n, count)
    part = builder.add(
        "partition",
        inputs=inputs,
        stage=stage,
        n=n,
        k=count,
        capacity=capacity,
        counts=counts,
        passes=None if n is None else word_passes(keys, n),
    )
    if count is None:
        return part
    sorts = tuple(
        builder.add(
            "shard_sort",
            inputs=(part,),
            stage=stage,
            shard=i,
            rows=None if counts is None else counts[i],
        )
        for i in range(count)
    )
    return _add_merge_tournament(builder, sorts, counts, stage)


def _through_sorts(builder: PlanBuilder, k: int | None, inputs, *sorts):
    """``inputs`` through the sorts ``(stage, rows, keys)`` one node of the
    ``vector`` text runs: unchanged inline (the node's op implies them),
    the last sharded sort's merge root under ``k``."""
    for stage, n, keys in sorts if k is not None else ():
        inputs = (_add_sharded_sort(builder, inputs, n, k, stage, keys),)
    return inputs


def _shard_shape(k: int | None) -> dict:
    """A plan's ``k`` shape, checked: only when its sorts are sharded."""
    return {} if k is None else {"k": check_shards(k)}


def _deferred_join_plan(engine: str, n2: int, k: int | None) -> Plan:
    """A one-node stand-in for an unpadded cascade step's join, whose left
    size the previous step reveals at run time."""
    builder = PlanBuilder("join", engine)
    builder.add("join_deferred", n1=None, n2=n2, target=None, **_shard_shape(k))
    return builder.build()


# -- join --------------------------------------------------------------------


def join_plan(
    engine: str,
    n1: int,
    n2: int,
    target: int | None,
    k: int | None = None,
    block_rows: tuple[int | None, int | None] = (None, None),
) -> Plan:
    """Algorithm 1 as a linear pipeline at public sizes; under ``k`` each
    of its five sorts expanded into a sharded sort.

    ``target`` is the padded output bound (``None`` = unpadded; the
    expansion sizes are then the revealed ``m``).  Padded runs append one
    anchor row per input, hence the ``+ 1`` input sizes.  The two augment
    sorts run at ``n1 + n2`` rows (plus the two anchors under padding),
    the expansion sorts at ``max(n_i, target)`` and the align sort at
    ``target`` — ``None`` throughout when ``target`` is, the revealed
    ``m``.  Everything is a function of ``(n1, n2, k, target)``.

    ``block_rows`` is the per-side rows-per-block of store-backed inputs
    (``None`` per resident side; left out of the shapes when both are, so
    that resident plan bytes do not know the store exists): such an
    ``input`` node names the blocks the scan reads,
    ``0 … ceil(n / block_rows) - 1`` in order, a function of
    ``(n, block_rows)``.
    """
    shapes: dict = {"n1": n1, "n2": n2, **_shard_shape(k), "target": target}
    if tuple(block_rows) != (None, None):
        shapes["block_rows"] = block_rows
    builder = PlanBuilder("join", engine, **shapes)
    extra = 0 if target is None else 1
    inputs = []
    for side, n, rows_per_block in zip(("left", "right"), (n1, n2), block_rows):
        scan: dict = {}
        if rows_per_block is not None:
            scan = {
                "block_rows": rows_per_block,
                "blocks": tuple(range(block_count(n, rows_per_block))),
            }
        inputs.append(builder.add("input", side=side, rows=n + extra, **scan))
    total = n1 + n2 + 2 * extra
    # The five sorts' keys, from repro.vector.join; m's width is unused while
    # m is revealed.
    sorted_by = partial(_through_sorts, builder, k)
    first, second = augment_keys(total)
    ordered = sorted_by(
        tuple(inputs), ("augment_sort1", total, first), ("augment_sort2", total, second)
    )
    augment = builder.add("augment", inputs=ordered, rows=total)
    expands = []
    keys = expand_keys(target or 0)
    for index, (side, n) in enumerate((("left", n1), ("right", n2)), start=1):
        size = None if target is None else max(n + extra, target)
        ordered = sorted_by((augment,), (f"expand{index}_sort", size, keys))
        expands.append(builder.add("expand", inputs=ordered, side=side, rows=target))
    ordered = sorted_by((expands[1],), ("align_sort", target, align_keys(target or 0)))
    align = builder.add("align", inputs=ordered, rows=target)
    builder.add("zip", inputs=(expands[0], align), rows=target)
    return builder.build()


# -- aggregate / group-by / filter / order-by ---------------------------------


def _sorted_by(
    builder: PlanBuilder, inputs, k: int | None, stage: str, n: int, keys, op: str = "sort"
) -> int:
    """``inputs`` through one sort of the ``vector`` text: an inline ``op``
    node, or under ``k`` that sort sharded by its key list."""
    if k is None:
        return builder.add(op, inputs=inputs, rows=n)
    return _add_sharded_sort(builder, inputs, n, k, stage, keys)


def aggregate_plan(
    engine: str, workload: str, n1: int, n2: int, k: int | None = None
) -> Plan:
    """Aggregation at ``n1 + n2`` rows: sort, segmented reduce, and (under
    ``k``) each of the text's two sorts sharded by
    :func:`~repro.vector.aggregate.aggregate_keys` — stages
    ``aggregate_sort`` / ``aggregate_compact``, or ``groupby_*``."""
    builder = PlanBuilder(workload, engine, n1=n1, n2=n2, **_shard_shape(k))
    left = builder.add("input", side="left", rows=n1)
    right = builder.add("input", side="right", rows=n2)
    prefix = "groupby" if workload == "group_by" else "aggregate"
    group_keys, compact_keys = aggregate_keys()
    n = n1 + n2
    sort = _sorted_by(builder, (left, right), k, f"{prefix}_sort", n, group_keys)
    reduce = builder.add("reduce", inputs=(sort,), rows=n)
    if k is not None:
        _add_sharded_sort(builder, (reduce,), n, k, f"{prefix}_compact", compact_keys)
    return builder.build()


def filter_plan(engine: str, n: int, k: int | None = None) -> Plan:
    """Order-preserving compaction of ``n`` mask cells; under ``k`` its sort
    sharded by :func:`~repro.vector.relational.filter_keys`, stage
    ``filter_compact``."""
    builder = PlanBuilder("filter", engine, n=n, **_shard_shape(k))
    mask = builder.add("input", side="mask", rows=n)
    _sorted_by(builder, (mask,), k, "filter_compact", n, filter_keys(n), op="compact")
    return builder.build()


def order_plan(engine: str, n: int, k: int | None = None, columns: int = 1) -> Plan:
    """A stable sort of ``n`` rows; under ``k`` sharded by
    :func:`~repro.vector.relational.order_keys` (their directions do not
    change the plan), stage ``order``."""
    shapes: dict = {"n": n, **_shard_shape(k)}
    if k is not None:
        shapes["columns"] = columns
    builder = PlanBuilder("order_by", engine, **shapes)
    rows = builder.add("input", side="keys", rows=n)
    _sorted_by(builder, (rows,), k, "order", n, order_keys([True] * columns, n))
    return builder.build()


# -- multiway ----------------------------------------------------------------


def multiway_step_shapes(
    sizes: list[int], bounds: tuple[int, ...]
) -> list[tuple[int | None, int, int | None]]:
    """Per-step ``(left_size, right_size, target)`` of a padded cascade.

    The left input of step ``s`` is the previous step's *bound* (the padded
    intermediate never reveals its true size); unpadded cascades
    (``bounds == ()``) have data-dependent left sizes from step 1 on, so
    those come back ``None``.
    """
    shapes: list[tuple[int | None, int, int | None]] = []
    for step in range(len(sizes) - 1):
        if bounds:
            left = sizes[0] if step == 0 else bounds[step - 1]
            shapes.append((left, sizes[step + 1], bounds[step]))
        else:
            left = sizes[0] if step == 0 else None
            shapes.append((left, sizes[step + 1], None))
    return shapes


def multiway_plan(
    sizes: list[int],
    engine: str,
    bounds: tuple[int, ...] = (),
    k: int | None = None,
) -> Plan:
    """A whole cascade's public schedule: one embedded join plan per step.

    ``bounds`` comes from :func:`repro.core.padding.cascade_bounds` (empty
    = unpadded).  The per-step sub-plans are the binary join's own plans
    (under ``k``, with every sort sharded), whose sort keys are the join
    text's key lists, so the cascade artifact and the executed schedule
    cannot drift apart.
    """
    if len(sizes) < 2:
        raise InputError("a multiway plan needs at least two table sizes")
    if bounds and len(bounds) != len(sizes) - 1:
        raise InputError(
            f"{len(sizes) - 1}-step cascade needs {len(sizes) - 1} bounds, "
            f"got {len(bounds)}"
        )
    builder = PlanBuilder(
        "multiway", engine, sizes=tuple(sizes), bounds=tuple(bounds), **_shard_shape(k)
    )
    last: tuple[int, ...] = ()
    for step, (left, right, target) in enumerate(
        multiway_step_shapes(sizes, bounds)
    ):
        if left is None:
            sub = _deferred_join_plan(engine, right, k)
        else:
            sub = join_plan(engine, left, right, target, k)
        last = builder.embed(sub, step=step)
    builder.add("compact", inputs=(last[-1],) if last else ())
    return builder.build()


# -- join tree ---------------------------------------------------------------


def join_tree_sizes(tables) -> tuple[int, ...]:
    """Public per-table sizes from either a table list or a size list."""
    sizes = []
    for entry in tables:
        if isinstance(entry, bool):
            raise InputError(f"join-tree sizes must be ints, got {entry!r}")
        if isinstance(entry, int):
            if entry < 0:
                raise InputError(f"table sizes must be >= 0, got {entry}")
            sizes.append(entry)
        else:
            sizes.append(len(entry))
    return tuple(sizes)


def _plan_tree(sizes, edges):
    """Validate a tree given only sizes; returns ``(edges, children, order)``.

    The plan layer never sees table widths, so key columns are validated
    against the widest width any edge implies — the table-level drivers
    re-validate against the real widths.
    """
    from ..core.join_tree import normalize_edges

    edges = normalize_edges(edges)
    count = len(sizes)
    widths = [1] * count
    for edge in edges:
        if 0 <= edge.parent < count:
            widths[edge.parent] = max(widths[edge.parent], edge.parent_col + 1)
        if 0 <= edge.child < count:
            widths[edge.child] = max(widths[edge.child], edge.child_col + 1)
    edges = validate_join_tree(widths, edges)
    return edges, child_edge_indices(edges), topdown_edge_order(edges, count)


def _edge_shapes(edges) -> tuple:
    return tuple(
        (e.parent, e.child, e.parent_col, e.child_col, e.band) for e in edges
    )


def join_tree_plan(
    engine: str, sizes, edges, target: int | None, k: int | None = None
) -> Plan:
    """A join tree's schedule at public sizes.

    One ``multiplicity`` node per edge (bottom-up, deepest first — size
    ``2 * n_parent + n_child``: two band endpoints per parent row plus the
    child markers), one ``finalize`` per internal node, one
    ``distribute_expand`` stab per node over the slot space, and the final
    ``align_concat``.  ``target=None`` (revealed mode) leaves the
    slot-space sizes to be revealed at run time (``rows=None``).

    ``k`` (the sharded engine) expands every sort
    :func:`repro.vector.join_tree.vector_join_tree` runs into a sharded
    sort by that text's own key list, on the edge or node the sort serves
    — stage ``multiplicity.e<edge>.prefix|stab|unstab``,
    ``finalize.e<edge>`` (the child's marker sort) and
    ``distribute_expand.n<node>.stab|unstab`` — so a stage's prefix is the
    phase whose comparators it counts.  Every size is a function of
    ``(sizes, tree, k, target)``; the slot-space sorts' are ``None`` while
    the slot space is the revealed ``M``.
    """
    sizes = tuple(int(n) for n in sizes)
    edges, children, order = _plan_tree(sizes, edges)
    builder = PlanBuilder(
        "join_tree", engine, sizes=sizes, edges=_edge_shapes(edges), target=target,
        **_shard_shape(k),
    )

    sorted_by = partial(_through_sorts, builder, k)

    def stab(stage: str, size: int | None, tags: int):
        keys = stab_keys(size or 0, tags)
        return (f"{stage}.stab", size, keys[0]), (f"{stage}.unstab", size, keys[1])

    inputs = tuple(
        builder.add("input", table=v, rows=sizes[v]) for v in range(len(sizes))
    )
    mult: dict[int, int] = {}
    for e in reversed(order):
        edge = edges[e]
        n_c = sizes[edge.child]
        size = 2 * sizes[edge.parent] + n_c
        child = sorted_by(
            (inputs[edge.child],) + tuple(mult[e2] for e2 in children.get(edge.child, ())),
            (f"multiplicity.e{e}.prefix", n_c, prefix_keys(n_c)),
        )
        mult[e] = builder.add(
            "multiplicity",
            inputs=sorted_by(
                (inputs[edge.parent],) + child, *stab(f"multiplicity.e{e}", size, 3)
            ),
            edge=e,
            band=edge.band,
            rows=size,
        )
    fin: dict[int, int] = {}
    for v in range(len(sizes)):
        kids = children.get(v, ())
        if kids:
            fin[v] = builder.add(
                "finalize",
                inputs=tuple(mult[e] for e in kids),
                node=v,
                rows=sizes[v],
            )
    extra = 0 if target is None else 1  # the root's padding anchor
    size = None if target is None else target + sizes[0] + extra
    expand: dict[int, int] = {}
    expand[0] = builder.add(
        "distribute_expand",
        inputs=sorted_by(
            (inputs[0],) + ((fin[0],) if 0 in fin else ()),
            *stab("distribute_expand.n0", size, 2),
        ),
        node=0,
        rows=size,
    )
    for e in order:
        c = edges[e].child
        size = None if target is None else target + sizes[c]
        markers = sorted_by(
            (inputs[c],) + ((fin[c],) if c in fin else ()),
            (f"finalize.e{e}", sizes[c], prefix_keys(sizes[c])),
        )
        expand[c] = builder.add(
            "distribute_expand",
            inputs=sorted_by(
                (expand[edges[e].parent],) + markers,
                *stab(f"distribute_expand.n{c}", size, 2),
            ),
            node=c,
            edge=e,
            rows=size,
        )
    builder.add(
        "align_concat",
        inputs=tuple(expand[v] for v in range(len(sizes))),
        rows=target,
    )
    return builder.build()


def compile_join_tree(
    tables,
    tree,
    engine: str = "vector",
    *,
    shards: int | None = None,
    padding: str | None = None,
    bound=None,
) -> Plan:
    """Compile a join tree's plan, resolving ``padding`` into one bound.

    ``tables`` may be the tables themselves or just their sizes — only the
    sizes enter the plan, which is a pure function of
    ``(sizes, tree, k, padding, bound)``.  ``tree`` is the edge list
    (``(parent, child, parent_col, child_col[, band])``).
    """
    sizes = join_tree_sizes(tables)
    target = join_tree_bound(sizes, padding, bound)
    return join_tree_plan(engine, sizes, tree, target, _plan_shards(engine, shards))


# -- mode-resolving front door ----------------------------------------------


def compile_join(
    n1: int,
    n2: int,
    engine: str = "vector",
    *,
    shards: int | None = None,
    padding: str | None = None,
    bound=None,
    target_m: int | None = None,
) -> Plan:
    """Compile a binary join's plan, resolving ``padding`` into a bound."""
    target = target_m if target_m is not None else join_bound(n1, n2, padding, bound)
    return join_plan(engine, n1, n2, target, _plan_shards(engine, shards))


def compile_multiway(
    sizes: list[int],
    engine: str = "vector",
    *,
    shards: int | None = None,
    padding: str | None = None,
    bound=None,
) -> Plan:
    bounds = cascade_bounds(list(sizes), padding, bound)
    k = _plan_shards(engine, shards)
    return multiway_plan(list(sizes), engine, bounds=bounds, k=k)


def _plan_shards(engine: str, shards: int | None) -> int | None:
    """The ``k`` an engine's sorts are sharded into: the sharded engine's
    (default 2), ``None`` for ``traced`` and ``vector``, whose sorts run
    whole.  The only engine input the compilers read."""
    if engine == "sharded":
        return shards if shards is not None else 2
    if engine not in ("traced", "vector"):
        raise InputError(f"no plan compiler for engine {engine!r}")
    return None


def compile_aggregate(
    n1: int,
    n2: int,
    engine: str = "vector",
    *,
    workload: str = "aggregate",
    shards: int | None = None,
    padding: str | None = None,
) -> Plan:
    check_padding(padding)
    return aggregate_plan(engine, workload, n1, n2, _plan_shards(engine, shards))


def compile_filter(
    n: int,
    engine: str = "vector",
    *,
    shards: int | None = None,
    padding: str | None = None,
) -> Plan:
    check_padding(padding)
    return filter_plan(engine, n, _plan_shards(engine, shards))


def compile_order_by(
    n: int, engine: str = "vector", *, shards: int | None = None, columns: int = 1
) -> Plan:
    return order_plan(engine, n, _plan_shards(engine, shards), columns)


def compile_workload(
    workload: str,
    engine: str = "vector",
    *,
    n1: int | None = None,
    n2: int | None = None,
    n: int | None = None,
    sizes: list[int] | None = None,
    edges=None,
    shards: int | None = None,
    padding: str | None = None,
    bound=None,
    columns: int = 1,
) -> Plan:
    """Dispatch to the right compiler from CLI-shaped arguments."""
    if workload not in WORKLOADS:
        raise InputError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    for size in (n1, n2, n, *(sizes or ())):
        if isinstance(size, int) and size < 0:
            raise InputError(f"table sizes must be >= 0, got {size}")
    if workload == "join_tree":
        if not sizes:
            raise InputError("join_tree plans need sizes (one per table)")
        if not edges:
            raise InputError(
                "join_tree plans need edges "
                "((parent, child, parent_col, child_col[, band]) per edge)"
            )
        return compile_join_tree(
            list(sizes), edges, engine, shards=shards, padding=padding, bound=bound
        )
    if workload == "join":
        if n1 is None or n2 is None:
            raise InputError("join plans need n1 and n2")
        return compile_join(
            n1, n2, engine, shards=shards, padding=padding, bound=bound
        )
    if workload == "multiway":
        if not sizes:
            raise InputError("multiway plans need sizes (one per table)")
        return compile_multiway(
            sizes, engine, shards=shards, padding=padding, bound=bound
        )
    if workload == "aggregate":
        if n1 is None or n2 is None:
            raise InputError("aggregate plans need n1 and n2")
        return compile_aggregate(
            n1, n2, engine, shards=shards, padding=padding
        )
    if workload == "group_by":
        if n is None:
            raise InputError("group_by plans need n")
        return compile_aggregate(
            n, 0, engine, workload="group_by", shards=shards, padding=padding
        )
    if workload == "filter":
        if n is None:
            raise InputError("filter plans need n")
        return compile_filter(n, engine, shards=shards, padding=padding)
    if n is None:
        raise InputError("order_by plans need n")
    return compile_order_by(n, engine, shards=shards, columns=columns)
