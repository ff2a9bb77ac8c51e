"""Pipeline vocabulary: stage descriptors and the result of running a chain.

A *pipeline* is an operator chain ``source -> [filter] -> join | multiway |
group_by | order_by ...`` that :meth:`PaddingOptionsMixin.pipeline
<repro.engines.base.PaddingOptionsMixin.pipeline>` runs one operator at a
time on any engine.  :func:`check_pipeline_stages` validates the
data-carrying stage tuples and reduces them to the shape-only descriptors
:func:`repro.plan.compile.compile_pipeline` compiles, so the chain's plan
is a pure function of the stage *shapes*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.aggregate import GroupAggregate
from ..errors import InputError
from ..plan.compile import PIPELINE_OPS
from ..plan.ir import Plan


@dataclass
class PipelineStats:
    """Cost/schedule record of one pipeline run.

    ``plan`` is the full compiled DAG (every stage's sub-plan plus the
    channel nodes) of the chain; ``sizes`` the revealed output size after
    every stage (the source size first).
    """

    plan: Plan | None = None
    sizes: list[int] = field(default_factory=list)


@dataclass
class PipelineResult:
    """One pipeline's output: rows, or groups for group-by-terminal chains.

    ``sizes`` mirrors ``stats.sizes`` (the revealed per-stage sizes —
    the same values the operator-at-a-time path reveals one call at a
    time); ``stats.plan`` is the executed DAG plan end to end.
    """

    rows: list[tuple] | None
    groups: list[GroupAggregate] | None
    sizes: list[int]
    stats: PipelineStats

    def __len__(self) -> int:
        return len(self.groups if self.groups is not None else self.rows)


def check_pipeline_stages(stages) -> list[tuple[str, dict]]:
    """Validate engine-level stage descriptors; return the compile ops.

    ``stages`` is a sequence of tuples: ``("source", rows)`` first, then
    any of ``("filter", mask)`` (only immediately after the source),
    ``("join", right_pairs)``, ``("multiway", rest_tables, keys)``,
    ``("group_by",)`` (terminal) and ``("order_by", spec)`` where ``spec``
    is ``[(column_index, ascending), ...]``.  Returns the shape-only
    ``(name, params)`` descriptors :func:`repro.plan.compile.compile_pipeline`
    consumes — every engine compiles the pipeline plan from these, so the
    plan is a pure function of the stage *shapes*.
    """
    stages = list(stages)
    if not stages or stages[0][0] != "source" or len(stages[0]) != 2:
        raise InputError("a pipeline starts with one ('source', rows) stage")
    if len(stages) < 2:
        raise InputError("a pipeline needs at least one operator stage")
    n = len(stages[0][1])
    ops: list[tuple[str, dict]] = [("source", {"n": n})]
    arity = 2
    for index, stage in enumerate(stages[1:], start=1):
        name = stage[0]
        if name not in PIPELINE_OPS or name == "source":
            raise InputError(
                f"unknown pipeline stage {name!r} at position {index}"
            )
        if ops[-1][0] == "group_by":
            raise InputError("group_by must be the final pipeline stage")
        if name == "filter":
            if index != 1:
                raise InputError(
                    "a pipeline filter must come immediately after the source"
                )
            if len(stage) != 2 or len(stage[1]) != n:
                raise InputError(
                    f"pipeline filter needs one mask cell per source row ({n})"
                )
            ops.append(("filter", {}))
        elif name == "join":
            if len(stage) != 2:
                raise InputError("pipeline join stages are ('join', right_rows)")
            if arity != 2:
                raise InputError(
                    f"pipeline join at position {index} needs (j, d) rows, "
                    f"current rows have {arity} columns"
                )
            ops.append(("join", {"n2": len(stage[1])}))
        elif name == "multiway":
            if len(stage) != 3:
                raise InputError(
                    "pipeline multiway stages are ('multiway', tables, keys)"
                )
            tables, keys = list(stage[1]), list(stage[2])
            if not tables or len(keys) != len(tables):
                raise InputError(
                    "pipeline multiway needs one key spec per extra table"
                )
            if arity != 2:
                raise InputError(
                    f"pipeline multiway at position {index} needs (j, d) rows"
                )
            ops.append(("multiway", {"sizes": [len(t) for t in tables]}))
            arity = 2 * (1 + len(tables))
        elif name == "group_by":
            if len(stage) != 1:
                raise InputError("pipeline group_by stages are ('group_by',)")
            if arity != 2:
                raise InputError(
                    f"pipeline group_by at position {index} needs (j, d) rows"
                )
            ops.append(("group_by", {}))
        else:  # order_by
            if len(stage) != 2 or not list(stage[1]):
                raise InputError(
                    "pipeline order_by stages are ('order_by', spec) with at "
                    "least one (column, ascending) key"
                )
            for column, _ in stage[1]:
                if not 0 <= column < arity:
                    raise InputError(
                        f"order_by column {column} out of range at position "
                        f"{index} (rows have {arity} columns)"
                    )
            ops.append(("order_by", {"columns": len(stage[1])}))
    return ops
