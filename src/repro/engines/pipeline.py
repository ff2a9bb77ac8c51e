"""Pipeline vocabulary: stage validation and the result of running a chain.

A *pipeline* is an operator chain ``source -> [filter] -> join | multiway |
group_by | order_by ...`` that :meth:`PaddingOptionsMixin.pipeline
<repro.engines.base.PaddingOptionsMixin.pipeline>` runs one operator at a
time on any engine.  :func:`check_pipeline_stages` refuses a malformed
chain with an :class:`~repro.errors.InputError` before any operator runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from ..core.aggregate import GroupAggregate
from ..errors import InputError
from ..plan.ir import Plan


@dataclass
class PipelineResult:
    """One pipeline's output: rows, or groups for group-by-terminal chains.

    ``sizes`` are the revealed sizes: the source's, then every stage's
    output (the values the operators reveal one call at a time).  ``plan``
    is the plans of the operators that ran, each compiled at the input size
    its stage received.
    """

    rows: list[tuple] | None
    groups: list[GroupAggregate] | None
    sizes: list[int]
    plan: Plan

    def __len__(self) -> int:
        return len(self.groups if self.groups is not None else self.rows)


def _is_column(value) -> bool:
    """A column index is an int; ``True`` is not column 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_pair(entry) -> bool:
    return isinstance(entry, (tuple, list)) and len(entry) == 2


def check_pipeline_stages(stages) -> None:
    """Validate engine-level stage descriptors; raise ``InputError`` if not.

    ``stages`` is a sequence of tuples: ``("source", rows)`` first, then
    any of ``("filter", mask)`` (only immediately after the source),
    ``("join", right_pairs)``, ``("multiway", rest_tables, keys)`` where
    ``keys`` is one ``(left_column, right_column)`` pair per table,
    ``("group_by",)`` (terminal) and ``("order_by", spec)`` where ``spec``
    is ``[(column_index, ascending), ...]``.
    """
    stages = list(stages)
    for index, stage in enumerate(stages):
        if not isinstance(stage, (tuple, list)) or not stage:
            raise InputError(
                f"pipeline stages are non-empty tuples, got {stage!r} at "
                f"position {index}"
            )
    if not stages or stages[0][0] != "source" or len(stages[0]) != 2:
        raise InputError("a pipeline starts with one ('source', rows) stage")
    if len(stages) < 2:
        raise InputError("a pipeline needs at least one operator stage")
    n = len(stages[0][1])
    previous = "source"
    arity = 2
    for index, stage in enumerate(stages[1:], start=1):
        name = stage[0]
        if name not in ("filter", "join", "multiway", "group_by", "order_by"):
            raise InputError(
                f"unknown pipeline stage {name!r} at position {index}"
            )
        if previous == "group_by":
            raise InputError("group_by must be the final pipeline stage")
        previous = name
        if name == "filter":
            if index != 1:
                raise InputError(
                    "a pipeline filter must come immediately after the source"
                )
            if len(stage) != 2 or len(stage[1]) != n:
                raise InputError(
                    f"pipeline filter needs one mask cell per source row ({n})"
                )
        elif name == "join":
            if len(stage) != 2:
                raise InputError("pipeline join stages are ('join', right_rows)")
            if arity != 2:
                raise InputError(
                    f"pipeline join at position {index} needs (j, d) rows, "
                    f"current rows have {arity} columns"
                )
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
            for key in keys:
                if not _is_pair(key) or not all(map(_is_column, key)):
                    raise InputError(
                        "pipeline multiway keys are (left_column, right_column) "
                        f"index pairs, got {key!r} at position {index}"
                    )
            if arity != 2:
                raise InputError(
                    f"pipeline multiway at position {index} needs (j, d) rows"
                )
            arity = 2 * (1 + len(tables))
        elif name == "group_by":
            if len(stage) != 1:
                raise InputError("pipeline group_by stages are ('group_by',)")
            if arity != 2:
                raise InputError(
                    f"pipeline group_by at position {index} needs (j, d) rows"
                )
        else:  # order_by
            if len(stage) != 2 or not isinstance(stage[1], (tuple, list)) or not stage[1]:
                raise InputError(
                    "pipeline order_by stages are ('order_by', spec) with at "
                    "least one (column, ascending) key"
                )
            for entry in stage[1]:
                if not _is_pair(entry) or not _is_column(entry[0]):
                    raise InputError(
                        "order_by keys are (column_index, ascending) pairs, "
                        f"got {entry!r} at position {index}"
                    )
                if not 0 <= entry[0] < arity:
                    raise InputError(
                        f"order_by column {entry[0]} out of range at position "
                        f"{index} (rows have {arity} columns)"
                    )
