"""Multi-way equi-joins via cascaded binary oblivious joins (§7).

The paper leaves compound queries as future work; the natural composition —
folding a sequence of binary oblivious joins left to right — is implemented
here.  Each step is the full Algorithm 1, so every intermediate access
pattern stays oblivious; by default what *is* revealed is each intermediate
result size (the same deliberate leak as ``m`` for a single join,
compounded once per step).  ``padding="bounded"|"worst_case"`` removes that
leak: every intermediate is padded to a public bound with tagged dummy rows
(:mod:`repro.core.padding`), the trace becomes a function of the input
sizes and the bounds alone, and only the final compacted output size is
revealed — the paper's "pad upstream" remark, implemented.

Rows are tuples; the payload threaded through the integer-only core engine
is an index into a row catalogue kept in (untraced) client memory, mirroring
how a real deployment would pass opaque record handles through the oblivious
operator while the payload bytes travel alongside them.

The same cascade also runs on the vectorised numpy engine
(:mod:`repro.vector.multiway`); select it with
``get_engine("vector").multiway_join`` (:func:`repro.engines.get_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError
from ..memory.tracer import Tracer
from .join import JoinResult, oblivious_join
from .padding import check_padding, padded_cascade


@dataclass
class MultiwayResult:
    """Result of a cascade of binary oblivious joins.

    ``intermediate_sizes`` are the true per-step sizes.  Under padded
    execution they are *client-side knowledge only* — the adversary-visible
    trace depends on ``bounds`` instead, and ``rows`` holds the compacted
    (dummy-free) result, bit-identical to the unpadded cascade's.
    """

    rows: list[tuple]
    intermediate_sizes: list[int]
    padding: str = "revealed"
    bounds: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def total_padded_rows(self) -> int:
        """Total rows the padded cascade materialises: the sum of every
        step's public bound (0 when unpadded).  This is the compounded
        cost a join tree avoids — it pads the *final* output once."""
        return sum(self.bounds or ())


def encode_handles(rows: list[tuple], key_column: int) -> list[tuple[int, int]]:
    """Project ``rows`` to ``(join_key, row_handle)`` pairs for one join step.

    The handle is the row's index into the client-side catalogue; only these
    two int columns travel through the oblivious operator.
    """
    pairs = []
    for index, row in enumerate(rows):
        key = row[key_column]
        if not isinstance(key, int):
            raise InputError(
                f"join keys must be dictionary-encoded ints, got {type(key).__name__}"
            )
        pairs.append((key, index))
    return pairs


def validate_cascade(tables: list[list[tuple]], keys: list[tuple[int, int]]) -> None:
    """Shared input validation for every multiway-cascade implementation."""
    if len(tables) < 2:
        raise InputError("a multiway join needs at least two tables")
    if len(keys) != len(tables) - 1:
        raise InputError(
            f"{len(tables)} tables need {len(tables) - 1} key specs, got {len(keys)}"
        )


def check_step_columns(
    step: int,
    accumulated: list[tuple],
    next_table: list[tuple],
    left_col: int,
    right_col: int,
) -> None:
    """Validate one cascade step's key columns against the row widths."""
    if accumulated and not 0 <= left_col < len(accumulated[0]):
        raise InputError(f"left key column {left_col} out of range at step {step}")
    if next_table and not 0 <= right_col < len(next_table[0]):
        raise InputError(f"right key column {right_col} out of range at step {step}")


def oblivious_multiway_join(
    tables: list[list[tuple]],
    keys: list[tuple[int, int]],
    tracer: Tracer | None = None,
    padding: str | None = None,
    bound=None,
) -> MultiwayResult:
    """Join ``tables[0] ⋈ tables[1] ⋈ ... ⋈ tables[k]`` pairwise.

    Parameters
    ----------
    tables:
        Row tuples per table; every column that serves as a join key must be
        an int (use :class:`repro.db.encoding.DictionaryEncoder` for other
        types).
    keys:
        For each of the ``k`` join steps, ``(left_column, right_column)``:
        ``left_column`` indexes the *accumulated* row (all columns of the
        tables joined so far, concatenated), ``right_column`` indexes the
        next table's row.
    padding / bound:
        ``"revealed"`` (default) reveals every intermediate size;
        ``"bounded"`` pads each intermediate to the public cap(s) in
        ``bound``; ``"worst_case"`` pads to the cross-product bounds.
        Padded cascades return the same compacted rows, but their trace
        depends only on the input sizes and the bounds
        (:mod:`repro.core.padding`, ``docs/leakage.md``).

    Returns
    -------
    MultiwayResult
        Concatenated row tuples plus the (revealed) size after every step.
    """
    padding = check_padding(padding)
    validate_cascade(tables, keys)
    tracer = tracer or Tracer()

    if padding != "revealed":
        # The cascade consumes its compiled public plan: the per-step
        # bounds come from the same compiler the CLI `plan` command and
        # the plan-equality tests use (which itself reuses
        # `cascade_bounds`), so artifact and execution cannot drift.
        from ..plan.compile import compile_multiway  # deferred: plan imports core

        plan = compile_multiway(
            [len(t) for t in tables], "traced", padding=padding, bound=bound
        )
        bounds = plan.shape("bounds")

        def run_step(step, left_pairs, right_pairs, target):
            return oblivious_join(
                left_pairs, right_pairs, tracer=tracer, target_m=target
            ).pairs

        rows, sizes = padded_cascade(tables, keys, bounds, run_step)
        return MultiwayResult(
            rows=rows, intermediate_sizes=sizes, padding=padding, bounds=bounds
        )

    accumulated = list(tables[0])
    sizes: list[int] = []
    for step, next_table in enumerate(tables[1:]):
        left_col, right_col = keys[step]
        check_step_columns(step, accumulated, list(next_table), left_col, right_col)
        result: JoinResult = oblivious_join(
            encode_handles(accumulated, left_col),
            encode_handles(list(next_table), right_col),
            tracer=tracer,
        )
        accumulated = [
            accumulated[left_index] + tuple(next_table[right_index])
            for left_index, right_index in result.pairs
        ]
        sizes.append(result.m)
    return MultiwayResult(rows=accumulated, intermediate_sizes=sizes)
