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

:func:`cascade` is the one fold, in every padding mode; the traced
engine's :func:`oblivious_multiway_join` and the numpy engines'
:func:`repro.vector.multiway.vector_multiway_join` are each one call to it
with their binary join as the step, and the db layer's
``ObliviousEngine.multiway_join`` calls the engine's.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from ..errors import InputError
from ..memory.tracer import Tracer
from .join import oblivious_join
from .padding import (
    DUMMY_HANDLE,
    DUMMY_KEY_BASE,
    cascade_bounds,
    check_padded_key,
    check_padding,
)


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


def check_int_key(key) -> int:
    """Validate one join key of a revealed cascade: any Python int, ``bool``
    included (:func:`~repro.core.padding.check_padded_key`, the padded
    cascade's check, also refuses bools and the reserved key space)."""
    if not isinstance(key, int):
        raise InputError(
            f"join keys must be dictionary-encoded ints, got {type(key).__name__}"
        )
    return key


def encode_handles(
    rows: list[tuple], dummies: int, key_column: int, check_key
) -> list[tuple[int, int]]:
    """Project ``rows`` to ``(join_key, row_handle)`` pairs for one join step.

    The handle is the row's index into the client-side catalogue; only these
    two int columns travel through the oblivious operator.  ``check_key``
    validates each real key for the cascade's mode.  ``dummies`` is the
    public length of a padded cascade's dummy tail, kept as a count: it
    becomes rows ``len(rows) + i`` with the distinct reserved keys
    ``DUMMY_KEY_BASE + len(rows) + i``, which match nothing downstream.
    """
    pairs = [(check_key(row[key_column]), index) for index, row in enumerate(rows)]
    base = len(rows)
    pairs.extend(
        (DUMMY_KEY_BASE + base + offset, base + offset) for offset in range(dummies)
    )
    return pairs


def checked_cascade_bounds(
    tables: list[list[tuple]],
    keys: list[tuple[int, int]],
    padding: str,
    bound,
) -> tuple[int, ...] | None:
    """Validate a cascade's shape and keys and return its public per-step
    bounds; ``None`` for a revealed cascade.

    The bounds are :func:`~repro.core.padding.cascade_bounds`, the call the
    plan compiler makes for a multiway plan's ``bounds`` shape, so artifact
    and execution cannot drift.
    """
    if len(tables) < 2:
        raise InputError("a multiway join needs at least two tables")
    if len(keys) != len(tables) - 1:
        raise InputError(
            f"{len(tables)} tables need {len(tables) - 1} key specs, got {len(keys)}"
        )
    for key in keys:
        # A bool is not column 1, and a bare or one-item key is no pair.
        if not (
            isinstance(key, (tuple, list))
            and len(key) == 2
            and all(
                isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in key
            )
        ):
            raise InputError(
                f"multiway keys are (left_column, right_column) index pairs, got {key!r}"
            )
    if padding == "revealed":
        return None
    return cascade_bounds([len(t) for t in tables], padding, bound)


def cascade(tables, keys, bounds, run_step):
    """The left-deep cascade of binary joins, every engine's and every mode's.

    ``run_step(left_pairs, right_pairs, target)`` executes one binary join
    and returns its ``(left_handle, right_handle)`` pairs.  ``bounds=None``
    is the revealed cascade: ``target`` is ``None``, every step returns
    exactly its true output, and keys pass :func:`check_int_key`.  Padded
    bounds give each step its public ``target``; the step returns
    ``target`` pairs — real rows first (handles >= 0), then dummy rows
    (:data:`DUMMY_HANDLE`) — and keys pass :func:`check_padded_key`.

    This function owns everything around the joins: the client-side row
    catalogue, the dummy tail threaded between steps, re-keying, and the
    final compaction.  Returns ``(rows, true_sizes)`` where ``rows`` is the
    same in every mode and ``true_sizes`` are the *client-side*
    intermediate sizes (under padding the trace reveals only ``bounds``).

    **Fused expand-truncate.**  A dummy row can never survive any later
    step's bound — it joins nothing by construction — so the catalogue
    drops dummy handles the moment a step returns them: real rows are
    accumulated, the dummy tail is kept only as a public *count* and
    re-expanded into engine input positions by :func:`encode_handles`.
    The engine sees the inputs a materialised dummy tail would give it
    (same sizes, same reserved keys at the same positions), while the
    client-side cost per step is ``O(true_size * row_width)`` rather than
    ``O(bound * row_width)`` — the dominant constant of ``worst_case``
    cascades, whose bounds compound multiplicatively.
    """
    check_key = check_int_key if bounds is None else check_padded_key
    accumulated = [tuple(row) for row in tables[0]]
    dummies = 0  # public tail length; accumulated holds real rows only
    # Folded row width.  Once a table is empty every later step is empty
    # too (its bound is 0), so a width that stops growing there is never
    # checked against.
    width = len(accumulated[0]) if accumulated else 0
    true_sizes: list[int] = []
    for step, table in enumerate(tables[1:]):
        next_table = [tuple(row) for row in table]
        left_col, right_col = keys[step]
        if (accumulated or dummies) and not 0 <= left_col < width:
            raise InputError(
                f"left key column {left_col} out of range at step {step}"
            )
        if next_table and not 0 <= right_col < len(next_table[0]):
            raise InputError(
                f"right key column {right_col} out of range at step {step}"
            )
        pairs = run_step(
            encode_handles(accumulated, dummies, left_col, check_key),
            encode_handles(next_table, 0, right_col, check_key),
            None if bounds is None else bounds[step],
        )
        new_accumulated: list[tuple] = []
        for left_index, right_index in pairs:
            if left_index == DUMMY_HANDLE:
                break
            new_accumulated.append(
                accumulated[left_index] + next_table[right_index]
            )
        # Engines contract to emit real rows first; a real handle after the
        # first dummy would silently lose output, so verify the tail.
        if any(
            left_index != DUMMY_HANDLE
            for left_index, _ in pairs[len(new_accumulated) :]
        ):
            raise InputError(
                "padded join emitted a real row after its dummy tail; "
                "engines must return real rows first"
            )
        accumulated = new_accumulated
        if bounds is not None:
            dummies = bounds[step] - len(accumulated)
        if next_table:
            width += len(next_table[0])
        true_sizes.append(len(accumulated))
    return accumulated, true_sizes


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
        Concatenated row tuples plus the true size after every step.
    """
    padding = check_padding(padding)
    bounds = checked_cascade_bounds(tables, keys, padding, bound)
    tracer = tracer or Tracer()

    def run_step(left_pairs, right_pairs, target):
        return oblivious_join(
            left_pairs, right_pairs, tracer=tracer, target_m=target
        ).pairs

    rows, sizes = cascade(tables, keys, bounds, run_step)
    return MultiwayResult(
        rows=rows, intermediate_sizes=sizes, padding=padding, bounds=bounds
    )
