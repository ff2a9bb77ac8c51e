"""Pure partition-plan functions: shard layout as f(n, k) and nothing else.

These used to live in :mod:`repro.shard.partition` next to the code that
actually moves rows; they are the *public* half of partitioning — the shard
capacity and per-shard real counts an adversary is allowed to learn — and
the plan compiler is their primary consumer now, so they live in the plan
layer.  :mod:`repro.shard.partition` re-exports them unchanged.

Rows are assigned to shards by *position* — shard ``i`` receives the
``i``-th contiguous block — so shard membership is independent of every key
and payload byte, and the whole layout is a pure function of ``(n, k)``:
the first ``n mod k`` shards carry ``ceil(n / k)`` rows, the rest
``floor(n / k)``, and every shard is padded to the common capacity
``ceil(n / k)``; a sort's one-word passes (:func:`word_passes`) are a
function of its row count and its key widths, its ``k`` (:func:`blocks`)
of ``n`` and its ``shards`` cap.
"""

from __future__ import annotations

from ..errors import InputError
from ..obliv.bitonic import comparison_count, next_power_of_two
from ..vector.sort import Key, index_bits

#: Bits a packed word may use (it stays below the network's int64 padding).
WORD_BITS = 62

#: The fewest rows a sharded sort cuts a block into, unless fewer blocks pad
#: to more comparators: below it a second thread does not pay on two cores
#: (``docs/architecture.md``, "Blocks only where a thread pays").
MIN_BLOCK_ROWS = 2**16


def key_bits(keys: list[Key]) -> int:
    """The key fields' total width: a declared width, else 64 bits each."""
    return sum(key[2] if len(key) == 3 else 64 for key in keys)


def word_passes(keys: list[Key], rows: int) -> int:
    """One-word passes a ``rows``-row sharded sort takes to order by ``keys``:
    its :func:`key_bits` in digits of ``62 - ceil(log2 rows)`` bits, one
    stable ``digit ‖ position`` sort each (1 if they fit)."""
    return max(1, -(-key_bits(keys) // (WORD_BITS - index_bits(rows))))


def threads_pay(n: int, k: int) -> bool:
    """Whether ``k`` blocks of an ``n``-row sort hold :data:`MIN_BLOCK_ROWS`
    rows each; only :func:`blocks`' comparator fallback cuts smaller ones,
    and those run in the calling thread."""
    return n // k >= MIN_BLOCK_ROWS


def check_shards(shards: int) -> int:
    """Validate a shard count; returns it for chaining."""
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise InputError(f"shard count must be an int >= 1, got {shards!r}")
    return shards


def blocks(n: int | None, shards: int) -> int | None:
    """Blocks a sharded sort of ``n`` rows runs: ``shards`` when each holds
    :data:`MIN_BLOCK_ROWS` rows, else as many such as fit, at least one, if
    they pad to no more comparators than ``shards`` blocks (else ``shards``).
    A size revealed at run time (``None``) reveals the count too."""
    check_shards(shards)
    if n is None:
        return shards if shards == 1 else None
    if n >= shards * MIN_BLOCK_ROWS:
        return shards
    k = max(1, n // MIN_BLOCK_ROWS)
    return k if pass_comparators(n, k) <= pass_comparators(n, shards) else shards


def pass_comparators(n: int, k: int) -> int:
    """Comparators one pass of a sharded sort of ``n`` rows over ``k`` blocks
    executes: every block's padded bitonic network plus the merges."""
    counts = shard_counts(n, k)
    networks = sum(comparison_count(next_power_of_two(c)) for c in counts)
    return networks + merge_comparator_count(counts)


def merge_comparator_count(lengths: list[int]) -> int:
    """Comparators the merge tournament executes for runs of these lengths."""
    lengths, count = list(lengths), 0
    while len(lengths) > 1:
        for la, lb in zip(lengths[::2], lengths[1::2]):
            if la and lb:
                padded = next_power_of_two(la + lb)
                count += padded // 2 * (padded.bit_length() - 1)
        lengths = [sum(lengths[i : i + 2]) for i in range(0, len(lengths), 2)]
    return count


def shard_capacity(n: int, k: int) -> int:
    """Common padded size of every shard: ``ceil(n / k)`` — f(n, k) only."""
    check_shards(k)
    if n < 0:
        raise InputError(f"table size must be >= 0, got {n}")
    return -(-n // k)


def shard_counts(n: int, k: int) -> tuple[int, ...]:
    """Real rows per shard — a pure function of ``(n, k)``."""
    check_shards(k)
    base, rem = divmod(n, k)
    return tuple(base + (1 if i < rem else 0) for i in range(k))


def partition_plan(n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """The public partition plan ``(capacity, per-shard real counts)``.

    This tuple is everything the adversary learns from the partitioning
    step; the obliviousness suite asserts it is identical across any two
    inputs of the same size.
    """
    return shard_capacity(n, k), shard_counts(n, k)


def check_block_rows(block_rows: int) -> int:
    """Validate a store block's row count; returns it for chaining."""
    if (
        not isinstance(block_rows, int)
        or isinstance(block_rows, bool)
        or block_rows < 1
    ):
        raise InputError(f"block_rows must be an int >= 1, got {block_rows!r}")
    return block_rows


def block_count(n: int, block_rows: int) -> int:
    """Blocks a stored column of ``n`` rows occupies: ``ceil(n / B)``."""
    check_block_rows(block_rows)
    if n < 0:
        raise InputError(f"table size must be >= 0, got {n}")
    return -(-n // block_rows)

