"""Upstream padding for multiway cascades: public bounds, tagged dummies.

The paper's guarantee for a *single* join is that the memory trace depends
only on ``(n1, n2, m)`` — the final output size ``m`` is deliberately
public.  A cascade of joins compounds that leak: every *intermediate* size
becomes public too, and the sharded engine refines it further (per-shard
partial group counts).  This module closes the
gap by padding every intermediate relation to a *public bound*, so the
whole cascade's trace/schedule is a function of the input sizes and the
bounds alone.  ObliDB pads intermediate operator outputs the same way; the
cost is bounded by how loose the bound is.

Three padding modes, selectable wherever a cascade runs
(``core.multiway``, the engine layer, ``ObliviousEngine``, the CLI):

``"revealed"``
    The historical behaviour: no padding, every intermediate size public.
``"bounded"``
    The caller declares a public cap per step (one int, or one per step).
    Intermediates are padded to ``min(cap, worst_case)``; if a true size
    exceeds its cap, :class:`~repro.errors.BoundError` aborts the cascade —
    which is itself a one-bit leak, documented in ``docs/leakage.md``.
``"worst_case"``
    Bounds are the cross-product worst case ``B_s = B_{s-1} * n_s`` (with
    ``B_0 = n_0``).  Nothing beyond the input sizes is revealed, at
    worst-case cost — the paper's "pad upstream" escape hatch, made real.

Mechanism (shared by all three engines)
---------------------------------------
Padding a join's *output* without leaking its true size ``m`` cannot happen
after the fact — the join's own trace depends on ``m``.  Instead one
**anchor row** is appended to each input (public size ``n + 1``) under a
reserved join key that sorts after every real key.  After Algorithm 2 has
(obliviously) computed ``m``, the anchor's group dimensions are overwritten
— at a fixed public position, with plain value writes that the trace does
not distinguish — so that both expansions produce exactly ``target``
rows: ``m`` real rows in canonical order followed by ``target - m`` tagged
dummy rows.  Every phase then runs at the public size ``target`` and the
join's trace is a function of ``(n1, n2, target)`` only.

Between steps (:func:`repro.core.multiway.cascade`), the dummy tail is
*kept* (compacting it would reveal ``m``) and threaded through the next
join: dummy rows are re-keyed with distinct
reserved keys that match nothing, so they contribute zero output rows while
still occupying public input slots.  Only the *final* result is compacted
client-side — revealing the final output size, exactly the leak the paper's
model already accepts.

Key space contract: under any padded mode, real join keys must stay below
:data:`DUMMY_KEY_BASE` (dictionary-encoded keys always do).  Dummy rows are
re-keyed into ``[DUMMY_KEY_BASE, ANCHOR_KEY)`` and the per-join anchor uses
:data:`ANCHOR_KEY` itself.
"""

from __future__ import annotations

from ..errors import BoundError, InputError

#: The padding modes every cascade entry point accepts.
PADDING_MODES = ("revealed", "bounded", "worst_case")

#: Real join keys must stay strictly below this under padded execution.
DUMMY_KEY_BASE = 2**61

#: Reserved join key of the per-join anchor row; sorts after every real and
#: dummy key, so padding always lands *after* the real output.
ANCHOR_KEY = 2**62

#: Handle / data value carried by dummy rows (real handles are >= 0).
DUMMY_HANDLE = -1


def check_padding(padding: str | None) -> str:
    """Validate a padding mode; ``None`` means the default ``"revealed"``."""
    if padding is None:
        return "revealed"
    if padding not in PADDING_MODES:
        raise InputError(
            f"unknown padding mode {padding!r}; expected one of {PADDING_MODES}"
        )
    return padding


def _check_bound(bound) -> int:
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise InputError(f"padding bounds must be ints >= 0, got {bound!r}")
    return bound


def join_bound(n1: int, n2: int, padding: str | None, bound=None) -> int | None:
    """The public output bound of one binary join, or ``None`` (no padding).

    ``worst_case`` is the full cross product ``n1 * n2``; ``bounded`` clamps
    the caller's cap to it (a padded join can never emit more than the
    cross product, so a looser bound only wastes work).  A per-step bound
    *sequence* (as accepted by :func:`cascade_bounds`) is valid here too: a
    binary join is a one-step cascade, so its first cap applies.
    """
    padding = check_padding(padding)
    if padding == "revealed":
        return None
    worst = n1 * n2
    if padding == "worst_case":
        return worst
    if isinstance(bound, (list, tuple)):
        bound = bound[0] if bound else None
    if bound is None:
        raise InputError('padding="bounded" needs an explicit bound')
    return min(_check_bound(bound), worst)


def cascade_bounds(
    sizes: list[int], padding: str | None, bound=None
) -> tuple[int, ...]:
    """Public per-step output bounds for a cascade over tables of ``sizes``.

    Returns one bound per join step (``len(sizes) - 1`` of them); the empty
    tuple for ``"revealed"``.  Bounds are pure functions of the (public)
    input sizes and the caller's caps — the obliviousness tests pin that the
    padded trace depends on nothing else.  ``bound`` may be a single int
    (the same cap every step) or a sequence of one cap per step.
    """
    padding = check_padding(padding)
    steps = len(sizes) - 1
    if padding == "revealed":
        return ()
    if padding == "worst_case":
        caps = None
    elif bound is None:
        raise InputError('padding="bounded" needs an explicit bound')
    elif isinstance(bound, (list, tuple)):
        if len(bound) != steps:
            raise InputError(
                f"{steps}-step cascade needs {steps} bounds, got {len(bound)}"
            )
        caps = [_check_bound(b) for b in bound]
    else:
        caps = [_check_bound(bound)] * steps
    bounds = []
    previous = sizes[0]
    for step in range(steps):
        worst = previous * sizes[step + 1]
        bounds.append(worst if caps is None else min(caps[step], worst))
        previous = bounds[-1]
    return tuple(bounds)


def check_target_m(target_m, n1: int, n2: int) -> int:
    """Validate a binary join's output bound and clamp it to ``n1 * n2``.

    No join can emit more than the cross product, so clamping (rather than
    over-padding or rejecting) keeps the behaviour identical across all
    engines; the clamp is a function of public values only.
    """
    if not isinstance(target_m, int) or isinstance(target_m, bool) or target_m < 0:
        raise InputError(f"target_m must be an int >= 0, got {target_m!r}")
    return min(target_m, n1 * n2)


def check_anchor_headroom(keys, reserved: int = ANCHOR_KEY) -> None:
    """Reject join keys that collide with the reserved dummy key space.

    A single padded join only reserves :data:`ANCHOR_KEY` itself (incoming
    cascade dummies legitimately occupy ``[DUMMY_KEY_BASE, ANCHOR_KEY)``);
    cascades reserve everything from :data:`DUMMY_KEY_BASE` up.
    """
    if any(key >= reserved for key in keys):
        raise InputError(
            f"padded execution reserves join keys >= {reserved} "
            f"(2^{reserved.bit_length() - 1}) for its dummy rows"
        )


def check_payload_headroom(payloads) -> None:
    """Reject negative payloads under padded execution.

    Dummy output rows are tagged by ``DUMMY_HANDLE`` (-1) payloads — the
    only in-band signal :func:`compact_pairs` and the cascades have — so a
    real negative payload would be silently stripped as padding.  Handle
    -style payloads (row indices, as the db layer and cascades use) are
    always >= 0; reject anything else up front, like reserved keys.
    """
    if any(payload < 0 for payload in payloads):
        raise InputError(
            "padded execution requires non-negative payloads (dummy rows "
            f"are tagged with {DUMMY_HANDLE}); pass row handles instead"
        )


def check_padded_key(key) -> int:
    """Validate one real join key under padded execution."""
    if not isinstance(key, int) or isinstance(key, bool):
        raise InputError(
            f"join keys must be dictionary-encoded ints, got {type(key).__name__}"
        )
    if key >= DUMMY_KEY_BASE:
        raise InputError(
            f"padded execution reserves keys >= 2^61 for dummy rows; got {key}"
        )
    return key


def compact_pairs(pairs):
    """Strip the dummy tail a padded join appends (client-side, final step).

    Real output rows carry handles/data ``>= 0``; dummies carry
    :data:`DUMMY_HANDLE` in every column.  Compacting re-reveals the true
    output size — by design, this is only ever done on *final* results
    (the paper's model treats the final output size as public).
    """
    return [pair for pair in pairs if pair[0] != DUMMY_HANDLE]


def exceeds_bound(true_size: int, target: int) -> None:
    """Raise :class:`BoundError` when a true output overflows its bound."""
    if true_size > target:
        raise BoundError(
            f"true output size {true_size} exceeds the public padding bound "
            f"{target}; raise the bound or use padding='worst_case'"
        )
