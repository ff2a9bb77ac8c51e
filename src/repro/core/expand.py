"""Algorithm 4: oblivious expansion — duplicate each element g(x) times.

One linear pass computes each element's first-occurrence slot as a running
prefix sum of the counts (elements with ``g(x) = 0`` are marked ∅), the
extended oblivious distribution places every element at that slot, and a
final forward pass fills each ∅ cell with the last real entry seen — all
with access patterns depending only on the input length and the (revealed)
output length ``m = Σ g(x)``.
"""

from __future__ import annotations

from typing import Callable

from ..errors import InputError
from ..memory.local import LocalContext
from ..memory.public import PublicArray
from ..memory.tracer import Tracer
from .distribute import DISTRIBUTE_PHASES, ext_oblivious_distribute
from .entry import Entry
from .stats import JoinCounters


def assign_first_slots(
    array: PublicArray,
    count_of: Callable[[Entry], int],
    local: LocalContext | None = None,
) -> int:
    """The prefix-sum pass of Algorithm 4 (lines 3-11); returns ``m``.

    Stores each element's first output position in its ``f`` attribute and
    marks elements with a zero count as null.  The running sum ``s`` lives in
    local memory.
    """
    local = local or LocalContext()
    m = 0
    with local.slot(2):
        for i in range(len(array)):
            e = array.read(i).copy()
            g = count_of(e)
            if g < 0:
                raise InputError(f"negative duplication count {g}")
            if g == 0 or e.null:
                e.null = True
                e.f = -1
            else:
                e.f = m
                m += g
            array.write(i, e)
    return m


def fill_down(array: PublicArray, local: LocalContext | None = None) -> None:
    """The fill pass of Algorithm 4 (lines 14-21).

    Each ∅ cell is overwritten with the most recent real entry — after
    distribution those are exactly the ``g(x) - 1`` duplicate slots of the
    element before them.  Every cell is read and written exactly once.
    """
    local = local or LocalContext()
    with local.slot(2):
        previous = Entry.make_null()
        for i in range(len(array)):
            e = array.read(i)
            if e.null:
                e = previous
            else:
                previous = e
            array.write(i, e)


def oblivious_expand(
    array: PublicArray,
    count_of: Callable[[Entry], int],
    tracer: Tracer,
    counters: JoinCounters | None = None,
    phases: tuple[str, str] = DISTRIBUTE_PHASES,
    local: LocalContext | None = None,
) -> tuple[PublicArray, int]:
    """Expand ``array`` so each element ``x`` appears ``count_of(x)`` times.

    Returns ``(expanded_array, m)``.  Elements appear in input order, each as
    a contiguous run of copies, which is what Align-Table (Alg. 5) assumes.
    ``counters`` records the distribution's sort and route under ``phases``.
    """
    with tracer.phase("expand:prefix"):
        m = assign_first_slots(array, count_of, local=local)
    expanded = ext_oblivious_distribute(
        array, m, tracer, counters=counters, validate=False, phases=phases
    )
    with tracer.phase("expand:fill"):
        fill_down(expanded, local=local)
    return expanded, m
