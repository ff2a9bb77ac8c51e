"""Algorithm 3: oblivious distribution (and its §5.2 probabilistic variant).

``Oblivious-Distribute`` stores each element ``x`` of an n-element input at
index ``f(x)`` of an m-cell array (``f`` injective, m >= n): sort by ``f``,
then route through the deterministic power-of-two hop network
(:func:`repro.obliv.routing.route_forward`), whose correctness is Theorem 1.

``Ext-Oblivious-Distribute`` (Algorithm 4, lines 24-31) additionally accepts
inputs already marked null — needed when some elements are dropped
(``g(x) = 0`` during expansion, filtered rows, ...) — by sorting nulls past
the end and truncating.

The probabilistic variant writes each element straight to ``π(f(x))`` for a
pseudorandom permutation π and then sorts by ``π⁻¹(index)``; its trace is a
uniformly random n-subset of cells followed by a fixed sorting network, i.e.
oblivious in distribution rather than deterministically.
"""

from __future__ import annotations

from ..errors import CapacityError, InjectivityError
from ..memory.public import PublicArray
from ..memory.tracer import Tracer
from ..obliv.bitonic import bitonic_sort
from ..obliv.compare import SortSpec, attr_key, SortKey
from ..obliv.network import NetworkStats
from ..obliv.permute import FeistelPRP
from ..obliv.routing import route_forward
from .entry import Entry
from .stats import JoinCounters

#: The phase names a distribution's sort and route are recorded under.
DISTRIBUTE_PHASES = ("distribute_sort", "distribute_route")

#: Order null entries last, real entries by destination index.
SPEC_NULL_F = SortSpec(
    SortKey(getter=lambda e: 1 if e.null else 0, name="isnull"),
    attr_key("f"),
)


def _target_of(entry: Entry) -> int:
    """Routing target: the stored ``f`` for real entries, -1 for nulls."""
    return -1 if entry.null else entry.f


def _check_targets(entries: list[Entry], m: int) -> int:
    """Validate injectivity / range of the non-null targets; returns count."""
    seen: set[int] = set()
    for e in entries:
        if e.null:
            continue
        if not 0 <= e.f < m:
            raise CapacityError(f"destination index {e.f} outside [0, {m})")
        if e.f in seen:
            raise InjectivityError(f"duplicate destination index {e.f}")
        seen.add(e.f)
    return len(seen)


def ext_oblivious_distribute(
    array: PublicArray,
    m: int,
    tracer: Tracer,
    counters: JoinCounters | None = None,
    validate: bool = True,
    phases: tuple[str, str] = DISTRIBUTE_PHASES,
) -> PublicArray:
    """Distribute the non-null entries of ``array`` to their ``f`` targets.

    Returns a new m-cell array where each non-null entry ``x`` sits at index
    ``x.f`` and every other cell is null.  The number of non-null entries
    must not exceed ``m``.  ``validate`` runs an (untraced) precondition
    check; disable it only in hot paths that construct ``f`` themselves.
    ``counters`` times and counts the sort and the route under the two
    names in ``phases``.
    """
    counters = counters if counters is not None else JoinCounters()
    sort_phase, route_phase = phases
    n = len(array)
    if validate:
        count = _check_targets(array.snapshot(), m)
        if count > m:
            raise CapacityError(f"{count} elements cannot fit in {m} cells")

    size = max(n, m)
    out = PublicArray(size, name=f"{array.name}#dist", tracer=tracer)
    with tracer.phase("distribute:load"):
        for i in range(n):
            out.write(i, array.read(i))
        for i in range(n, size):
            out.write(i, Entry.make_null())
    with tracer.phase("distribute:sort(f)"), counters.phase(sort_phase):
        bitonic_sort(out, SPEC_NULL_F, stats=counters.stats(sort_phase))
    with tracer.phase("distribute:route"), counters.phase(route_phase):
        route_forward(out, _target_of, m, stats=counters.stats(route_phase))
    if size == m:
        return out
    trimmed = PublicArray(m, name=f"{array.name}#distm", tracer=tracer)
    with tracer.phase("distribute:trim"):
        for i in range(m):
            trimmed.write(i, out.read(i))
    return trimmed


def oblivious_distribute(
    array: PublicArray,
    m: int,
    tracer: Tracer,
    counters: JoinCounters | None = None,
    validate: bool = True,
) -> PublicArray:
    """Algorithm 3 proper: all entries real, ``m >= n`` required."""
    if validate and m < len(array):
        raise CapacityError(
            f"destination array of size {m} cannot hold {len(array)} elements"
        )
    return ext_oblivious_distribute(array, m, tracer, counters=counters, validate=validate)


def probabilistic_distribute(
    array: PublicArray,
    m: int,
    tracer: Tracer,
    prp: FeistelPRP | None = None,
    stats: NetworkStats | None = None,
    validate: bool = True,
) -> PublicArray:
    """§5.2's randomised distribution: scatter through a PRP, then sort.

    The adversary observes writes at ``π(f(x_1)), ..., π(f(x_n))`` — a
    uniformly random n-subset of {0..m-1} because ``f`` is injective and π
    pseudorandom — then the fixed access pattern of a bitonic sort.  Output
    matches :func:`ext_oblivious_distribute` exactly.
    """
    n = len(array)
    if validate:
        count = _check_targets(array.snapshot(), m)
        if count > m:
            raise CapacityError(f"{count} elements cannot fit in {m} cells")
    prp = prp or FeistelPRP(m)

    out = PublicArray(m, name=f"{array.name}#pdist", tracer=tracer)
    with tracer.phase("pdistribute:scatter"):
        for i in range(m):
            out.write(i, Entry.make_null())
        for i in range(n):
            e = array.read(i)
            if not e.null:
                out.write(prp.forward(e.f), e)
    # Tag each cell with the unmasked destination of its slot, then sort:
    # the element at slot π(f(x)) gets key π⁻¹(π(f(x))) = f(x).
    with tracer.phase("pdistribute:key"):
        for i in range(m):
            e = out.read(i).copy()
            e.ii = prp.inverse(i)
            out.write(i, e)
    with tracer.phase("pdistribute:sort"):
        bitonic_sort(out, SortSpec(attr_key("ii")), stats=stats)
    return out
