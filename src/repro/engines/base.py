"""The :class:`Engine` protocol and the process-wide engine registry.

An *engine* is one complete implementation of the library's oblivious
workloads — binary join, multiway cascade, join tree, grouped aggregation,
GROUP BY, FILTER and ORDER BY — behind a uniform call surface.  Three
engines ship in-tree, on two implementations:

``traced``
    :mod:`repro.core`, faithful to the paper at single-memory-access
    granularity; the one security proofs and §6.1 trace experiments run on.
``vector``
    :mod:`repro.vector`, numpy whole-array primitives with bit-identical
    outputs; the one benchmarks and production-sized runs use.
``sharded``
    The ``vector`` engine with every sort sharded into ``k`` positional
    blocks on a pluggable executor (:mod:`repro.shard.sort`); ``k`` is the
    only thing the plan compiler learns from the engine's name.

Every registered engine must produce identical results on identical inputs
(`tests/test_engines.py` enforces this differentially), which is what makes
the registry a safe seam for further backends to plug into.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..core.aggregate import GroupAggregate
from ..core.join import JoinResult
from ..core.join_tree import JoinTreeResult
from ..core.multiway import MultiwayResult
from ..core.padding import check_padding, join_bound
from ..errors import InputError
from ..memory.tracer import Tracer
from ..plan.compile import compile_workload
from ..plan.ir import Plan

#: A table in the paper's model: a list of ``(join_value, data_value)`` pairs.
Pairs = list[tuple[int, int]]


def order_rows(columns: list[tuple[list, bool]]) -> int:
    """The row count ORDER BY's ``(values, ascending)`` key columns share;
    a key that is no such pair, or columns of unequal length, are an
    :class:`InputError` on every engine."""
    for column in columns:
        if not (
            isinstance(column, (tuple, list))
            and len(column) == 2
            and hasattr(column[0], "__len__")
        ):
            raise InputError(
                f"ORDER BY keys are (values, ascending) pairs, got {column!r}"
            )
    lengths = sorted({len(values) for values, _ in columns})
    if len(lengths) > 1:
        raise InputError(
            f"ORDER BY key columns must have equal lengths, got lengths {lengths}"
        )
    return lengths[0] if lengths else 0


class PaddingOptionsMixin:
    """Shared ``padding`` / ``bound`` engine configuration.

    Engines default to ``padding="revealed"``; a configured copy from
    ``get_engine(name, padding=..., bound=...)`` pads every join and
    multiway cascade it runs (:mod:`repro.core.padding`).  Aggregation,
    GROUP BY and FILTER reveal only their output size on every engine, so
    the flag changes nothing there.
    Backends extend ``OPTIONS`` with their own knobs (the sharded engine
    adds ``shards``/``workers``/``executor``) and pass their values on to
    ``__init__``, which keeps them for :meth:`with_options`.
    """

    OPTIONS = ("padding", "bound")

    def __init__(self, padding: str | None = None, bound=None, **options) -> None:
        self.padding = check_padding(padding)
        self.bound = bound
        # The constructor arguments a configured copy is rebuilt from.
        self._options = dict(options, padding=self.padding, bound=bound)

    def with_options(self, **options):
        """A configured copy: this engine's constructor arguments with
        ``options`` overriding them; unknown options are rejected loudly."""
        self._check_options(options)
        return type(self)(**{**self._options, **options})

    def _join_target(self, left: Pairs, right: Pairs, target_m: int | None):
        if target_m is not None:
            return target_m
        return join_bound(len(left), len(right), self.padding, self.bound)

    def _cascade_padding(self, padding: str | None, bound):
        return (
            self.padding if padding is None else padding,
            self.bound if bound is None else bound,
        )

    def _check_options(self, options: dict) -> None:
        unknown = set(options) - set(self.OPTIONS)
        if unknown:
            raise InputError(
                f"{self.name} engine options are {', '.join(self.OPTIONS)}; "
                f"got {sorted(unknown)}"
            )

    def compile_plan(self, workload: str = "join", **shapes) -> Plan:
        """Compile this engine's public plan for a workload shape.

        ``shapes`` are the workload's public inputs (``n1=..., n2=...`` for
        join/aggregate, ``n=...`` for filter/group-by/order-by, plus
        ``columns=...`` for order-by's key count, ``sizes=[...]`` for
        multiway) plus optional ``padding``/``bound``
        overrides; the engine's own configuration (padding mode, bound,
        shard count) fills everything left unset.  The result — the same
        plan the engine consumes when it executes — serializes canonically,
        so it can be audited and compared offline (``python -m repro
        plan``).
        """
        shapes.setdefault("padding", self.padding)
        shapes.setdefault("bound", self.bound)
        shapes.setdefault("shards", getattr(self, "shards", None))
        if shapes["padding"] == "revealed":
            shapes["bound"] = None  # a cap is meaningless without padding
        return compile_workload(workload, engine=self.name, **shapes)


@runtime_checkable
class Engine(Protocol):
    """Uniform entry points every execution engine implements.

    Engines that have no per-access trace (the vector and sharded engines)
    accept and ignore ``tracer``; their adversary view is the primitive
    schedule instead.

    Every in-tree engine also understands *padded execution*
    (:mod:`repro.core.padding`): configure it with
    ``get_engine(name, padding="worst_case")`` (plus ``bound=...`` for
    ``"bounded"``), or per call via ``join(..., target_m=...)`` and
    ``multiway_join(..., padding=..., bound=...)``.  Padded calls return
    the same real rows plus tagged dummies, and their trace/schedule is a
    function of input sizes and public bounds only — ``docs/leakage.md``
    tabulates exactly what each engine reveals in each mode.  The
    ``OPTIONS`` class attribute names the keywords an engine's
    ``with_options`` accepts (``python -m repro engines`` prints them).

    ``filter_indices`` and ``order_permutation`` are the index-level
    primitives behind the db layer's FILTER and ORDER BY.  The order-by
    contract is a *stable* sort (original position breaks ties), which
    makes the permutation engine-independent and keeps the differential
    suite's bit-identical guarantee.

    ``compile_plan`` exposes the engine's public schedule as a
    :class:`~repro.plan.ir.Plan` — a pure function of workload shapes and
    the engine's configuration, compiled by :mod:`repro.plan.compile`
    before any data is touched.  Sharded execution compiles the same
    plans from the same partition functions (and reads padded block sizes
    from plan nodes), so the printed artifact and the executed schedule
    cannot drift apart.
    """

    name: str

    def join(
        self,
        left: Pairs,
        right: Pairs,
        tracer: Tracer | None = None,
        target_m: int | None = None,
    ) -> JoinResult: ...

    def multiway_join(
        self,
        tables: list[list[tuple]],
        keys: list[tuple[int, int]],
        tracer: Tracer | None = None,
        padding: str | None = None,
        bound=None,
    ) -> MultiwayResult: ...

    def join_tree(
        self,
        tables: list[list[tuple]],
        edges,
        tracer: Tracer | None = None,
        padding: str | None = None,
        bound=None,
    ) -> JoinTreeResult: ...

    def aggregate(
        self, left: Pairs, right: Pairs, tracer: Tracer | None = None
    ) -> list[GroupAggregate]: ...

    def group_by(
        self, table: Pairs, tracer: Tracer | None = None
    ) -> list[GroupAggregate]: ...

    def filter_indices(
        self, mask: list[bool], tracer: Tracer | None = None
    ) -> list[int]: ...

    def order_permutation(
        self,
        columns: list[tuple[list, bool]],
        tracer: Tracer | None = None,
    ) -> list[int]: ...

    def compile_plan(self, workload: str = "join", **shapes) -> Plan: ...


_REGISTRY: dict[str, Engine] = {}


def register_engine(engine: Engine) -> Engine:
    """Register ``engine`` under ``engine.name``; returns it for chaining."""
    if not engine.name:
        raise InputError("engines must carry a non-empty name")
    _REGISTRY[engine.name] = engine
    return engine


def engine_option_names(engine: Engine) -> tuple[str, ...]:
    """The keyword options ``engine.with_options`` accepts (may be empty)."""
    return tuple(getattr(engine, "OPTIONS", ()))


def get_engine(engine: str | Engine, **options) -> Engine:
    """Resolve an engine by name (or pass an instance straight through).

    Keyword options (``workers=4, shards=4`` for the sharded engine,
    ``padding="worst_case"`` / ``bound=...`` for every in-tree engine) are
    forwarded to the engine's ``with_options`` hook, which returns a
    configured copy; engines without the hook reject any options.
    """
    if isinstance(engine, str):
        try:
            engine = _REGISTRY[engine]
        except KeyError:
            raise InputError(
                f"unknown engine {engine!r}; available: {', '.join(sorted(_REGISTRY))}"
            ) from None
    if not options:
        return engine
    configure = getattr(engine, "with_options", None)
    if configure is None:
        raise InputError(
            f"engine {engine.name!r} accepts no options, got {sorted(options)}"
        )
    return configure(**options)


def available_engines() -> list[str]:
    """Sorted names of all registered engines."""
    return sorted(_REGISTRY)
