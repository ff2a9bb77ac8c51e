"""The public Plan IR: the oblivious schedule as an explicit artifact.

The paper's security argument is that the *schedule* of oblivious
primitives — which networks run, at which sizes, in which order — is a
function of public values only.  Until now that schedule was an emergent
property, re-derived ad hoc inside each engine; this module makes it a
first-class, serializable value.  A :class:`Plan` is a DAG of
:class:`OpNode` operator nodes whose shapes, bounds and shard layouts are
computed *up front* from the public inputs (``n1, n2, …, k, padding
bounds``) by :mod:`repro.plan.compile`, before any data is touched.

Two properties make the IR useful:

1. **Obliviousness becomes checkable by equality.**  Two runs over inputs
   with the same public shapes must compile — and execute — byte-identical
   serialized plans (:meth:`Plan.serialize`); ``tests/test_plan.py`` pins
   this across adversarial key distributions, and ``python -m repro plan``
   prints the artifact for any query so it can be audited offline.
2. **Execution is substrate-independent.**  A plan says *what* runs at
   which public sizes; the :mod:`repro.plan.executors` layer decides *how*
   (inline, thread pool).  Nothing in a plan depends on the executor,
   so changing the substrate provably cannot change the leakage.

Attribute values are restricted to a JSON-safe, deterministic subset
(ints, strings, bools, ``None`` and nested sequences thereof);
``None`` marks a size that is *not* known at compile time and will be
revealed at run time (the ``"revealed"`` padding mode's deliberate leak).
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass

from ..errors import InputError

#: Serialization format tag, bumped whenever a plan's bytes change for the
#: same public inputs (an op, attribute or shape added, removed or redefined).
PLAN_FORMAT = 12


def _freeze(value, context: str):
    """Normalise one public attribute value to a hashable, JSON-safe form.

    Sequences become tuples recursively; floats are rejected outright
    (their serialization is platform-dependent and no public shape in this
    system is fractional), as is any other type that could make two
    equal plans serialize differently.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)  # collapses numpy integer scalars too
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item, context) for item in value)
    raise InputError(
        f"plan attribute {context} must be int/str/bool/None or a sequence "
        f"of those, got {type(value).__name__}"
    )


def _thaw(value):
    """Tuples back to lists for JSON emission."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class OpNode:
    """One operator of a plan: a public op name, public attributes, edges.

    ``attrs`` is a name-sorted tuple of ``(name, value)`` pairs — sorted so
    that equal nodes are equal values and serialize identically.
    ``inputs`` are indices of upstream nodes in the owning plan's ``nodes``
    tuple (always smaller than the node's own index: plans are built in
    topological order).
    """

    op: str
    attrs: tuple[tuple[str, object], ...] = ()
    inputs: tuple[int, ...] = ()

    def attr(self, name: str, default=None):
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "attrs": {name: _thaw(value) for name, value in self.attrs},
            "inputs": list(self.inputs),
        }


@dataclass(frozen=True)
class Plan:
    """A compiled oblivious schedule: workload + public shapes + node DAG.

    ``shapes`` carries the public inputs the plan was compiled from
    (``n1``, ``n2``, ``k``, ``target``, ``bounds`` …) — everything the
    adversary view of the eventual execution is allowed to depend on, and
    *nothing else*.  Serialization is canonical (sorted keys, no
    whitespace), so byte equality of :meth:`serialize` is plan equality.
    """

    workload: str
    engine: str
    shapes: tuple[tuple[str, object], ...]
    nodes: tuple[OpNode, ...]

    def shape(self, name: str, default=None):
        for key, value in self.shapes:
            if key == name:
                return value
        return default

    def nodes_by_op(self, op: str) -> list[OpNode]:
        """All nodes with the given op name, in plan (topological) order."""
        return [node for node in self.nodes if node.op == op]

    def to_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "workload": self.workload,
            "engine": self.engine,
            "shapes": {name: _thaw(value) for name, value in self.shapes},
            "nodes": [node.to_dict() for node in self.nodes],
        }

    def serialize(self) -> bytes:
        """Canonical bytes; byte equality ⇔ identical public schedule."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def digest(self) -> str:
        """SHA-256 of :meth:`serialize` — the plan's public fingerprint."""
        return hashlib.sha256(self.serialize()).hexdigest()

    def render(self) -> str:
        """Human-readable one-node-per-line view (the CLI ``plan`` output)."""
        shape_text = ", ".join(f"{k}={_thaw(v)!r}" for k, v in self.shapes)
        lines = [
            f"plan {self.workload} on {self.engine} ({shape_text})",
            f"digest {self.digest()}",
        ]
        for index, node in enumerate(self.nodes):
            attrs = " ".join(f"{k}={_thaw(v)!r}" for k, v in node.attrs)
            arrows = (
                " <- " + ",".join(str(i) for i in node.inputs)
                if node.inputs
                else ""
            )
            lines.append(f"  [{index:3d}] {node.op} {attrs}{arrows}")
        return "\n".join(lines)


# -- the merge tournament's public schedule ----------------------------------


@dataclass(frozen=True)
class MergeNode:
    """One slot of a bitonic merge tournament round, as public schedule.

    ``round`` counts from 1 (round 0 is the input runs); ``slot`` is the
    node's position within its round.  ``left``/``right`` are *slot*
    indices in the previous round; ``right is None`` marks a carry — an odd
    tail run promoted unmerged to the next round, executing zero
    comparators.  ``left_rows``/``right_rows``/``rows`` are the public run
    lengths, or ``None`` when the lengths are only revealed at run time
    (the ``"revealed"`` padding mode).

    The whole tournament — which pairs merge, in which bracket position,
    at which sizes — is produced by :func:`tournament_schedule`, a pure
    function of ``(run count, run lengths)``.  Both the plan
    compilers (which emit one ``merge_pair`` op node per pairing) and the
    runtime merge (:func:`repro.shard.merge.oblivious_merge_runs`, one
    ``executor.map`` per round) consume this same function, so the executed
    pairing cannot drift from the compiled artifact.
    """

    round: int
    slot: int
    left: int
    right: int | None
    left_rows: int | None = None
    right_rows: int | None = None
    rows: int | None = None

    @property
    def is_carry(self) -> bool:
        return self.right is None


def tournament_schedule(runs: int, run_lengths=None) -> tuple[MergeNode, ...]:
    """The balanced tournament's full pairing schedule for ``runs`` runs.

    Pure in ``(runs, run_lengths)`` — the public values the merge schedule
    is allowed to depend on.  Round ``r`` pairs the previous round's slots
    ``(2s, 2s+1)`` in order; an odd tail slot is carried.  With
    ``run_lengths`` given, every node also carries its public input and
    output lengths, mirroring :func:`repro.shard.merge.oblivious_merge_runs`
    exactly.
    """
    if runs < 0:
        raise InputError(f"tournament needs a non-negative run count, got {runs}")
    if run_lengths is not None and len(run_lengths) != runs:
        raise InputError(
            f"tournament over {runs} runs got {len(run_lengths)} run lengths"
        )
    if run_lengths is None:
        lengths: list[int | None] = [None] * runs
    else:
        lengths = [int(length) for length in run_lengths]
    nodes: list[MergeNode] = []
    rnd = 0
    while len(lengths) > 1:
        rnd += 1
        merged: list[int | None] = []
        for slot in range((len(lengths) + 1) // 2):
            li, ri = 2 * slot, 2 * slot + 1
            if ri >= len(lengths):
                nodes.append(
                    MergeNode(rnd, slot, li, None, lengths[li], None, lengths[li])
                )
                merged.append(lengths[li])
                continue
            la, lb = lengths[li], lengths[ri]
            rows = None if la is None or lb is None else la + lb
            nodes.append(MergeNode(rnd, slot, li, ri, la, lb, rows))
            merged.append(rows)
        lengths = merged
    return tuple(nodes)


class PlanBuilder:
    """Accumulates nodes in topological order and freezes them into a Plan."""

    def __init__(self, workload: str, engine: str, **shapes) -> None:
        self.workload = workload
        self.engine = engine
        self.shapes = tuple(
            (name, _freeze(value, f"shape {name!r}"))
            for name, value in sorted(shapes.items())
        )
        self._nodes: list[OpNode] = []

    def add(self, op: str, inputs: tuple[int, ...] = (), **attrs) -> int:
        """Append a node; returns its index for downstream edges."""
        for index in inputs:
            if not 0 <= index < len(self._nodes):
                raise InputError(
                    f"plan node {op!r} references unknown input {index}"
                )
        self._nodes.append(
            OpNode(
                op=op,
                attrs=tuple(
                    (name, _freeze(value, f"{op}.{name}"))
                    for name, value in sorted(attrs.items())
                ),
                inputs=tuple(int(i) for i in inputs),
            )
        )
        return len(self._nodes) - 1

    def embed(self, plan: Plan, **extra_attrs) -> tuple[int, ...]:
        """Inline another plan's nodes (e.g. one cascade step's join plan).

        Node indices are offset to stay valid; ``extra_attrs`` (typically
        ``step=s``) are merged into every embedded node so the flattened
        DAG remains self-describing.  Returns the new indices.
        """
        offset = len(self._nodes)
        for node in plan.nodes:
            merged = dict(node.attrs)
            for name, value in extra_attrs.items():
                merged[name] = _freeze(value, f"{node.op}.{name}")
            self._nodes.append(
                OpNode(
                    op=node.op,
                    attrs=tuple(sorted(merged.items())),
                    inputs=tuple(i + offset for i in node.inputs),
                )
            )
        return tuple(range(offset, len(self._nodes)))

    def build(self) -> Plan:
        return Plan(
            workload=self.workload,
            engine=self.engine,
            shapes=self.shapes,
            nodes=tuple(self._nodes),
        )
