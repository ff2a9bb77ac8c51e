"""The obliviousness taxonomy of §3.2 — levels, settings, attacks (Table 2).

Three nested levels of obliviousness:

* **Level I** — public-memory accesses are oblivious, but the program uses a
  non-constant amount of local memory non-obliviously.
* **Level II** — additionally, local memory is bounded by a constant (the
  paper's own algorithm; "doubly-oblivious" in Oblix's terminology).
* **Level III** — the full control flow, down to individual instructions, is
  input-independent: the program is circuit-like.

Table 2 maps each level to the side-channel attacks it still admits in each
deployment setting; :func:`vulnerability_profile` reproduces that matrix and
:func:`classify` assigns a level from a program's declared properties.

Orthogonal to the *levels* (how faithfully a trace hides data) is the
question of *what public values the trace is allowed to depend on* — the
leakage profile.  :data:`LEAKAGE_PROFILES` / :func:`leakage_profile` give
the machine-readable answer per engine and padding mode; the prose version,
with the threat model and the residual leaks spelled out, is the
first-class guide in ``docs/leakage.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Level(Enum):
    """The three degrees of obliviousness of §3.2."""

    I = 1
    II = 2
    III = 3

    def __str__(self) -> str:
        return {1: "I", 2: "II", 3: "III"}[self.value]


class Setting(Enum):
    """Deployment settings for computing on encrypted data (§2)."""

    EXTERNAL_MEMORY = "Ext. Memory"
    SECURE_COPROCESSOR = "Secure Coprocessor"
    TEE = "TEE (enclave)"
    SECURE_COMPUTATION = "Secure Computation"
    FHE = "FHE"


class Attack(Enum):
    """Side-channel attack classes named in Table 2."""

    TIMING = "t"
    PAGE_DATA = "pd"
    PAGE_CODE = "pc"
    CACHE_TIMING = "c"
    BRANCHING = "b"


#: Table 2's lower portion: residual attack surface per (setting, level).
#: ``None`` marks settings where the level distinction is not applicable.
_VULNERABILITIES: dict[Setting, dict[Level, tuple[Attack, ...] | None]] = {
    Setting.EXTERNAL_MEMORY: {
        Level.I: (Attack.TIMING,),
        Level.II: (Attack.TIMING,),
        Level.III: (),
    },
    Setting.SECURE_COPROCESSOR: {
        Level.I: (Attack.TIMING,),
        Level.II: (Attack.TIMING,),
        Level.III: (),
    },
    Setting.TEE: {
        Level.I: (Attack.TIMING, Attack.PAGE_DATA, Attack.PAGE_CODE,
                  Attack.CACHE_TIMING, Attack.BRANCHING),
        Level.II: (Attack.TIMING, Attack.PAGE_CODE, Attack.CACHE_TIMING,
                   Attack.BRANCHING),
        Level.III: (),
    },
    Setting.SECURE_COMPUTATION: {Level.I: None, Level.II: None, Level.III: ()},
    Setting.FHE: {Level.I: None, Level.II: None, Level.III: ()},
}


@dataclass(frozen=True)
class ProgramProfile:
    """Security-relevant properties a program declares about itself."""

    name: str
    oblivious_public_accesses: bool
    constant_local_memory: bool
    circuit_like: bool

    def level(self) -> Level | None:
        return classify(self)


def classify(profile: ProgramProfile) -> Level | None:
    """Assign the §3.2 level implied by a program's properties.

    Returns ``None`` when the program is not oblivious at all (e.g. the
    standard sort-merge join).
    """
    if not profile.oblivious_public_accesses:
        return None
    if not profile.constant_local_memory:
        return Level.I
    if not profile.circuit_like:
        return Level.II
    return Level.III


def vulnerability_profile(setting: Setting, level: Level) -> tuple[Attack, ...] | None:
    """Residual attacks for a level-``level`` program in ``setting``.

    ``None`` means "not applicable" (local-memory side channels have no
    analogue in circuit-based settings below level III).
    """
    return _VULNERABILITIES[setting][level]


def has_constant_local_memory(level: Level) -> bool:
    """Upper portion of Table 2, first row."""
    return level in (Level.II, Level.III)


def is_circuit_like(level: Level) -> bool:
    """Upper portion of Table 2, second row."""
    return level is Level.III


#: Profiles of the algorithms implemented in this repository.
KNOWN_PROFILES: dict[str, ProgramProfile] = {
    "sort_merge_join": ProgramProfile(
        "sort_merge_join",
        oblivious_public_accesses=False,
        constant_local_memory=True,
        circuit_like=False,
    ),
    "oblivious_join": ProgramProfile(
        "oblivious_join",
        oblivious_public_accesses=True,
        constant_local_memory=True,
        circuit_like=False,
    ),
    "oblivious_join_transformed": ProgramProfile(
        "oblivious_join_transformed",
        oblivious_public_accesses=True,
        constant_local_memory=True,
        circuit_like=True,
    ),
    "nested_loop_join": ProgramProfile(
        "nested_loop_join",
        oblivious_public_accesses=True,
        constant_local_memory=True,
        circuit_like=False,
    ),
    "opaque_pkfk_join": ProgramProfile(
        "opaque_pkfk_join",
        oblivious_public_accesses=True,
        constant_local_memory=True,
        circuit_like=False,
    ),
    "goodrich_external_memory": ProgramProfile(
        "goodrich_external_memory",
        oblivious_public_accesses=True,
        constant_local_memory=False,
        circuit_like=False,
    ),
}


#: What each engine's adversary view is a function of, per padding mode —
#: the machine-readable twin of the table in ``docs/leakage.md`` (which
#: also defines each symbol).  Symbols: ``n1``/``n2``/``n_i`` input sizes,
#: ``m`` join output size, ``step_sizes`` multiway intermediate sizes,
#: ``bound``/``bounds`` the public padding bounds, ``k`` shard count,
#: ``partition_plan`` the (n, k)-determined shard layout, ``g`` the final
#: group count, ``m_final`` the compacted final output size (always
#: revealed — the paper's model accepts it).  Every sharded operator is the
#: ``vector`` text over the sharded sort, so a sharded profile is the
#: ``vector`` one plus ``k``, ``partition_plan`` and the store's layout.
#: ``m_final`` and ``g`` (final output / group count after compaction) are
#: revealed in *every* mode — the paper's model accepts that — so every
#: profile lists them.  Store-backed (out-of-core) inputs add
#: ``block_rows`` (the store's fixed rows-per-block layout constant) and
#: ``block_ids`` (which block ids a query's scan reads, in order — every
#: block of each input column once, a pure function of
#: ``(n, block_rows)``); see the block-access-pattern section of
#: ``docs/leakage.md``.
LEAKAGE_PROFILES: dict[tuple[str, str], tuple[str, ...]] = {
    ("traced", "revealed"): (
        "n1", "n2", "m", "step_sizes", "tree", "m_final", "g",
    ),
    ("traced", "bounded"): (
        "n1", "n2", "bound", "bounds", "tree", "target", "m_final", "g",
    ),
    ("traced", "worst_case"): ("n1", "n2", "tree", "m_final", "g"),
    ("vector", "revealed"): (
        "n1", "n2", "m", "step_sizes", "tree", "m_final", "g",
    ),
    ("vector", "bounded"): (
        "n1", "n2", "bound", "bounds", "tree", "target", "m_final", "g",
    ),
    ("vector", "worst_case"): ("n1", "n2", "tree", "m_final", "g"),
    ("sharded", "revealed"): (
        "n1", "n2", "k", "partition_plan", "m", "step_sizes",
        "tree", "block_rows", "block_ids", "m_final", "g",
    ),
    ("sharded", "bounded"): (
        "n1", "n2", "k", "partition_plan", "bound", "bounds",
        "tree", "target", "block_rows", "block_ids", "m_final", "g",
    ),
    ("sharded", "worst_case"): (
        "n1", "n2", "k", "partition_plan", "tree", "block_rows",
        "block_ids", "m_final", "g",
    ),
}


#: What serving a *series* of queries from one warm process
#: (``repro serve``) reveals beyond the per-query engine profiles above.
#: Every symbol is derived from values the single-query profiles already
#: treat as public — the one cache keys on table identity and version by
#: construction — but repetition makes *reuse* observable:
#: ``query_shape`` the per-query (op, table identities, shape) tuple,
#: ``shape_reuse`` the fact that two queries shared an encoding-cache
#: entry (same table at the same version; equal plan *shapes* alone share
#: nothing), ``warm_timing`` the cold-vs-warm latency difference (cached
#: encodings, an already-created pool) a timing observer can use to infer
#: that reuse, and ``queue_depth`` the admission queue length reported in
#: (and observable through) per-query stats under concurrency.  The prose
#: twin is the "What repetition reveals" section of ``docs/leakage.md``;
#: a test keeps the two in sync.
SERVICE_LEAKAGE: tuple[str, ...] = (
    "query_shape",
    "shape_reuse",
    "warm_timing",
    "queue_depth",
)


#: What an observer of the *untrusted block store* (the disk under a
#: :class:`~repro.store.FileStore`, or the bus it travels) learns when a
#: store-backed query runs.  Every symbol is a pure function of values
#: the engine profiles above already treat as public: ``block_bytes`` the
#: store's fixed block size (a layout constant), ``num_blocks`` each
#: column's block count ``ceil(n / block_rows)`` (a function of the
#: public ``n``), ``block_access_order`` the sequence of ``(column,
#: block id)`` reads — exactly the plan's scan order, a pure function
#: of ``(n, block_rows)`` — and ``write_pattern`` which
#: slots were rewritten (each rewrite under a fresh nonce, so two
#: ciphertexts of one block are unlinkable; the *fact* of the write is
#: visible).  Cache hit/miss/eviction and residency counters never leave
#: trusted memory — they are local diagnostics, not part of this view.
#: The prose twin is the block-access-pattern section of
#: ``docs/leakage.md``; a test keeps the two in sync.
STORE_LEAKAGE: tuple[str, ...] = (
    "block_bytes",
    "num_blocks",
    "block_access_order",
    "write_pattern",
)


def leakage_profile(engine: str, padding: str = "revealed") -> tuple[str, ...]:
    """Public values the (engine, padding) adversary view may depend on.

    The authoritative prose table — including what each symbol means, the
    abort leak of ``"bounded"`` mode, and the reveals padding does *not*
    remove (e.g. the sharded filter's per-shard survivor counts) — lives in
    ``docs/leakage.md``; keep the two in sync (a test cross-checks them).
    """
    try:
        return LEAKAGE_PROFILES[(engine, padding)]
    except KeyError:
        raise KeyError(
            f"no leakage profile for engine={engine!r}, padding={padding!r}; "
            f"known: {sorted(LEAKAGE_PROFILES)}"
        ) from None


def render_table2() -> str:
    """Table 2 as printable text (used by the bench that regenerates it)."""
    lines = []
    header = f"{'Property/Setting':28s}" + "".join(f"{str(l):>6s}" for l in Level)
    lines.append(header)
    lines.append("-" * len(header))
    lines.append(
        f"{'Constant local memory':28s}"
        + "".join(f"{'yes' if has_constant_local_memory(l) else 'x':>6s}" for l in Level)
    )
    lines.append(
        f"{'Circuit-like':28s}"
        + "".join(f"{'yes' if is_circuit_like(l) else 'x':>6s}" for l in Level)
    )
    for setting in Setting:
        cells = []
        for level in Level:
            attacks = vulnerability_profile(setting, level)
            if attacks is None:
                cells.append("n/a")
            elif not attacks:
                cells.append("ok")
            else:
                cells.append(",".join(a.value for a in attacks))
        lines.append(f"{setting.value:28s}" + "".join(f"{c:>6s}" for c in cells))
    return "\n".join(lines)
