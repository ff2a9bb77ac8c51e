"""The paper's core contribution: the oblivious equi-join and its stages."""

from .aggregate import GroupAggregate, oblivious_group_by, oblivious_join_aggregate
from .align import align_table, compute_alignment_indices
from .augment import augment_tables, fill_dimensions
from .distribute import (
    ext_oblivious_distribute,
    oblivious_distribute,
    probabilistic_distribute,
)
from .entry import Entry, EntryCodec, entries_from_pairs, pairs_from_entries
from .expand import assign_first_slots, fill_down, oblivious_expand
from .join import JoinResult, oblivious_join, oblivious_join_arrays
from .multiway import MultiwayResult, cascade, oblivious_multiway_join
from .padding import (
    ANCHOR_KEY,
    DUMMY_KEY_BASE,
    PADDING_MODES,
    cascade_bounds,
    check_padding,
    compact_pairs,
    join_bound,
)
from .stats import TABLE3_GROUPS, JoinCounters, PhaseStats

__all__ = [
    "GroupAggregate",
    "oblivious_group_by",
    "oblivious_join_aggregate",
    "align_table",
    "compute_alignment_indices",
    "augment_tables",
    "fill_dimensions",
    "ext_oblivious_distribute",
    "oblivious_distribute",
    "probabilistic_distribute",
    "Entry",
    "EntryCodec",
    "entries_from_pairs",
    "pairs_from_entries",
    "assign_first_slots",
    "fill_down",
    "oblivious_expand",
    "JoinResult",
    "oblivious_join",
    "oblivious_join_arrays",
    "MultiwayResult",
    "cascade",
    "oblivious_multiway_join",
    "ANCHOR_KEY",
    "DUMMY_KEY_BASE",
    "PADDING_MODES",
    "cascade_bounds",
    "check_padding",
    "compact_pairs",
    "join_bound",
    "TABLE3_GROUPS",
    "JoinCounters",
    "PhaseStats",
]
