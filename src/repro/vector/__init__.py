"""Vectorised (numpy) engine: same algorithms, benchmark-scale throughput.

Covers every user-facing scenario of the traced reference engine — binary
join, multiway cascade, and grouped aggregation — with bit-identical
outputs; register-level access is replaced by whole-array primitives whose
schedule depends only on public sizes.
"""

from .aggregate import vector_group_by, vector_join_aggregate
from .baseline import vector_sort_merge_join
from .join import vector_oblivious_join
from .multiway import VectorMultiwayStats, vector_multiway_join
from .sort import is_sorted_by, stage_pairs, vector_bitonic_sort

__all__ = [
    "vector_group_by",
    "vector_join_aggregate",
    "vector_sort_merge_join",
    "vector_oblivious_join",
    "VectorMultiwayStats",
    "vector_multiway_join",
    "is_sorted_by",
    "stage_pairs",
    "vector_bitonic_sort",
]
