"""Mini relational engine: schemas, tables, and oblivious query operators."""

from .distinct import oblivious_distinct, oblivious_union
from .encoding import DictionaryEncoder
from .encoding_cache import EncodingCache
from .query import ObliviousEngine
from .schema import COLUMN_TYPES, Column, Schema
from .table import DBTable

__all__ = [
    "oblivious_distinct",
    "oblivious_union",
    "DictionaryEncoder",
    "EncodingCache",
    "ObliviousEngine",
    "COLUMN_TYPES",
    "Column",
    "Schema",
    "DBTable",
]
