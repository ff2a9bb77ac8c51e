"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  Obliviousness violations get their own branch
because they signal a *security* bug rather than a usage bug.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InputError(ReproError, ValueError):
    """An argument supplied by the caller is invalid."""


class SchemaError(InputError):
    """A table schema is malformed or incompatible with an operation."""


class CapacityError(InputError):
    """A destination array is too small for the requested operation."""


class BoundError(InputError):
    """A true output size exceeded its public padding bound.

    Raised by padded execution (``padding="bounded"``) when an intermediate
    join result is larger than the bound the caller declared public.  Note
    that *aborting is itself a one-bit leak* ("the result exceeded B") —
    callers who cannot afford it must use ``padding="worst_case"``, whose
    bounds can never be exceeded.  See ``docs/leakage.md``.
    """


class StoreIntegrityError(ReproError):
    """A stored block failed authentication or came back short.

    Tampered, moved or truncated slot, or the wrong key.  Not an
    :class:`InputError`: the caller's arguments were fine, the untrusted
    store's bytes were not.  See ``docs/leakage.md`` for what is *not*
    detected (replay of an older slot at its own index).
    """


class InjectivityError(InputError):
    """A destination map handed to oblivious distribution is not injective."""


class ObliviousnessError(ReproError):
    """A security property was violated (trace mismatch, label leak, ...)."""


class TraceMismatchError(ObliviousnessError):
    """Two executions that must produce equal traces produced different ones."""


class TypingError(ObliviousnessError):
    """A program failed to type-check in the Figure-6 type system."""


class EnclaveError(ReproError):
    """The enclave simulation was configured or driven incorrectly."""
