"""Key normalisation shared by joins, indexes and entity resolution.

Web-extracted values carry formatting noise (case drift, stray whitespace —
think ``"M1 1AA"`` vs ``"m11aa"``). Every component that uses values as
*keys* — equi-joins in mapping execution, CFD witness lookups, accuracy and
relevance indexes, duplicate blocking — normalises them through
:func:`normalise_key` so the same real-world value always maps to the same
key, regardless of which source it came from.
"""

from __future__ import annotations

from typing import Any

from repro.relational.types import is_null

__all__ = ["normalise_key", "normalise_key_tuple"]


def normalise_key(value: Any) -> Any:
    """Normalise one value for use as a join/lookup key.

    Strings are lower-cased and have all whitespace removed; integral floats
    become ints; NULLs map to None. Non-key comparisons (e.g. accuracy of a
    description) should *not* use this — it is deliberately aggressive.
    """
    if isinstance(value, str):  # tested first: the common case, and never NULL
        return "".join(value.lower().split())
    if is_null(value):
        return None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def normalise_key_tuple(values) -> tuple:
    """Normalise a composite key."""
    return tuple(normalise_key(value) for value in values)
