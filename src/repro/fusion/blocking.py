"""Blocking: cheap candidate generation for duplicate detection.

Comparing every pair of rows is quadratic; blocking groups rows by a cheap
key (e.g. the postcode, or a normalised prefix of the street) so that only
rows sharing a block are compared. This is the standard first stage of
entity resolution and keeps duplicate detection tractable on the scenario's
source sizes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

from repro.relational.keys import normalise_key
from repro.relational.table import Row, Table

__all__ = ["block_by_attributes", "block_by_key_function", "candidate_pairs"]


def block_by_attributes(table: Table, attributes: Sequence[str]) -> dict[tuple, list[int]]:
    """Group row indexes by the normalised values of ``attributes``.

    Rows with NULL in any blocking attribute end up in their own singleton
    blocks (they can never be confidently matched on that key).
    """
    schema = table.schema
    positions = [schema.position(name) if name in schema else None for name in attributes]
    blocks: dict[tuple, list[int]] = defaultdict(list)
    for index, values in enumerate(table.tuples()):
        key = tuple(
            normalise_key(values[position]) if position is not None else None
            for position in positions
        )
        if any(part is None for part in key):
            blocks[("__null__", index)].append(index)
        else:
            blocks[key].append(index)
    return dict(blocks)


def block_by_key_function(
    table: Table, key_function: Callable[[Row], object]
) -> dict[object, list[int]]:
    """Group row indexes by an arbitrary key function."""
    blocks: dict[object, list[int]] = defaultdict(list)
    for index, row in enumerate(table.rows()):
        blocks[key_function(row)].append(index)
    return dict(blocks)


def candidate_pairs(blocks: dict, *, max_block_size: int = 200) -> list[tuple[int, int]]:
    """All within-block row-index pairs (i < j).

    Oversized blocks (low-selectivity keys) are skipped; they would dominate
    the runtime while contributing mostly non-duplicates.
    """
    pairs: list[tuple[int, int]] = []
    for members in blocks.values():
        if len(members) < 2 or len(members) > max_block_size:
            continue
        ordered = sorted(members)
        for i, left in enumerate(ordered):
            for right in ordered[i + 1:]:
                pairs.append((left, right))
    return pairs
