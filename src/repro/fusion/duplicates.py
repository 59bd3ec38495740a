"""Duplicate detection over wrangling results.

After the union of overlapping sources (Rightmove and Onthemarket list many
of the same properties), the result contains near-duplicate rows. The
detector blocks on a cheap key, scores candidate pairs with a per-attribute
similarity, and reports pairs above a threshold — the input the fusion
component needs (the paper mentions "a data fusion transducer may start to
evaluate when duplicates have been detected").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Sequence

from repro.fusion.blocking import block_by_attributes, candidate_pairs
from repro.matching.similarity import jaro_winkler_similarity
from repro.relational.table import Row, Table
from repro.relational.types import is_null

__all__ = [
    "DuplicatePair",
    "DuplicateDetectorConfig",
    "DuplicateDetector",
    "cluster_row_keys",
]


@dataclass(frozen=True)
class DuplicatePair:
    """Two row indexes judged to refer to the same real-world entity."""

    left_index: int
    right_index: int
    score: float

    def as_tuple(self) -> tuple[int, int]:
        """The pair as an (i, j) tuple with i < j."""
        return (min(self.left_index, self.right_index),
                max(self.left_index, self.right_index))


@dataclass(frozen=True)
class DuplicateDetectorConfig:
    """Tuning knobs of duplicate detection."""

    #: Attributes used for blocking (fall back to comparing all pairs when
    #: none of them exist in the table).
    blocking_attributes: tuple[str, ...] = ("postcode",)
    #: Attributes compared to score a candidate pair (missing ones ignored).
    #: Price and description are the discriminating attributes in the
    #: real-estate domain: two listings of the *same* property agree on them
    #: almost exactly, while different properties on the same street do not.
    comparison_attributes: tuple[str, ...] = (
        "street",
        "price",
        "bedrooms",
        "type",
        "description",
    )
    #: Pairs scoring at or above this are duplicates. The default is
    #: deliberately conservative: false merges (fusing two different
    #: properties) damage accuracy far more than missed duplicates damage
    #: conciseness.
    threshold: float = 0.92
    #: Relative tolerance for numeric attribute agreement.
    numeric_tolerance: float = 0.01
    #: Oversized blocks are skipped.
    max_block_size: int = 200


class DuplicateDetector:
    """Finds duplicate row pairs within one table."""

    def __init__(self, config: DuplicateDetectorConfig | None = None):
        self._config = config or DuplicateDetectorConfig()

    @property
    def config(self) -> DuplicateDetectorConfig:
        """The detector configuration."""
        return self._config

    def detect(self, table: Table, touched: AbstractSet[int] | None = None) -> list[DuplicatePair]:
        """All duplicate pairs in ``table`` (row-index pairs with scores).

        With ``touched`` (row positions), only candidate pairs with at least
        one touched endpoint are scored: the delta of detection after those
        rows changed, in the same order the full detection reports them.
        Full detection is the delta from the empty state, so the incremental
        engine re-detects through this very method.
        """
        config = self._config
        blocking = [name for name in config.blocking_attributes if name in table.schema]
        if blocking:
            blocks = block_by_attributes(table, blocking)
            pairs = candidate_pairs(blocks, max_block_size=config.max_block_size)
            if touched is not None:
                pairs = [(i, j) for i, j in pairs if i in touched or j in touched]
        elif touched is None:
            indexes = range(len(table))
            pairs = [(i, j) for i in indexes for j in indexes if i < j]
        else:
            pairs = sorted(
                {(min(i, j), max(i, j)) for i in touched for j in range(len(table)) if i != j}
            )
        duplicates = []
        for left_index, right_index in pairs:
            # Row views only for candidate endpoints, and only while a pair
            # is scored: holding one per row keeps a large table's worth of
            # objects alive for the collector to traverse.
            score = self.pair_similarity(table[left_index], table[right_index])
            if score >= config.threshold:
                duplicates.append(DuplicatePair(left_index, right_index, round(score, 6)))
        return duplicates

    def pair_similarity(self, left: Row, right: Row) -> float:
        """Mean per-attribute similarity over the comparison attributes.

        Attributes missing from the schema are skipped; attributes where
        either side is NULL contribute a neutral 0.5 (absence of evidence).
        """
        config = self._config
        scores = []
        for attribute in config.comparison_attributes:
            if attribute not in left.schema or attribute not in right.schema:
                continue
            left_value, right_value = left.get(attribute), right.get(attribute)
            if is_null(left_value) or is_null(right_value):
                scores.append(0.5)
                continue
            scores.append(self._value_similarity(left_value, right_value))
        if not scores:
            return 0.0
        return sum(scores) / len(scores)

    def _value_similarity(self, left, right) -> float:
        if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
                and not isinstance(left, bool) and not isinstance(right, bool):
            left_value, right_value = float(left), float(right)
            if left_value == right_value:
                return 1.0
            magnitude = max(abs(left_value), abs(right_value))
            if magnitude == 0:
                return 1.0
            difference = abs(left_value - right_value) / magnitude
            if difference <= self._config.numeric_tolerance:
                return 1.0 - difference / max(self._config.numeric_tolerance, 1e-9) * 0.5
            return max(0.0, 1.0 - difference)
        return jaro_winkler_similarity(str(left).strip().lower(), str(right).strip().lower())


def cluster_pairs(pairs: Sequence[DuplicatePair], size: int) -> list[list[int]]:
    """Union-find clustering of duplicate pairs into entity clusters.

    Returns only clusters with at least two members; ``size`` is the number
    of rows in the underlying table.
    """
    parent = list(range(size))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(left: int, right: int) -> None:
        root_left, root_right = find(left), find(right)
        if root_left != root_right:
            parent[max(root_left, root_right)] = min(root_left, root_right)

    for pair in pairs:
        union(pair.left_index, pair.right_index)
    clusters: dict[int, list[int]] = {}
    for index in range(size):
        clusters.setdefault(find(index), []).append(index)
    return [sorted(members) for members in clusters.values() if len(members) > 1]


def cluster_row_keys(table: Table, pairs: Sequence[DuplicatePair]) -> list[list[str]]:
    """Duplicate clusters as stable row keys instead of positional indexes.

    Row keys (see :meth:`~repro.relational.table.Table.row_keys`) are what
    the provenance store and feedback annotations are keyed on, so this is
    the form lineage consumers want clusters in — positional indexes go
    stale as soon as fusion rewrites the table.
    """
    keys = table.row_keys()
    return [[keys[member] for member in members]
            for members in cluster_pairs(pairs, len(table))]
