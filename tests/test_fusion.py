"""Unit tests for blocking, duplicate detection, fusion and their transducers."""

from __future__ import annotations

import pytest

from repro.core import KnowledgeBase, Predicates
from repro.fusion import (
    DataFuser,
    DataFusionTransducer,
    DuplicateDetectionTransducer,
    DuplicateDetector,
    DuplicateDetectorConfig,
    DuplicatePair,
    DUPLICATES_ARTIFACT_KEY,
    FusionPolicy,
    block_by_attributes,
    block_by_key_function,
    candidate_pairs,
    cluster_pairs,
)
from repro.provenance.model import OPERATOR_MAPPING, ProvenanceStore
from repro.relational import Attribute, DataType, Schema, Table

LISTING_SCHEMA = Schema("property_result", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("bedrooms", DataType.INTEGER),
    Attribute("description", DataType.STRING),
])


def listing_table() -> Table:
    return Table(LISTING_SCHEMA, [
        # rows 0 and 1 are the same property listed on two portals
        ("Oak Street", "M1 1AA", 250000.0, 3, "A 3 bedroom detached property"),
        ("Oak Street", "m1 1aa", 250000.0, 3, "A 3 bedroom detached property"),
        # row 2 is a different property in the same postcode
        ("Oak Street", "M1 1AA", 410000.0, 4, "A 4 bedroom detached property with garden"),
        # row 3 is unrelated
        ("Elm Road", "M5 3CC", 180000.0, 2, "A 2 bedroom terraced property"),
    ])


class TestBlocking:
    def test_block_by_attributes_normalises_keys(self):
        blocks = block_by_attributes(listing_table(), ["postcode"])
        assert len(blocks[("m11aa",)]) == 3

    def test_null_keys_become_singletons(self):
        table = listing_table().extend([(None, None, 1.0, 1, "x")])
        blocks = block_by_attributes(table, ["postcode"])
        singleton_blocks = [b for key, b in blocks.items() if key[0] == "__null__"]
        assert singleton_blocks and all(len(b) == 1 for b in singleton_blocks)

    def test_block_by_key_function(self):
        blocks = block_by_key_function(listing_table(), lambda row: row["bedrooms"])
        assert set(blocks) == {3, 4, 2}

    def test_candidate_pairs_skips_large_blocks(self):
        blocks = {"big": list(range(500)), "small": [1, 2]}
        pairs = candidate_pairs(blocks, max_block_size=100)
        assert pairs == [(1, 2)]


class TestDuplicateDetector:
    def test_finds_true_duplicate_only(self):
        pairs = DuplicateDetector().detect(listing_table())
        assert [pair.as_tuple() for pair in pairs] == [(0, 1)]

    def test_threshold_controls_aggressiveness(self):
        lax = DuplicateDetector(DuplicateDetectorConfig(threshold=0.5))
        assert len(lax.detect(listing_table())) >= 1

    def test_pair_similarity_null_neutral(self):
        table = Table(LISTING_SCHEMA, [
            ("Oak Street", "M1 1AA", None, 3, "x"),
            ("Oak Street", "M1 1AA", 250000.0, 3, "x"),
        ])
        rows = table.rows()
        score = DuplicateDetector().pair_similarity(rows[0], rows[1])
        assert 0.5 < score < 1.0

    def test_cluster_pairs_union_find(self):
        pairs = [DuplicatePair(0, 1, 0.95), DuplicatePair(1, 2, 0.95), DuplicatePair(4, 5, 0.99)]
        clusters = cluster_pairs(pairs, size=6)
        assert sorted(map(tuple, clusters)) == [(0, 1, 2), (4, 5)]


class TestDataFuser:
    def test_prefer_non_null_keeps_first_value(self):
        table = listing_table()
        pairs = [DuplicatePair(0, 1, 0.95)]
        outcome = DataFuser().fuse(table, pairs)
        assert len(outcome.table) == 3
        assert outcome.rows_removed == 1
        assert outcome.clusters_fused == 1
        assert outcome.table[0]["postcode"] == "M1 1AA"

    def test_majority_and_numeric_policies(self):
        schema = Schema("t", [Attribute("price", DataType.FLOAT),
                              Attribute("type", DataType.STRING)])
        table = Table(schema, [(100.0, "flat"), (120.0, "flat"), (110.0, "FLAT")])
        pairs = [DuplicatePair(0, 1, 0.9), DuplicatePair(1, 2, 0.9)]
        fuser = DataFuser(attribute_policies={"price": FusionPolicy.MIN,
                                              "type": FusionPolicy.MAJORITY})
        outcome = fuser.fuse(table, pairs)
        assert len(outcome.table) == 1
        assert outcome.table[0]["price"] == 100.0
        assert outcome.table[0]["type"].lower() == "flat"
        assert outcome.conflicts_resolved >= 1

    def test_longest_policy(self):
        schema = Schema("t", [Attribute("description", DataType.STRING)])
        table = Table(schema, [("short",), ("a much longer description",)])
        fuser = DataFuser(default_policy=FusionPolicy.LONGEST)
        outcome = fuser.fuse(table, [DuplicatePair(0, 1, 0.9)])
        assert outcome.table[0]["description"] == "a much longer description"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            DataFuser(default_policy="coin_flip")
        with pytest.raises(ValueError):
            DataFuser(attribute_policies={"x": "coin_flip"})

    def test_no_duplicates_is_identity(self):
        table = listing_table()
        outcome = DataFuser().fuse(table, [])
        assert outcome.table is table
        assert outcome.rows_removed == 0

    @pytest.mark.parametrize("policy", [FusionPolicy.PREFER_NON_NULL, FusionPolicy.LONGEST])
    def test_fuse_cluster_kept_key_is_the_key_fuse_records(self, policy):
        schema = Schema("t", [Attribute("price", DataType.FLOAT),
                              Attribute("_row_id", DataType.STRING)])
        table = Table(schema, [(100.0, "a:9"), (100.0, "a:10")])
        store = ProvenanceStore()
        for key in table.row_keys():
            store.record_tuple("t", key, operator=OPERATOR_MAPPING,
                               witnesses=(frozenset((store.ref("a", key),)),))
        fuser = DataFuser(default_policy=policy)
        fuser.fuse(table, [DuplicatePair(0, 1, 0.99)], provenance=store)
        [recorded] = [key for key in table.row_keys() if store.tuple_lineage("t", key)]
        _merged, _conflicts, kept = fuser.fuse_cluster(
            "t", schema.attribute_names, table.tuples(), table.row_keys())
        assert kept == recorded


class TestFusionTransducers:
    def setup_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.catalog.register(listing_table())
        kb.assert_fact(Predicates.RESULT, "property_result", "m1", 4)
        return kb

    def test_detection_then_fusion(self):
        kb = self.setup_kb()
        detection = DuplicateDetectionTransducer()
        assert detection.can_run(kb)
        detection.execute(kb)
        assert kb.count(Predicates.DUPLICATE) == 1
        assert kb.get_artifact(DUPLICATES_ARTIFACT_KEY)["property_result"]

        fusion = DataFusionTransducer()
        assert fusion.can_run(kb)
        outcome = fusion.execute(kb)
        assert "property_result" in outcome.tables_written
        assert len(kb.get_table("property_result")) == 3
        # the result fact is refreshed with the new row count
        assert kb.has(Predicates.RESULT, "property_result", "m1", 3)

    def test_fusion_not_runnable_without_duplicates(self):
        kb = self.setup_kb()
        assert not DataFusionTransducer().can_run(kb)
