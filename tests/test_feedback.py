"""Unit tests for feedback annotations, assimilation and feedback transducers."""

from __future__ import annotations

import pytest

from repro.core import Feedback, KnowledgeBase, Predicates
from repro.feedback import (
    FeedbackAssimilator,
    FeedbackCollector,
    FeedbackRepairTransducer,
    MappingEvaluationTransducer,
    simulate_feedback,
)
from repro.feedback.transducers import apply_feedback_marks, feedback_marks
from repro.matching import Correspondence, MatchSet
from repro.provenance.model import OPERATOR_FEEDBACK, OPERATOR_MAPPING, ProvenanceStore
from repro.relational import Attribute, DataType, Schema, Table

RESULT_SCHEMA = Schema("property_result", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("bedrooms", DataType.INTEGER),
    Attribute("_source", DataType.STRING),
    Attribute("_row_id", DataType.STRING),
])

TRUTH_SCHEMA = Schema("truth", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("bedrooms", DataType.INTEGER),
])


def result_table() -> Table:
    return Table(RESULT_SCHEMA, [
        ("Oak Street", "M1 1AA", 100000.0, 3, "rightmove", "rightmove:0"),
        ("Elm Road", "M5 3CC", 200000.0, 250, "rightmove", "rightmove:1"),   # area error
        ("Birch Close", "M4 4DD", 300000.0, 4, "onthemarket", "onthemarket:0"),
    ])


def truth_table() -> Table:
    return Table(TRUTH_SCHEMA, [
        ("Oak Street", "M1 1AA", 100000.0, 3),
        ("Elm Road", "M5 3CC", 200000.0, 2),
        ("Birch Close", "M4 4DD", 300000.0, 4),
    ])


class TestFeedbackCollector:
    def test_attribute_and_tuple_annotations(self):
        kb = KnowledgeBase()
        collector = FeedbackCollector(kb)
        collector.annotate_attribute("property_result", "rightmove:1", "bedrooms", correct=False)
        collector.annotate_tuple("property_result", "rightmove:0", correct=True)
        facts = kb.facts(Predicates.FEEDBACK)
        assert len(facts) == 2
        verdicts = {row[4] for row in facts}
        assert verdicts == {"correct", "incorrect"}
        attributes = {row[3] for row in facts}
        assert Predicates.ANY_ATTRIBUTE in attributes

    def test_annotate_many(self):
        kb = KnowledgeBase()
        collector = FeedbackCollector(kb)
        annotations = [Feedback("f1", "r", "k", "a", True), Feedback("f2", "r", "k", "b", False)]
        assert collector.annotate_many(annotations) == 2


class TestSimulateFeedback:
    def test_random_strategy_marks_against_truth(self):
        annotations = simulate_feedback(result_table(), truth_table(), ["postcode", "price"],
                                        budget=100, seed=3)
        assert annotations
        wrong = [a for a in annotations if not a.correct]
        assert all(a.attribute == "bedrooms" and a.row_key == "rightmove:1" for a in wrong)
        assert all(a.relation == "property_result" for a in annotations)

    def test_targeted_strategy_prioritises_errors(self):
        annotations = simulate_feedback(result_table(), truth_table(), ["postcode", "price"],
                                        budget=1, seed=3, strategy="targeted")
        assert len(annotations) == 1
        assert not annotations[0].correct

    def test_budget_limits_annotations(self):
        annotations = simulate_feedback(result_table(), truth_table(), ["postcode", "price"],
                                        budget=2, seed=0)
        assert len(annotations) == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            simulate_feedback(result_table(), truth_table(), ["postcode"], strategy="psychic")


class TestFeedbackAssimilation:
    def setup_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.catalog.register(result_table())
        kb.assert_fact(Predicates.RESULT, "property_result", "m1", 3)
        MatchSet([
            Correspondence("rightmove", "bedrooms", "property_result", "bedrooms", 0.9),
            Correspondence("rightmove", "street", "property_result", "street", 0.9),
        ]).assert_into(kb)
        kb.assert_fact(Predicates.FEEDBACK, "f1", "property_result", "rightmove:1",
                       "bedrooms", "incorrect")
        kb.assert_fact(Predicates.FEEDBACK, "f2", "property_result", "rightmove:0",
                       "bedrooms", "correct")
        kb.assert_fact(Predicates.FEEDBACK, "f3", "property_result", "rightmove:0",
                       "street", "correct")
        return kb

    def test_collect_evidence_by_provenance(self):
        kb = self.setup_kb()
        evidence = FeedbackAssimilator().collect_evidence(kb, None)
        bedrooms = evidence[("rightmove", "bedrooms")]
        assert bedrooms.correct == 1 and bedrooms.incorrect == 1
        assert bedrooms.error_rate == pytest.approx(0.5)
        assert evidence[("rightmove", "street")].error_rate == 0.0

    def test_tuple_level_feedback_spreads_over_attributes(self):
        kb = self.setup_kb()
        kb.assert_fact(Predicates.FEEDBACK, "f4", "property_result", "onthemarket:0",
                       "*", "incorrect")
        evidence = FeedbackAssimilator().collect_evidence(kb, None)
        assert ("onthemarket", "price") in evidence
        assert evidence[("onthemarket", "price")].incorrect == 1

    def test_revise_matches_penalises_and_rewards(self):
        kb = self.setup_kb()
        assimilator = FeedbackAssimilator(penalty_scale=0.5)
        evidence = assimilator.collect_evidence(kb, None)
        changed = assimilator.revise_matches(kb, evidence, {"rightmove": 2})
        assert changed == 2
        matches = MatchSet.from_kb(kb)
        bedrooms = matches.get(("rightmove", "bedrooms", "property_result", "bedrooms"))
        street = matches.get(("rightmove", "street", "property_result", "street"))
        assert bedrooms.score < 0.9          # penalised
        assert street.score >= 0.9           # confirmed, slightly rewarded

    def test_error_rates_artifact_includes_counts(self):
        kb = self.setup_kb()
        assimilator = FeedbackAssimilator()
        rates = assimilator.error_rates(assimilator.collect_evidence(kb, None))
        entry = rates[("rightmove", "bedrooms")]
        assert entry["error_rate"] == pytest.approx(0.5)
        assert entry["annotations"] == 2.0

    def test_source_row_counts(self):
        kb = self.setup_kb()
        counts = FeedbackAssimilator().source_row_counts(kb)
        assert counts == {"rightmove": 2, "onthemarket": 1}

    def test_no_evidence_is_a_noop(self):
        kb = KnowledgeBase()
        assimilator = FeedbackAssimilator()
        assert assimilator.collect_evidence(kb, None) == {}
        assert assimilator.revise_matches(kb, {}) == 0


class TestFeedbackTransducers:
    def setup_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.catalog.register(result_table())
        kb.assert_fact(Predicates.RESULT, "property_result", "m1", 3)
        MatchSet([Correspondence("rightmove", "bedrooms", "property_result", "bedrooms", 0.9)
                  ]).assert_into(kb)
        return kb

    def test_mapping_evaluation_runs_on_feedback(self):
        kb = self.setup_kb()
        transducer = MappingEvaluationTransducer()
        assert not transducer.can_run(kb)
        kb.assert_fact(Predicates.FEEDBACK, "f1", "property_result", "rightmove:1",
                       "bedrooms", "incorrect")
        assert transducer.can_run(kb)
        transducer.execute(kb)
        revised = MatchSet.from_kb(kb).get(
            ("rightmove", "bedrooms", "property_result", "bedrooms"))
        assert revised.score < 0.9
        assert kb.has_artifact("feedback_penalties")
        # re-materialising the result does not make it runnable again
        assert not transducer.can_run(kb)

    def test_feedback_repair_clears_cells_and_drops_rows(self):
        kb = self.setup_kb()
        kb.assert_fact(Predicates.FEEDBACK, "f1", "property_result", "rightmove:1",
                       "bedrooms", "incorrect")
        kb.assert_fact(Predicates.FEEDBACK, "f2", "property_result", "onthemarket:0",
                       "*", "incorrect")
        transducer = FeedbackRepairTransducer()
        assert transducer.can_run(kb)
        outcome = transducer.execute(kb)
        repaired = kb.get_table("property_result")
        assert len(repaired) == 2                       # tuple-level incorrect row dropped
        assert repaired[1]["bedrooms"] is None          # flagged cell cleared
        assert outcome.details["cells_cleared"] == 1
        assert outcome.details["rows_dropped"] == 1

    def test_feedback_repair_reruns_after_rematerialisation(self):
        kb = self.setup_kb()
        kb.assert_fact(Predicates.FEEDBACK, "f1", "property_result", "rightmove:1",
                       "bedrooms", "incorrect")
        transducer = FeedbackRepairTransducer()
        transducer.execute(kb)
        assert not transducer.can_run(kb)
        # a re-materialisation refreshes the result fact → runnable again
        kb.retract_fact(Predicates.RESULT, "property_result", "m1", 3)
        kb.assert_fact(Predicates.RESULT, "property_result", "m1", 3)
        assert transducer.can_run(kb)

    def test_positive_feedback_only_is_a_noop_for_repair(self):
        kb = self.setup_kb()
        kb.assert_fact(Predicates.FEEDBACK, "f1", "property_result", "rightmove:0",
                       "street", "correct")
        outcome = FeedbackRepairTransducer().execute(kb)
        assert outcome.tables_written == []


class TestApplyFeedbackMarks:
    """The one per-row feedback rewrite the transducer and the incremental
    engine share."""

    ROW = ("Elm Road", None, 200000.0, 250, "rightmove", "rightmove:1")

    def store(self):
        store = ProvenanceStore()
        witness = frozenset((store.ref("rightmove", "rightmove:1"),))
        store.record_tuple(
            "property_result", "rightmove:1", operator=OPERATOR_MAPPING, witnesses=(witness,)
        )
        return store, witness

    def apply(self, store, marked):
        return apply_feedback_marks(
            store, "property_result", "rightmove:1", self.ROW,
            RESULT_SCHEMA.attribute_names, marked,
        )

    def test_tuple_mark_drops_the_row(self):
        store, _witness = self.store()
        assert self.apply(store, {Predicates.ANY_ATTRIBUTE, "bedrooms"}) == (None, 0)
        assert "rightmove:1" in store.dropped("property_result")
        assert store.tuple_lineage("property_result", "rightmove:1") is None

    def test_cell_mark_clears_the_cell_and_keeps_prior_witnesses(self):
        store, witness = self.store()
        row, cleared = self.apply(store, {"bedrooms"})
        assert cleared == 1
        assert row == ("Elm Road", None, 200000.0, None, "rightmove", "rightmove:1")
        cell = store.cell_lineage("property_result", "rightmove:1", "bedrooms")
        assert cell.operator == OPERATOR_FEEDBACK
        assert cell.witnesses == frozenset((witness,))
        assert cell.detail == "cleared: marked incorrect"

    def test_null_cell_is_not_re_recorded(self):
        store, _witness = self.store()
        row, cleared = self.apply(store, {"postcode"})
        assert (row, cleared) == (self.ROW, 0)
        cell = store.cell_lineage("property_result", "rightmove:1", "postcode")
        assert cell.operator == OPERATOR_MAPPING

    def test_positive_only_marks_leave_the_row_untouched(self):
        kb = KnowledgeBase()
        kb.assert_fact(Predicates.FEEDBACK, "f1", "property_result", "rightmove:1",
                       "bedrooms", "correct")
        kb.assert_fact(Predicates.FEEDBACK, "f2", "property_result", "rightmove:1",
                       "*", "correct")
        assert feedback_marks(kb) == {}
        store, _witness = self.store()
        before = store.tuple_lineage("property_result", "rightmove:1")
        assert self.apply(store, None) == (self.ROW, 0)
        assert store.tuple_lineage("property_result", "rightmove:1") is before

    def test_marks_group_incorrect_verdicts_by_relation_and_row(self):
        kb = KnowledgeBase()
        kb.assert_fact(Predicates.FEEDBACK, "f1", "property_result", "rightmove:1",
                       "bedrooms", "incorrect")
        kb.assert_fact(Predicates.FEEDBACK, "f2", "property_result", "rightmove:1",
                       "price", "correct")
        kb.assert_fact(Predicates.FEEDBACK, "f3", "property_result", "onthemarket:0",
                       "*", "incorrect")
        assert feedback_marks(kb) == {
            "property_result": {"rightmove:1": {"bedrooms"}, "onthemarket:0": {"*"}}
        }
