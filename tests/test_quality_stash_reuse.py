"""The metric transducer reuses ``quality_stats`` entries that are current.

An entry is current when the context token matches and it records the very
catalog ``Table`` object it was built or patched against. These tests check
that reused entries are exact (equal to a rescan), that rebuilds happen only
when a table or the context changed, and that writers patching an entry in
place refuse one that does not reflect the table they rewrite.
"""

from __future__ import annotations

import pytest

from repro.core import KnowledgeBase, Predicates
from repro.core.facts import metric_fact
from repro.feedback.annotations import simulate_feedback
from repro.feedback.transducers import FeedbackRepairTransducer
from repro.incremental.validate import _prepare
from repro.quality import CFD
from repro.quality.cfd_learning import LearnedCFDs
from repro.quality.transducers import (
    CFD_ARTIFACT_KEY,
    DataRepairTransducer,
    QualityMetricTransducer,
    build_relation_stats,
    quality_context_token,
    quality_stats_stash,
)
from repro.relational import Attribute, DataType, Schema, Table
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.service.api import FeedbackRequest
from repro.wrangler.config import WranglerConfig
from repro.wrangler.pipeline import Wrangler

RESULT_SCHEMA = Schema("listing_result", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("_row_id", DataType.STRING),
])
REFERENCE = Table(Schema("addresses", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
]), [("Oak Street", "M1 1AA"), ("Elm Road", "M5 3CC")])


def counters(stats) -> dict:
    """Every accumulator counter, plus the finalised criteria."""
    report = stats.finalise()
    return {
        "report": report.as_dict(),
        "attribute_completeness": report.attribute_completeness,
        "rows": stats.completeness.row_count,
        "nulls": stats.completeness.null_counts,
        "checkable": stats.consistency.checkable,
        "violations": stats.consistency.violations,
        "accuracy": (stats.accuracy.checked, stats.accuracy.correct) if stats.accuracy else None,
        "covered": stats.relevance.covered if stats.relevance else None,
    }


def metric_facts(kb: KnowledgeBase, relation: str) -> dict[str, float]:
    return {
        criterion: value
        for _kind, name, criterion, value in kb.facts(Predicates.METRIC)
        if name == relation
    }


def rescanned_facts(kb: KnowledgeBase, relation: str) -> dict[str, float]:
    """The metric-fact values a rescan of ``relation`` yields."""
    report = build_relation_stats(kb, relation).finalise()
    return {
        criterion: metric_fact("result", relation, criterion, value)[1][3]
        for criterion, value in report.as_dict().items()
    }


def assert_current_entries_exact(kb: KnowledgeBase) -> None:
    """Entries that claim to reflect their table equal a rescan of it."""
    stash = quality_stats_stash(kb, create=False)
    if stash is None or stash.context_token != quality_context_token(kb):
        return
    for relation, entry in stash.entries.items():
        if kb.has_table(relation) and entry.reflects(kb.get_table(relation)):
            assert counters(entry.stats) == counters(build_relation_stats(kb, relation)), relation


def listing_kb() -> KnowledgeBase:
    """A result relation with a learned ``postcode → street`` CFD."""
    kb = KnowledgeBase()
    kb.register_table(REFERENCE, Predicates.ROLE_CONTEXT)
    kb.describe_schema(RESULT_SCHEMA.rename("listing"), Predicates.ROLE_TARGET)
    kb.assert_fact(Predicates.DATA_CONTEXT, "addresses", "reference", "listing")
    cfd = CFD("addr", "listing", ("postcode",), "street")
    kb.store_artifact(CFD_ARTIFACT_KEY, LearnedCFDs(
        cfds=[cfd], witnesses={"addr": {("m11aa",): "Oak Street", ("m53cc",): "Elm Road"}}))
    kb.assert_fact(Predicates.CFD, *cfd.to_fact_fields())
    kb.catalog.register(Table(RESULT_SCHEMA, [
        ("Oak Street", "M1 1AA", 100.0, "r0"),
        (None, "M5 3CC", None, "r1"),
        ("Elm Road", None, 150.0, "r2"),
    ]))
    kb.assert_fact(Predicates.RESULT, "listing_result", "m1", 3)
    return kb


def swap_in_equal_length_table(kb: KnowledgeBase) -> None:
    """A write that does not stamp the stash: same row count, other rows."""
    kb.update_table(Table(RESULT_SCHEMA, [
        ("Wrong Road", "M1 1AA", 90.0, "r0"),
        ("Oak Street", "M5 3CC", 120.0, "r1"),
        (None, "M1 1AA", None, "r2"),
    ]))


class TestStalenessGuards:
    def test_data_repair_drops_entry_of_other_equal_length_table(self):
        kb = listing_kb()
        QualityMetricTransducer().execute(kb)
        swap_in_equal_length_table(kb)
        outcome = DataRepairTransducer().execute(kb)
        assert outcome.tables_written == ["listing_result"]
        metrics = QualityMetricTransducer().execute(kb)
        assert "listing_result" in metrics.details["rebuilt"]
        assert metric_facts(kb, "listing_result") == rescanned_facts(kb, "listing_result")
        assert_current_entries_exact(kb)

    def test_feedback_repair_drops_entry_of_other_equal_length_table(self):
        kb = listing_kb()
        QualityMetricTransducer().execute(kb)
        swap_in_equal_length_table(kb)
        kb.assert_fact(Predicates.FEEDBACK, "f1", "listing_result", "r1", "price",
                       Predicates.INCORRECT)
        outcome = FeedbackRepairTransducer().execute(kb)
        assert outcome.details["cells_cleared"] == 1
        metrics = QualityMetricTransducer().execute(kb)
        assert "listing_result" in metrics.details["rebuilt"]
        assert metric_facts(kb, "listing_result") == rescanned_facts(kb, "listing_result")

    def test_patched_entries_are_stamped_and_reused(self):
        kb = listing_kb()
        QualityMetricTransducer().execute(kb)
        DataRepairTransducer().execute(kb)
        kb.assert_fact(Predicates.FEEDBACK, "f1", "listing_result", "r0", "price",
                       Predicates.INCORRECT)
        FeedbackRepairTransducer().execute(kb)
        assert_current_entries_exact(kb)
        metrics = QualityMetricTransducer().execute(kb)
        assert metrics.details["rebuilt"] == []
        assert metrics.details["reused"] == ["listing_result"]
        assert metric_facts(kb, "listing_result") == rescanned_facts(kb, "listing_result")


class TestColdWrangleReuse:
    def test_rebuilds_only_changed_tables_and_entries_stay_exact(self, monkeypatch):
        scenario = generate_synthetic(
            SynthConfig(family="product_catalog", entities=150, seed=0))
        wrangler = Wrangler(config=WranglerConfig())
        scenario.install(wrangler)
        kb = wrangler.kb
        metric = wrangler.orchestrator.registry.get("quality_metrics")
        runs = []
        seen: dict[str, Table] = {}
        seen_token: list[tuple] = []
        original = metric.run

        def recording_run(kb_arg):
            token = quality_context_token(kb)
            tables = {name: kb.get_table(name) for name in kb.catalog}
            result = original(kb_arg)
            for relation in result.details["rebuilt"]:
                assert (
                    not seen_token
                    or seen_token[-1] != token
                    or relation not in seen
                    or seen[relation] is not tables[relation]
                ), f"{relation} rebuilt although neither its table nor the context changed"
            seen.update(tables)
            seen_token.append(token)
            runs.append(result.details)
            return result

        monkeypatch.setattr(metric, "run", recording_run)

        def run_phase():
            while wrangler.step() is not None:
                assert_current_entries_exact(kb)

        run_phase()
        wrangler.add_reference_data(scenario.reference)
        wrangler.add_master_data(scenario.master)
        run_phase()
        assert len(runs) >= 4
        # Runs right after a stamped repair rebuild nothing at all.
        assert any(not details["rebuilt"] for details in runs)
        assert any(details["reused"] for details in runs)
        stash = quality_stats_stash(kb)
        for relation, entry in stash.entries.items():
            assert entry.reflects(kb.get_table(relation))
        maintained = wrangler.evaluate(use_stats=True)
        assert maintained.as_dict() == wrangler.evaluate(use_stats=False).as_dict()


class TestFeedbackRoundReuse:
    @pytest.mark.parametrize("family", ["sensor_log", "product_catalog"])
    def test_forced_metric_run_after_patched_round_rebuilds_nothing(self, family):
        scenario = generate_synthetic(SynthConfig(family=family, entities=120, seed=3))
        wrangler = _prepare(scenario, WranglerConfig())
        annotations = simulate_feedback(
            wrangler.result(), scenario.ground_truth, scenario.evaluation_key,
            budget=5, seed=1, strategy="targeted", id_prefix="r")
        metrics = wrangler.session().feedback(
            FeedbackRequest(annotations=tuple(annotations), incremental=True, evaluate=False))
        assert metrics.incremental["applied"], metrics.incremental["reason"]
        kb = wrangler.kb
        before = sorted(kb.facts(Predicates.METRIC))
        forced = wrangler.orchestrator.registry.get("quality_metrics").execute(kb)
        assert forced.details["rebuilt"] == []
        assert sorted(forced.details["reused"]) == sorted(forced.details["evaluated"])
        assert sorted(kb.facts(Predicates.METRIC)) == before
        assert_current_entries_exact(kb)
