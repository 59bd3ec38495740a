"""Tests for the quality sufficient-statistic layer (`repro.quality.stats`).

The contract under test: a maintained :class:`QualityStats` — fed any mix of
``add_row`` / ``remove_row`` / ``replace_row`` deltas — finalises to exactly
the report a full recomputation over the resulting row multiset produces,
and ``merge`` combines shard accumulators associatively.
"""

from __future__ import annotations

import dataclasses
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.quality import (
    CFD,
    CFDLearner,
    CFDLearnerConfig,
    build_stats,
    build_witness,
    consistency,
    evaluate_quality,
    find_violations,
)
from repro.quality.cfd import CFDPlan
from repro.quality.repair import CFDRepairer, RepairAction
from repro.quality.stats import ConsistencyStats, QualityStats
from repro.quality.transducers import quality_stats_stash
from repro.relational import Attribute, DataType, Schema, Table
from repro.relational.keys import normalise_key_tuple
from repro.relational.types import is_null

SCHEMA = Schema("listing", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("bedrooms", DataType.INTEGER),
    Attribute("_row_id", DataType.STRING),
])

REFERENCE = Table(Schema("reference", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
]), [
    ("Oak Street", "M1 1AA", 100.0),
    ("Elm Road", "M5 3CC", 200.0),
    ("Mill Lane", "SK1 2EF", 150.0),
])

MASTER = Table(Schema("master", [Attribute("postcode", DataType.STRING)]),
               [("M1 1AA",), ("M5 3CC",), ("ZZ9 9ZZ",)])

CFDS = (
    CFD("v1", "listing", ("postcode",), "street"),
    CFD("c1", "listing", ("postcode",), "street",
        lhs_pattern=(("postcode", "M1 1AA"),), rhs_pattern="Oak Street"),
)
WITNESSES = {"v1": {("m11aa",): "Oak Street", ("m53cc",): "Elm Road"}}

POSTCODES = ["M1 1AA", "m1 1aa", "M5 3CC", "SK1 2EF", "ZZ9 9ZZ", None]
STREETS = ["Oak Street", "Elm Road", "Mill Lane", "Wrong Road", None]


def row_strategy():
    return st.tuples(
        st.sampled_from(STREETS),
        st.sampled_from(POSTCODES),
        st.sampled_from([100.0, 150.0, 200.0, 999.0, None]),
        st.sampled_from([1, 2, 3, None]),
        st.sampled_from(["s:0", "s:1", "s:2", "s:3", None]),
    )


def context_kwargs():
    return dict(
        reference=REFERENCE,
        reference_key=("postcode",),
        cfds=CFDS,
        witnesses=WITNESSES,
        master=MASTER,
        master_key=("postcode",),
    )


def assert_reports_equal(left, right):
    assert left.as_dict() == right.as_dict()
    assert left.attribute_completeness == right.attribute_completeness
    assert left.row_count == right.row_count


class TestDeltaMaintenance:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        initial=st.lists(row_strategy(), max_size=12),
        deltas=st.lists(
            st.tuples(st.sampled_from(["add", "remove", "replace"]), row_strategy(),
                      row_strategy(), st.integers(min_value=0, max_value=30)),
            max_size=12,
        ),
    )
    def test_maintained_stats_equal_full_recompute(self, initial, deltas):
        """Random deltas → finalise == evaluate_quality over the final rows."""
        stats = QualityStats.for_schema(SCHEMA, relation="listing", **context_kwargs())
        rows = list(initial)
        for values in rows:
            stats.add_row(values)
        for op, row, replacement, position in deltas:
            if op == "add":
                stats.add_row(row)
                rows.append(row)
            elif op == "remove" and rows:
                victim = rows.pop(position % len(rows))
                stats.remove_row(victim)
            elif op == "replace" and rows:
                index = position % len(rows)
                stats.replace_row(rows[index], replacement)
                rows[index] = replacement
        table = Table(SCHEMA, rows, coerce=False, validate=False)
        assert_reports_equal(stats.finalise(), evaluate_quality(table, **context_kwargs()))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(base=st.lists(row_strategy(), max_size=10),
           extra=st.lists(row_strategy(), min_size=1, max_size=8))
    def test_add_remove_round_trip_restores_exact_counters(self, base, extra):
        """Adding then removing the same rows restores every counter exactly."""
        stats = QualityStats.for_schema(SCHEMA, relation="listing", **context_kwargs())
        for values in base:
            stats.add_row(values)
        snapshot = pickle.dumps(stats)
        for values in extra:
            stats.add_row(values)
        for values in reversed(extra):
            stats.remove_row(values)
        restored = pickle.loads(snapshot)
        assert stats.completeness.row_count == restored.completeness.row_count
        assert stats.completeness.null_counts == restored.completeness.null_counts
        assert stats.accuracy.checked == restored.accuracy.checked
        assert stats.accuracy.correct == restored.accuracy.correct
        assert stats.consistency.checkable == restored.consistency.checkable
        assert stats.consistency.violations == restored.consistency.violations
        assert stats.relevance.covered == restored.relevance.covered
        assert_reports_equal(stats.finalise(), restored.finalise())


class TestMerge:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shards=st.lists(st.lists(row_strategy(), max_size=8), min_size=3, max_size=3))
    def test_merge_is_associative_across_shards(self, shards):
        """(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), and both equal the whole-table build."""

        def shard_stats(rows):
            stats = QualityStats.for_schema(SCHEMA, relation="listing", **context_kwargs())
            for values in rows:
                stats.add_row(values)
            return stats

        def clone(stats):
            return pickle.loads(pickle.dumps(stats))

        a, b, c = (shard_stats(rows) for rows in shards)
        left = clone(a)
        left.merge(clone(b))
        left.merge(clone(c))
        middle = clone(b)
        middle.merge(clone(c))
        right = clone(a)
        right.merge(middle)
        assert_reports_equal(left.finalise(), right.finalise())
        whole = Table(SCHEMA, [row for rows in shards for row in rows],
                      coerce=False, validate=False)
        assert_reports_equal(left.finalise(), evaluate_quality(whole, **context_kwargs()))

    def test_merge_rejects_incompatible_configurations(self):
        import pytest

        with_context = QualityStats.for_schema(SCHEMA, relation="l", **context_kwargs())
        bare = QualityStats.for_schema(SCHEMA, relation="l")
        with pytest.raises(ValueError):
            with_context.merge(bare)


class TestSinglePassConsistency:
    def test_consistency_matches_two_pass_computation(self):
        """The folded single pass equals the old applies_to + find_violations."""
        rows = [
            ("Oak Street", "M1 1AA", 100.0, 2, "s:0"),
            ("Wrong Road", "M1 1AA", 120.0, 3, "s:1"),
            ("Elm Road", "M5 3CC", 200.0, None, "s:2"),
            (None, "SK1 2EF", 150.0, 1, "s:3"),
            ("Mill Lane", None, 1.0, 1, "s:4"),
        ]
        table = Table(SCHEMA, rows, coerce=False, validate=False)
        checkable = sum(
            1 for cfd in CFDS for row in table.rows() if cfd.applies_to(row)
        )
        violations = find_violations(table, CFDS, witnesses=WITNESSES)
        expected = max(0.0, 1.0 - len(violations) / checkable)
        assert consistency(table, CFDS, witnesses=WITNESSES) == expected

    def test_consistency_trivial_cases(self):
        table = Table(SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2, "s:0")],
                      coerce=False, validate=False)
        assert consistency(table, []) == 1.0
        assert consistency(Table(SCHEMA, []), CFDS, witnesses=WITNESSES) == 1.0


class TestCfdIdNamespacing:
    def test_ids_are_namespaced_by_context_table(self):
        """Two context tables bound to one target must not share CFD ids."""
        config = CFDLearnerConfig(min_constant_support=5)
        addresses = Table(Schema("addresses", ["street", "postcode"]), [
            ("Oak Street", "M1 1AA"), ("Elm Road", "M5 3CC"),
        ] * 10)
        registry = Table(Schema("registry", ["street", "postcode"]), [
            ("Oak Street", "M1 1AA"), ("Mill Lane", "SK1 2EF"),
        ] * 10)
        learner = CFDLearner(config)
        first = learner.learn(addresses, target_relation="property",
                              attribute_map={"street": "street", "postcode": "postcode"})
        second = learner.learn(registry, target_relation="property",
                               attribute_map={"street": "street", "postcode": "postcode"})
        first_ids = {cfd.cfd_id for cfd in first.cfds}
        second_ids = {cfd.cfd_id for cfd in second.cfds}
        assert first_ids, "expected CFDs from the first context table"
        assert second_ids, "expected CFDs from the second context table"
        assert not first_ids & second_ids, "ids must be namespaced per context table"
        assert all("addresses" in cfd_id for cfd_id in first_ids)
        # Both witness indexes survive side by side (the old collision
        # overwrote one with the other).
        combined = {**first.witnesses, **second.witnesses}
        assert len(combined) == len(first.witnesses) + len(second.witnesses)

    def test_witness_still_resolves_after_namespacing(self):
        addresses = Table(Schema("addr", ["street", "postcode"]),
                          [("Oak Street", "M1 1AA")] * 3)
        learned = CFDLearner(CFDLearnerConfig(min_constant_support=100)).learn(addresses)
        for cfd in learned.variable_cfds():
            assert cfd.cfd_id in learned.witnesses
            assert learned.witnesses[cfd.cfd_id] == build_witness(
                addresses, cfd.lhs, cfd.rhs
            )


class TestBuildStats:
    def test_build_stats_matches_evaluate_quality(self):
        rows = [
            ("Oak Street", "M1 1AA", 100.0, 2, "s:0"),
            ("Wrong Road", "m1 1aa", 999.0, None, "s:1"),
            (None, "M5 3CC", 200.0, 3, "s:2"),
        ]
        table = Table(SCHEMA, rows, coerce=False, validate=False)
        stats = build_stats(table, **context_kwargs())
        assert_reports_equal(stats.finalise(), evaluate_quality(table, **context_kwargs()))
        assert stats.row_count == 3

    def test_stats_are_picklable_with_learned_cfds(self):
        reference = Table(Schema("ref", ["street", "postcode"]), [
            ("Oak Street", "M1 1AA"), ("Elm Road", "M5 3CC"),
        ] * 15)
        learned = CFDLearner(CFDLearnerConfig(min_constant_support=5)).learn(reference)
        table = Table(SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2, "s:0")],
                      coerce=False, validate=False)
        stats = build_stats(table, cfds=learned.cfds, witnesses=learned.witnesses)
        clone = pickle.loads(pickle.dumps(stats))
        assert_reports_equal(clone.finalise(), stats.finalise())

    def test_empty_table_completeness_keeps_old_edge_semantics(self):
        """Empty tables short-circuit to 0.0 before attribute validation."""
        import pytest

        from repro.quality import attribute_completeness, table_completeness
        from repro.relational.errors import UnknownAttributeError

        empty = Table(SCHEMA, [])
        assert attribute_completeness(empty, "nope") == 0.0
        assert table_completeness(empty, attributes=["nope"]) == 0.0
        populated = Table(SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2, "s:0")],
                          coerce=False, validate=False)
        with pytest.raises(UnknownAttributeError):
            attribute_completeness(populated, "nope")
        with pytest.raises(UnknownAttributeError):
            table_completeness(populated, attributes=["nope"])

    def test_no_comparable_attributes_skips_reference_index(self):
        """names == () → 0.0 without paying for the reference index."""
        from repro.quality.stats import AccuracyStats

        disjoint = Table(Schema("other", [Attribute("postcode", DataType.STRING),
                                          Attribute("extra", DataType.STRING)]),
                         [("M1 1AA", "x")])
        stats = AccuracyStats.from_reference(("postcode", "extra"), disjoint,
                                             ("postcode", "extra"))
        assert stats.names == ()
        assert stats.reference_index == {}
        assert stats.value() == 0.0

    def test_stash_accessor_creates_once(self):
        from repro.core import KnowledgeBase

        kb = KnowledgeBase()
        assert quality_stats_stash(kb, create=False) is None
        stash = quality_stats_stash(kb)
        assert quality_stats_stash(kb) is stash


# -- compiled CFD checks --------------------------------------------------------

#: Attribute pool for random layouts; layouts draw a subset, so some CFD
#: attributes are missing from the rows checked.
POOL = ("code", "name", "city", "size", "_row_id")
#: Values covering NULL and NaN, whitespace/case variants and integral floats.
CELLS = (None, float("nan"), "M1 1AA", " m1 1aa", "M11AA", "Oak", "oak ", "OAK",
         "Elm", 2, 2.0, 3, 3.5, "")


@st.composite
def compiled_case(draw):
    """A row layout, CFDs over the pool (shared LHSs likely), witnesses, rows."""
    names = tuple(draw(st.permutations(POOL))[:draw(st.integers(1, len(POOL)))])
    lhs_choices = [("code",), ("name",), ("code", "city"), ("size",), ("name", "code")]
    cfds = []
    for index in range(draw(st.integers(0, 6))):
        lhs = draw(st.sampled_from(lhs_choices))
        rhs = draw(st.sampled_from([name for name in POOL if name not in lhs]))
        pattern = tuple(
            (attribute, draw(st.sampled_from(["_", "_", "M1 1AA", "oak", 2.0])))
            for attribute in lhs
            if draw(st.booleans())
        )
        rhs_pattern = draw(st.sampled_from(["_", "_", "_", "Oak", 2, " elm"]))
        cfds.append(CFD(f"c{index}", "t", lhs, rhs, lhs_pattern=pattern,
                        rhs_pattern=rhs_pattern))
    row = st.tuples(*[st.sampled_from(CELLS) for _ in names])
    rows = draw(st.lists(row, max_size=12))
    witnesses = {}
    for cfd in cfds:
        if draw(st.booleans()):
            continue
        witness = {}
        for source in draw(st.lists(st.fixed_dictionaries(
                {name: st.sampled_from(CELLS) for name in POOL}), max_size=6)):
            witness[normalise_key_tuple(source[name] for name in cfd.lhs)] = source[cfd.rhs]
        witnesses[cfd.cfd_id] = witness
    return names, cfds, witnesses, rows


class TestCompiledChecks:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=compiled_case())
    def test_plan_agrees_with_row_dict_api(self, case):
        names, cfds, witnesses, rows = case
        plan = CFDPlan(cfds, names, witnesses)
        compiled = {member.index: member for member in plan.members}
        for values in rows:
            row = dict(zip(names, values))
            for index, cfd in enumerate(cfds):
                witness = witnesses.get(cfd.cfd_id)
                member = compiled.get(index)
                if member is None:
                    # LHS absent from the layout: never applicable.
                    assert not cfd.applies_to(row)
                    continue
                key = plan.lhs_key(member.group, values)
                applies = key is not None and member.matches(values)
                assert applies == cfd.applies_to(row)
                if not applies:
                    continue
                assert member.satisfied(values, key) == cfd.check_applicable(
                    row, witness=witness)
                expected = member.expected(key)
                oracle = cfd.expected_value(row, witness=witness)
                assert expected == oracle or (is_null(expected) and is_null(oracle))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=compiled_case())
    def test_consistency_counters_match_per_cfd_oracle(self, case):
        names, cfds, witnesses, rows = case
        stats = ConsistencyStats(row_names=names, cfds=tuple(cfds), witnesses=witnesses)
        for values in rows:
            stats.add_row(values)
        checkable = [0] * len(cfds)
        violations = [0] * len(cfds)
        for values in rows:
            row = dict(zip(names, values))
            for index, cfd in enumerate(cfds):
                if cfd.applies_to(row):
                    checkable[index] += 1
                    if not cfd.check_applicable(row, witness=witnesses.get(cfd.cfd_id)):
                        violations[index] += 1
        assert stats.checkable == checkable
        assert stats.violations == violations

    def test_shared_lhs_is_one_group(self):
        cfds = [
            CFD("a", "t", ("code",), "name"),
            CFD("b", "t", ("code",), "city"),
            CFD("c", "t", ("name",), "code"),
            CFD("d", "t", ("missing",), "code"),
        ]
        plan = CFDPlan(cfds, ("code", "name", "city"))
        assert [member.index for member in plan.members] == [0, 1, 2]
        assert plan.lhs_positions == ((0,), (1,))
        assert [len(group) for group in plan.groups] == [2, 1]
        # Writing ``name`` invalidates the ``name`` LHS only.
        assert plan.readers == {0: (0,), 1: (1,)}


def reference_repair(table, cfds, witnesses, *, impute_missing=True,
                     fix_violations=True, min_confidence=0.0):
    """The CFD-major, row-dict repair loop the compiled repairer replaced."""

    def values_equal(left, right):
        if isinstance(left, str) and isinstance(right, str):
            return left.strip().lower() == right.strip().lower()
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return float(left) == float(right)
        return left == right

    witnesses = witnesses or {}
    ordered = sorted(
        (cfd for cfd in cfds if cfd.confidence >= min_confidence),
        key=lambda cfd: (-cfd.confidence, -cfd.support, cfd.cfd_id),
    )
    rows = [list(values) for values in table.tuples()]
    schema = table.schema
    actions = []
    touched = set()
    for cfd in ordered:
        if cfd.rhs not in schema:
            continue
        if any(attribute not in schema for attribute in cfd.lhs):
            continue
        rhs_position = schema.position(cfd.rhs)
        witness = witnesses.get(cfd.cfd_id)
        for row_index, values in enumerate(rows):
            if (row_index, cfd.rhs) in touched:
                continue
            row = dict(zip(schema.attribute_names, values))
            if not cfd.applies_to(row):
                continue
            expected = cfd.expected_value(row, witness=witness)
            if expected is None or is_null(expected):
                continue
            current = values[rhs_position]
            if is_null(current):
                if not impute_missing:
                    continue
                kind = "imputation"
            elif not values_equal(current, expected):
                if not fix_violations:
                    continue
                kind = "violation"
            else:
                continue
            values[rhs_position] = expected
            touched.add((row_index, cfd.rhs))
            actions.append(RepairAction(
                relation=table.name, row_index=row_index, attribute=cfd.rhs,
                old_value=current, new_value=expected, cfd_id=cfd.cfd_id, kind=kind))
    return table.replace_rows([tuple(values) for values in rows]), actions


REPAIR_SCHEMA = Schema("catalog", [
    Attribute("sku", DataType.STRING),
    Attribute("name", DataType.STRING),
    Attribute("city", DataType.STRING),
    Attribute("size", DataType.FLOAT),
])
#: ``sku → city`` reads a row's sku before ``name → sku`` rewrites it, and
#: ``sku → name`` must then read the rewritten sku, not the first one.
CHAINED = [
    CFD("sku_city", "catalog", ("sku",), "city", confidence=1.0),
    CFD("name_sku", "catalog", ("name",), "sku", confidence=0.95),
    CFD("sku_name", "catalog", ("sku",), "name", confidence=0.9),
    CFD("const", "catalog", ("city",), "size", lhs_pattern=(("city", "Leeds"),),
        rhs_pattern=2.0, confidence=0.7),
]
CHAINED_WITNESSES = {
    "name_sku": {("widget",): "W-1", ("gadget",): "G-2"},
    "sku_name": {("w-1",): "Widget", ("g-2",): "Gadget", ("x-9",): "Sprocket"},
    "sku_city": {("w-1",): "Leeds", ("g-2",): "York"},
}
SKUS = [None, "W-1", "w-1 ", "G-2", "X-9", "Q-0"]
NAMES = [None, float("nan"), "Widget", " widget", "GADGET", "Sprocket", "Other"]


class TestCompiledRepair:
    def assert_same_repair(self, table, cfds, witnesses, **flags):
        expected_table, expected_actions = reference_repair(table, cfds, witnesses, **flags)
        outcome = CFDRepairer(**flags).repair(table, cfds, witnesses=witnesses)
        assert outcome.table.tuples() == expected_table.tuples()
        assert outcome.actions == expected_actions

    def test_chained_repair_reads_rewritten_lhs(self):
        table = Table(REPAIR_SCHEMA, [
            ("G-2", "widget", None, None),
            ("X-9", "Other", "Leeds", 5.0),
            (None, "gadget", "York", None),
        ])
        outcome = CFDRepairer().repair(table, CHAINED, witnesses=CHAINED_WITNESSES)
        # The city comes from the old sku; the name check sees the new one
        # ("widget" agrees with W-1's "Widget", but not with G-2's "Gadget").
        assert outcome.table.tuples()[0] == ("W-1", "widget", "York", None)
        assert [action.cfd_id for action in outcome.actions if action.row_index == 0] == [
            "sku_city", "name_sku"]
        self.assert_same_repair(table, CHAINED, CHAINED_WITNESSES)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.lists(st.tuples(
            st.sampled_from(SKUS), st.sampled_from(NAMES),
            st.sampled_from([None, "Leeds", " leeds", "York"]),
            st.sampled_from([None, 2.0, 2, 5.0]),
        ), max_size=10),
        confidences=st.lists(st.sampled_from([0.5, 0.8, 1.0]), min_size=len(CHAINED),
                             max_size=len(CHAINED)),
        impute=st.booleans(),
        fix=st.booleans(),
    )
    def test_repair_matches_reference_loop(self, rows, confidences, impute, fix):
        table = Table(REPAIR_SCHEMA, rows)
        cfds = [dataclasses.replace(cfd, confidence=confidence)
                for cfd, confidence in zip(CHAINED, confidences)]
        self.assert_same_repair(table, cfds, CHAINED_WITNESSES,
                                impute_missing=impute, fix_violations=fix)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=compiled_case())
    def test_repair_matches_reference_loop_on_random_cfds(self, case):
        names, cfds, witnesses, rows = case
        schema = Schema("t", [Attribute(name, DataType.STRING) for name in names])
        table = Table(schema, rows, coerce=False)
        self.assert_same_repair(table, cfds, witnesses)
