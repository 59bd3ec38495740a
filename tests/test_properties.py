"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.context.ahp import PairwiseMatrix, consistency_ratio
from repro.datalog import Program, query
from repro.fusion.duplicates import DuplicatePair, cluster_pairs
from repro.matching.similarity import (
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    name_similarity,
    ngram_similarity,
)
from repro.quality.metrics import attribute_completeness, table_completeness
from repro.relational import Attribute, DataType, Schema, Table, distinct, project, select, union_all
from repro.relational.errors import TypeCoercionError
from repro.relational.expressions import col
from repro.relational.keys import normalise_key
from repro.relational.types import coerce_value, infer_type, is_null

# -- strategies ---------------------------------------------------------------

simple_text = st.text(alphabet="abcdefghij XYZ_-", min_size=0, max_size=12)
cell_values = st.one_of(
    st.none(),
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    simple_text,
    st.booleans(),
)


@st.composite
def tables(draw, min_rows: int = 0, max_rows: int = 12):
    """Random small tables with ANY-typed columns."""
    width = draw(st.integers(min_value=1, max_value=4))
    names = [f"c{i}" for i in range(width)]
    schema = Schema("random", [Attribute(name, DataType.ANY) for name in names])
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    rows = [tuple(draw(cell_values) for _ in names) for _ in range(n_rows)]
    return Table(schema, rows, coerce=False)


# -- relational invariants -------------------------------------------------------


@given(tables())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_select_never_invents_rows(table):
    predicate = col("c0").is_not_null()
    filtered = select(table, predicate)
    assert len(filtered) <= len(table)
    assert all(values in table.tuples() for values in filtered.tuples())


@given(tables())
@settings(max_examples=60)
def test_distinct_is_idempotent_and_no_larger(table):
    once = distinct(table)
    twice = distinct(once)
    assert len(once) <= len(table)
    assert once.tuples() == twice.tuples()
    assert len(set(once.tuples())) == len(once)


@given(tables(), tables())
@settings(max_examples=40)
def test_union_all_row_count_is_sum(left, right):
    if left.schema.arity != right.schema.arity:
        return
    merged = union_all(left, right.rename(left.name))
    assert len(merged) == len(left) + len(right)


@given(tables(min_rows=1))
@settings(max_examples=60)
def test_projection_preserves_row_count_and_order(table):
    projected = project(table, [table.schema.attribute_names[0]])
    assert len(projected) == len(table)
    first = table.schema.attribute_names[0]
    assert projected.column(first) == table.column(first)


@given(tables())
@settings(max_examples=60)
def test_completeness_is_bounded(table):
    for name in table.schema.attribute_names:
        assert 0.0 <= attribute_completeness(table, name) <= 1.0
    assert 0.0 <= table_completeness(table) <= 1.0


@given(cell_values)
def test_normalise_key_is_idempotent(value):
    once = normalise_key(value)
    assert normalise_key(once) == once


class _Text(str):
    """A str subclass: not the exact class, so it takes the coercion call."""


@given(
    st.lists(
        st.one_of(
            cell_values,
            st.just(float("nan")),
            st.sampled_from(["nan", " 7 ", "2.0", "3", "true", "£1,200"]),
            simple_text.map(_Text),
        ),
        min_size=5,
        max_size=5,
    ),
    st.permutations(list(DataType)),
)
@settings(max_examples=200)
def test_table_coercion_equals_per_cell_coerce_value(values, dtypes):
    schema = Schema("t", [Attribute(f"a{i}", dtype) for i, dtype in enumerate(dtypes)])
    try:
        expected = [coerce_value(value, dtype) for value, dtype in zip(values, dtypes)]
    except TypeCoercionError:
        with pytest.raises(TypeCoercionError):
            Table(schema, [values])
        return
    (row,) = Table(schema, [values]).tuples()
    # Type plus repr: exact, and NaN compares equal to NaN.
    assert [(type(v), repr(v)) for v in row] == [(type(v), repr(v)) for v in expected]


@given(cell_values)
def test_infer_type_coercion_round_trip(value):
    inferred = infer_type(value)
    coerced = coerce_value(value, inferred)
    if is_null(value):
        assert coerced is None
    else:
        assert coerced is not None


# -- similarity invariants ---------------------------------------------------------


@given(simple_text, simple_text)
def test_levenshtein_is_a_metric(left, right):
    assert levenshtein_distance(left, right) == levenshtein_distance(right, left)
    assert levenshtein_distance(left, left) == 0
    assert levenshtein_distance(left, right) <= max(len(left), len(right))


@given(simple_text, simple_text, simple_text)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)


@given(simple_text, simple_text)
def test_similarity_measures_are_bounded_and_symmetric(left, right):
    for measure in (levenshtein_similarity, jaro_winkler_similarity, ngram_similarity,
                    name_similarity):
        forward = measure(left, right)
        backward = measure(right, left)
        assert 0.0 <= forward <= 1.0 + 1e-9
        assert math.isclose(forward, backward, abs_tol=1e-9)


@given(st.sets(st.integers(0, 50)), st.sets(st.integers(0, 50)))
def test_jaccard_bounds_and_identity(left, right):
    value = jaccard_similarity(left, right)
    assert 0.0 <= value <= 1.0
    assert jaccard_similarity(left, left) == 1.0


# -- AHP invariants ------------------------------------------------------------------


@st.composite
def comparison_sets(draw):
    items = [f"i{i}" for i in range(draw(st.integers(min_value=2, max_value=5)))]
    comparisons = {}
    for i, first in enumerate(items):
        for second in items[i + 1:]:
            if draw(st.booleans()):
                comparisons[(first, second)] = draw(
                    st.floats(min_value=1.0, max_value=9.0, allow_nan=False))
    return items, comparisons


@given(comparison_sets())
@settings(max_examples=60)
def test_ahp_weights_are_a_distribution(data):
    items, comparisons = data
    matrix = PairwiseMatrix.from_comparisons(items, comparisons)
    weights = matrix.weight_vector()
    assert set(weights) == set(items)
    assert all(weight >= -1e-9 for weight in weights.values())
    assert math.isclose(sum(weights.values()), 1.0, abs_tol=1e-6)
    assert consistency_ratio(matrix.values) >= 0.0


@given(comparison_sets())
@settings(max_examples=40)
def test_ahp_stated_preferences_are_respected(data):
    items, comparisons = data
    weights = PairwiseMatrix.from_comparisons(items, comparisons).weight_vector()
    # For every *stated* comparison with strength > 1, and no other statements
    # involving either item, the preferred item cannot have a lower weight.
    mentioned = {}
    for (first, second), strength in comparisons.items():
        mentioned[first] = mentioned.get(first, 0) + 1
        mentioned[second] = mentioned.get(second, 0) + 1
    for (first, second), strength in comparisons.items():
        if strength > 1.0 and mentioned[first] == 1 and mentioned[second] == 1:
            assert weights[first] >= weights[second] - 1e-9


# -- datalog invariants ---------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=15))
@settings(max_examples=50)
def test_transitive_closure_contains_edges_and_is_transitive(edges):
    program = """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- edge(X, Y), path(Y, Z).
    """
    results = set(query(program, "path(X, Y)", {"edge": edges}))
    edge_set = {tuple(edge) for edge in edges}
    assert edge_set <= results
    # transitivity: path(a,b) and path(b,c) imply path(a,c)
    for a, b in results:
        for b2, c in results:
            if b == b2:
                assert (a, c) in results


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
@settings(max_examples=50)
def test_datalog_evaluation_is_monotone_in_the_edb(edges):
    program = Program.parse("path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).")
    smaller = set(query(program, "path(X, Y)", {"edge": edges[: len(edges) // 2]}))
    larger = set(query(program, "path(X, Y)", {"edge": edges}))
    assert smaller <= larger


# -- fusion invariants -------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=25),
       st.integers(min_value=20, max_value=20))
@settings(max_examples=50)
def test_cluster_pairs_forms_a_partition(raw_pairs, size):
    pairs = [DuplicatePair(a, b, 0.9) for a, b in raw_pairs if a != b]
    clusters = cluster_pairs(pairs, size)
    seen = [index for cluster in clusters for index in cluster]
    assert len(seen) == len(set(seen))  # no index in two clusters
    assert all(len(cluster) >= 2 for cluster in clusters)
    # every paired index appears in some cluster
    paired = {index for pair in pairs for index in pair.as_tuple()}
    assert paired <= set(seen) | set()
