"""Executing schema mappings against the catalog.

The executor materialises a :class:`~repro.mapping.model.SchemaMapping` into
a table in the target schema. Missing target attributes become NULL; every
output row carries two bookkeeping columns, ``_source`` (the contributing
source relation) and ``_row_id`` (``source:index``), which provide the
provenance needed for tuple/attribute-level feedback.

When the executor is given a :class:`~repro.provenance.model.ProvenanceStore`
it additionally records full why-provenance for every output tuple: the
witness (driving row plus any joined rows) and the shared
``attribute -> source relation`` map of the producing leaf mapping, so that
cell-level lineage can be derived without per-cell storage.
"""

from __future__ import annotations

from typing import Iterable

from repro.mapping.model import PROVENANCE_ROW_ID, PROVENANCE_SOURCE, SchemaMapping
from repro.provenance.model import OPERATOR_MAPPING, ProvenanceStore
from repro.relational.catalog import Catalog
from repro.relational.errors import TableNotFoundError
from repro.relational.keys import normalise_key
from repro.relational.schema import Attribute, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, coerce_value, is_null

__all__ = ["MappingExecutor"]


class MappingExecutor:
    """Materialises mappings over a catalog of source tables."""

    def __init__(self, catalog: Catalog, *, provenance: ProvenanceStore | None = None):
        self._catalog = catalog
        self._provenance = provenance

    def execute(
        self,
        mapping: SchemaMapping,
        target_schema: Schema,
        *,
        result_name: str | None = None,
    ) -> Table:
        """Materialise ``mapping`` into a table named ``result_name``.

        The output schema is the target schema plus the two provenance
        columns; values are coerced to the target attribute types (coercion
        failures become NULL rather than aborting the wrangle). With a
        provenance store, each output tuple's lineage is recorded under the
        output relation (replacing any lineage from a previous
        materialisation).
        """
        name = result_name or f"{target_schema.name}__{mapping.mapping_id}"
        store = self._provenance
        if store is not None and not store.enabled:
            store = None
        if store is not None:
            store.clear_relation(name)
        coerced_rows = []
        for leaf in self._leaves(mapping):
            cell_sources = self._cell_sources(leaf) if store is not None else None
            for row, refs, _leaf in self._leaf_rows(leaf, target_schema):
                coerced_rows.append(
                    self._emit(name, row, refs, cell_sources, mapping, target_schema, store)
                )
        output_schema = self._output_schema(target_schema, name)
        return Table(output_schema, coerced_rows, coerce=False)

    def execute_rows(
        self,
        mapping: SchemaMapping,
        target_schema: Schema,
        *,
        driving: "dict[str, Iterable[int]]",
        result_name: str,
    ) -> list[tuple[str, tuple]]:
        """Materialise only the given driving rows of ``mapping``.

        ``driving`` maps driving source relations to the positional indexes
        of the rows to (re-)execute. Returns ``(row key, output row)`` pairs
        in leaf/driving order — exactly the rows a full :meth:`execute`
        would produce for those positions, including join lookups and type
        coercion. Lineage for each produced tuple is recorded under
        ``result_name``, replacing any previous annotation of that key (this
        is the delta path of incremental re-wrangling; it must not clear the
        rest of the relation's lineage the way a full execute does).
        """
        store = self._provenance
        if store is not None and not store.enabled:
            store = None
        produced: list[tuple[str, tuple]] = []
        for leaf in self._leaves(mapping):
            wanted = driving.get(leaf.sources[0])
            if not wanted:
                continue
            source = self._get(leaf.sources[0])
            tuples = source.tuples()
            items = [
                (index, tuples[index])
                for index in sorted(set(wanted))
                if 0 <= index < len(tuples)
            ]
            cell_sources = self._cell_sources(leaf) if store is not None else None
            for row, refs, _leaf in self._leaf_rows(leaf, target_schema, items=items):
                emitted = self._emit(
                    result_name, row, refs, cell_sources, mapping, target_schema, store
                )
                produced.append((str(row[-1]), emitted))
        return produced

    # -- internals -----------------------------------------------------------

    def _emit(self, name, row, refs, cell_sources, mapping, target_schema, store) -> tuple:
        """Coerce one generated row and record its lineage.

        ``cell_sources`` is the row's leaf's :meth:`_cell_sources`, computed
        once per leaf by the caller.
        """
        coerced = []
        for attribute, value in zip(target_schema.attributes, row[:-2]):
            coerced.append(_coerce_or_null(value, attribute.dtype))
        if store is not None:
            store.record_tuple(
                name,
                str(row[-1]),
                operator=OPERATOR_MAPPING,
                witnesses=(frozenset(refs),),
                mapping_id=mapping.mapping_id,
                cell_sources=cell_sources,
            )
        return (*coerced, row[-2], row[-1])

    def _leaves(self, mapping: SchemaMapping) -> list[SchemaMapping]:
        """Leaf (direct/join) mappings in materialisation order."""
        if mapping.kind == "union":
            leaves: list[SchemaMapping] = []
            for child in mapping.children:
                leaves.extend(self._leaves(child))
            return leaves
        return [mapping]

    def _output_schema(self, target_schema: Schema, name: str) -> Schema:
        attributes = list(target_schema.attributes)
        attributes.append(
            Attribute(
                PROVENANCE_SOURCE,
                DataType.STRING,
                description="provenance: contributing source relation",
            )
        )
        attributes.append(
            Attribute(
                PROVENANCE_ROW_ID,
                DataType.STRING,
                description="provenance: source row identifier",
            )
        )
        return Schema(name, attributes)

    def _cell_sources(self, leaf: SchemaMapping) -> dict[str, str]:
        """``target attribute -> source relation`` for one leaf mapping.

        Only assignments whose source attribute actually exists are kept —
        an attribute the mapping cannot populate has no contributing source
        (its cells are NULL constants with empty lineage).
        """
        cell_sources: dict[str, str] = {}
        for assignment in leaf.assignments:
            try:
                source = self._get(assignment.source_relation)
            except TableNotFoundError:
                continue
            if assignment.source_attribute in source.schema:
                cell_sources[assignment.target_attribute] = assignment.source_relation
        return cell_sources

    def _leaf_rows(
        self,
        leaf: SchemaMapping,
        target_schema: Schema,
        items: Iterable[tuple[int, tuple]] | None = None,
    ) -> Iterable[tuple]:
        if leaf.kind == "direct":
            return self._direct_rows(leaf, target_schema, items=items)
        return self._join_rows(leaf, target_schema, items=items)

    def _direct_rows(
        self,
        mapping: SchemaMapping,
        target_schema: Schema,
        items: Iterable[tuple[int, tuple]] | None = None,
    ) -> Iterable[tuple]:
        source_name = mapping.sources[0]
        source = self._get(source_name)
        store = self._provenance
        positions = {}
        for assignment in mapping.assignments:
            if assignment.source_attribute in source.schema:
                positions[assignment.target_attribute] = source.schema.position(
                    assignment.source_attribute
                )
        if items is None:
            items = enumerate(source.tuples())
        for index, values in items:
            row = []
            for attribute in target_schema.attribute_names:
                position = positions.get(attribute)
                row.append(values[position] if position is not None else None)
            row_id = f"{source_name}:{index}"
            refs = (store.ref(source_name, row_id),) if store is not None else ()
            yield (*row, source_name, row_id), refs, mapping

    def _join_rows(
        self,
        mapping: SchemaMapping,
        target_schema: Schema,
        items: Iterable[tuple[int, tuple]] | None = None,
    ) -> Iterable[tuple]:
        # Join the sources pairwise following the declared conditions. The
        # first source is the driving relation for provenance purposes.
        driving_name = mapping.sources[0]
        driving = self._get(driving_name)
        store = self._provenance
        # Build per-source indexes for the join conditions that involve the
        # driving relation; additional sources are joined via nested lookups.
        others = [name for name in mapping.sources[1:]]
        indexes: dict[str, dict] = {}
        join_keys: dict[str, tuple[str, str]] = {}
        for condition in mapping.join_conditions:
            if condition.left_relation == driving_name and condition.right_relation in others:
                other = condition.right_relation
                join_keys[other] = (condition.left_attribute, condition.right_attribute)
            elif condition.right_relation == driving_name and condition.left_relation in others:
                other = condition.left_relation
                join_keys[other] = (condition.right_attribute, condition.left_attribute)
        for other in others:
            table = self._get(other)
            driving_attr, other_attr = join_keys.get(other, (None, None))
            index: dict = {}
            if other_attr is not None and other_attr in table.schema:
                position = table.schema.position(other_attr)
                for other_index, values in enumerate(table.tuples()):
                    key = _join_key(values[position])
                    if key is not None:
                        index.setdefault(key, (other_index, values))
            indexes[other] = index

        assignments_by_source: dict[str, list] = {}
        for assignment in mapping.assignments:
            assignments_by_source.setdefault(assignment.source_relation, []).append(assignment)

        if items is None:
            items = enumerate(driving.tuples())
        for row_index, driving_values in items:
            row: dict[str, object] = {}
            for assignment in assignments_by_source.get(driving_name, ()):
                if assignment.source_attribute in driving.schema:
                    row[assignment.target_attribute] = driving_values[
                        driving.schema.position(assignment.source_attribute)
                    ]
            row_id = f"{driving_name}:{row_index}"
            refs = [store.ref(driving_name, row_id)] if store is not None else []
            for other in others:
                driving_attr, other_attr = join_keys.get(other, (None, None))
                other_table = self._get(other)
                matched = None
                if driving_attr is not None and driving_attr in driving.schema:
                    key = _join_key(driving_values[driving.schema.position(driving_attr)])
                    if key is not None:
                        matched = indexes[other].get(key)
                if matched is not None:
                    other_index, other_values = matched
                    if store is not None:
                        refs.append(store.ref(other, f"{other}:{other_index}"))
                    for assignment in assignments_by_source.get(other, ()):
                        if assignment.source_attribute in other_table.schema:
                            row[assignment.target_attribute] = other_values[
                                other_table.schema.position(assignment.source_attribute)
                            ]
            # Left-outer semantics: keep the driving row even when a joined
            # source has no partner, leaving its attributes NULL.
            output = [row.get(attribute) for attribute in target_schema.attribute_names]
            yield (*output, driving_name, row_id), tuple(refs), mapping

    def _get(self, name: str) -> Table:
        try:
            return self._catalog.get(name)
        except TableNotFoundError:
            raise TableNotFoundError(name) from None


def _coerce_or_null(value, dtype: DataType):
    if is_null(value):
        return None
    try:
        return coerce_value(value, dtype)
    except Exception:
        return None


def _join_key(value):
    return normalise_key(value)
