"""Data context: reference, master and example data for the target schema.

Paper §2.2: "the user is able to associate the target schema with such
data, which may be, for example, *reference data* (e.g., the complete list
of postcodes or addresses), *master data* (e.g., the complete list of
properties the user is interested in), or simply *example data*".

A :class:`DataContext` binds catalog tables to the target schema under one
of those roles. Registering a data context is what enables the CFD-learning
and instance-matching transducers to run (their input dependencies query the
``data_context`` predicate), reproducing the paper's pay-as-you-go step 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.facts import Predicates, data_context_fact
from repro.core.knowledge_base import KnowledgeBase
from repro.relational.table import Table

__all__ = ["DataContextBinding", "DataContext", "context_table"]


@dataclass(frozen=True)
class DataContextBinding:
    """One table bound to the target schema under a data-context kind."""

    table: Table
    kind: str
    target_relation: str
    #: Optional mapping from context-table attributes to target attributes
    #: (e.g. Address.street → Target.street). When empty, attributes are
    #: associated by name.
    attribute_map: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        valid = (
            Predicates.CONTEXT_REFERENCE,
            Predicates.CONTEXT_MASTER,
            Predicates.CONTEXT_EXAMPLE,
        )
        if self.kind not in valid:
            raise ValueError(f"unknown data context kind {self.kind!r}; expected one of {valid}")

    def mapped_attributes(self) -> dict[str, str]:
        """Context attribute → target attribute associations."""
        if self.attribute_map:
            return dict(self.attribute_map)
        return {name: name for name in self.table.schema.attribute_names}


class DataContext:
    """The collection of data-context bindings for one wrangling task."""

    def __init__(self, bindings: Iterable[DataContextBinding] = ()):
        self._bindings: list[DataContextBinding] = list(bindings)

    def bind(
        self,
        table: Table,
        kind: str,
        target_relation: str,
        *,
        attribute_map: Mapping[str, str] | None = None,
    ) -> "DataContext":
        """Associate ``table`` with the target schema as ``kind`` data."""
        mapping = tuple((attribute_map or {}).items())
        self._bindings.append(DataContextBinding(table, kind, target_relation, mapping))
        return self

    def reference(
        self, table: Table, target_relation: str, *, attribute_map: Mapping[str, str] | None = None
    ) -> "DataContext":
        """Bind reference data (complete lists, e.g. addresses/postcodes)."""
        return self.bind(
            table, Predicates.CONTEXT_REFERENCE, target_relation, attribute_map=attribute_map
        )

    def master(
        self, table: Table, target_relation: str, *, attribute_map: Mapping[str, str] | None = None
    ) -> "DataContext":
        """Bind master data (the complete list of entities of interest)."""
        return self.bind(
            table, Predicates.CONTEXT_MASTER, target_relation, attribute_map=attribute_map
        )

    def example(
        self, table: Table, target_relation: str, *, attribute_map: Mapping[str, str] | None = None
    ) -> "DataContext":
        """Bind example data (a partial list the user happens to have)."""
        return self.bind(
            table, Predicates.CONTEXT_EXAMPLE, target_relation, attribute_map=attribute_map
        )

    @property
    def bindings(self) -> tuple[DataContextBinding, ...]:
        """All bindings."""
        return tuple(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __bool__(self) -> bool:
        return bool(self._bindings)

    def bindings_of_kind(self, kind: str) -> list[DataContextBinding]:
        """Bindings of one kind (reference/master/example)."""
        return [b for b in self._bindings if b.kind == kind]

    # -- knowledge base interaction ---------------------------------------------

    def assert_into(self, kb: KnowledgeBase) -> int:
        """Register bound tables in the catalog and assert data_context facts."""
        added = 0
        for binding in self._bindings:
            if not kb.has_table(binding.table.name):
                kb.register_table(binding.table, Predicates.ROLE_CONTEXT)
            added += int(kb.assert_tuple(data_context_fact(
                binding.table.name, binding.kind, binding.target_relation)))
        if self._bindings:
            kb.assert_fact(Predicates.DATA_CONTEXT_SET)
        return added

    def describe(self) -> list[str]:
        """Human-readable summary (mirrors Figure 2(c))."""
        return [
            f"{binding.table.name} ({binding.kind}, {len(binding.table)} rows) "
            f"-> {binding.target_relation}"
            for binding in self._bindings
        ]

    def __repr__(self) -> str:
        return f"DataContext(bindings={len(self._bindings)})"


def context_table(
    kb: KnowledgeBase, kind: str, target_relation: str | None = None
) -> tuple[Table | None, list[str]]:
    """The first data-context table of ``kind`` plus a join key for it.

    ``target_relation`` restricts the search to bindings of that target
    (None: any target). Reference data is joined on an identifying attribute
    (a postcode-like attribute when one exists) so the *other* shared
    attributes can be checked for accuracy. Master data instead describes
    whole entities, so all shared attributes together form the coverage key
    for relevance.
    """
    for context_name, context_kind, bound_target in kb.facts(Predicates.DATA_CONTEXT):
        if context_kind != kind or not kb.has_table(context_name):
            continue
        if target_relation is not None and bound_target != target_relation:
            continue
        table = kb.get_table(context_name)
        target_schema = kb.schema_of(bound_target)
        shared = [name for name in table.schema.attribute_names if name in target_schema]
        if not shared:
            continue
        if kind == Predicates.CONTEXT_MASTER:
            key = shared
        else:
            key = [name for name in shared if "postcode" in name.lower()] or shared[:1]
        return table, key
    return None, []
