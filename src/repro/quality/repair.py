"""CFD-based data repair.

Paper §3 step 2: once CFDs have been learned from reference data "it is now
also possible … to carry out repairs to the mapping results". The repairer
fixes two kinds of defect:

- *violations*: a row's RHS value disagrees with the CFD's expected value
  (constant pattern or reference witness) — the value is replaced;
- *missing values*: the RHS is NULL but the CFD (via its witness) knows the
  expected value — the value is imputed.

Every change is reported as a :class:`RepairAction` so the knowledge base
can record ``repair`` facts and the trace stays browsable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.provenance.model import OPERATOR_REPAIR, ProvenanceStore
from repro.quality.cfd import CFD, CFDPlan, values_equal
from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = ["RepairAction", "RepairResult", "CFDRepairer"]


@dataclass(frozen=True)
class RepairAction:
    """One cell change performed by the repairer."""

    relation: str
    row_index: int
    attribute: str
    old_value: Any
    new_value: Any
    cfd_id: str
    #: ``violation`` (wrong value replaced) or ``imputation`` (NULL filled).
    kind: str

    def __str__(self) -> str:
        return (
            f"{self.relation}[{self.row_index}].{self.attribute}: "
            f"{self.old_value!r} -> {self.new_value!r} ({self.kind}, {self.cfd_id})"
        )


@dataclass
class RepairResult:
    """The repaired table plus the list of actions taken."""

    table: Table
    actions: list[RepairAction]

    @property
    def repaired_cells(self) -> int:
        """Number of cells changed."""
        return len(self.actions)

    def actions_of_kind(self, kind: str) -> list[RepairAction]:
        """Only violations or only imputations."""
        return [action for action in self.actions if action.kind == kind]


class CFDRepairer:
    """Applies CFDs (with witnesses) to repair a table."""

    def __init__(
        self,
        *,
        impute_missing: bool = True,
        fix_violations: bool = True,
        min_confidence: float = 0.0,
    ):
        self._impute_missing = impute_missing
        self._fix_violations = fix_violations
        self._min_confidence = min_confidence

    def repair(
        self,
        table: Table,
        cfds: Iterable[CFD],
        *,
        witnesses: Mapping[str, Mapping[tuple, Any]] | None = None,
        provenance: ProvenanceStore | None = None,
    ) -> RepairResult:
        """Return a repaired copy of ``table`` and the actions performed.

        CFDs are applied in decreasing confidence order; once a cell has been
        repaired by one CFD it is not touched again by a weaker one. With a
        provenance store each repaired cell records a lineage override: the
        current value no longer comes from the mapped source row but from
        the CFD (and its witness reference data) that rewrote it.
        """
        ordered = sorted(
            (cfd for cfd in cfds if cfd.confidence >= self._min_confidence),
            key=lambda cfd: (-cfd.confidence, -cfd.support, cfd.cfd_id),
        )
        plan = CFDPlan(ordered, table.schema.attribute_names, witnesses)
        members = [member for member in plan.members if member.rhs is not None]
        # Row by row, CFDs in order: each row's repairs depend only on that
        # row, so this is the CFD-major pass with each row's LHS keys shared
        # by the CFDs reading them. Actions are kept per CFD so the list
        # still comes out CFD-major.
        actions_of: list[list[RepairAction]] = [[] for _ in members]
        rows = []
        for row_index, values in enumerate(table.tuples()):
            values = list(values)
            keys: dict[int, tuple | None] = {}
            repaired_positions: set[int] = set()
            for slot, member in enumerate(members):
                rhs = member.rhs
                if rhs in repaired_positions:
                    continue
                group = member.group
                if group not in keys:
                    keys[group] = plan.lhs_key(group, values)
                key = keys[group]
                if key is None or not member.matches(values):
                    continue
                expected = member.expected(key)
                if expected is None or is_null(expected):
                    continue
                current = values[rhs]
                if is_null(current):
                    if not self._impute_missing:
                        continue
                    kind = "imputation"
                elif not values_equal(current, expected):
                    if not self._fix_violations:
                        continue
                    kind = "violation"
                else:
                    continue
                values[rhs] = expected
                repaired_positions.add(rhs)
                # A repaired cell may be a later CFD's LHS: its key must be
                # recomputed from the rewritten value.
                for reader in plan.readers.get(rhs, ()):
                    keys.pop(reader, None)
                actions_of[slot].append(
                    RepairAction(
                        relation=table.name,
                        row_index=row_index,
                        attribute=member.cfd.rhs,
                        old_value=current,
                        new_value=expected,
                        cfd_id=member.cfd.cfd_id,
                        kind=kind,
                    )
                )
            rows.append(values)
        actions = [action for member_actions in actions_of for action in member_actions]
        repaired = table.replace_rows(rows)
        if provenance is not None and provenance.enabled and actions:
            row_keys = table.row_keys()
            for action in actions:
                provenance.record_cell(
                    table.name,
                    row_keys[action.row_index],
                    action.attribute,
                    operator=OPERATOR_REPAIR,
                    witnesses=(),
                    detail=f"{action.cfd_id}:{action.kind}",
                )
        return RepairResult(table=repaired, actions=actions)

