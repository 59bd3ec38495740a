"""Conditional functional dependencies (CFDs).

A CFD is a functional dependency ``LHS → RHS`` extended with a *pattern
tuple* that restricts where it applies and/or fixes constant values
(Fan & Geerts, "Foundations of Data Quality Management" — reference [4] of
the paper). The paper uses CFDs learned from data-context reference data to
establish the consistency of address information and to repair mapping
results.

The pattern tuple maps attributes to either the wildcard ``"_"`` or a
constant. Attributes of the LHS with constants restrict applicability;
an RHS constant prescribes the value, an RHS wildcard requires agreement
with the dependency's witness (handled by the repair module via reference
lookups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.relational.keys import normalise_key_tuple
from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = [
    "WILDCARD",
    "CFD",
    "CompiledCFD",
    "CFDPlan",
    "Violation",
    "find_violations",
    "values_equal",
]

#: Pattern wildcard.
WILDCARD = "_"


@dataclass(frozen=True)
class CFD:
    """One conditional functional dependency with a single pattern tuple."""

    cfd_id: str
    relation: str
    lhs: tuple[str, ...]
    rhs: str
    #: Pattern over LHS attributes: attribute → constant or ``WILDCARD``.
    lhs_pattern: tuple[tuple[str, Any], ...] = ()
    #: RHS pattern value: a constant, or ``WILDCARD`` for variable CFDs.
    rhs_pattern: Any = WILDCARD
    #: Fraction of reference tuples supporting the dependency.
    support: float = 1.0
    #: Confidence of the underlying FD in the reference data.
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError("a CFD needs at least one LHS attribute")
        if self.rhs in self.lhs:
            raise ValueError(f"CFD RHS {self.rhs!r} cannot also be a LHS attribute")
        pattern_attrs = {name for name, _ in self.lhs_pattern}
        unknown = pattern_attrs - set(self.lhs)
        if unknown:
            raise ValueError(f"pattern mentions non-LHS attributes: {sorted(unknown)}")

    @property
    def is_constant(self) -> bool:
        """True when the RHS pattern prescribes a constant value."""
        return self.rhs_pattern != WILDCARD

    @property
    def is_variable(self) -> bool:
        """True when the RHS pattern is the wildcard (classic FD semantics)."""
        return not self.is_constant

    def lhs_pattern_dict(self) -> dict[str, Any]:
        """The LHS pattern as a dictionary (missing attributes are wildcards)."""
        pattern = {name: WILDCARD for name in self.lhs}
        pattern.update(dict(self.lhs_pattern))
        return pattern

    def applies_to(self, row: Mapping[str, Any]) -> bool:
        """Whether the pattern tuple's LHS constants match ``row``.

        Rows with NULL in any LHS attribute are out of scope (they cannot
        witness or violate the dependency).
        """
        for attribute in self.lhs:
            if attribute not in row or is_null(row[attribute]):
                return False
        for attribute, constant in self.lhs_pattern:
            if constant == WILDCARD:
                continue
            if not values_equal(row[attribute], constant):
                return False
        return True

    def lhs_values(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        """The row's LHS value combination, normalised for witness lookups."""
        return normalise_key_tuple(row[attribute] for attribute in self.lhs)

    def check_row(
        self, row: Mapping[str, Any], *, witness: Mapping[tuple, Any] | None = None
    ) -> bool:
        """Whether ``row`` satisfies this CFD.

        For constant CFDs the RHS must equal the prescribed constant. For
        variable CFDs a ``witness`` index (LHS values → expected RHS value,
        usually built from reference data) decides; without a witness the
        row is trivially satisfied.
        """
        if not self.applies_to(row):
            return True
        return self.check_applicable(row, witness=witness)

    def check_applicable(
        self, row: Mapping[str, Any], *, witness: Mapping[tuple, Any] | None = None
    ) -> bool:
        """:meth:`check_row` for a row already known to pass :meth:`applies_to`.

        Lets single-pass consumers (the consistency sufficient statistics)
        count checkable cells and violations without evaluating the pattern
        match twice per (row, CFD) pair.
        """
        value = row.get(self.rhs)
        if self.is_constant:
            return values_equal(value, self.rhs_pattern)
        if witness is None:
            return True
        expected = witness.get(self.lhs_values(row))
        if expected is None:
            return True
        if is_null(value):
            return False
        return values_equal(value, expected)

    def expected_value(
        self, row: Mapping[str, Any], *, witness: Mapping[tuple, Any] | None = None
    ) -> Any:
        """The value the RHS *should* have for ``row`` (None when unknown)."""
        if not self.applies_to(row):
            return None
        if self.is_constant:
            return self.rhs_pattern
        if witness is None:
            return None
        return witness.get(self.lhs_values(row))

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``([postcode] -> street, (_ || _))``."""
        lhs_pattern = self.lhs_pattern_dict()
        lhs_part = ", ".join(f"{name}={lhs_pattern[name]}" for name in self.lhs)
        return f"{self.relation}: [{lhs_part}] -> {self.rhs}={self.rhs_pattern}"

    def to_fact_fields(self) -> tuple[str, str, str, str, float]:
        """Fields for the ``cfd`` KB fact (id, relation, lhs, rhs, support)."""
        lhs_pattern = self.lhs_pattern_dict()
        lhs_text = ",".join(f"{name}:{lhs_pattern[name]}" for name in self.lhs)
        rhs_text = f"{self.rhs}:{self.rhs_pattern}"
        return self.cfd_id, self.relation, lhs_text, rhs_text, self.support


@dataclass(frozen=True)
class CompiledCFD:
    """One CFD resolved against a row layout (see :class:`CFDPlan`)."""

    #: Position of the CFD in the list the plan was compiled from.
    index: int
    cfd: CFD
    #: Index of the CFD's LHS in :attr:`CFDPlan.lhs_positions`.
    group: int
    #: Position of the RHS attribute (None when the layout lacks it).
    rhs: int | None
    #: (position, constant) of every non-wildcard LHS pattern entry.
    pattern: tuple[tuple[int, Any], ...]
    #: ``cfd.is_constant``, precomputed.
    constant: bool
    witness: Mapping[tuple, Any] | None

    def matches(self, values: Sequence[Any]) -> bool:
        """The LHS pattern constants part of :meth:`CFD.applies_to`."""
        for position, constant in self.pattern:
            if not values_equal(values[position], constant):
                return False
        return True

    def satisfied(self, values: Sequence[Any], key: tuple) -> bool:
        """:meth:`CFD.check_applicable` given the row's normalised LHS ``key``."""
        value = values[self.rhs] if self.rhs is not None else None
        if self.constant:
            return values_equal(value, self.cfd.rhs_pattern)
        if self.witness is None:
            return True
        expected = self.witness.get(key)
        if expected is None:
            return True
        if is_null(value):
            return False
        return values_equal(value, expected)

    def expected(self, key: tuple) -> Any:
        """:meth:`CFD.expected_value` for an applicable row's LHS ``key``."""
        if self.constant:
            return self.cfd.rhs_pattern
        if self.witness is None:
            return None
        return self.witness.get(key)


class CFDPlan:
    """CFDs compiled once for a row layout, checked positionally per row.

    Each CFD's LHS, RHS and pattern-constant attributes are resolved to
    positions up front, and CFDs sharing an LHS share one group: a row's
    LHS values are null-checked and normalised once per distinct LHS
    (:meth:`lhs_key`) instead of once per CFD over a per-row dict. CFDs
    whose LHS the layout lacks can never apply and are left out. The
    row-dict methods of :class:`CFD` stay the reference semantics.
    """

    def __init__(
        self,
        cfds: Iterable[CFD],
        row_names: Sequence[str],
        witnesses: Mapping[str, Mapping[tuple, Any]] | None = None,
    ) -> None:
        witnesses = witnesses or {}
        position_of = {name: position for position, name in enumerate(row_names)}
        groups: dict[tuple[int, ...], int] = {}
        members: list[CompiledCFD] = []
        for index, cfd in enumerate(cfds):
            lhs = tuple(position_of.get(name) for name in cfd.lhs)
            if None in lhs:
                continue
            members.append(
                CompiledCFD(
                    index=index,
                    cfd=cfd,
                    group=groups.setdefault(lhs, len(groups)),
                    rhs=position_of.get(cfd.rhs),
                    pattern=tuple(
                        (position_of[name], constant)
                        for name, constant in cfd.lhs_pattern
                        if constant != WILDCARD
                    ),
                    constant=cfd.is_constant,
                    witness=witnesses.get(cfd.cfd_id),
                )
            )
        #: Compiled CFDs in input order.
        self.members: tuple[CompiledCFD, ...] = tuple(members)
        #: LHS positions of each group.
        self.lhs_positions: tuple[tuple[int, ...], ...] = tuple(groups)
        #: Per group, its members (input order).
        self.groups: tuple[tuple[CompiledCFD, ...], ...] = tuple(
            tuple(member for member in members if member.group == group)
            for group in range(len(groups))
        )
        #: Position → groups whose LHS reads it (a write there invalidates
        #: those groups' keys).
        self.readers: dict[int, tuple[int, ...]] = {}
        for group, positions in enumerate(self.lhs_positions):
            for position in set(positions):
                self.readers[position] = self.readers.get(position, ()) + (group,)

    def lhs_key(self, group: int, values: Sequence[Any]) -> tuple | None:
        """The row's normalised LHS for ``group``; None when any LHS value is NULL."""
        key = normalise_key_tuple([values[position] for position in self.lhs_positions[group]])
        for part in key:
            if part is None:  # normalise_key maps exactly the NULLs to None
                return None
        return key


@dataclass(frozen=True)
class Violation:
    """One row failing one CFD."""

    cfd_id: str
    relation: str
    row_index: int
    attribute: str
    actual: Any
    expected: Any

    def __str__(self) -> str:
        return (
            f"{self.relation}[{self.row_index}].{self.attribute}: "
            f"{self.actual!r} (expected {self.expected!r}, cfd {self.cfd_id})"
        )


def find_violations(
    table: Table,
    cfds: Iterable[CFD],
    *,
    witnesses: Mapping[str, Mapping[tuple, Any]] | None = None,
) -> list[Violation]:
    """All violations of ``cfds`` in ``table``.

    ``witnesses`` maps CFD ids to witness indexes (LHS values → expected RHS
    value) for variable CFDs; they are typically built from reference data
    by :mod:`repro.quality.cfd_learning`.
    """
    witnesses = witnesses or {}
    violations: list[Violation] = []
    for cfd in cfds:
        witness = witnesses.get(cfd.cfd_id)
        for index, row in enumerate(table.rows()):
            if cfd.check_row(row, witness=witness):
                continue
            violations.append(
                Violation(
                    cfd_id=cfd.cfd_id,
                    relation=table.name,
                    row_index=index,
                    attribute=cfd.rhs,
                    actual=row.get(cfd.rhs),
                    expected=cfd.expected_value(row, witness=witness),
                )
            )
    return violations


def values_equal(left: Any, right: Any) -> bool:
    """CFD value agreement: trimmed case-folded strings, numeric equality.

    NULL never equals anything, itself included.
    """
    if is_null(left) or is_null(right):
        return False
    if isinstance(left, str) and isinstance(right, str):
        return left.strip().lower() == right.strip().lower()
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right
