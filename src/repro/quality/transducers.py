"""Quality transducers: CFD learning, quality metrics and repair.

Table 1 names "CFD Learning — Data Examples"; §2.3 describes the Quality
Metric transducer becoming able to run once the data context provides
reference data, "adding quality metrics on sources and mappings to the
knowledge base", which in turn enables source/mapping selection.

The metric transducer evaluates through the sufficient-statistic layer
(:mod:`repro.quality.stats`) and stashes the per-relation accumulators as
the ``quality_stats`` artifact: the incremental engine patches them (and
the ``metric`` facts they finalise into) row-by-row when it patches a
result, instead of rescanning every table per feedback round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.context.data_context import context_table
from repro.core.facts import Predicates, cfd_fact, metric_fact, repair_fact
from repro.core.knowledge_base import KnowledgeBase
from repro.core.transducer import Activity, Transducer, TransducerResult
from repro.incremental.state import incremental_state
from repro.provenance.model import provenance_store
from repro.quality.cfd_learning import CFDLearner, CFDLearnerConfig, LearnedCFDs
from repro.quality.repair import CFDRepairer
from repro.quality.stats import (
    QualityStats,
    build_master_keys,
    build_reference_index,
    build_stats,
)
from repro.relational.table import Table

__all__ = [
    "CFD_ARTIFACT_KEY",
    "QUALITY_STATS_ARTIFACT_KEY",
    "QualityStatsEntry",
    "QualityStatsStash",
    "quality_context_token",
    "quality_stats_stash",
    "build_relation_stats",
    "build_relation_entry",
    "CFDLearningTransducer",
    "QualityMetricTransducer",
    "DataRepairTransducer",
]

#: Artifact key under which learned CFDs (with witnesses) are stored in the KB.
CFD_ARTIFACT_KEY = "learned_cfds"

#: Artifact key for the session's maintained quality statistics
#: (:class:`QualityStatsStash`).
QUALITY_STATS_ARTIFACT_KEY = "quality_stats"


@dataclass
class QualityStatsEntry:
    """One relation's maintained accumulators plus its metric-fact subject."""

    subject_kind: str
    stats: QualityStats
    #: Names of the data-context tables the accumulators were built against
    #: (None when the criterion had no context) — consumers verify they
    #: would have picked the same ones before trusting the entry.
    reference_name: str | None = None
    master_name: str | None = None
    #: The catalog table the accumulators exactly reflect. Tables are
    #: immutable (every operation returns a new object), so
    #: ``entry.table is kb.get_table(relation)`` proves the entry current;
    #: writers that patch the accumulators in place stamp the table they
    #: register, and any other write leaves a mismatch that forces a rebuild.
    table: Table | None = None

    def reflects(self, table: Table | None) -> bool:
        """Whether the accumulators exactly reflect ``table``."""
        return table is not None and self.table is table


class QualityStatsStash:
    """Per-session quality statistics, keyed by relation.

    ``context_token`` records the data-context/CFD revisions the entries
    were built against — entries are only patchable while it matches (a new
    reference table or refreshed CFDs change what the accumulators mean).
    ``synced_revision`` is the knowledge-base revision at which the entries
    were last known to exactly reflect the catalog tables; consumers like
    :meth:`Wrangler.evaluate <repro.wrangler.pipeline.Wrangler.evaluate>`
    use the finalised reports only when it still matches.
    """

    def __init__(self) -> None:
        self.entries: dict[str, QualityStatsEntry] = {}
        self.context_token: tuple = ()
        self.synced_revision: int = -1

    def get(self, relation: str) -> QualityStatsEntry | None:
        """The entry of one relation (None when untracked)."""
        return self.entries.get(relation)

    def report(self, relation: str):
        """The finalised :class:`~repro.quality.metrics.QualityReport` (or None)."""
        entry = self.entries.get(relation)
        return entry.stats.finalise() if entry is not None else None

    def fresh(self, kb: KnowledgeBase, relation: str) -> bool:
        """Whether ``relation``'s entry exactly reflects the current KB."""
        return (
            relation in self.entries
            and self.synced_revision == kb.revision
            and self.context_token == quality_context_token(kb)
        )


def quality_context_token(kb: KnowledgeBase) -> tuple:
    """Revisions of the inputs the metric evaluation context derives from.

    The accumulators embed the reference index, the CFD/witness set and the
    master-key set; those change exactly when ``cfd`` or ``data_context``
    facts do (context tables are registered once and treated as immutable,
    like everywhere else in the pipeline).
    """
    return (
        kb.predicate_revision(Predicates.CFD),
        kb.predicate_revision(Predicates.DATA_CONTEXT),
    )


def quality_stats_stash(kb: KnowledgeBase, *, create: bool = True) -> QualityStatsStash | None:
    """The session's stash (created on first use, like the provenance store)."""
    stash = kb.get_artifact(QUALITY_STATS_ARTIFACT_KEY)
    if stash is None and create:
        stash = QualityStatsStash()
        kb.store_artifact(QUALITY_STATS_ARTIFACT_KEY, stash)
    return stash


@dataclass
class MetricContext:
    """One metric run's evaluation inputs, with shared index caches.

    The keyed reference index and the master-key set depend only on the
    context tables and the join keys — never on the relation evaluated —
    so one context builds each at most once per key, however many sources
    and results share it.
    """

    learned: LearnedCFDs | None
    reference: object
    reference_key: list
    master: object
    master_key: list
    _reference_indexes: dict = field(default_factory=dict)
    _master_key_sets: dict = field(default_factory=dict)

    def reference_index(self, key: tuple):
        cached = self._reference_indexes.get(key)
        if cached is None:
            cached = build_reference_index(self.reference, key)
            self._reference_indexes[key] = cached
        return cached

    def master_keys(self, key: tuple):
        cached = self._master_key_sets.get(key)
        if cached is None:
            cached = build_master_keys(self.master, key)
            self._master_key_sets[key] = cached
        return cached


def _metric_context(kb: KnowledgeBase) -> MetricContext:
    """The evaluation inputs (CFDs, reference, master) the metric run uses."""
    learned: LearnedCFDs | None = kb.get_artifact(CFD_ARTIFACT_KEY)
    reference, reference_key = context_table(kb, Predicates.CONTEXT_REFERENCE)
    master, master_key = context_table(kb, Predicates.CONTEXT_MASTER)
    return MetricContext(
        learned=learned,
        reference=reference,
        reference_key=reference_key,
        master=master,
        master_key=master_key,
    )


def build_relation_stats(
    kb: KnowledgeBase, relation: str, *, context: MetricContext | None = None
) -> QualityStats:
    """Fresh accumulators for one relation against the current data context.

    Exactly the evaluation the metric transducer performs for that relation
    — the engine uses this to rebuild a stash entry it cannot patch.
    """
    if context is None:
        context = _metric_context(kb)
    learned = context.learned
    cfds = learned.cfds if learned else []
    witnesses = learned.witnesses if learned else {}
    table = kb.get_table(relation)
    shared_reference_key = [
        k for k in context.reference_key if context.reference is not None and k in table.schema
    ]
    shared_master_key = [
        k for k in context.master_key if context.master is not None and k in table.schema
    ]
    return build_stats(
        table,
        reference=context.reference if shared_reference_key else None,
        reference_key=shared_reference_key,
        cfds=[cfd for cfd in cfds if cfd.rhs in table.schema],
        witnesses=witnesses,
        master=context.master if shared_master_key else None,
        master_key=shared_master_key,
        reference_index=(
            context.reference_index(tuple(shared_reference_key))
            if shared_reference_key
            else None
        ),
        master_keys=(
            context.master_keys(tuple(shared_master_key)) if shared_master_key else None
        ),
    )


def build_relation_entry(
    kb: KnowledgeBase, relation: str, subject_kind: str, *, context: MetricContext | None = None
) -> QualityStatsEntry:
    """A full stash entry for one relation (stats plus context identity)."""
    if context is None:
        context = _metric_context(kb)
    stats = build_relation_stats(kb, relation, context=context)
    return QualityStatsEntry(
        subject_kind=subject_kind,
        stats=stats,
        reference_name=context.reference.name if stats.accuracy is not None else None,
        master_name=context.master.name if stats.relevance is not None else None,
        table=kb.get_table(relation),
    )


class CFDLearningTransducer(Transducer):
    """Learns CFDs from data-context tables bound to the target schema."""

    name = "cfd_learning"
    activity = Activity.QUALITY
    priority = 10
    input_dependencies = ("data_context(C, K, T)",)

    def __init__(self, config: CFDLearnerConfig | None = None):
        super().__init__()
        self._learner = CFDLearner(config)

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        all_cfds: list = []
        witnesses: dict = {}
        learned_from = []
        for context_name, _kind, target_relation in kb.facts(Predicates.DATA_CONTEXT):
            if not kb.has_table(context_name):
                continue
            reference = kb.get_table(context_name)
            target_schema = kb.schema_of(target_relation)
            # Only translate attributes that exist in the target schema.
            attribute_map = {
                name: name for name in reference.schema.attribute_names if name in target_schema
            }
            if len(attribute_map) < 2:
                continue
            learned = self._learner.learn(
                reference, target_relation=target_relation, attribute_map=attribute_map
            )
            all_cfds.extend(learned.cfds)
            witnesses.update(learned.witnesses)
            learned_from.append(context_name)
        kb.store_artifact(CFD_ARTIFACT_KEY, LearnedCFDs(cfds=all_cfds, witnesses=witnesses))
        added = 0
        for cfd in all_cfds:
            added += int(kb.assert_tuple(cfd_fact(*cfd.to_fact_fields())))
        return TransducerResult(
            facts_added=added,
            notes=f"learned {len(all_cfds)} CFDs from {learned_from}",
            details={"cfds": [cfd.describe() for cfd in all_cfds]},
        )


class QualityMetricTransducer(Transducer):
    """Computes quality metrics for sources and materialised results.

    Completeness is always computable; accuracy, consistency and relevance
    additionally use whatever data context is available (reference data for
    accuracy/consistency via CFDs, master data for relevance). Metrics are
    asserted as ``metric`` facts on sources and results, which is what the
    selection transducers consume. The sufficient statistics behind every
    report are stashed (``quality_stats`` artifact) so later revisions can
    patch the metrics instead of rescanning.
    """

    name = "quality_metrics"
    activity = Activity.QUALITY
    priority = 20
    input_dependencies = ("dataset(S, R, N)",)
    watch_predicates = ("cfd", "data_context", "result", "repair")

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        context = None
        added = 0
        evaluated = []
        reused = []
        rebuilt = []
        stash = quality_stats_stash(kb)
        token = quality_context_token(kb)
        previous = stash.entries if stash.context_token == token else {}
        stash.entries = {}
        stash.context_token = token
        subjects = [(Predicates.ROLE_SOURCE, name) for name in kb.source_relations()]
        subjects += [("result", row[0]) for row in kb.facts(Predicates.RESULT)]
        # Metric facts are derived state: replace, never accumulate (stale
        # values sort after fresh ones in the KB's deterministic fact order
        # and would win last-per-criterion reads in the selection consumers).
        kb.retract_where(Predicates.METRIC)
        for subject_kind, relation in subjects:
            if not kb.has_table(relation):
                continue
            # Same context, same table object: the entry is exactly what a
            # rebuild would produce, so only its metric facts are re-asserted.
            entry = previous.get(relation)
            if (
                entry is not None
                and entry.subject_kind == subject_kind
                and entry.reflects(kb.get_table(relation))
            ):
                reused.append(relation)
            else:
                if context is None:
                    context = _metric_context(kb)
                entry = build_relation_entry(kb, relation, subject_kind, context=context)
                rebuilt.append(relation)
            stash.entries[relation] = entry
            for criterion, value in entry.stats.finalise().as_dict().items():
                fact = metric_fact(subject_kind, relation, criterion, value)
                added += int(kb.assert_tuple(fact))
            evaluated.append(relation)
        state = incremental_state(kb, create=False)
        if state is not None:
            state.observe_quality_stats(stash)
        # Stamped after the assertions: the entries reflect the KB exactly
        # as it stands when this transducer hands back control.
        stash.synced_revision = kb.revision
        return TransducerResult(
            facts_added=added,
            notes=(
                f"computed metrics for {len(evaluated)} datasets "
                f"({len(rebuilt)} rebuilt, {len(reused)} reused)"
            ),
            details={"evaluated": evaluated, "reused": reused, "rebuilt": rebuilt},
        )


class DataRepairTransducer(Transducer):
    """Repairs materialised results using the learned CFDs."""

    name = "data_repair"
    activity = Activity.REPAIR
    priority = 10
    input_dependencies = (
        "result(R, M, N)",
        "cfd(I, Rel, L, Rh, S)",
    )

    def __init__(self, repairer: CFDRepairer | None = None):
        super().__init__()
        self._repairer = repairer or CFDRepairer()

    @property
    def repairer(self) -> CFDRepairer:
        """The configured repairer (shared with the incremental engine)."""
        return self._repairer

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        learned: LearnedCFDs | None = kb.get_artifact(CFD_ARTIFACT_KEY)
        if not learned or not learned.cfds:
            return TransducerResult(notes="no learned CFDs available")
        added = 0
        repaired_tables = []
        total_actions = 0
        store = provenance_store(kb)
        state = incremental_state(kb, create=False)
        stash = quality_stats_stash(kb, create=False)
        for relation, _mapping_id, _rows in kb.facts(Predicates.RESULT):
            if not kb.has_table(relation):
                continue
            table = kb.get_table(relation)
            result = self._repairer.repair(
                table, learned.cfds, witnesses=learned.witnesses, provenance=store
            )
            if not result.actions:
                continue
            kb.update_table(result.table)
            if state is not None:
                state.observe_table_updated(result.table)
            self._patch_stash(stash, relation, table, result.table)
            repaired_tables.append(relation)
            total_actions += len(result.actions)
            for action in result.actions:
                fact = repair_fact(
                    action.relation,
                    str(action.row_index),
                    action.attribute,
                    action.old_value,
                    action.new_value,
                    action.cfd_id,
                )
                added += int(kb.assert_tuple(fact))
        return TransducerResult(
            facts_added=added,
            tables_written=repaired_tables,
            notes=f"repaired {total_actions} cells in {len(repaired_tables)} tables",
            details={"actions": total_actions},
        )

    @staticmethod
    def _patch_stash(
        stash: QualityStatsStash | None, relation: str, before: Table, after: Table
    ) -> None:
        """Keep the quality statistics tracking a repair rewrite.

        A re-repair of an already-repaired table asserts no new ``repair``
        facts, so the metric transducer's watches never fire for it — the
        accumulators would silently stay on the pre-repair rows. Entries
        that do not reflect ``before`` are dropped instead (rebuilt on next
        use).
        """
        if stash is None:
            return
        entry = stash.entries.get(relation)
        if entry is None:
            return
        if not entry.reflects(before):
            stash.entries.pop(relation, None)
            return
        for old, new in zip(before.tuples(), after.tuples()):
            if old != new:
                entry.stats.replace_row(old, new)
        entry.table = after
