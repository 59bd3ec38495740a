"""Spans around the public entry points of every ``repro`` layer.

The traced run patches each entry point *where its caller looks it up*: a
class method on its class, a module-level function in every ``repro``
module that bound it by name (``from x import f`` copies the reference, so
patching ``x.f`` alone would miss ``repro.wrangler.pipeline.f``). Nothing
under ``src/`` changes and nothing is patched outside a traced op:
:meth:`Tracer.install` and :meth:`Tracer.uninstall` bracket each op, so an
untraced op of the same run measures the bare program.

A span is ``(name, start, end, parent, op)``. Spans stay in memory and are
written out when the run ends. An op started on the benchmark thread keeps
its id across the job queue's hop to the worker thread: the benchmark
binds the request object it submits (:meth:`Tracer.bind`) and the
``WranglingSession.handle`` wrapper adopts the op bound to the request it
receives.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable

#: Transducers of the default registry, one ``core.transducer.<name>`` pair each.
TRANSDUCERS = (
    "cfd_learning",
    "criterion_weighting",
    "data_extraction",
    "data_fusion",
    "data_repair",
    "duplicate_detection",
    "feedback_repair",
    "instance_matching",
    "mapping_evaluation",
    "mapping_generation",
    "mapping_quality",
    "mapping_selection",
    "quality_metrics",
    "result_materialisation",
    "schema_matching",
    "source_selection",
)

#: Spans reported as ``<span>.calls`` and ``<span>.self_s`` (per traced op).
CALL_SPANS = (
    "mapping.execute",
    "mapping.score_all",
    "quality.repair",
    "quality.evaluate",
    "fusion.detect",
    "fusion.fuse",
    "datalog.run",
    "datalog.kb_query",
    "cqa.answer",
    "cqa.compile",
    "cqa.edb_build",
    "cqa.enumerate",
    "incremental.apply",
    "provenance.explain",
    "provenance.propagate",
    "service.fingerprint",
) + tuple(f"core.transducer.{name}" for name in TRANSDUCERS)

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {
    "core.steps": "count",
    "core.rerun_share": "share",
    "core.schedule.self_s": "s",
    **{
        f"{span}.{suffix}": unit
        for span in CALL_SPANS
        for suffix, unit in (("calls", "count"), ("self_s", "s"))
    },
    "mapping.execute.rows_out": "count",
    "quality.repair.cells_per_call": "count",
    "fusion.detect.pairs": "count",
    "datalog.run.input_rows": "count",
    "cqa.environment.self_s": "s",
    "cqa.rows_examined_per_answer": "count",
    "cqa.rewriting_share": "share",
    "cqa.repairs_evaluated": "count",
    "incremental.patched_share": "share",
    "incremental.rows_recomputed": "count",
    "incremental.cells_rerepaired": "count",
    "incremental.full_rerun.self_s": "s",
    "service.queue_wait_ms": "ms",
    "service.handle.self_s": "s",
    "service.codec.self_s": "s",
    "service.overhead_ms": "ms",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "share",
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory spans and counters, with the patches that produce them."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op id]`` per span.
        self.spans: list[list[Any]] = []
        #: op id → ``{"kind", "root", "traced"}``.
        self.ops: dict[int, dict[str, Any]] = {}
        #: op id → counter name → total.
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bound: dict[int, tuple[Any, int]] = {}
        #: ``core.run`` span index → transducers executed within it.
        self._ran: dict[int, set[str]] = defaultdict(set)
        self._patches: list[tuple[Any, str, Any]] = []
        self._targets = _targets()

    # -- ops and spans --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        op = self.spans[parent][OP] if parent is not None else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, op])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self, kind: str, *, traced: bool):
        """One op of the workload; its root span parents every layer span."""
        op_id = len(self.ops)
        self._local.root = None
        self._local.stack = []
        index = self._open("op")
        self.spans[index][OP] = op_id
        self.ops[op_id] = {"kind": kind, "root": index, "traced": traced}
        try:
            yield op_id
        finally:
            self._close(index)

    def bind(self, obj: Any) -> None:
        """Hand the current op to whichever thread next handles ``obj``."""
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        if parent is not None:
            self._bound[id(obj)] = (obj, parent)

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a counter of the current op."""
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        if parent is not None:
            self.counters[self.spans[parent][OP]][name] += value

    def _adopt(self, obj: Any) -> None:
        bound = self._bound.pop(id(obj), None)
        if bound is not None:
            self._local.root = bound[1]
            self._local.stack = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (idempotent)."""
        if self._patches:
            return
        for owner, attribute, wrapper in self._targets:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            wrapped = wrapper(self, original)
            if isinstance(owner, type):
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
                continue
            # A module function: rebind it in every repro module that holds it.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if not name.startswith("repro") or getattr(module, attribute, None) is not original:
                    continue
                self._patches.append((module, attribute, original))
                setattr(module, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")

    def layer_metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` entry, averaged per traced op."""
        traced = [op for op, info in self.ops.items() if info["traced"]]
        per_op = 1.0 / max(1, len(traced))
        traced_set = set(traced)
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[PARENT] is not None:
                children[span[PARENT]].append(index)

        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        spans_by_op: dict[int, list[list[Any]]] = defaultdict(list)
        handle_by_op: dict[int, float] = defaultdict(float)
        schedule_self = 0.0
        full_rerun = 0.0
        for index, span in enumerate(self.spans):
            if span[OP] not in traced_set or span[NAME] == "op" or span[END] is None:
                continue
            name = span[NAME]
            kids = [self.spans[k] for k in children[index]]
            calls[name] += 1
            self_s[name] += _duration(span) - _covered(span, kids)
            spans_by_op[span[OP]].append(span)
            if name == "service.handle":
                handle_by_op[span[OP]] += _duration(span)
            if name == "core.schedule":
                schedule_self += _duration(span) - sum(
                    _duration(kid) for kid in kids if kid[NAME].startswith("core.transducer."))
            if name == "core.run" and self.ops[span[OP]]["kind"] == "feedback":
                full_rerun += _duration(span)

        totals: dict[str, float] = defaultdict(float)
        for op in traced:
            for name, value in self.counters[op].items():
                totals[name] += value
        feedback_ops = sum(1 for op in traced if self.ops[op]["kind"] == "feedback")

        metrics: dict[str, float] = {}
        for span in CALL_SPANS:
            metrics[f"{span}.calls"] = calls[span] * per_op
            metrics[f"{span}.self_s"] = self_s[span] * per_op
        steps = sum(calls[f"core.transducer.{name}"] for name in TRANSDUCERS)
        metrics["core.steps"] = steps * per_op
        metrics["core.rerun_share"] = totals["core.reruns"] / max(1, steps)
        metrics["core.schedule.self_s"] = schedule_self * per_op
        metrics["mapping.execute.rows_out"] = totals["mapping.rows_out"] * per_op
        metrics["quality.repair.cells_per_call"] = (
            totals["quality.repair.cells"] / max(1, calls["quality.repair"]))
        metrics["fusion.detect.pairs"] = totals["fusion.pairs"] * per_op
        metrics["datalog.run.input_rows"] = totals["datalog.input_rows"] * per_op
        metrics["cqa.environment.self_s"] = self_s["cqa.environment"] * per_op
        metrics["cqa.rows_examined_per_answer"] = (
            totals["cqa.edb_rows"] / max(1.0, totals["cqa.answers"]))
        metrics["cqa.rewriting_share"] = totals["cqa.rewriting"] / max(1, calls["cqa.answer"])
        metrics["cqa.repairs_evaluated"] = totals["cqa.repairs_evaluated"] * per_op
        metrics["incremental.full_rerun.self_s"] = full_rerun / max(1, feedback_ops)
        metrics["service.handle.self_s"] = self_s["service.handle"] * per_op
        metrics["service.codec.self_s"] = self_s["service.codec"] * per_op

        overheads = [
            _duration(self.spans[self.ops[op]["root"]]) - handle_by_op[op]
            for op in traced if op in handle_by_op
        ]
        metrics["service.overhead_ms"] = 1000.0 * _mean(overheads)

        covered = total = 0.0
        for op in traced:
            root = self.spans[self.ops[op]["root"]]
            total += _duration(root)
            covered += _covered(root, spans_by_op[op])
        metrics["trace.unattributed_share"] = (total - covered) / total if total else 0.0
        metrics.update(extra)
        return {name: metrics.get(name, 0.0) for name in LAYER_METRICS}


# -- span arithmetic ------------------------------------------------------------


def _duration(span: list[Any]) -> float:
    return (span[END] or span[START]) - span[START]


def _covered(span: list[Any], others: Iterable[list[Any]]) -> float:
    """Seconds of ``span``'s interval that the union of ``others`` covers."""
    low, high = span[START], span[END] or span[START]
    intervals = sorted(
        (max(low, other[START]), min(high, other[END]))
        for other in others if other[END] is not None
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- the wrappers ---------------------------------------------------------------


def _span(name: str, after: Callable[["Tracer", tuple, dict, Any], None] | None = None):
    """A wrapper factory: one span per call, then an optional counter hook."""

    def factory(tracer: Tracer, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    return factory


def _execute(tracer: Tracer, original: Callable) -> Callable:
    """``Transducer.execute``: one span per transducer, reruns per phase run."""

    @functools.wraps(original)
    def wrapper(self, kb):
        stack = tracer._stack()
        run = next((i for i in reversed(stack) if tracer.spans[i][NAME] == "core.run"), None)
        if run is not None:
            if self.name in tracer._ran[run]:
                tracer.count("core.reruns")
            tracer._ran[run].add(self.name)
        index = tracer._open(f"core.transducer.{self.name}")
        try:
            return original(self, kb)
        finally:
            tracer._close(index)

    return wrapper


def _handle(tracer: Tracer, original: Callable) -> Callable:
    """``WranglingSession.handle``: adopt the op bound to the request, and
    bind the response, which the queue encodes on its event-loop thread."""

    @functools.wraps(original)
    def wrapper(self, request):
        tracer._adopt(request)
        index = tracer._open("service.handle")
        try:
            response = original(self, request)
        finally:
            tracer._close(index)
        tracer.bind(response)
        return response

    return wrapper


def _codec(tracer: Tracer, original: Callable) -> Callable:
    """A response's ``as_dict``: adopt the op bound to the response."""

    @functools.wraps(original)
    def wrapper(self):
        tracer._adopt(self)
        index = tracer._open("service.codec")
        try:
            return original(self)
        finally:
            tracer._close(index)

    return wrapper


def _rows(tables) -> int:
    if tables is None:
        return 0
    if hasattr(tables, "count") and not isinstance(tables, dict):
        return tables.count()
    return sum(len(rows) if hasattr(rows, "__len__") else 0 for rows in tables.values())


def _after_execute(tracer, args, kwargs, result) -> None:
    tracer.count("mapping.rows_out", len(result))


def _after_repair(tracer, args, kwargs, result) -> None:
    tracer.count("quality.repair.cells", result.repaired_cells)


def _after_detect(tracer, args, kwargs, result) -> None:
    tracer.count("fusion.pairs", len(result))


def _after_engine_run(tracer, args, kwargs, result) -> None:
    edb = kwargs.get("edb", args[1] if len(args) > 1 else None)
    tracer.count("datalog.input_rows", _rows(edb))


def _after_answer(tracer, args, kwargs, result) -> None:
    tables = kwargs.get("tables", args[2] if len(args) > 2 else None)
    tracer.count("cqa.edb_rows", _rows(tables))
    tracer.count("cqa.answers", len(result.answers))
    if result.method == "rewriting":
        tracer.count("cqa.rewriting")
    if result.enumeration is not None:
        tracer.count("cqa.repairs_evaluated", result.enumeration.repairs_evaluated)


def _targets() -> list[tuple[Any, str, Callable]]:
    """``(owner, attribute, wrapper factory)`` for every traced entry point."""

    def load(path: str):
        module, _, attribute = path.rpartition(".")
        return importlib.import_module(module), attribute

    def cls(path: str):
        module, attribute = load(path)
        return getattr(module, attribute)

    table: list[tuple[Any, str, Callable]] = [
        (cls("repro.core.transducer.Transducer"), "execute", _execute),
        (cls("repro.core.orchestrator.Orchestrator"), "step", _span("core.schedule")),
        (cls("repro.core.orchestrator.Orchestrator"), "run", _span("core.run")),
        (cls("repro.mapping.execution.MappingExecutor"), "execute",
         _span("mapping.execute", _after_execute)),
        (cls("repro.mapping.execution.MappingExecutor"), "execute_rows",
         _span("mapping.execute", _after_execute)),
        (cls("repro.mapping.selection.MappingScorer"), "score_all", _span("mapping.score_all")),
        (cls("repro.quality.repair.CFDRepairer"), "repair", _span("quality.repair", _after_repair)),
        (cls("repro.fusion.duplicates.DuplicateDetector"), "detect",
         _span("fusion.detect", _after_detect)),
        (cls("repro.fusion.fusion.DataFuser"), "fuse", _span("fusion.fuse")),
        (cls("repro.datalog.engine.Engine"), "run", _span("datalog.run", _after_engine_run)),
        (cls("repro.core.knowledge_base.KnowledgeBase"), "query", _span("datalog.kb_query")),
        (cls("repro.wrangler.pipeline.Wrangler"), "query", _span("cqa.environment")),
        (cls("repro.incremental.rewrangle.IncrementalWrangler"), "apply",
         _span("incremental.apply")),
        (cls("repro.provenance.feedback.LineageFeedbackPropagator"), "emit_deltas",
         _span("provenance.propagate")),
        (cls("repro.provenance.feedback.LineageFeedbackPropagator"), "collect",
         _span("provenance.propagate")),
        (cls("repro.service.session.WranglingSession"), "handle", _handle),
    ]
    for response in ("SessionMetrics", "QueryResponse", "ExplainResponse"):
        table.append((cls(f"repro.service.api.{response}"), "as_dict", _codec))
    for path, name, after in (
        ("repro.quality.metrics.evaluate_quality", "quality.evaluate", None),
        ("repro.cqa.answer_certain", "cqa.answer", _after_answer),
        ("repro.cqa.rewrite.compile_certain", "cqa.compile", None),
        ("repro.cqa.rewrite.build_edb", "cqa.edb_build", None),
        ("repro.cqa.enumerate.enumerate_certain", "cqa.enumerate", None),
        ("repro.provenance.explain.explain_result", "provenance.explain", None),
        ("repro.wrangler.batch.table_fingerprint", "service.fingerprint", None),
    ):
        module, attribute = load(path)
        table.append((module, attribute, _span(name, after)))
    return table
