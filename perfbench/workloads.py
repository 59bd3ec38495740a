"""The three closed-loop workloads: ``wrangle``, ``session`` and ``query``.

Each workload has one simulated user with one operation in flight and
drives the public surfaces only (``Wrangler``, ``WranglingSession``,
``BackgroundService``). The data is a fixed corpus of generated scenarios
(generator seeds ``0 .. corpus-1``, default knobs), so runs compare like
with like; the run seed draws everything else: the row order of every
source table, the annotations and reads of each feedback round, and the
query stream. Set-up builds ``replicas`` copies, timing each build
(``setup_s`` is their median); the measured loop then cycles over them.

A *unit* is what one user action costs end to end: a cold wrangle, one
feedback round (one write and its reads) or one query. Units are made of
ops (requests); every op has a timeout, and an exception, a failed or
cancelled job, a refused submission, a timeout or a wrong answer counts as
a failed op.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from repro.feedback.annotations import simulate_feedback
from repro.fusion.duplicates import DuplicateDetectorConfig
from repro.relational.table import Table
from repro.scenarios.base import Scenario
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.service.api import ExplainRequest, FeedbackRequest, JobStatus, QueryRequest, RunRequest
from repro.service.jobs import BackgroundService, RateLimitExceeded
from repro.service.session import SessionStore, WranglingSession
from repro.wrangler.batch import table_fingerprint
from repro.wrangler.config import WranglerConfig
from repro.wrangler.pipeline import Wrangler

#: Percentiles a tail may use, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: Repair-enumeration budget of the non-rewritable self-join.
SELF_JOIN_MAX_REPAIRS = 16


@dataclass(frozen=True)
class Sizes:
    """How big one run's inputs are."""

    entities: int
    replicas: int = 3
    #: Distinct generated scenarios; replica ``i`` uses scenario ``i % corpus``.
    corpus: int = 3
    #: Annotations per feedback round (session).
    budget: int = 0
    #: Generated queries per scenario (session, query).
    queries: int = 0
    #: Explain requests per feedback round (session).
    explains: int = 2


#: Input sizes per profile and workload. ``smoke`` runs every code path in
#: seconds; ``full`` is what the benchmark measures.
SIZES: dict[str, dict[str, Sizes]] = {
    "full": {
        "wrangle": Sizes(entities=1500, replicas=6, corpus=1),
        "session": Sizes(entities=2000, budget=30, queries=15),
        "query": Sizes(entities=3000, queries=32),
    },
    "smoke": {
        "wrangle": Sizes(entities=200, replicas=2, corpus=1),
        "session": Sizes(entities=200, replicas=2, corpus=2, budget=3, queries=10),
        "query": Sizes(entities=200, replicas=2, corpus=2, queries=8),
    },
}


def _config(block_on: str) -> WranglerConfig:
    """Default knobs, except duplicate detection blocks on the entity key
    (without blocking, pair scoring is quadratic at these sizes)."""
    return WranglerConfig(
        duplicate_detector=DuplicateDetectorConfig(blocking_attributes=(block_on,))
    )


CATALOG_CONFIG = _config("sku")
SHIPMENT_CONFIG = _config("tracking_id")


class OpFailed(Exception):
    """An op that did not produce a usable answer; ``reason`` is its kind."""

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


def digest(rows) -> str:
    """Order-independent digest of an answer set."""
    text = json.dumps(sorted(json.dumps(row, default=str) for row in rows or ()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float | None, int | None]:
    """The highest percentile leaving at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            return statistics.quantiles(values, n=100, method="inclusive")[p - 1], p
    return None, None


class Workload:
    """Shared bookkeeping: samples, failures, checks and traffic."""

    name = ""
    #: What one unit of work is, for the report.
    unit = ""

    def __init__(self, sizes: Sizes, seed: int, tracer, expected: dict | None):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        #: Recorded outputs for this seed (None: nothing recorded to compare).
        self.expected = expected
        self.observed: dict[str, Any] = {}
        self.setup_seconds: list[float] = []
        #: ``(start, end)`` perf-counter window of each set-up build.
        self.setup_windows: list[tuple[float, float]] = []
        #: Machine-speed reference for the gated times (``speed.SpeedSampler``);
        #: None in traced runs, which report no gated metrics.
        self.speed = None
        #: op kind → latencies (ms) of untraced successful ops.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: traced? → unit latencies (ms), in order.
        self.units: dict[bool, list[float]] = {False: [], True: []}
        #: ``(start, end)`` window of each entry of ``units[False]``.
        self.unit_windows: list[tuple[float, float]] = []
        self.attempted: Counter = Counter()
        self.failures: dict[str, Counter] = defaultdict(Counter)
        self.problems: list[str] = []
        self.traffic: dict[str, Any] = {"seed": seed, "corpus_seeds": []}
        self.queue_wait_ms: list[float] = []
        self.incremental: list[dict[str, Any]] = []
        self.quality_overall = float("nan")

    def scenario(self, family: str, replica: int, queries: int = 0) -> Scenario:
        """Replica ``replica``: a corpus scenario with seed-shuffled source rows."""
        corpus_seed = replica % self.sizes.corpus
        scenario = generate_synthetic(SynthConfig(
            family=family, entities=self.sizes.entities, seed=corpus_seed,
            query_workload=queries))
        rng = random.Random(f"{self.seed}/{replica}/rows")
        sources = []
        for table in scenario.sources:
            rows = list(table.tuples())
            rng.shuffle(rows)
            sources.append(Table(table.schema, rows, coerce=False))
        self.traffic["corpus_seeds"].append(corpus_seed)
        return dataclasses.replace(scenario, sources=sources)

    # -- ops ------------------------------------------------------------------

    def op(self, kind: str, call: Callable[[], Any], *, traced: bool, timeout: float,
           check: Callable[[Any], list[str]] | None = None) -> tuple[bool, Any, float]:
        """Run one op; returns ``(ok, value, ms)`` and books the outcome."""
        self.attempted[kind] += 1

        def run():
            with self.tracer.op(kind, traced=traced):
                return call()

        value = error = None
        started = time.perf_counter()
        try:
            value = run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = exc
        ms = (time.perf_counter() - started) * 1000.0
        reason = ""
        if isinstance(error, RateLimitExceeded):
            reason = "rate_limited"
        elif isinstance(error, OpFailed):
            reason = error.reason
            self.problems.append(f"{kind}: {error}")
        elif isinstance(error, (TimeoutError, asyncio.TimeoutError)):
            reason = "timeout"
        elif error is not None:
            reason = "exception"
            self.problems.append(
                f"{kind}: {''.join(traceback.format_exception(error, limit=3))}")
        elif ms > timeout * 1000.0:
            reason = "timeout"
        elif check is not None:
            try:
                wrong = check(value)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                wrong = [f"malformed response: {exc!r}"]
            if wrong:
                reason = "mismatch"
                self.problems.extend(f"{kind}: {message}" for message in wrong)
        if reason:
            self.failures[kind][reason] += 1
            return False, value, ms
        if not traced:
            self.samples[kind].append(ms)
        return True, value, ms

    def timed_setup(self, build: Callable[[], Any]) -> Any:
        """Build one replica, booking its set-up time."""
        started = time.perf_counter()
        value = build()
        ended = time.perf_counter()
        self.setup_seconds.append(ended - started)
        self.setup_windows.append((started, ended))
        return value

    def run_unit(self, slot: int, traced: bool) -> None:
        """``unit_of_work``, booking the window of an untraced unit that completed."""
        booked = len(self.units[False])
        started = time.perf_counter()
        self.unit_of_work(slot, traced)
        if len(self.units[False]) > booked:
            self.unit_windows.append((started, time.perf_counter()))

    def compare(self, key: str, value: Any) -> list[str]:
        """Record ``value`` under ``key`` and compare it with the recorded one."""
        self.observed[key] = value
        if self.expected is None or key not in self.expected:
            return []
        if self.expected[key] != value:
            return [f"{key}: expected {self.expected[key]}, got {value}"]
        return []

    # -- the run --------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def unit_of_work(self, slot: int, traced: bool) -> None:
        """One unit; ``slot`` picks its inputs (a traced unit repeats the
        preceding untraced one's slot, so the two can be compared)."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks and quality (outside the timed loop)."""

    def close(self) -> None:
        """Stop whatever the workload started."""

    # -- results --------------------------------------------------------------

    @property
    def failed(self) -> int:
        return sum(sum(reasons.values()) for reasons in self.failures.values())

    def gated_metrics(self) -> dict[str, float]:
        """The end-to-end metrics every workload reports; times are at the
        reference speed (``speed.py``)."""
        units = self.normalised_units()
        setups = [self.speed.normalise(s, *window)
                  for s, window in zip(self.setup_seconds, self.setup_windows)]
        attempted = sum(self.attempted.values())
        return {
            "setup_s": statistics.median(setups),
            "op_p50_norm_ms": statistics.median(units) if units else float("nan"),
            "quality_overall": self.quality_overall,
            "success_share": 1.0 - self.failed / max(1, attempted),
            "peak_rss_mb": _peak_rss_mb(),
        }

    def normalised_units(self) -> list[float]:
        """Untraced unit latencies (ms) at the reference speed."""
        return [self.speed.normalise(ms, *window)
                for ms, window in zip(self.units[False], self.unit_windows)]

    def named_metrics(self) -> dict[str, float | None]:
        """The workload's own metrics (report only); times are wall-clock."""
        attempted = sum(self.attempted.values())
        units = self.units[False]
        costs = self.speed.costs if self.speed is not None else []
        return {
            "op_p50_ms": statistics.median(units) if units else None,
            "setup_wall_s": statistics.median(self.setup_seconds),
            "speed_kernel_us": 1e6 * statistics.median(costs) if costs else None,
            "fail_share": self.failed / max(1, attempted),
        }

    def latency_metrics(self, kind: str, prefix: str) -> dict[str, float | None]:
        values = self.samples.get(kind, [])
        value, p = tail(values) if values else (None, None)
        return {
            f"{prefix}_p50_ms": statistics.median(values) if values else None,
            f"{prefix}_tail_ms": value,
            f"{prefix}_tail_percentile": p,
            f"{prefix}_samples": len(values),
        }

    def layer_extra(self) -> dict[str, float]:
        """Per-layer metrics read from responses rather than spans."""
        pairs = list(zip(self.units[False], self.units[True]))
        overhead = sum(t for _, t in pairs) / sum(u for u, _ in pairs) if pairs else 0.0
        rounds = len(self.incremental)
        return {
            "trace.overhead": overhead,
            "service.queue_wait_ms": statistics.fmean(self.queue_wait_ms) if self.queue_wait_ms else 0.0,
            "incremental.patched_share": (
                sum(1 for entry in self.incremental if entry.get("applied")) / rounds if rounds else 0.0),
            "incremental.rows_recomputed": (
                sum(entry.get("rows_recomputed", 0) for entry in self.incremental) / rounds if rounds else 0.0),
            "incremental.cells_rerepaired": (
                sum(entry.get("cells_rerepaired", 0) for entry in self.incremental) / rounds if rounds else 0.0),
        }

    def failure_counts(self) -> dict[str, dict[str, int]]:
        return {
            kind: {"attempted": self.attempted[kind], **dict(self.failures.get(kind, {}))}
            for kind in sorted(self.attempted)
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- wrangle ------------------------------------------------------------------------


class WrangleWorkload(Workload):
    """Cold wrangles of a ``product_catalog`` scenario, in process."""

    name = "wrangle"
    unit = "cold wrangle: bootstrap, bind context, data_context, evaluate"
    timeout = 120.0

    def setup(self) -> None:
        self.scenarios = []
        for replica in range(self.sizes.replicas):
            self.scenarios.append(self.timed_setup(
                lambda replica=replica: self.scenario("product_catalog", replica)))
        self.traffic["source_rows"] = [sum(len(t) for t in s.sources) for s in self.scenarios]
        self.traffic["result_rows"] = {}
        self.phase_seconds: dict[str, list[float]] = defaultdict(list)
        self.fingerprints: dict[int, str] = {}
        self.quality: list[float] = []

    def unit_of_work(self, slot: int, traced: bool) -> None:
        replica = slot % len(self.scenarios)
        scenario = self.scenarios[replica]
        laps: dict[str, float] = {}

        def wrangle():
            wrangler = Wrangler(config=CATALOG_CONFIG)
            scenario.install(wrangler)
            started = time.perf_counter()
            wrangler.run("bootstrap")
            laps["bootstrap"] = time.perf_counter() - started
            wrangler.add_reference_data(scenario.reference)
            wrangler.add_master_data(scenario.master)
            started = time.perf_counter()
            wrangler.run("data_context")
            laps["data_context"] = time.perf_counter() - started
            report = wrangler.evaluate(ground_truth=scenario.ground_truth,
                                       key=scenario.evaluation_key)
            return wrangler, report

        def check(value) -> list[str]:
            wrangler, _report = value
            result = wrangler.result()
            fingerprint = table_fingerprint(result)
            problems = self.compare(f"wrangle.r{replica}.fingerprint", fingerprint)
            if self.fingerprints.setdefault(replica, fingerprint) != fingerprint:
                problems.append(f"replica {replica}: result changed between wrangles")
            self.traffic["result_rows"][str(replica)] = len(result)
            maintained = wrangler.evaluate(use_stats=True)
            rescanned = wrangler.evaluate(use_stats=False)
            if maintained.as_dict() != rescanned.as_dict():
                problems.append(f"replica {replica}: maintained stats != rescan")
            return problems

        ok, value, ms = self.op("wrangle", wrangle, traced=traced, timeout=self.timeout, check=check)
        if not ok:
            return
        self.units[traced].append(ms)
        if traced:
            return
        self.phase_seconds["bootstrap"].append(laps["bootstrap"])
        self.phase_seconds["data_context"].append(laps["data_context"])
        self.phase_seconds["rows_per_s"].append(
            self.traffic["source_rows"][replica] / (laps["bootstrap"] + laps["data_context"]))
        self.quality.append(value[1].overall())

    def finish(self) -> None:
        if self.quality:
            self.quality_overall = statistics.median(self.quality)

    def named_metrics(self) -> dict[str, float | None]:
        phases = self.phase_seconds
        return {
            "bootstrap_s": statistics.median(phases["bootstrap"]) if phases["bootstrap"] else None,
            "data_context_s": (
                statistics.median(phases["data_context"]) if phases["data_context"] else None),
            "wrangle_rows_per_s": (
                statistics.median(phases["rows_per_s"]) if phases["rows_per_s"] else None),
            **super().named_metrics(),
        }


# -- queued sessions ------------------------------------------------------------------


class QueuedWorkload(Workload):
    """Scenario-backed sessions served through a one-worker job queue."""

    family = ""
    config: WranglerConfig
    query_timeout = 60.0

    def setup(self) -> None:
        self.store = SessionStore()
        self.sessions: list[WranglingSession] = []
        self.workload: list[dict[str, list[dict[str, Any]]]] = []
        for replica in range(self.sizes.replicas):
            session = self.timed_setup(lambda replica=replica: self.bootstrapped(replica))
            self.store.add(session)
            self.sessions.append(session)
            by_kind: dict[str, list[dict[str, Any]]] = defaultdict(list)
            for entry in session.scenario.details.get("query_workload", ()):
                by_kind[entry["kind"]].append(entry)
            self.workload.append(by_kind)
        self.traffic["source_rows"] = [
            sum(len(t) for t in s.scenario.sources) for s in self.sessions]
        self.traffic["result_rows"] = [len(s.result()) for s in self.sessions]
        self.traffic["query_kinds"] = defaultdict(lambda: {"count": 0, "answers": []})
        self.answer_digests: dict[tuple[int, str], str] = {}
        self.service = BackgroundService(self.store, workers=1)

    def bootstrapped(self, replica: int) -> WranglingSession:
        """A scenario-backed session, bootstrapped with its data context bound."""
        session = WranglingSession.from_scenario(
            self.scenario(self.family, replica, self.sizes.queries),
            config=self.config, name=f"{self.name}-{replica}")
        session.handle(RunRequest(phase="bootstrap"))
        return session

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()

    def submit(self, session: WranglingSession, request, *, traced: bool, timeout: float):
        """Submit through the queue and wait; returns the job's result payload."""
        if traced:
            self.tracer.bind(request)
        job = self.service.submit(session.session_id, request)
        job = self.service.wait(job.job_id, timeout)
        if job.status == JobStatus.FAILED:
            raise OpFailed("failed", job.error or "")
        if job.status == JobStatus.CANCELLED:
            raise OpFailed("cancelled")
        if traced and job.started_at is not None:
            self.queue_wait_ms.append(1000.0 * (job.started_at - job.submitted_at))
        return job.result

    def query(self, replica: int, entry: dict[str, Any], *, traced: bool) -> tuple[bool, float]:
        """One certain-answer query, checked; returns ``(ok, ms)``."""
        session = self.sessions[replica]
        rewritable = entry["rewritable"]
        request = QueryRequest(
            query=entry["query"],
            max_repairs=None if rewritable else SELF_JOIN_MAX_REPAIRS,
        )

        def check(payload) -> list[str]:
            problems = []
            method = payload.get("method")
            if rewritable and method != "rewriting":
                problems.append(f"{entry['query']}: rewritable but answered by {method}")
            evaluated = payload.get("details", {}).get("repairs_evaluated", 0)
            if not rewritable and evaluated > SELF_JOIN_MAX_REPAIRS:
                problems.append(f"{entry['query']}: {evaluated} repairs > {SELF_JOIN_MAX_REPAIRS}")
            answer = digest(payload.get("certain"))
            seen = self.answer_digests.setdefault((replica, entry["query"]), answer)
            if seen != answer:
                problems.append(f"{entry['query']}: answers changed within the run")
            problems += self.compare(f"{self.name}.r{replica}.answers.{entry['query']}", answer)
            kinds = self.traffic["query_kinds"][entry["kind"]]
            kinds["count"] += 1
            kinds["answers"].append(len(payload.get("certain") or ()))
            return problems

        ok, _payload, ms = self.op(
            "query",
            lambda: self.submit(session, request, traced=traced, timeout=self.query_timeout),
            traced=traced, timeout=self.query_timeout, check=check)
        return ok, ms

    def finish(self) -> None:
        quality = []
        for session in self.sessions:
            scenario = session.scenario
            report = session.wrangler.evaluate(
                ground_truth=scenario.ground_truth, key=scenario.evaluation_key)
            quality.append(report.overall())
        self.quality_overall = statistics.median(quality)
        kinds = self.traffic["query_kinds"]
        self.traffic["query_kinds"] = {
            kind: {
                "count": value["count"],
                "answers_median": statistics.median(value["answers"]) if value["answers"] else 0,
                "answers_max": max(value["answers"], default=0),
            }
            for kind, value in sorted(kinds.items())
        }


class SessionWorkload(QueuedWorkload):
    """Feedback rounds over ``shipment_tracking``, each followed by reads."""

    name = "session"
    unit = "round: one feedback write, then a lookup, a filter, a join and explains"
    family = "shipment_tracking"
    config = SHIPMENT_CONFIG
    feedback_timeout = 90.0
    explain_timeout = 30.0

    def setup(self) -> None:
        super().setup()
        self.rounds = [0] * len(self.sessions)
        self.traffic["annotations_per_round"] = []

    def unit_of_work(self, slot: int, traced: bool) -> None:
        replica = slot % len(self.sessions)
        session = self.sessions[replica]
        scenario = session.scenario
        number = self.rounds[replica]
        self.rounds[replica] += 1
        rng = random.Random(f"{self.seed}/{replica}/{number}")
        # The user's annotations are generated outside the timer.
        annotations = simulate_feedback(
            session.result(), scenario.ground_truth, scenario.evaluation_key,
            budget=self.sizes.budget, seed=rng.randrange(2**31), strategy="targeted",
            id_prefix=f"bench{number}-")
        self.traffic["annotations_per_round"].append(len(annotations))
        request = FeedbackRequest(annotations=tuple(annotations))

        def check(payload) -> list[str]:
            return self.compare(f"session.r{replica}.round{number}", payload["fingerprint"])

        ok, payload, total = self.op(
            "feedback",
            lambda: self.submit(session, request, traced=traced, timeout=self.feedback_timeout),
            traced=traced, timeout=self.feedback_timeout, check=check)
        if ok and traced:
            self.incremental.append(payload.get("incremental") or {"applied": False})
        complete = ok

        pool = self.workload[replica]
        for entries in (pool["lookup"], pool["filter"], pool["join"]):
            ok, ms = self.query(replica, rng.choice(entries), traced=traced)
            complete = complete and ok
            total += ms

        # Explain annotated cells whose row survived the feedback.
        alive = set(session.result().row_keys())
        cells = [a for a in annotations if a.attribute != "*" and a.row_key in alive]
        cells = cells[: self.sizes.explains]
        for annotation in cells:
            explain = ExplainRequest(row=annotation.row_key, column=annotation.attribute,
                                     render=False)
            ok, _tree, ms = self.op(
                "explain",
                lambda explain=explain: self.submit(
                    session, explain, traced=traced, timeout=self.explain_timeout),
                traced=traced, timeout=self.explain_timeout,
                check=lambda payload: [] if payload.get("tree") else ["empty lineage tree"])
            complete = complete and ok
            total += ms
        if complete:
            self.units[traced].append(total)

    def finish(self) -> None:
        for replica, session in enumerate(self.sessions):
            maintained = session.wrangler.evaluate(use_stats=True)
            rescanned = session.wrangler.evaluate(use_stats=False)
            if maintained.as_dict() != rescanned.as_dict():
                self.problems.append(f"session replica {replica}: maintained stats != rescan")
                self.failures["final_check"]["mismatch"] += 1
            self.attempted["final_check"] += 1
        super().finish()
        self.traffic["rounds"] = list(self.rounds)

    def named_metrics(self) -> dict[str, float | None]:
        return {
            **self.latency_metrics("feedback", "feedback"),
            **self.latency_metrics("query", "query"),
            **self.latency_metrics("explain", "explain"),
            **super().named_metrics(),
        }


class QueryWorkload(QueuedWorkload):
    """Read-only certain answering over bootstrapped ``product_catalog`` sessions."""

    name = "query"
    unit = "one certain-answer query"
    family = "product_catalog"
    config = CATALOG_CONFIG
    #: One cycle of the mix: mostly key lookups, some constant filters, a
    #: rare full scan and the non-rewritable self-join.
    MIX = ("lookup",) * 14 + ("filter",) * 4 + ("scan", "self_join")

    def setup(self) -> None:
        super().setup()
        self.cycles = []
        for replica in range(len(self.sessions)):
            mix = list(self.MIX)
            random.Random(f"{self.seed}/{replica}/mix").shuffle(mix)
            self.cycles.append(mix)

    def unit_of_work(self, slot: int, traced: bool) -> None:
        replica = slot % len(self.sessions)
        position = slot // len(self.sessions)
        cycle = self.cycles[replica]
        kind = cycle[position % len(cycle)]
        used = (position // len(cycle)) * cycle.count(kind) + cycle[: position % len(cycle)].count(kind)
        entries = self.workload[replica][kind]
        entry = random.Random(f"{self.seed}/{replica}/{kind}/{used}").choice(entries)
        ok, ms = self.query(replica, entry, traced=traced)
        if ok:
            self.units[traced].append(ms)

    def named_metrics(self) -> dict[str, float | None]:
        latency = self.latency_metrics("query", "query")
        values = self.samples.get("query", [])
        return {
            **latency,
            "queries_per_s": 1000.0 * len(values) / sum(values) if values else None,
            **super().named_metrics(),
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (WrangleWorkload, SessionWorkload, QueryWorkload)
}
