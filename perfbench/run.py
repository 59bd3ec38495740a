#!/usr/bin/env python3
"""Pay-as-you-go benchmark of the VADA wrangler.

One run measures one workload (see ``workloads.py``)::

    python3 perfbench/run.py --workload session --seed 3 --seconds 20 --trace 0

from the root of a checkout. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(``tracing.py``). The traced run alternates untraced and traced units over
the same inputs, which gives ``trace.overhead``.

Every run also saves its full record (all metrics, per-kind failures, the
generated traffic) under ``perfbench/results/``; a traced run writes its
spans there too. ``report.py`` summarises and compares saved records.

Other modes::

    python3 perfbench/run.py --workload all --seed 0   # every workload, then the report
    python3 perfbench/run.py --smoke                   # all at tiny sizes, both modes, name check
    python3 perfbench/run.py --workload all --seed 0 --record   # re-record expected outputs
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected.json")
#: Seed whose outputs are recorded in ``expected.json``.
RECORDED_SEED = 0
WORKLOAD_NAMES = ("wrangle", "session", "query")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; with --workload all, run both modes and check metric names")
    parser.add_argument("--record", action="store_true",
                        help=f"write the observed outputs of seed {RECORDED_SEED} to expected.json")
    return parser


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _import_program() -> bool:
    """Put the checkout's sources on the path; False when they are missing."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no program sources under {source}", file=sys.stderr)
        return False
    for path in (ROOT, source):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _load_expected(profile: str, seed: int) -> dict | None:
    if seed != RECORDED_SEED or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle).get(profile)


def run_one(workload: str, seed: int, seconds: float, trace: bool, profile: str,
            record: bool = False) -> dict:
    """Set up, measure for ``seconds``, check; returns the full record."""
    from perfbench.speed import SpeedSampler
    from perfbench.tracing import LAYER_METRICS, Tracer
    from perfbench.workloads import SIZES, WORKLOADS

    spec = _benchmark_spec()
    tracer = Tracer()
    expected = None if record else _load_expected(profile, seed)
    bench = WORKLOADS[workload](SIZES[profile][workload], seed, tracer, expected)
    units = 0
    if not trace:
        bench.speed = SpeedSampler()
        bench.speed.start()
    try:
        bench.setup()
        started = time.perf_counter()
        while units == 0 or time.perf_counter() - started < seconds:
            traced = trace and units % 2 == 1
            slot = units // 2 if trace else units
            if traced:
                tracer.install()
            try:
                bench.run_unit(slot, traced)
            finally:
                tracer.uninstall()
            units += 1
        measured = time.perf_counter() - started
        bench.finish()
    finally:
        if bench.speed is not None:
            bench.speed.stop()
        bench.close()

    if trace:
        values = tracer.layer_metrics(bench.layer_extra())
        units_of = LAYER_METRICS
    else:
        values = bench.gated_metrics()
        units_of = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    attempted = sum(bench.attempted.values())
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "profile": profile,
        "seconds": seconds,
        "measured_s": measured,
        "units": units,
        "unit": bench.unit,
        "correct": not any(reasons.get("mismatch") for reasons in bench.failures.values()),
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]} for name in units_of},
        "named": bench.named_metrics() if not trace else {},
        "setup_samples_s": bench.setup_seconds,
        "unit_ms": bench.units[False],
        "unit_norm_ms": bench.normalised_units() if not trace else [],
        "failures": bench.failure_counts(),
        "problems": bench.problems[:20],
        "traffic": bench.traffic,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload}-s{seed}-t{int(trace)}")
    if profile != "full":
        stem += f"-{profile}"
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=str)
    if trace:
        tracer.dump(stem + ".spans.jsonl")
    if record:
        _record_expected(profile, bench.observed)
    return result


def _record_expected(profile: str, observed: dict) -> None:
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as handle:
            data = json.load(handle)
    data.setdefault(profile, {}).update(observed)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _result_line(record: dict) -> str:
    metrics = {}
    for name, entry in record["metrics"].items():
        value = entry["value"]
        metrics[name] = {"value": None if value is None or math.isnan(value) else value,
                         "unit": entry["unit"]}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def _run_children(args, seconds: float, profile: str, traces: tuple[int, ...]) -> list[str]:
    """Each workload in its own process (peak RSS is per process)."""
    paths = []
    for trace in traces:
        for workload in WORKLOAD_NAMES:
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            if args.record:
                command.append("--record")
            print(f"# {' '.join(command[1:])}", file=sys.stderr, flush=True)
            completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                       check=False)
            lines = completed.stdout.strip().splitlines()
            print(lines[-1] if lines else "(no result)", file=sys.stderr, flush=True)
            if completed.returncode != 0:
                raise SystemExit(f"{workload} (trace {trace}) exited {completed.returncode}")
            stem = f"{workload}-s{args.seed}-t{trace}" + ("" if profile == "full" else f"-{profile}")
            paths.append(os.path.join(RESULTS, stem + ".json"))
    return paths


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not _import_program():
        return 2
    spec = _benchmark_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    profile = "smoke" if args.smoke else "full"

    if args.workload == "all":
        from perfbench import report

        if args.smoke:
            seconds = min(seconds, 2.0)
        traces = (0, 1) if args.smoke or args.trace else (0,)
        paths = _run_children(args, seconds, profile, traces)
        records = [report.load(path) for path in paths]
        report.print_summary(records)
        if args.smoke:
            missing = report.missing_metrics(records, spec)
            if missing:
                print("missing metrics: " + ", ".join(missing), file=sys.stderr)
                return 1
        bad = [r for r in records if not r["correct"] or r["failed"]]
        return 1 if bad else 0

    record = run_one(args.workload, args.seed, seconds, bool(args.trace), profile, args.record)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"failures": record["failures"], "traffic": record["traffic"]},
                     default=str), file=sys.stderr)
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
