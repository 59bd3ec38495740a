#!/usr/bin/env python3
"""Summarise or compare saved benchmark records.

    python3 perfbench/report.py [PATH ...]          # default: perfbench/results
    python3 perfbench/report.py --compare OLD NEW   # medians side by side + per-layer diff

A PATH is a record file written by ``run.py`` or a directory of them. The
summary prints, per workload, every end-to-end metric (the gated ones and
the workload's own) with its unit: the median over runs, the quartiles and
the number of runs. Traced records add a per-layer table of self time per
op, largest first.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Units of the workloads' own metrics (the gated ones carry theirs).
NAMED_UNITS = {
    "bootstrap_s": "s",
    "data_context_s": "s",
    "wrangle_rows_per_s": "rows/s",
    "quality_overall": "share",
    "fail_share": "share",
    "queries_per_s": "1/s",
    "setup_wall_s": "s",
    "speed_kernel_us": "us",
}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_all(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        if os.path.isdir(path):
            files = sorted(glob.glob(os.path.join(path, "*.json")))
        else:
            files = [path]
        records.extend(load(name) for name in files)
    return records


def _unit(name: str) -> str:
    if name in NAMED_UNITS:
        return NAMED_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_percentile"):
        return "pct"
    if name.endswith("_samples"):
        return "count"
    return ""


def _series(records: list[dict]) -> dict[str, dict[str, tuple[list[float], str]]]:
    """workload → metric → (values over runs, unit)."""
    table: dict[str, dict[str, tuple[list[float], str]]] = {}
    for record in records:
        metrics = table.setdefault(f"{record['workload']}{'/traced' if record['trace'] else ''}", {})
        for name, entry in record["metrics"].items():
            if entry["value"] is not None:
                metrics.setdefault(name, ([], entry["unit"]))[0].append(entry["value"])
        for name, value in (record.get("named") or {}).items():
            if value is not None:
                metrics.setdefault(name, ([], _unit(name)))[0].append(value)
    return table


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def print_summary(records: list[dict], out=sys.stdout) -> None:
    for workload, metrics in sorted(_series(records).items()):
        runs = [r for r in records
                if f"{r['workload']}{'/traced' if r['trace'] else ''}" == workload]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n== {workload}: {len(runs)} run(s), seeds "
              f"{sorted({r['seed'] for r in runs})}, {attempted} ops, {failed} failed, "
              f"correct={all(r['correct'] for r in runs)}", file=out)
        if workload.endswith("/traced"):
            _print_layers(metrics, out)
            continue
        print(f"{'metric':<28}{'unit':>8}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}", file=out)
        for name, (values, unit) in metrics.items():
            q1, median, q3 = _quartiles(values)
            print(f"{name:<28}{unit:>8}{_fmt(median):>12}{_fmt(q1):>12}{_fmt(q3):>12}"
                  f"{len(values):>5}", file=out)
        for run in runs:
            kinds = {kind: counts for kind, counts in run["failures"].items()
                     if any(key != "attempted" for key in counts)}
            if kinds:
                print(f"  failures (seed {run['seed']}): {kinds}", file=out)


def _print_layers(metrics: dict[str, tuple[list[float], str]], out) -> None:
    rows = []
    for name, (values, unit) in metrics.items():
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            calls = metrics.get(f"{span}.calls", ([0.0], ""))[0]
            rows.append((statistics.median(values), span, statistics.median(calls)))
    print(f"{'layer span':<44}{'self s/op':>12}{'calls/op':>12}", file=out)
    for self_s, span, calls in sorted(rows, reverse=True):
        if self_s > 0 or calls > 0:
            print(f"{span:<44}{_fmt(self_s):>12}{_fmt(calls):>12}", file=out)
    for name, (values, unit) in metrics.items():
        if not name.endswith((".self_s", ".calls")):
            print(f"{name:<44}{_fmt(statistics.median(values)):>12} {unit}", file=out)


def print_compare(old: list[dict], new: list[dict], out=sys.stdout) -> None:
    before, after = _series(old), _series(new)
    for workload in sorted(set(before) | set(after)):
        left, right = before.get(workload, {}), after.get(workload, {})
        print(f"\n== {workload}", file=out)
        print(f"{'metric':<44}{'unit':>8}{'old':>12}{'new':>12}{'change':>10}", file=out)
        for name in list(left) + [n for n in right if n not in left]:
            if workload.endswith("/traced") and name.endswith(".calls"):
                continue
            old_values = left.get(name, ([], ""))[0]
            new_values = right.get(name, ([], ""))[0]
            unit = (left.get(name) or right.get(name))[1]
            old_median = statistics.median(old_values) if old_values else None
            new_median = statistics.median(new_values) if new_values else None
            change = ""
            if old_median and new_median is not None:
                change = f"{100.0 * (new_median - old_median) / abs(old_median):+.1f}%"
            print(f"{name:<44}{unit:>8}"
                  f"{_fmt(old_median) if old_median is not None else '-':>12}"
                  f"{_fmt(new_median) if new_median is not None else '-':>12}{change:>10}",
                  file=out)


def missing_metrics(records: list[dict], spec: dict) -> list[str]:
    """Metric names a record should carry but does not (smoke check)."""
    from perfbench.tracing import LAYER_METRICS

    named = {
        "wrangle": ("bootstrap_s", "data_context_s", "wrangle_rows_per_s", "fail_share"),
        "session": ("feedback_p50_ms", "feedback_tail_ms", "query_p50_ms", "query_tail_ms",
                    "fail_share"),
        "query": ("query_p50_ms", "query_tail_ms", "queries_per_s", "fail_share"),
    }
    missing = []
    for record in records:
        label = f"{record['workload']}/t{record['trace']}"
        wanted = (LAYER_METRICS if record["trace"]
                  else [metric["name"] for metric in spec["end_to_end"]])
        missing += [f"{label}:{name}" for name in wanted
                    if record["metrics"].get(name, {}).get("value") is None]
        if not record["trace"]:
            missing += [f"{label}:{name}" for name in named[record["workload"]]
                        if name not in record["named"]]
    return missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        print_compare(load_all([args.compare[0]]), load_all([args.compare[1]]))
        return 0
    records = load_all(args.paths or [os.path.join(HERE, "results")])
    if not records:
        print("no records found", file=sys.stderr)
        return 1
    print_summary(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
