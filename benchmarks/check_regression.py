#!/usr/bin/env python
"""Benchmark-regression gate: fail CI when datalog-join benches slow down.

Compares a freshly produced pytest-benchmark JSON report against the
committed baseline and exits non-zero when any matching benchmark's mean
grew by more than the allowed factor (default 1.5x).

Raw means are meaningless across machines of different speeds, so when both
reports contain the calibration benchmark (``test_bench_calibration``, a
fixed pure-Python workload) every mean is first divided by that report's
calibration mean. The comparison then gates the *relative* cost of the
datalog joins, which is what the hash-index work actually promises.

Usage::

    python benchmarks/check_regression.py BASELINE.json FRESH.json \
        [--threshold 1.5] [--filter datalog_join]

Committed baselines live in ``benchmarks/baselines/``; each is gated by a
nightly CI step with a matching ``--filter``:

- ``BENCH_datalog_join.json``        (``--filter datalog_join``)
- ``BENCH_batch_scenarios.json``     (``--filter batch_scenarios`` / ``synth_generation``)
- ``BENCH_provenance.json``          (``--filter bench_provenance``)
- ``BENCH_incremental.json``         (``--filter bench_incremental`` /
  ``metrics_incremental``: one baseline for both incremental gates)
- ``BENCH_service.json``             (``--filter bench_service``)
- ``BENCH_cqa.json``                 (``--filter bench_cqa``)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

CALIBRATION = "test_bench_calibration"


def load_means(path: Path) -> dict[str, float]:
    """Map benchmark name -> mean seconds from a pytest-benchmark report."""
    try:
        report = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: benchmark report {path} does not exist")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    means: dict[str, float] = {}
    for bench in report.get("benchmarks", []):
        means[bench["name"]] = float(bench["stats"]["mean"])
    if not means:
        raise SystemExit(f"error: no benchmarks found in {path}")
    return means


def calibration_scale(baseline: dict[str, float], fresh: dict[str, float]) -> float:
    """fresh-machine slowdown factor measured by the calibration bench."""
    if CALIBRATION in baseline and CALIBRATION in fresh and baseline[CALIBRATION] > 0:
        return fresh[CALIBRATION] / baseline[CALIBRATION]
    return 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("fresh", type=Path, help="freshly produced JSON")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="maximum allowed slowdown factor (default 1.5)")
    parser.add_argument("--filter", default="datalog_join", dest="name_filter",
                        help="only gate benchmarks whose name contains this substring")
    args = parser.parse_args(argv)

    baseline = load_means(args.baseline)
    fresh = load_means(args.fresh)
    scale = calibration_scale(baseline, fresh)
    print(f"calibration scale (fresh machine vs baseline machine): {scale:.3f}x")

    gated = sorted(name for name in baseline
                   if args.name_filter in name and name in fresh)
    if not gated:
        print(f"error: no benchmarks matching {args.name_filter!r} appear in both reports",
              file=sys.stderr)
        return 2
    # Names that match the filter but appear in only one report are NOT
    # gated; say so loudly, otherwise a baseline that lags behind the suite
    # silently stops watching the newest (often largest) workloads.
    for name in sorted(set(fresh) - set(baseline)):
        if args.name_filter in name:
            print(f"warning: {name} is in the fresh report but not the baseline "
                  f"(ungated; regenerate the baseline)", file=sys.stderr)
    for name in sorted(set(baseline) - set(fresh)):
        if args.name_filter in name:
            print(f"warning: {name} is in the baseline but not the fresh report "
                  f"(ungated this run)", file=sys.stderr)

    failures = []
    for name in gated:
        ratio = fresh[name] / (baseline[name] * scale)
        status = "FAIL" if ratio > args.threshold else "ok"
        print(f"{status:4} {name}: baseline={baseline[name]:.6f}s "
              f"fresh={fresh[name]:.6f}s normalised-ratio={ratio:.2f}x")
        if ratio > args.threshold:
            failures.append((name, ratio))

    if failures:
        print(f"\nregression gate FAILED: {len(failures)} benchmark(s) exceeded "
              f"{args.threshold}x slowdown", file=sys.stderr)
        return 1
    print(f"\nregression gate passed: {len(gated)} benchmark(s) within "
          f"{args.threshold}x of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
