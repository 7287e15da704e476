"""The repository benchmark: one command, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Metric names, units and directions are read from
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("table4", "table3-jobs2", "served-mix")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "served-mix":
            from perfbench import served

            metrics, attempted, failed, notes = served.run(
                ROOT, work, args.seed, args.seconds, args.trace
            )
        else:
            from perfbench import tables

            metrics, attempted, failed, notes = tables.run(
                ROOT, work, args.workload, args.seed, args.seconds, args.trace
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        print(f"workload produced no value for {missing}", file=sys.stderr)
        return 3
    report = {}
    for metric in wanted:
        # A per-layer metric the workload does not exercise reads 0.
        value = float(metrics.get(metric["name"], 0.0))
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for note in notes:
        print(f"# {note}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
