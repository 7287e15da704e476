"""One cold paper-table run, as a CLI user pays for it.

Run by :mod:`perfbench.tables` in a fresh process per pass::

    python3 perfbench/table_child.py --mode table4 --out OUT --sidecar DIR

``table4`` runs the Table IV rows serially through ``run_table`` (what
``repro-bidec table4`` runs); ``table3-jobs2`` runs the Table III rows
through ``run_benchmarks(..., jobs=2)`` (``repro-bidec bench ... --jobs
2``).  The outcome, row records and (traced) spans go to ``OUT`` as
JSON; the parent checks them after its timer stops.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

sys.path[:0] = [
    str(Path(__file__).resolve().parents[1]),
    str(Path(__file__).resolve().parents[1] / "src"),
]

from perfbench.probe import Probe, SetupReached, vmhwm_kb  # noqa: E402

JOBS = {"table4": 1, "table3-jobs2": 2}

def populate(experiment, results, cache_dir: str) -> None:
    """Store every cold row in the harness's result cache, keyed as
    ``repro-bidec bench ROW --cache-dir DIR`` looks it up."""
    from repro.engine.cache import ResultCache

    cache = ResultCache(cache_dir)
    for result in results:
        key = cache.bench_key_for(result.name, experiment.DEFAULT_OPERATORS)
        cache.put(key, experiment._benchmark_result_payload(result))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=sorted(JOBS), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--populate", default=None, metavar="CACHE_DIR")
    args = parser.parse_args()

    probe = Probe(Path(args.sidecar), bool(args.trace), args.setup_only)
    probe.install()
    from repro import obs
    from repro.benchgen.registry import table_benchmarks
    from repro.harness import experiment

    out: dict = {"mode": args.mode, "error": None, "results": []}
    t_start = perf_counter()
    try:
        with obs.span("harness.table", mode=args.mode) as root:
            probe.parent_ctx = obs.current_context()
            if args.mode == "table4":
                results = experiment.run_table("IV")
            else:
                names = [spec.name for spec in table_benchmarks("III")]
                results = experiment.run_benchmarks(names, jobs=JOBS[args.mode])
        out["results"] = [
            {
                "name": r.name,
                "time_s": r.time_s,
                "area_f": r.area_f,
                "op_areas": r.op_areas,
                "pct_errors": r.pct_errors,
            }
            for r in results
        ]
    except SetupReached:
        pass
    except Exception as exc:  # noqa: BLE001 — a raised row is a counted failure
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["t_start"] = t_start
    out["t_end"] = perf_counter()
    out["main_pid"] = os.getpid()
    out["main_vmhwm_kb"] = vmhwm_kb()
    if args.populate and out["results"]:
        populate(experiment, results, args.populate)
    out["rows"] = probe.rows + probe.worker_records()
    if probe.tracer is not None:
        spans = probe.tracer.pop_trace(root.trace_id)
        for record in out["rows"]:
            spans.extend(record.pop("spans", []))
        out["spans"] = spans
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
