"""Outside wrappers around the one-shot path's public entry points.

Nothing inside the program is edited: :meth:`Probe.install` replaces
module attributes with timing wrappers, at every name the harness and
the engine look them up by.  Pool workers are forked after the install,
so they inherit the wrappers.

* Always: the row wrapper around ``run_benchmark`` records each row's
  start and end, each output's compute time (wall and CPU), the
  process's peak RSS,
  and the row's covers for the independent check (the harness is asked
  to keep its artifacts).
* Traced: every layer wrapper opens a span on the program's own tracer
  (:mod:`repro.obs`), so the wrappers nest with the engine's spans into
  one tree and self time falls out of the tree.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from time import perf_counter, thread_time

#: Layer sites the wrappers open, keyed by ``module:attribute``.
WRAPPED = {
    "repro.harness.experiment:load_benchmark": "benchgen.load",
    "repro.harness.experiment:minimize_spp": "spp",
    "repro.approx.expansion:minimize_spp": "spp",
    "repro.spp.synthesis:minimize_spp": "spp",
    "repro.harness.experiment:approximate_expand_full": "approx",
    "repro.approx.expansion:approximate_expand_full": "approx",
    "repro.harness.experiment:area_of_spp_covers": "techmap",
    "repro.harness.experiment:area_of_bidecomposition": "techmap",
    "repro.harness.experiment:isolated_area_of_spp_covers": "techmap",
    "repro.harness.experiment:isolated_area_of_bidecomposition": "techmap",
}


class SetupReached(Exception):
    """Raised at the first row of a set-up-only launch."""


def vmhwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size of a live process, in KiB (0 if gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Probe:
    """Per-process wrapper state; one per benchmark child process."""

    def __init__(self, sidecar_dir: Path, traced: bool, setup_only: bool) -> None:
        self.sidecar_dir = sidecar_dir
        self.traced = traced
        self.setup_only = setup_only
        self.main_pid = os.getpid()
        self.rows: list[dict] = []
        #: Span context of the table root, shipped to forked pool workers
        #: so their row spans graft under it.
        self.parent_ctx: dict | None = None
        self.tracer = None
        self._row: dict | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        from repro.engine.decomposer import Decomposer
        from repro.harness import experiment

        experiment.run_benchmark = self._wrap_row(experiment.run_benchmark)
        if self.traced:
            from repro import obs

            self.tracer = obs.install()
            for target, site in WRAPPED.items():
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                setattr(module, attr, self._wrap_layer(site, getattr(module, attr)))
            Decomposer.decompose = self._wrap_engine(Decomposer.decompose)
        # The harness minimizes each output's f first and maps areas
        # after the last output, so these calls delimit the outputs.
        for attr in ("minimize_spp", "area_of_spp_covers"):
            setattr(experiment, attr, self._wrap_mark(getattr(experiment, attr)))

    # -- wrappers ---------------------------------------------------------

    def _wrap_row(self, run_benchmark):
        probe = self

        def row(benchmark, operators=None, library=None, keep_artifacts=False):
            from repro import obs
            from repro.engine.wire import cover_to_payload

            t0 = perf_counter()
            if probe.setup_only:
                probe._emit({"name": str(benchmark), "t0": t0, "setup_only": True})
                raise SetupReached(str(benchmark))
            args = (benchmark,) if operators is None else (benchmark, operators)
            in_worker = os.getpid() != probe.main_pid
            probe._row = {"engines": [], "instance": None, "literals": 0, "marks": []}
            if probe.traced and in_worker and probe.parent_ctx is not None:
                scope = probe.tracer.remote(probe.parent_ctx)
            else:
                scope = contextlib.nullcontext()
            with scope, obs.span("harness.row", bench=str(benchmark)):
                result = run_benchmark(*args, library=library, keep_artifacts=True)
            t1 = perf_counter()
            marks = [wall for wall, _ in probe._row["marks"]]
            cpu_marks = [cpu for _, cpu in probe._row["marks"]]
            outputs = len(result.artifacts) + 1
            record = {
                "name": result.name,
                "t0": t0,
                "t1": t1,
                # Per-output compute time: f-minimization of one output
                # up to that of the next (the last ends at area mapping).
                "output_s": [b - a for a, b in zip(marks, marks[1:outputs])],
                # The same spans in this process's CPU time, which leaves
                # out the time the host ran something else on its CPU.
                "output_cpu_s": [b - a for a, b in zip(cpu_marks, cpu_marks[1:outputs])],
                "pid": os.getpid(),
                "vmhwm_kb": vmhwm_kb(),
                "outputs": [
                    {
                        "g": cover_to_payload(art.g_cover),
                        "h": {op: cover_to_payload(c) for op, c in art.h_covers.items()},
                    }
                    for art in result.artifacts
                ],
            }
            if probe.traced:
                record.update(probe._row_counters())
                if in_worker and probe.parent_ctx is not None:
                    record["spans"] = probe.tracer.pop_trace(probe.parent_ctx["trace_id"])
            probe._row = None
            if not keep_artifacts:
                result.artifacts = None
            probe._emit(record)
            return result

        return row

    def _wrap_layer(self, site: str, func):
        from repro import obs

        probe = self

        def layer(*args, **kwargs):
            with obs.span(site):
                value = func(*args, **kwargs)
            if site == "benchgen.load" and probe._row is not None:
                probe._row["instance"] = value
            elif site == "spp" and probe._row is not None:
                probe._row["literals"] += value.literal_count()
            return value

        layer.__wrapped__ = func
        return layer

    def _wrap_mark(self, func):
        probe = self

        def mark(*args, **kwargs):
            if probe._row is not None:
                probe._row["marks"].append((perf_counter(), thread_time()))
            return func(*args, **kwargs)

        mark.__wrapped__ = func
        return mark

    def _wrap_engine(self, decompose):
        from repro import obs

        probe = self

        def engine(self, *args, **kwargs):
            if probe._row is not None and all(e is not self for e in probe._row["engines"]):
                probe._row["engines"].append(self)
            with obs.span("engine"):
                return decompose(self, *args, **kwargs)

        engine.__wrapped__ = decompose
        return engine

    # -- records ------------------------------------------------------------

    def _row_counters(self) -> dict:
        stats: dict[str, int] = {}
        for engine in self._row["engines"]:
            for key, value in engine.stats.items():
                stats[key] = stats.get(key, 0) + value
        instance = self._row["instance"]
        return {
            "engine_stats": stats,
            "spp_literals": self._row["literals"],
            "bdd_allocated": instance.mgr.stats()["allocated"] if instance else 0,
        }

    def _emit(self, record: dict) -> None:
        """Keep a row record; forked workers also write it to a sidecar."""
        self.rows.append(record)
        if os.getpid() != self.main_pid:
            path = self.sidecar_dir / f"row-{os.getpid()}-{len(self.rows)}.json"
            path.write_text(json.dumps(record))

    def worker_records(self) -> list[dict]:
        return [
            json.loads(path.read_text())
            for path in sorted(self.sidecar_dir.glob("row-*.json"))
        ]

