"""The paper-table workloads, ``table4`` and ``table3-jobs2``.

Each pass is a fresh ``perfbench/table_child.py`` process, because a CLI
user pays the cold start on every run.  The rows are the paper's fixed
Table III / IV rows: the seed does not change any input, it only draws
the minterm sample the independent check uses above 16 inputs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from perfbench import evalcheck
from perfbench.spans import by_site, median, p50, tail
from perfbench.steal import StealClock

MODES = {"table4": ("IV", 1), "table3-jobs2": ("III", 2)}
#: Set-up-only launches per run, on top of one set-up sample per pass.
SETUP_LAUNCHES = 4
#: Seconds of measurement one cold pass is budgeted at.  The pass count
#: follows from ``--seconds`` alone, so every run of a workload takes
#: the same number of samples (and its tail is the same percentile).
PASS_BUDGET_S = 15
CHILD_TIMEOUT_S = 170


class Launcher:
    """Starts table children, each with its own output and sidecar."""

    def __init__(self, root: Path, work: Path, mode: str) -> None:
        self.root = root
        self.work = work
        self.mode = mode
        self.count = 0

    def launch(self, trace: int = 0, setup_only: bool = False, populate: Path | None = None) -> dict:
        self.count += 1
        tag = f"{self.mode}-{self.count}"
        sidecar = self.work / f"sidecar-{tag}"
        sidecar.mkdir(parents=True)
        out = self.work / f"out-{tag}.json"
        cmd = [
            sys.executable, str(self.root / "perfbench" / "table_child.py"),
            "--mode", self.mode, "--out", str(out), "--sidecar", str(sidecar),
            "--trace", str(trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if populate is not None:
            cmd += ["--populate", str(populate)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t_launch = perf_counter()
        # A session of its own, so a timed-out child goes down with its
        # pool workers.
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"table child failed: {stderr.strip()[-2000:]}")
        data = json.loads(out.read_text())
        data["t_launch"] = t_launch
        starts = [row["t0"] for row in data["rows"]]
        data["t_ready"] = min(starts) if starts else None
        return data


class GroundTruth:
    """Each row's outputs as (space, on, care), from the benchmark spec.

    Arithmetic rows come from their integer generators, synthetic rows
    from their PLA cubes; neither goes through the BDD package.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rows: dict[str, tuple] = {}

    def row(self, name: str):
        if name not in self._rows:
            self._rows[name] = self._build(name)
        return self._rows[name]

    def _build(self, name: str):
        from repro.benchgen.arithmetic import ARITHMETIC_GENERATORS
        from repro.benchgen.registry import BENCHMARKS
        from repro.benchgen.synthetic import SYNTHETIC_SPECS, generate_pla

        n_vars = BENCHMARKS[name].n_inputs
        space = evalcheck.Space.for_support(
            n_vars, random.Random(f"perfbench-sample:{self.seed}:{name}")
        )
        if name in ARITHMETIC_GENERATORS:
            bit_functions, _ = ARITHMETIC_GENERATORS[name]()
            return space, [(space.function(bf), space.ones) for bf in bit_functions]
        pla = generate_pla(SYNTHETIC_SPECS[name])
        outputs = []
        for output in range(pla.n_outputs):
            on_cover, dc_cover = pla.output_covers(output)
            on = space.cover([(c.pos, c.neg) for c in on_cover])
            dc = space.cover([(c.pos, c.neg) for c in dc_cover]) & ~on
            outputs.append((on, space.ones & ~dc))
        return space, outputs


def check_pass(data: dict, table: str, truth: GroundTruth) -> tuple[int, int, list[str]]:
    """``(attempted, failed, messages)`` for one pass, counted in rows:
    every row must have run and every output must satisfy ``g op h ==
    f`` on its care set."""
    from repro.benchgen.registry import table_benchmarks

    names = [spec.name for spec in table_benchmarks(table)]
    messages = [f"table raised: {data['error']}"] if data["error"] else []
    rows = {row["name"]: row for row in data["rows"] if "outputs" in row}
    failed = set()
    for name in names:
        row = rows.get(name)
        if row is None:
            failed.add(name)
            messages.append(f"{name}: no result")
            continue
        space, outputs = truth.row(name)
        if len(outputs) != len(row["outputs"]):
            failed.add(name)
            messages.append(f"{name}: {len(row['outputs'])} outputs, expected {len(outputs)}")
            continue
        for index, ((on, care), out) in enumerate(zip(outputs, row["outputs"])):
            g = evalcheck.cover_triples(out["g"])
            for op, h in out["h"].items():
                errors = evalcheck.recomposition_errors(
                    space, on, care, op, g, evalcheck.cover_triples(h)
                )
                if errors:
                    failed.add(name)
                    messages.append(f"{name}/o{index} {op}: g op h != f on {errors} care points")
    return len(names), len(failed), messages


def peak_rss_mb(data: dict) -> float:
    """Sum of per-process peak RSS over the child and its pool workers."""
    workers: dict[int, int] = {}
    for row in data["rows"]:
        if row.get("vmhwm_kb") and row["pid"] != data["main_pid"]:
            workers[row["pid"]] = max(workers.get(row["pid"], 0), row["vmhwm_kb"])
    return (data["main_vmhwm_kb"] + sum(workers.values())) / 1024.0


def _row_walls(data: dict) -> dict[str, float]:
    return {r["name"]: r["t1"] - r["t0"] for r in data["rows"] if "t1" in r}


def _sums(data: dict) -> tuple[float, float]:
    area_f = sum(r["area_f"] for r in data["results"])
    area_bidec = sum(sum(r["op_areas"].values()) for r in data["results"])
    return area_f, area_bidec


class ReplaySampler:
    """Warm ``run_benchmarks([row], cache_dir=...)`` re-runs, which is
    ``repro-bidec bench ROW --cache-dir DIR`` after a cold run.

    Samples are taken in short bursts between the run's other launches,
    so they are spread over the run instead of sitting in one window of
    the machine's second-to-second speed swings.  A burst runs on
    ``cpu`` alone, so the steal netted out of its samples is that CPU's;
    ``spans`` holds each sample's ``(t0, t1)``.
    """

    BURST_SAMPLES = 25
    INTERVAL_S = 0.01

    def __init__(self, cold: dict, cache_dir: Path, cpu: int) -> None:
        self.expected = {r["name"]: (r["area_f"], r["op_areas"]) for r in cold["results"]}
        self.names = itertools.cycle(sorted(self.expected))
        self.cache_dir = str(cache_dir)
        self.cpu = cpu
        self.hits_s: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.failures: list[str] = []

    def burst(self) -> None:
        if not self.expected:  # the cold pass failed; nothing to replay
            return
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            self._burst()
        finally:
            os.sched_setaffinity(0, previous)

    def _burst(self) -> None:
        from repro.harness.experiment import run_benchmarks

        for _ in range(self.BURST_SAMPLES):
            time.sleep(self.INTERVAL_S)
            name = next(self.names)
            t0 = perf_counter()
            try:
                (warm,) = run_benchmarks([name], cache_dir=self.cache_dir)
            except Exception as exc:  # noqa: BLE001 — a failed replay is counted
                self.failures.append(f"replay {name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                t1 = perf_counter()
                self.hits_s.append(t1 - t0)
                self.spans.append((t0, t1))
            if (warm.area_f, warm.op_areas) != self.expected[name]:
                self.failures.append(f"replay {name}: differs from the cold row")


def run(root: Path, work: Path, mode: str, seed: int, seconds: int, trace: int):
    """Run the workload; returns ``(metrics, attempted, failed, notes)``."""
    table, jobs = MODES[mode]
    previous = os.sched_getaffinity(0)
    cpus = sorted(previous)
    if jobs == 1:
        # A serial table runs on one CPU, so the steal netted out of its
        # times is that CPU's.
        cpus = cpus[:1]
    os.sched_setaffinity(0, cpus)
    try:
        return _run(root, work, mode, seed, seconds, trace, cpus)
    finally:
        os.sched_setaffinity(0, previous)


def _run(root: Path, work: Path, mode: str, seed: int, seconds: int, trace: int, cpus: list[int]):
    table, jobs = MODES[mode]
    launcher = Launcher(root, work, mode)
    truth = GroundTruth(seed)
    notes = [f"rows: paper Table {table}, fixed; the seed only picks check samples above 16 inputs"]
    cache_dir = work / "replay-cache"
    if trace:
        plain = launcher.launch(populate=cache_dir)
        sampler = ReplaySampler(plain, cache_dir, cpus[0])
        for _ in range(SETUP_LAUNCHES + 1):
            sampler.burst()
        traced = launcher.launch(trace=1)
        attempted, failed, messages = _check_passes([plain, traced], table, truth)
        attempted += len(sampler.hits_s)
        failed += len(sampler.failures)
        metrics = layers(plain, traced, jobs)
        metrics["hit_tail_ms"] = tail(1000.0 * t for t in sampler.hits_s)[0]
        metrics["failed_frac"] = failed / attempted
        return metrics, attempted, failed, notes + (messages + sampler.failures)[:20]

    # Cold pass, then set-up launches and the other passes, each
    # followed by a burst of warm replays from the first pass's rows.
    with StealClock() as clock:
        passes = [launcher.launch(populate=cache_dir)]
        sampler = ReplaySampler(passes[0], cache_dir, cpus[0])
        launches = []
        for _ in range(SETUP_LAUNCHES):
            sampler.burst()
            launches.append(launcher.launch(setup_only=True))
        for _ in range(max(1, seconds // PASS_BUDGET_S) - 1):
            passes.append(launcher.launch())
        sampler.burst()
    launches += passes

    attempted, failed, messages = _check_passes(passes, table, truth)
    attempted += len(sampler.hits_s)
    failed += len(sampler.failures)
    messages += sampler.failures
    # Set-up, wall and replay times leave out the steal on the CPUs they
    # ran on; an output's compute time is its process's CPU time.
    setups = [clock.net(d["t_launch"], d["t_ready"], cpus) for d in launches if d["t_ready"]]
    walls = [clock.net(d["t_launch"], d["t_end"], cpus) for d in passes]
    misses = [1000.0 * t for data in passes for row in data["rows"] for t in row.get("output_cpu_s", ())]
    hits = [1000.0 * clock.net(t0, t1, [sampler.cpu]) for t0, t1 in sampler.spans]
    hit_tail, hit_pct, n_hits = tail(hits)
    miss_tail, miss_pct, n_misses = tail(misses)
    sums = [_sums(data) for data in passes]
    raw_walls = [(d["t_launch"], d["t_end"]) for d in passes]
    raw_misses = [1000.0 * t for data in passes for row in data["rows"] for t in row.get("output_s", ())]
    notes += [
        f"passes: {len(passes)} on CPUs {cpus}, table walls without steal"
        f" {', '.join(f'{w:.3f}' for w in walls)} s, with steal"
        f" {', '.join(f'{t1 - t0:.3f}' for t0, t1 in raw_walls)} s",
        f"with steal: output p50 {p50(raw_misses):.3f} ms, tail {tail(raw_misses)[0]:.3f} ms,"
        f" replay p50 {p50(1000.0 * t for t in sampler.hits_s):.3f} ms",
        f"outputs computed (misses): {n_misses}, tail at p{miss_pct:.1f};"
        f" cache replays (hits): {n_hits}, tail {hit_tail:.3f} ms at p{hit_pct:.1f}",
        *messages[:20],
    ]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "area_f": median(s[0] for s in sums),
        "area_bidec": median(s[1] for s in sums),
        "throughput_rps": median(len(data["results"]) / wall for data, wall in zip(passes, walls)),
        "miss_p50_ms": p50(misses),
        "miss_tail_ms": miss_tail,
        "hit_p50_ms": p50(hits),
        "peak_rss_mb": median(peak_rss_mb(data) for data in passes),
    }
    return metrics, attempted, failed, notes


def _check_passes(passes: list[dict], table: str, truth: GroundTruth):
    attempted = failed = 0
    messages: list[str] = []
    for data in passes:
        n, bad, notes = check_pass(data, table, truth)
        attempted += n
        failed += bad
        messages += notes
    return attempted, failed, messages


def layers(plain: dict, traced: dict, jobs: int) -> dict:
    """Per-layer metrics: spans from the traced pass, row walls and pool
    occupancy from the untraced one."""
    from repro.benchgen.registry import BENCHMARKS

    sites = by_site(traced["spans"])

    def site(name: str, key: str) -> float:
        return sites.get(name, {}).get(key, 0.0)

    engine_stats: dict[str, int] = {}
    for row in traced["rows"]:
        for key, value in row.get("engine_stats", {}).items():
            engine_stats[key] = engine_stats.get(key, 0) + value
    memo_hits = engine_stats.get("divisor_hits", 0) + engine_stats.get("cover_hits", 0)
    memo_all = memo_hits + engine_stats.get("divisor_misses", 0) + engine_stats.get("cover_misses", 0)
    backends = engine_stats.get("backend_bitset", 0) + engine_stats.get("backend_bdd", 0)
    walls = _row_walls(plain)
    table_wall = plain["t_end"] - plain["t_start"]
    root = sites["harness.table"]
    metrics = {
        "spp.calls": site("spp", "calls"),
        "spp.self_s": site("spp", "self_s"),
        "spp.literals": sum(row.get("spp_literals", 0) for row in traced["rows"]),
        "approx.calls": site("approx", "calls"),
        "approx.self_s": site("approx", "self_s"),
        "engine.calls": site("engine", "calls"),
        "engine.self_s": site("engine", "self_s"),
        "engine.memo_hit_ratio": memo_hits / memo_all if memo_all else 0.0,
        "engine.bitset_frac": engine_stats.get("backend_bitset", 0) / backends if backends else 0.0,
        "bdd.peak_nodes": max((row.get("bdd_allocated", 0) for row in traced["rows"]), default=0),
        "bdd.reorder_s": site("bdd.reorder", "total_s"),
        "techmap.calls": site("techmap", "calls"),
        "techmap.self_s": site("techmap", "self_s"),
        "benchgen.load_s": site("benchgen.load", "total_s"),
        "harness.self_s": site("harness.row", "self_s"),
        "harness.pool_busy_frac": sum(walls.values()) / (jobs * table_wall),
        "approx.error_pct": median(r["pct_errors"] for r in plain["results"]),
        "harness.time_s": sum(r["time_s"] for r in plain["results"]),
        "obs.overhead_ratio": (traced["t_end"] - traced["t_start"]) / table_wall,
        "unattributed_s": root["self_s"],
        "attributed_frac": 1.0 - root["self_s"] / root["total_s"],
    }
    for phase in ("approximate", "quotient", "minimize", "verify"):
        metrics[f"engine.{phase}_s"] = site(f"engine.{phase}", "total_s")
    for name in BENCHMARKS:
        metrics[f"harness.row.{name}_s"] = walls.get(name, 0.0)
    return metrics
