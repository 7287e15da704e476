"""The ``served-mix`` workload: a live ``repro-bidec serve`` under load.

One server process with a one-slot fleet and a fresh cache directory is
driven by this process over two closed-loop connections (synthesis
flows wait for each reply before sending the next request).  The
request stream comes from :mod:`perfbench.gen`; the program receives
only the generated truth tables, as ``repro-bdd/1`` ISF payloads.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from perfbench import evalcheck, gen
from perfbench.probe import vmhwm_kb
from perfbench.spans import by_site, median, p50, tail
from perfbench.steal import StealClock

CONNECTIONS = 2
#: Set-up launches per run; the last one serves the load.
SETUP_LAUNCHES = 5
#: Requests per measured second (a fixed count keeps the work per run
#: identical between commits; sized to about the run length at the
#: commit that introduced the benchmark).
REQUESTS_PER_SECOND = 20
#: Distinct served items recomputed in-process for the identity check.
IDENTITY_SAMPLE = 12
OPERATORS = ["AND", "NOT_IMPLIES"]
#: Payload keys that describe how a result was computed, not what it is.
INFORMATIONAL_KEYS = ("timings", "bdd_stats")


def build_requests(seed: int, length: int):
    """The seeded stream as wire params, plus the generated items."""
    from repro.bdd.manager import BDD
    from repro.boolfunc.convert import truthtable_to_function
    from repro.boolfunc.isf import ISF
    from repro.boolfunc.truthtable import TruthTable
    from repro.engine import wire

    items, order = gen.make_stream(seed, length)
    truths, params = [], []
    for index, item in enumerate(items):
        space = evalcheck.Space(item.n_vars)
        on = space.cover(item.on_cubes)
        dc = space.cover(item.dc_cubes) & ~on
        truths.append((space, on, space.ones & ~dc))
        mgr = BDD([f"x{i + 1}" for i in range(item.n_vars)])
        isf = ISF(
            truthtable_to_function(mgr, TruthTable(item.n_vars, on)),
            truthtable_to_function(mgr, TruthTable(item.n_vars, dc)),
        )
        params.append(
            {
                "name": f"mix{index}",
                "f": wire.isf_to_payload(isf),
                "op": "auto",
                "approximator": "expand-full",
                "minimizer": "spp",
                "verify": True,
                "operators": OPERATORS,
            }
        )
    return items, order, truths, params


class Server:
    """One ``repro-bidec serve`` process; ``t_launch`` → ``t_ready`` is
    its set-up (launch until it answers ``status`` with a warm fleet)."""

    def __init__(self, root: Path, cache_dir: Path, traced: bool, capacity: int) -> None:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--jobs", "1", "--cache-dir", str(cache_dir),
        ]
        if traced:
            cmd += ["--trace", "--trace-capacity", str(capacity)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.t_launch = perf_counter()
        #: CPUs the fleet worker and the server run on (all until :meth:`pin`).
        self.fleet_cpus = self.server_cpus = sorted(os.sched_getaffinity(0))
        # A session of its own, so whatever is left of the server and
        # its fleet at the end can be killed as one group.
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        try:
            self.port = self._read_port()
            from repro.service import ServiceClient

            with ServiceClient("127.0.0.1", self.port) as client:
                status = client.status()
            if status["fleet"]["prewarmed"] < 1:
                raise RuntimeError("server answered status with a cold fleet")
        except BaseException:
            self.stop()
            raise
        self.t_ready = perf_counter()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline() if ready else ""
        if " listening on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split(" listening on ")[1].split()[0].rsplit(":", 1)[1])

    def pin(self) -> set[int]:
        """Give the fleet its own CPU; the server and this process share
        the rest.  Returns this process's previous CPU set.

        One fleet slot computes flat out while hits are served beside
        it; without placement the scheduler moves the worker onto the
        server's CPU now and then, and hit latency measures that
        placement instead of the cache path.
        """
        previous = os.sched_getaffinity(0)
        cpus = sorted(previous)
        if len(cpus) < 2:
            return previous
        rest, last = set(cpus[:-1]), {cpus[-1]}
        self.fleet_cpus, self.server_cpus = [cpus[-1]], cpus[:-1]
        placement = [(self.proc.pid, rest), (os.getpid(), rest)]
        placement += [(pid, last) for pid in self.status()["fleet"]["pids"]]
        for pid, mask in placement:
            for task in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(task), mask)
        return previous

    def status(self) -> dict:
        from repro.service import ServiceClient

        with ServiceClient("127.0.0.1", self.port) as client:
            return client.status()

    def stop(self) -> None:
        """Shut down over the wire, kill what is left, wait for all of it."""
        pids = []
        if self.proc.poll() is None and getattr(self, "port", None):
            from repro.service import ServiceClient, ServiceError

            try:
                with ServiceClient("127.0.0.1", self.port, timeout=30.0) as client:
                    pids = list(client.status()["fleet"]["pids"])
                    client.shutdown()
            except (OSError, ServiceError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        # Fleet workers are the server's children: wait for them by pid.
        deadline = time.monotonic() + 10.0
        while any(Path(f"/proc/{pid}").exists() for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)


class _TimedJson:
    """Stand-in for the client module's ``json``: times encode/decode."""

    def __init__(self, real) -> None:
        self._real = real
        self.local = threading.local()

    def _timed(self, func, *args, **kwargs):
        t0 = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            self.local.spent = getattr(self.local, "spent", 0.0) + perf_counter() - t0

    def dumps(self, *args, **kwargs):
        return self._timed(self._real.dumps, *args, **kwargs)

    def loads(self, *args, **kwargs):
        return self._timed(self._real.loads, *args, **kwargs)


class _Ids:
    """Request-id counter that remembers the last id handed out."""

    def __init__(self, start: int) -> None:
        self.last = start - 1

    def __iter__(self):
        return self

    def __next__(self) -> int:
        self.last += 1
        return self.last


def drive(port: int, params: list[dict], order: list[int], timed_json=None) -> tuple[list[dict], float]:
    """Send ``order`` over closed-loop connections; ``(records, wall_s)``."""
    from repro.service import ServiceClient, ServiceError

    records: list[dict | None] = [None] * len(order)
    positions = iter(range(len(order)))
    lock = threading.Lock()

    def connection(index: int) -> None:
        # Distinct request ids per connection, so server traces can be
        # matched to the request that produced them.
        ids = _Ids(1 + 1_000_000 * index)
        with ServiceClient("127.0.0.1", port, timeout=120.0, retries=0) as client:
            client._ids = ids
            while True:
                with lock:
                    position = next(positions, None)
                if position is None:
                    return
                if timed_json is not None:
                    timed_json.local.spent = 0.0
                record = {"item": order[position]}
                t0 = perf_counter()
                try:
                    result, stats = client.decompose(params[order[position]])
                    record.update(ok=True, result=result, stats=stats)
                except ServiceError as exc:
                    record.update(ok=False, error=f"{exc.type}: {exc}")
                    if exc.type in ("timeout", "connection-closed"):
                        client.reconnect()
                record["t0"], record["t1"] = t0, perf_counter()
                record["latency_s"] = record["t1"] - t0
                record["request_id"] = f"c{ids.last}"
                if timed_json is not None:
                    record["wire_s"] = timed_json.local.spent
                records[position] = record

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(CONNECTIONS)]
    t0 = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - t0
    for position, record in enumerate(records):
        if record is None:  # its connection died with the request in flight
            records[position] = {"item": order[position], "ok": False,
                                 "error": "no reply", "latency_s": 0.0}
    return records, wall


def _strip(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in INFORMATIONAL_KEYS}


def check(records: list[dict], truths, params, seed: int) -> list[str]:
    """Failures among the replies; runs after the timer has stopped.

    Every reply must be an ok envelope with ``verified: true`` whose
    covers recompose ``f`` on the care set (evaluated independently),
    every reply for one item must carry the same result, and a seeded
    sample of items must match a fresh in-process ``Decomposer``.
    """
    from repro.engine import wire
    from repro.engine.decomposer import Decomposer

    failures: list[str] = []
    by_item: dict[int, dict] = {}
    for position, record in enumerate(records):
        item = record["item"]
        if not record["ok"]:
            failures.append(f"#{position} item {item}: {record['error']}")
            continue
        result = record["result"]
        if result.get("verified") is not True:
            failures.append(f"#{position} item {item}: not verified")
            continue
        space, on, care = truths[item]
        errors = evalcheck.recomposition_errors(
            space, on, care, result["op"],
            evalcheck.cover_triples(result["g_cover"]),
            evalcheck.cover_triples(result["h_cover"]),
        )
        if errors:
            failures.append(f"#{position} item {item}: g op h != f on {errors} care minterms")
            continue
        first = by_item.setdefault(item, result)
        if _strip(first) != _strip(result):
            failures.append(f"#{position} item {item}: differs from an earlier reply")

    rng = random.Random(f"perfbench-identity:{seed}")
    sample = rng.sample(sorted(by_item), min(IDENTITY_SAMPLE, len(by_item)))
    for item in sample:
        engine = Decomposer(operators=OPERATORS)
        f = wire.isf_from_payload(params[item]["f"])
        local = wire.result_to_payload(engine.decompose(f, "auto", name=params[item]["name"]))
        if _strip(json.loads(json.dumps(local))) != _strip(by_item[item]):
            failures.append(f"item {item}: served result differs from in-process Decomposer")
    return failures


def areas(records: list[dict], params) -> tuple[float, float]:
    """Mean mapped area of f's 2-SPP cover and of the served g op h.

    f is minimized here, in-process, so ``area_f`` covers the first
    round of the template pool (every template once) to bound the cost;
    ``area_bidec`` covers every served item.
    """
    from repro.engine import wire
    from repro.spp.synthesis import minimize_spp
    from repro.techmap.area import area_of_bidecomposition, area_of_spp_covers

    seen: dict[int, dict] = {}
    for record in records:
        if record["ok"]:
            seen.setdefault(record["item"], record["result"])
    area_f, area_bidec = [], []
    for item, result in sorted(seen.items()):
        f = wire.isf_from_payload(params[item]["f"])
        names = f.mgr.var_names
        if item < gen.TEMPLATE_ROUND:
            area_f.append(area_of_spp_covers([minimize_spp(f)], names))
        pair = (wire.cover_from_payload(result["g_cover"]), wire.cover_from_payload(result["h_cover"]))
        area_bidec.append(area_of_bidecomposition([pair], result["op"], names))
    return _mean(area_f), _mean(area_bidec)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _tree_rss_mb(server: Server, status: dict) -> dict[int, float]:
    """Peak RSS in MB of the server and each fleet worker, by pid."""
    pids = [server.proc.pid, *status["fleet"]["pids"]]
    return {pid: vmhwm_kb(pid) / 1024.0 for pid in pids}


def _wall(t0: float, t1: float) -> float:
    return t1 - t0


def by_round(records: list[dict], net=_wall) -> list[dict]:
    """Per template round of the stream (:func:`perfbench.gen.whole_rounds`):
    its wall time, taken by ``net(t0, t1)``, and its completed requests.

    Every round sends each template once, so rounds are alike; the run's
    wall time and throughput are medians over its rounds, and a stall of
    the host in one round does not move them.
    """
    size = 2 * gen.TEMPLATE_ROUND
    rounds = []
    for start in range(0, len(records), size):
        chunk = [r for r in records[start:start + size] if "t0" in r]
        if not chunk:  # every connection died; the failures are counted
            continue
        rounds.append({
            "wall_s": net(min(r["t0"] for r in chunk), max(r["t1"] for r in chunk)),
            "completed": sum(1 for r in chunk if r["ok"]),
        })
    return rounds


def _latency_split(records: list[dict], net_hit=_wall, net_miss=_wall) -> tuple[list[float], list[float]]:
    """Latencies in ms of the ok replies, ``(hits, misses)``, each taken
    by ``net_hit(t0, t1)`` or ``net_miss(t0, t1)`` (wall time by default;
    :func:`run` passes the interval without the steal on the CPUs that do
    the work: the server's for a hit, the fleet's for a miss).
    """
    hits, misses = [], []
    for record in records:
        if record["ok"]:
            hit = record["stats"].get("served_by") == "cache"
            net = net_hit if hit else net_miss
            (hits if hit else misses).append(net(record["t0"], record["t1"]) * 1000.0)
    return hits, misses


def run(root: Path, work: Path, seed: int, seconds: int, trace: int):
    """Run the workload; returns ``(metrics, attempted, failed, notes)``."""
    length = gen.whole_rounds(REQUESTS_PER_SECOND * seconds // (2 if trace else 1))
    items, order, truths, params = build_requests(seed, length)
    digest = gen.stream_digest([params[i] for i in order])
    notes = [
        f"stream: {length} requests, {len(items)} distinct functions,"
        f" sha256 {digest}",
    ]
    if trace:
        return _run_traced(root, work, seed, order, truths, params, notes)

    launches = []
    with StealClock() as clock:
        for launch in range(SETUP_LAUNCHES - 1):
            server = Server(root, work / f"setup-cache{launch}", False, 0)
            launches.append(server)
            server.stop()
        server = Server(root, work / "cache", False, 0)
        launches.append(server)
        previous = server.pin()
        try:
            records, wall = drive(server.port, params, order)
            status = server.status()
            rss_mb = _tree_rss_mb(server, status)
        finally:
            server.stop()
            os.sched_setaffinity(0, previous)
    all_cpus = sorted(previous)

    def on(cpus):
        return lambda t0, t1: clock.net(t0, t1, cpus)

    failures = check(records, truths, params, seed)
    area_f, area_bidec = areas(records, params)
    hits, misses = _latency_split(records, on(server.server_cpus), on(server.fleet_cpus))
    hit_tail, hit_pct, n_hits = tail(hits)
    miss_tail, miss_pct, n_misses = tail(misses)
    # A round's misses keep the fleet busy: its wall nets the fleet's steal.
    rounds = by_round(records, on(server.fleet_cpus))
    round_wall = median(r["wall_s"] for r in rounds)
    raw = by_round(records)
    raw_hits, raw_misses = _latency_split(records)
    stolen = {cpu: clock.stolen(launches[0].t_launch, clock.times[-1], [cpu]) for cpu in all_cpus}
    notes += [
        f"steal by CPU over the run: {', '.join(f'{c}={v:.2f}' for c, v in stolen.items())} s;"
        f" fleet on CPU {server.fleet_cpus}",
        "round walls without steal " + ", ".join(f"{r['wall_s']:.2f}" for r in rounds)
        + " s; with steal " + ", ".join(f"{r['wall_s']:.2f}" for r in raw) + f" s (stream {wall:.3f} s)",
        f"with steal: miss p50 {p50(raw_misses):.3f} ms, miss tail {tail(raw_misses)[0]:.3f} ms,"
        f" hit p50 {p50(raw_hits):.3f} ms",
        f"hits: {n_hits}, tail {hit_tail:.3f} ms at p{hit_pct:.1f};"
        f" misses: {n_misses}, tail at p{miss_pct:.1f}",
        f"coalesce rate {status['coalesce']['rate']}, cache {status['cache']}",
        "peak RSS by pid (server first): "
        + ", ".join(f"{pid}={mb:.1f} MB" for pid, mb in rss_mb.items()),
        *failures[:20],
    ]
    metrics = {
        "setup_s": median(clock.net(s.t_launch, s.t_ready, all_cpus) for s in launches),
        # The stream's wall time: rounds x the median round's.
        "wall_s": len(rounds) * round_wall,
        "area_f": area_f,
        "area_bidec": area_bidec,
        "throughput_rps": median(r["completed"] for r in rounds) / round_wall if round_wall else 0.0,
        "miss_p50_ms": p50(misses),
        "miss_tail_ms": miss_tail,
        "hit_p50_ms": p50(hits),
        "peak_rss_mb": sum(rss_mb.values()),
    }
    return metrics, len(records), len(failures), notes


ENGINE_PHASES = ("approximate", "quotient", "minimize", "verify")


def _run_traced(root: Path, work: Path, seed: int, order, truths, params, notes):
    """Untraced then traced pass over one stream; per-layer metrics."""
    from repro.service import ServiceClient
    from repro.service import client as client_module

    server = Server(root, work / "cache-untraced", False, 0)
    previous = server.pin()
    try:
        plain_records, plain_wall = drive(server.port, params, order)
    finally:
        server.stop()
        os.sched_setaffinity(0, previous)

    capacity = len(order) + 16
    server = Server(root, work / "cache-traced", True, capacity)
    previous = server.pin()
    timed = _TimedJson(client_module.json)
    try:
        client_module.json = timed
        try:
            records, wall = drive(server.port, params, order, timed)
        finally:
            client_module.json = timed._real
        with ServiceClient("127.0.0.1", server.port) as client:
            traces = client.trace(n=capacity)["traces"]
        status = server.status()
    finally:
        server.stop()
        os.sched_setaffinity(0, previous)

    failures = check(plain_records, truths, params, seed) + check(records, truths, params, seed)
    notes += failures[:20]
    layers = _layers(records, traces)
    layers["hit_tail_ms"] = tail(_latency_split(records)[0])[0]
    attempted = len(plain_records) + len(records)
    layers.update(
        {
            "fleet.restarts": status["fleet"]["restarts"],
            "fleet.retries": status["fleet"]["retries"],
            "fleet.timeouts": status["fleet"]["timeouts"],
            "cache.hit_ratio": _ratio(status["cache"]["hits"], status["cache"]["hits"] + status["cache"]["misses"]),
            "coalesce.rate": status["coalesce"]["rate"],
            "obs.overhead_ratio": wall / plain_wall,
            "failed_frac": len(failures) / attempted,
        }
    )
    return layers, attempted, len(failures), notes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layers(records: list[dict], traces: list[dict]) -> dict:
    """Per-layer numbers from the server's span trees, one per request."""
    by_id = {t["id"]: t for t in traces if t["kind"] == "decompose"}
    ms = {name: [] for name in (
        "checkout", "roundtrip", "glue", "put", "get", "server", "wire", "net", "follower",
    )}
    phases = dict.fromkeys(ENGINE_PHASES, 0.0)
    root_self = root_total = 0.0
    dispatched = bitset = peak_nodes = 0
    for record in records:
        trace = by_id.get(record.get("request_id"))
        if not record["ok"] or trace is None:
            continue
        spans = trace["spans"]
        sites = by_site(spans)
        root = sites["server.request"]
        root_self += root["self_s"]
        root_total += root["total_s"]
        for phase in ENGINE_PHASES:
            phases[phase] += sites.get(f"engine.{phase}", {}).get("total_s", 0.0)
        for span in spans:
            if span["site"] == "engine.dispatch":
                dispatched += 1
                bitset += span["attrs"].get("backend") == "bitset"
        stats = record["stats"]
        if stats["served_by"] == "cache":
            ms["get"].append(1000.0 * sites["cache.get"]["total_s"])
            ms["server"].append(1000.0 * root["self_s"])
            ms["wire"].append(1000.0 * record["wire_s"])
            ms["net"].append(1000.0 * (record["latency_s"] - root["total_s"] - record["wire_s"]))
        elif stats["coalesced"]:
            ms["follower"].append(1000.0 * sites["coalesce.follower"]["total_s"])
        else:
            ms["checkout"].append(1000.0 * sites["fleet.checkout"]["total_s"])
            ms["roundtrip"].append(1000.0 * sites["fleet.roundtrip"]["self_s"])
            ms["glue"].append(1000.0 * sites["worker.compute"]["self_s"])
            ms["put"].append(1000.0 * sites.get("cache.put", {}).get("total_s", 0.0))
            peak_nodes = max(peak_nodes, (record["result"].get("bdd_stats") or {}).get("allocated", 0))
    return {
        "engine.calls": dispatched,
        "engine.bitset_frac": _ratio(bitset, dispatched),
        **{f"engine.{phase}_s": total for phase, total in phases.items()},
        "bdd.peak_nodes": peak_nodes,
        "fleet.checkout_wait_ms": median(ms["checkout"]),
        "fleet.roundtrip_self_ms": median(ms["roundtrip"]),
        "worker.glue_ms": median(ms["glue"]),
        "cache.put_ms": median(ms["put"]),
        "cache.get_ms": median(ms["get"]),
        "server.self_ms": median(ms["server"]),
        "client.wire_ms": median(ms["wire"]),
        "client.net_ms": median(ms["net"]),
        "coalesce.follower_wait_ms": median(ms["follower"]),
        "unattributed_s": root_self,
        "attributed_frac": 1.0 - _ratio(root_self, root_total),
    }
