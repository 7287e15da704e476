"""Persistent on-disk result cache for batch decomposition.

A :class:`ResultCache` maps a canonical key — the SHA-256 of the
serialized function, operator, strategy specs, and verification flag —
to a JSON payload on disk.  :meth:`~repro.engine.decomposer.Decomposer.decompose_many`
consults it before any worker dispatch, so a warm re-run of a benchmark
suite completes without recomputing (or even forking) anything.

Robustness contract: a corrupted, truncated, or foreign file under the
cache directory is treated as a *miss* (and counted in
``stats["corrupt"]``), never as an error — a shared cache directory must
not be able to break a run.  Corrupt entries are additionally
*quarantined* (moved aside, counted in ``stats["quarantined"]``) so a
bad sector cannot re-trip the corruption path on every lookup.

Crash-safety contract: a writer may die — ``kill -9``, OOM, power —
at *any* instruction inside :meth:`put` and the store stays openable,
losing at most the entry that was in flight.  The write path is a
checksummed journal:

1. serialize the entry with a CRC-32 of its payload;
2. commit a journal record (``journal/<key>.j``) carrying the full
   entry text and its own CRC — temp file, ``fsync``, atomic rename;
3. write the entry itself the same way (temp, ``fsync``, rename);
4. clear the journal record.

A crash before step 2 completes leaves nothing durable (the in-flight
entry is lost — the guaranteed worst case).  A crash after step 2
leaves a committed journal record; the next :class:`ResultCache` on the
directory *replays* it (``stats["replayed"]``), recovering the entry
the dying writer never renamed into place.  A crash between steps 3
and 4 replays idempotently onto the identical bytes.  Torn or foreign
journal records fail their CRC and are quarantined, never replayed.

The named ``cache.put.*`` fault-injection sites between those steps let
the chaos suite SIGKILL a sacrificial writer at every crash point and
assert the contract holds (see :mod:`repro.obs.faults`).
"""

from __future__ import annotations

import itertools
import json
import os
import time
import uuid
import zlib
from pathlib import Path

from repro.bdd.serialize import canonical_hash
from repro.obs.trace import fire as _obs_fire, span as _obs_span

#: On-disk entry wrapper identifier; bump on any incompatible change.
#: (Also folded into every cache *key*, so bumping it invalidates the
#: store — entries gaining an optional ``crc`` field did not need that.)
ENTRY_FORMAT = "repro-cache-entry/1"

#: Journal record wrapper identifier; bump on any incompatible change.
JOURNAL_FORMAT = "repro-cache-journal/1"

#: Temp files older than this (seconds) are orphans from dead writers.
STALE_TEMP_AGE_S = 3600.0


def _crc_text(text: str) -> str:
    return format(zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF, "08x")


def _payload_crc(payload) -> str:
    """CRC-32 over the canonical JSON of a payload (order-independent)."""
    return _crc_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


def _write_durable(path: Path, text: str) -> None:
    """Write + flush + ``fsync``: the bytes survive a crash after return."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


class ResultCache:
    """Content-addressed JSON store under one directory.

    Entries live at ``<cache_dir>/<key[:2]>/<key>.json`` wrapped as
    ``{"format": ENTRY_FORMAT, "payload": ...}``.  ``stats`` counts
    ``hits``, ``misses``, ``stores``, ``corrupt`` entries seen, and
    ``evictions``.

    ``max_bytes`` / ``max_entries`` bound the store: when either budget
    is exceeded after a write, the least-recently-used entries
    (mtime-ordered — ``get`` touches an entry's mtime while a budget is
    active) are removed until the store fits again.  Budgets are
    enforced per instance over everything found under the directory at
    open time plus this instance's writes; entries another process adds
    later are reclaimed by whichever budgeted instance opens the
    directory next.  ``None`` (the default) keeps the store unbounded.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "corrupt": 0,
            "evictions": 0,
            "quarantined": 0,
            "replayed": 0,
        }
        # Distinguishes concurrent writers within one process (threads
        # sharing this instance) and across instances in one pid.
        self._tmp_counter = itertools.count()
        self._tmp_token = uuid.uuid4().hex[:8]
        self.swept_temps = self._sweep_stale_temps()
        self._replay_journal()
        #: key -> (mtime, size) of every governed entry; only maintained
        #: when a budget is set (the unbounded store never scans).
        self._index: dict[str, tuple[float, int]] = {}
        self._index_bytes = 0
        if self._bounded:
            for path in self.cache_dir.glob("*/*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                self._index_entry(path.stem, stat.st_mtime, stat.st_size)
            self._evict()

    @property
    def _bounded(self) -> bool:
        return self.max_bytes is not None or self.max_entries is not None

    def _index_entry(self, key: str, mtime: float, size: int) -> None:
        old = self._index.get(key)
        if old is not None:
            self._index_bytes -= old[1]
        self._index[key] = (mtime, size)
        self._index_bytes += size

    def _drop_entry(self, key: str) -> None:
        old = self._index.pop(key, None)
        if old is not None:
            self._index_bytes -= old[1]

    def _over_budget(self) -> bool:
        return (
            self.max_entries is not None and len(self._index) > self.max_entries
        ) or (self.max_bytes is not None and self._index_bytes > self.max_bytes)

    def _evict(self, keep: str | None = None) -> None:
        """Remove LRU entries until both budgets hold.

        ``keep`` — the key just written — is never evicted: a single
        entry larger than ``max_bytes`` stays (reclaimed by a later
        write), so a put can never silently discard its own result.
        """
        while self._index and self._over_budget():
            victim = min(
                (key for key in self._index if key != keep),
                key=lambda key: self._index[key][0],
                default=None,
            )
            if victim is None:
                return
            self._drop_entry(victim)
            try:
                self.path_for(victim).unlink()
            except OSError:
                continue  # already gone (concurrent instance): no count
            self.stats["evictions"] += 1

    def _tmp_name(self, path: Path) -> Path:
        """A temp sibling unique per (pid, instance, write)."""
        return path.with_name(
            f"{path.name}.tmp{os.getpid()}-{self._tmp_token}"
            f"-{next(self._tmp_counter)}"
        )

    # -- journal (crash-safe writes) ---------------------------------------

    def journal_path(self, key: str) -> Path:
        """On-disk location of ``key``'s journal record (if committed)."""
        return self.cache_dir / "journal" / f"{key}.j"

    def _entry_valid(self, path: Path) -> bool:
        """Does ``path`` hold a well-formed, checksum-clean entry?"""
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
                return False
            crc = entry.get("crc")
            return crc is None or crc == _payload_crc(entry["payload"])
        except (OSError, ValueError, KeyError):
            return False

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt file aside so it cannot re-trip every lookup.

        Quarantined files keep their name under ``quarantine/`` with a
        ``.bad`` suffix — outside every glob the cache scans — for
        post-mortem inspection; moving (not deleting) also preserves the
        evidence a corruption report needs.
        """
        target = self.cache_dir / "quarantine" / f"{path.name}.bad"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return  # already gone (concurrent reader quarantined it)
        self.stats["quarantined"] += 1

    def _replay_journal(self) -> int:
        """Complete writes a dead process journaled but never finished.

        Every committed ``journal/<key>.j`` record is CRC-verified and
        — when the final entry is missing or fails *its* checksum —
        replayed into place, then cleared.  Records that fail their CRC
        (a torn write from a dying kernel, a foreign file) are
        quarantined, never replayed.  Returns the number of entries
        recovered (also in ``stats["replayed"]``).
        """
        journal_dir = self.cache_dir / "journal"
        if not journal_dir.is_dir():
            return 0
        replayed = 0
        for record_path in sorted(journal_dir.glob("*.j")):
            try:
                record = json.loads(record_path.read_text(encoding="utf-8"))
                if (
                    not isinstance(record, dict)
                    or record.get("format") != JOURNAL_FORMAT
                ):
                    raise ValueError(f"not a {JOURNAL_FORMAT} record")
                key = record["key"]
                text = record["entry"]
                if not isinstance(key, str) or not isinstance(text, str):
                    raise ValueError("malformed journal record fields")
                if _crc_text(text) != record["crc"]:
                    raise ValueError("journal record failed its CRC")
                entry = json.loads(text)
                if entry.get("format") != ENTRY_FORMAT:
                    raise ValueError("journaled entry has a foreign format")
            except (OSError, ValueError, KeyError, TypeError):
                self._quarantine(record_path)
                continue
            path = self.path_for(key)
            if not self._entry_valid(path):
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = self._tmp_name(path)
                _write_durable(tmp, text)
                os.replace(tmp, path)
                replayed += 1
            # else: the crash fell between the entry rename and the
            # journal clear — the entry is already durable and byte-
            # identical to the record's copy; just clear the orphan.
            try:
                record_path.unlink()
            except OSError:
                pass
        self.stats["replayed"] += replayed
        return replayed

    def _sweep_stale_temps(self, max_age_s: float = STALE_TEMP_AGE_S) -> int:
        """Remove orphaned ``*.tmp*`` files left by writers that died
        before their atomic ``os.replace``.

        Only temps older than ``max_age_s`` are touched: a younger temp
        may belong to a concurrent writer about to rename it.
        """
        cutoff = time.time() - max_age_s
        swept = 0
        for tmp in self.cache_dir.glob("*/*.tmp*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    swept += 1
            except OSError:
                # Renamed or removed by a concurrent process: not ours.
                continue
        return swept

    # -- keys -------------------------------------------------------------

    @staticmethod
    def key_for(
        f_payload: dict,
        op: str,
        approximator: str,
        minimizer: str,
        verify: bool,
        operators: tuple[str, ...] = (),
    ) -> str:
        """Canonical cache key of one decomposition request.

        ``f_payload`` is the :func:`repro.engine.wire.isf_to_payload` dump
        of the (already transferred) function, so the key covers the
        declared variable slice along with the function semantics; ``op``
        is a canonical operator name or ``"auto"``.  ``operators`` — the
        engine's search space — participates only under ``"auto"``, where
        it determines which candidates were ranked; for a named operator
        it cannot affect the result.
        """
        return canonical_hash(
            {
                "format": ENTRY_FORMAT,
                "f": f_payload,
                "op": op,
                "approximator": approximator,
                "minimizer": minimizer,
                "verify": bool(verify),
                "operators": list(operators) if op == "auto" else None,
            }
        )

    @staticmethod
    def bench_key_for(benchmark: str, operators: tuple[str, ...]) -> str:
        """Canonical key of a full harness benchmark run."""
        return canonical_hash(
            {
                "format": ENTRY_FORMAT,
                "benchmark": benchmark,
                "operators": list(operators),
            }
        )

    @staticmethod
    def netsyn_key_for(
        output_fingerprints: list[str], config_payload: dict
    ) -> str:
        """Canonical key of a shared-network synthesis run.

        ``output_fingerprints`` are the canonical per-output ISF hashes
        (:func:`repro.engine.wire.isf_fingerprint`) in output order —
        they cover the functions *and* the declared variable slice —
        and ``config_payload`` is the synthesis policy
        (:meth:`repro.netsyn.synthesis.NetsynConfig.key_payload`).
        Backends never enter the key: a cache warmed under the BDD
        backend serves bitset runs and vice versa.
        """
        return canonical_hash(
            {
                "format": ENTRY_FORMAT,
                "netsyn": {
                    "outputs": list(output_fingerprints),
                    "config": config_payload,
                },
            }
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of a key (two-level fan-out)."""
        return self.cache_dir / key[:2] / f"{key}.json"

    # -- access -----------------------------------------------------------

    def get(self, key: str):
        """Return the stored payload, or ``None`` on miss/corruption.

        Entries carrying a ``crc`` (everything this version writes) are
        verified against it; a mismatch — bit rot, a torn foreign write
        — counts as corrupt and the file is quarantined so the next
        lookup is a clean miss a fresh ``put`` can fill.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
                raise ValueError(f"unexpected entry format in {path}")
            payload = entry["payload"]
            crc = entry.get("crc")
            if crc is not None and crc != _payload_crc(payload):
                raise ValueError(f"entry failed its CRC in {path}")
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        except (OSError, ValueError, KeyError):
            # Unreadable or malformed: quarantine, count, treat as a miss.
            self.stats["corrupt"] += 1
            self.stats["misses"] += 1
            self._quarantine(path)
            self._drop_entry(key)
            return None
        self.stats["hits"] += 1
        if self._bounded:
            # Refresh recency so the LRU eviction order tracks *use*,
            # not just write time.
            now = time.time()
            try:
                os.utime(path, (now, now))
                self._index_entry(key, now, path.stat().st_size)
            except OSError:
                pass
        return payload

    def demote_hit(self) -> None:
        """Recount the last :meth:`get` hit as a corrupt miss.

        For callers whose decode of a returned payload failed (a stale
        field set, a corrupt inner payload): the entry was readable but
        unusable, so it is recomputed like any other miss.
        """
        self.stats["hits"] -= 1
        self.stats["misses"] += 1
        self.stats["corrupt"] += 1

    def put(self, key: str, payload) -> None:
        """Store a JSON-ready payload under ``key``, crash-safely.

        Journal-first (see the module docstring): the entry text — with
        its payload CRC — is committed to ``journal/<key>.j`` (temp,
        ``fsync``, rename) *before* the entry itself is written the same
        way, and the record is cleared only after the entry rename.  A
        writer dying at any point loses at most this entry, and loses it
        only if death lands before the journal commit; afterwards the
        next open replays the record.

        The temp names are unique per (pid, instance, write): two
        threads sharing one cache — or two processes sharing one
        directory — never collide on the same temp file, so a concurrent
        writer can at worst waste work, never truncate another's entry.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(
            {
                "format": ENTRY_FORMAT,
                "crc": _payload_crc(payload),
                "payload": payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        _obs_fire("cache.put.serialized", key=key)
        journal = self.journal_path(key)
        journal.parent.mkdir(parents=True, exist_ok=True)
        record = json.dumps(
            {
                "format": JOURNAL_FORMAT,
                "key": key,
                "crc": _crc_text(text),
                "entry": text,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        with _obs_span("cache.journal", key=key[:16]):
            journal_tmp = self._tmp_name(journal)
            _write_durable(journal_tmp, record)
            os.replace(journal_tmp, journal)
        _obs_fire("cache.put.journaled", key=key)
        tmp = self._tmp_name(path)
        _write_durable(tmp, text)
        _obs_fire("cache.put.entry_written", key=key)
        os.replace(tmp, path)
        _obs_fire("cache.put.renamed", key=key)
        try:
            journal.unlink()
        except OSError:
            pass
        self.stats["stores"] += 1
        if self._bounded:
            self._index_entry(key, time.time(), len(text.encode("utf-8")))
            self._evict(keep=key)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none yet)."""
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0

    def __repr__(self) -> str:
        return f"ResultCache({str(self.cache_dir)!r}, stats={self.stats})"


def as_result_cache(cache: "ResultCache | str | os.PathLike | None") -> ResultCache | None:
    """Normalize a cache argument (instance, directory path, or ``None``)."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


__all__ = ["ENTRY_FORMAT", "JOURNAL_FORMAT", "ResultCache", "as_result_cache"]
