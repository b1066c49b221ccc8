"""Content-addressed on-disk memoization of simulation results.

Each cache entry is one pickled value stored under
``<cache dir>/<sha256 key>.pkl``.  Keys are derived from everything that can
change a result:

* the trace identity ``(workload, instructions, seed)`` plus the
  workload-generator source fingerprint (together: a trace fingerprint),
* the configuration name and predictor overrides,
* the semantic fields of :class:`~repro.harness.runner.ExperimentSettings`
  (the execution-only ``jobs`` knob is excluded), and
* the simulator source fingerprint.

The cache directory defaults to ``.repro-cache/`` in the current working
directory (``REPRO_CACHE_DIR``; see :mod:`repro.exec.options`).  Clearing
it is always safe (``ResultCache.clear()`` or simply ``rm -rf
.repro-cache/``); entries are re-created on demand.

Integrity (PR 6): every blob is framed as ``magic || sha256(payload) ||
payload`` and the checksum is verified on read, so a truncated write, a
bit-rotted disk block, or torn concurrent I/O can never deserialise into a
silently-wrong result — a damaged blob is **quarantined** (moved into a
``quarantine/`` subdirectory, invisible to lookups, counted in the
resilience counters) and the entry is recomputed transparently.  Writes
that fail at the OS level (``ENOSPC``, read-only filesystems, vanished
mounts) degrade the directory to a bounded in-memory fallback for the rest
of the process: sweeps complete with cache semantics intact, only
persistence is lost.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Set

from repro.exec import fingerprint as _fingerprint
from repro.exec import options as _options
from repro.exec import resilience as _resilience

#: Bumped when the pickled payload layout changes incompatibly.
#: v2: blobs carry the integrity frame (magic + SHA-256 content checksum),
#: so pre-frame entries — which would all fail verification — are keyed
#: away instead of mass-quarantined on upgrade.
CACHE_SCHEMA_VERSION = 2

#: Settings fields that steer *execution*, not simulation semantics
#: (the worker count never changes what any job computes).
_EXECUTION_ONLY_FIELDS = ("jobs",)

#: Age beyond which an orphaned ``*.tmp`` blob is certainly not a write in
#: flight (entries are written in one go; a healthy write lives milliseconds).
_TMP_STALE_SECONDS = 3600.0

#: Grace period for :meth:`ResultCache.clear`'s stray sweep: long enough
#: that a concurrent writer in another process is never raced between
#: ``mkstemp`` and ``os.replace``, short enough that an explicit clear
#: leaves no meaningful garbage behind.
_TMP_CLEAR_GRACE_SECONDS = 60.0

#: Directories already swept for stale temp files by this process — the
#: sweep is opportunistic hygiene, not per-construction work (stores are
#: constructed once per job in pool workers).
_SWEPT_DIRS: Set[str] = set()

#: Settings fields that cannot change a result: ``checkpoints`` accepts
#: only ``True`` and ``None``, which both mean the one warming mode (every
#: sampled interval starts from a full-history snapshot), so the two
#: spellings share every key.
_CONSTANT_FIELDS = ("checkpoints",)

#: Integrity-frame magic: a blob is ``magic || sha256(payload) || payload``.
_BLOB_MAGIC = b"RPRBLOB2"
_DIGEST_BYTES = hashlib.sha256().digest_size
_FRAME_HEADER_BYTES = len(_BLOB_MAGIC) + _DIGEST_BYTES

#: Subdirectory damaged blobs are moved into (``*.pkl`` lookups never
#: recurse, so quarantined blobs are invisible; kept for post-mortems,
#: emptied by :meth:`ResultCache.clear`).
_QUARANTINE_DIR = "quarantine"

#: Directories whose disk writes failed (``ENOSPC`` and friends): their
#: puts go to the in-memory fallback for the rest of the process.
_DEGRADED_DIRS: Set[str] = set()

#: Bounded per-directory in-memory fallback (LRU of *pickled* payloads, so
#: fallback entries keep the store's value-copy semantics — callers mutate
#: live policy objects after ``put``).  Small on purpose: it exists so a
#: sweep on a full disk finishes correctly, not to replace the disk.
_MEMORY_FALLBACK: Dict[str, "collections.OrderedDict[str, bytes]"] = {}
_MEMORY_FALLBACK_LIMIT = 64


def _frame(payload: bytes) -> bytes:
    """Wrap a pickled payload in the integrity frame."""
    return _BLOB_MAGIC + hashlib.sha256(payload).digest() + payload


def _unframe(blob: bytes) -> bytes:
    """Verify and strip the integrity frame; raises ``ValueError`` on any
    damage (wrong magic, short read, checksum mismatch)."""
    if len(blob) < _FRAME_HEADER_BYTES or not blob.startswith(_BLOB_MAGIC):
        raise ValueError("blob is not integrity-framed")
    payload = blob[_FRAME_HEADER_BYTES:]
    digest = blob[len(_BLOB_MAGIC):_FRAME_HEADER_BYTES]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("blob checksum mismatch")
    return payload


def _canonical_form(obj: Any) -> dict:
    """JSON-able canonical form of a (possibly nested) config dataclass."""
    data = dataclasses.asdict(obj)
    for name in _EXECUTION_ONLY_FIELDS + _CONSTANT_FIELDS:
        data.pop(name, None)
    return data


@lru_cache(maxsize=64)
def _canonical_pickle(obj: Any) -> bytes:
    return pickle.dumps(_canonical_form(obj), pickle.HIGHEST_PROTOCOL)


def _canonical(obj: Any) -> Any:
    """JSON-able canonical form of a (possibly nested) config dataclass.

    ``dataclasses.asdict`` of the settings costs ~100 µs (CPython 3.11 on
    a 2-vCPU host), and every job and snapshot key needs the same few
    settings objects, so the form is memoised per hashable (frozen)
    dataclass.  The memo holds it pickled, so each call returns a fresh
    copy the caller may mutate.  Equal objects share one entry.  An
    unhashable dataclass (a mutable one, or one holding a list) takes the
    uncached path.
    """
    if obj is None or not dataclasses.is_dataclass(obj):
        return obj
    try:
        blob = _canonical_pickle(obj)
    except TypeError:
        return _canonical_form(obj)
    return pickle.loads(blob)


def job_key(spec: "JobSpec") -> str:  # noqa: F821 - typing only
    """Content-addressed cache key for one job spec.

    Accepts both base :class:`~repro.exec.jobs.JobSpec` and per-interval
    :class:`~repro.exec.jobs.IntervalJobSpec` (whose key additionally
    covers the interval index; the sampling plan itself is part of the
    settings, so any plan change invalidates every interval).
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": spec.workload,
        "config": spec.config_name,
        "settings": _canonical(spec.settings),
        "predictors": _canonical(spec.predictors),
        "trace_sources": _fingerprint.workload_fingerprint(),
        "simulator_sources": _fingerprint.simulator_fingerprint(),
    }
    interval_index = getattr(spec, "interval_index", None)
    if interval_index is not None:
        payload["interval_index"] = interval_index
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Pickle-per-entry on-disk cache with atomic writes.

    Interrupted writers (a pool worker SIGKILLed mid-:meth:`put`) can strand
    ``*.tmp`` blobs that no ``except`` block ever sees; left alone they
    accumulate forever and get persisted by CI's ``actions/cache``.  They
    are invisible to lookups and :meth:`__len__` (entries are ``*.pkl``)
    and are swept when demonstrably stale — so a live writer in another
    process is never raced — opportunistically on first construction per
    directory per process, and with a much shorter grace by :meth:`clear`.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory or _options.cache_dir())
        key = str(self.directory)
        if key not in _SWEPT_DIRS:
            _SWEPT_DIRS.add(key)
            self.sweep_stale_tmp()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def sweep_stale_tmp(self,
                        max_age_seconds: float = _TMP_STALE_SECONDS) -> int:
        """Delete orphaned ``*.tmp`` blobs older than ``max_age_seconds``.

        Returns the number removed.  Deletion races (another process
        sweeping, a writer renaming) are benign and ignored.
        """
        removed = 0
        now = time.time()
        try:
            strays = list(self.directory.glob("*.tmp"))
        except OSError:
            return 0
        for path in strays:
            try:
                if now - path.stat().st_mtime >= max_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def _memory(self) -> "collections.OrderedDict[str, bytes]":
        return _MEMORY_FALLBACK.setdefault(str(self.directory),
                                           collections.OrderedDict())

    def _memory_put(self, key: str, payload: bytes) -> None:
        memory = self._memory()
        memory.pop(key, None)
        memory[key] = payload
        while len(memory) > _MEMORY_FALLBACK_LIMIT:
            memory.popitem(last=False)

    def _memory_get(self, key: str) -> Optional[Any]:
        payload = self._memory().get(key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # pragma: no cover - payload was pickled by us
            return None

    def _quarantine(self, key: str) -> None:
        """Move a damaged blob aside (kept for post-mortems, invisible to
        lookups) and count it; on any filesystem trouble just unlink it —
        the one non-negotiable outcome is that the entry stops matching."""
        _resilience.count("blobs_quarantined")
        path = self._path(key)
        try:
            hold = self.directory / _QUARANTINE_DIR
            hold.mkdir(parents=True, exist_ok=True)
            os.replace(path, hold / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value for ``key``, or ``None`` on any miss.

        The integrity frame is verified before anything is unpickled:
        truncated writes, bit rot, and torn concurrent I/O are quarantined
        and reported as misses (the caller recomputes and repairs), never
        as errors and never as silently-wrong values.  Version skew in the
        pickled classes (a checksum-valid blob that no longer unpickles)
        is likewise a quarantined miss.
        """
        try:
            blob = self._path(key).read_bytes()
        except OSError:
            return self._memory_get(key)
        try:
            return pickle.loads(_unframe(blob))
        except Exception:
            # Frame verification and pickle.loads can raise nearly anything
            # on a damaged stream (ValueError, KeyError, TypeError, ...);
            # a damaged entry must never take a sweep down.
            self._quarantine(key)
            return self._memory_get(key)

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic rename; last writer wins).

        Never raises on I/O failure: a directory whose writes fail at the
        OS level (``ENOSPC``, read-only mount) degrades to the bounded
        in-memory fallback for the rest of the process — the run completes
        with cache semantics intact, only persistence is lost.  (An
        interrupt such as ``KeyboardInterrupt`` still propagates, after
        removing the partial temp file.)
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        fault = None
        plan = _options.fault_plan()
        if plan is not None:
            fault = plan.blob_fault(key)
        if fault == "write_error":
            # An injected ENOSPC: served from memory like the real thing,
            # but without poisoning the directory for subsequent puts
            # (real degradation is per-directory; injection is per-key).
            _resilience.count("injected_write_errors")
            self._memory_put(key, payload)
            return
        if str(self.directory) in _DEGRADED_DIRS:
            self._memory_put(key, payload)
            return
        blob = _frame(payload)
        if fault == "corrupt_blob":
            _resilience.count("injected_corrupt_blobs")
            index = _FRAME_HEADER_BYTES + len(payload) // 2
            blob = blob[:index] + bytes([blob[index] ^ 0xFF]) + blob[index + 1:]
        elif fault == "truncate_blob":
            _resilience.count("injected_truncated_blobs")
            blob = blob[:max(1, len(blob) // 2)]
        tmp_name = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, self._path(key))
        except FileNotFoundError:
            # The temp file (or the directory) vanished under us — another
            # process's interrupt sweep or an aggressive clear.  A lost
            # best-effort write, not a broken disk: don't degrade, the
            # entry is simply recomputed by whoever needs it next.
            _resilience.count("store_lost_writes")
        except OSError:
            # ENOSPC and friends: count it, degrade this directory to the
            # in-memory fallback, and keep the (uncorrupted) value — the
            # sweep must finish even when the disk will not cooperate.
            _resilience.count("store_write_errors")
            _DEGRADED_DIRS.add(str(self.directory))
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            self._memory_put(key, payload)
        except BaseException:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def _entries(self) -> Iterable[Path]:
        try:
            return list(self.directory.glob("*.pkl"))
        except OSError:
            return []

    def clear(self) -> int:
        """Delete every cache entry and stale stray temp file; returns the
        number of entries removed.

        The stray sweep keeps a short grace period (unlike entries, a
        ``*.tmp`` seconds old may be another process's write in flight,
        and unlinking it mid-``put`` would crash that writer's
        ``os.replace``); a full reset of everything regardless of age is
        ``rm -rf`` of the directory, which is always safe too.
        """
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._memory().clear()
        try:
            for path in (self.directory / _QUARANTINE_DIR).glob("*.pkl"):
                path.unlink()
        except OSError:
            pass
        self.sweep_stale_tmp(_TMP_CLEAR_GRACE_SECONDS)
        return removed
