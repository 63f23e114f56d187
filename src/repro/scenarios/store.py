"""Persistent, content-addressed storage for finished session results.

The :class:`~repro.scenarios.engine.SessionEngine` caches
:class:`~repro.scenarios.engine.SessionResult` rows in memory, which is lost
with the process: a crashed or extended sweep restarts at zero.  The
:class:`ResultStore` moves that cache to disk, content-addressed the same way
the in-memory cache is — by :meth:`ScenarioSpec.spec_hash`, the stable hash
of the spec's *physical* configuration — so a result computed by any process,
worker or past run can be reused by any other, and a sweep only ever computes
the specs whose results are not already stored (the low-distance
synchronisation idea: transfer/compute only what differs).

Layout and guarantees
---------------------

* One JSON shard per result at ``<root>/epoch-<E>/<hh>/<hash>.json`` (``hh``
  = first two hex digits of the hash, keeping directories small at millions
  of entries).  Records are RFC 8259-strict JSON (the stored spec holds
  non-finite floats as strings, see ``stored_canonical``).  Format 2 stores a
  delay trace as binary: ``{"dtype": "<f8", "b64": ...}``, the base64 of
  its little-endian float64 bytes, so ``inf`` (= lost command), ``-0.0``
  and NaN payloads round-trip exactly.  Format-1 shards, whose traces are
  JSON lists with ``null`` for ``inf``, are still read.  The record format
  is not the engine epoch: a new format changes no result, so old shards
  keep hitting.
* ``<E>`` is the **engine epoch** (:data:`~repro.scenarios.engine.
  ENGINE_EPOCH`): a code-semantics version, bumped whenever a change alters
  results for an unchanged spec hash (e.g. PR 3's compound-seed fix).  A
  store opened at epoch ``E`` never reads or deletes another epoch's shards,
  so an old store survives an upgrade and simply re-fills.
* Writes are atomic: the record lands in a per-writer temp file in the shard
  directory and is ``os.replace``-d into place, so concurrent writers
  (caller threads, sweep worker processes, parallel CI jobs sharing a cache
  directory) can race on the same key and readers still only ever see a
  complete record — last writer wins, and equal specs write equal bytes
  anyway.
* Loads are corruption-tolerant: a truncated, garbled or wrong-schema shard,
  or one whose stored canonical spec differs from the caller's, counts as a
  miss (and is deleted best-effort) instead of poisoning the sweep — the
  result is simply recomputed and rewritten.
* An optional LRU cap (``max_entries`` / ``max_bytes``) bounds the store;
  recency is tracked through shard mtimes, which :meth:`get` refreshes.

What a shard stores
-------------------

A shard persists the complete result: the per-repetition metric tuples,
the command count, the canonical spec (checked on load, and kept for audits)
and the last repetition's delay trace.  Every field round-trips bit-for-bit
(metric floats are serialised with ``repr``-exact shortest form, delay
traces as raw float64 bytes), so a store hit equals the cold result.  A
result holds no trajectory: :meth:`SessionEngine.trajectories
<repro.scenarios.engine.SessionEngine.trajectories>` replays the kept delay
trace, for a stored result exactly as for a computed one.

Record kinds
------------

The store holds more than one result type under one epoch scheme.  Every
shard carries a ``kind`` tag (absent = ``"session"``, the original record
layout) and each kind registers a codec through :func:`register_store_codec`
— the fleet layer (:mod:`repro.fleet`) registers ``"fleet"`` records for
:class:`~repro.fleet.engine.FleetResult` rows this way.  The expected kind
is derived from the *spec* passed to :meth:`ResultStore.get` (its
``store_kind`` attribute, default ``"session"``), so a session spec can
never deserialise a fleet shard or vice versa; spec hashing domains are
disjoint anyway.
"""

from __future__ import annotations

import base64
import binascii
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, StoreError
from .engine import ENGINE_EPOCH, SessionResult
from .spec import ScenarioSpec

#: Schema version of the shard records themselves (bump on layout changes).
_RECORD_FORMAT = 2

#: Record formats :meth:`ResultStore.get` still decodes (1: list-encoded traces).
_READABLE_FORMATS = (1, 2)

#: The one binary delay dtype: little-endian IEEE-754 float64.
_DELAY_DTYPE = "<f8"


# -------------------------------------------------------------------- codecs
def encode_delays(delays) -> dict | None:
    """Binary rendering of a delay trace: base64 of its ``<f8`` bytes.

    Exact for every float64, ``inf`` (= lost command), ``-0.0`` and NaN
    payloads included.
    """
    if delays is None:
        return None
    raw = np.asarray(delays, dtype=_DELAY_DTYPE).tobytes()  # C order, flattened
    return {"dtype": _DELAY_DTYPE, "b64": base64.b64encode(raw).decode("ascii")}


def decode_delays(values) -> np.ndarray | None:
    """Inverse of :func:`encode_delays`; also reads format-1 lists (``null`` -> ``inf``)."""
    if values is None:
        return None
    if isinstance(values, list):
        return np.array([math.inf if v is None else float(v) for v in values])
    if not isinstance(values, dict) or values.get("dtype") != _DELAY_DTYPE:
        raise StoreError(f"unknown delay trace encoding {values!r:.80}")
    encoded = values.get("b64")
    if not isinstance(encoded, str):
        raise StoreError("binary delay trace has no base64 payload")
    try:
        raw = base64.b64decode(encoded, validate=True)
    except binascii.Error as exc:
        raise StoreError(f"invalid base64 delay trace: {exc}") from exc
    # np.frombuffer raises ValueError when the length is not whole float64s.
    return np.frombuffer(raw, dtype=_DELAY_DTYPE).astype(np.float64)


def _metric_tuples(payload: dict, fields: tuple[str, ...]) -> dict:
    """Decode per-repetition metric lists, validating shape consistency."""
    metrics = {}
    for field in fields:
        values = payload[field]
        if not isinstance(values, list) or not values:
            raise StoreError(f"field {field!r} is not a non-empty list")
        metrics[field] = tuple(float(v) for v in values)
    if len({len(v) for v in metrics.values()}) != 1:
        raise StoreError("per-repetition metric tuples have inconsistent lengths")
    return metrics


_SESSION_METRICS = ("rmse_no_forecast_mm", "rmse_foreco_mm", "late_fraction", "recovery_fraction")


def _encode_session(result: SessionResult) -> dict:
    """Kind-specific payload fields for a session record."""
    return {
        "n_commands": int(result.n_commands),
        **{metric: [float(v) for v in getattr(result, metric)] for metric in _SESSION_METRICS},
        "delays_ms": encode_delays(result.delays_ms),
    }


def _decode_session(spec: ScenarioSpec, key: str, payload: dict) -> SessionResult:
    """Rebuild a :class:`SessionResult` from a session record's payload."""
    return SessionResult(
        spec=spec,
        spec_hash=key,
        n_commands=int(payload["n_commands"]),
        delays_ms=decode_delays(payload.get("delays_ms")),
        **_metric_tuples(payload, _SESSION_METRICS),
    )


#: kind -> (encode(result) -> payload dict, decode(spec, key, payload) -> result).
_CODECS: dict[str, tuple] = {"session": (_encode_session, _decode_session)}


def register_store_codec(kind: str, encode, decode) -> None:
    """Register the shard codec for a result kind.

    ``encode(result)`` returns the kind-specific payload fields (the store
    adds the common envelope: format, epoch, spec hash, kind, name and
    canonical spec); ``decode(spec, key, payload)`` rebuilds the result
    object.  Specs and results advertise their kind through a ``store_kind``
    attribute (default ``"session"``).
    """
    _CODECS[str(kind)] = (encode, decode)


# -------------------------------------------------------------------- stats
@dataclass
class StoreStats:
    """Point-in-time store statistics (see :meth:`ResultStore.stats`).

    ``entries``/``total_bytes`` describe what is on disk for this store's
    epoch right now; the counters (``hits``, ``misses``, ``writes``,
    ``evictions``, ``corrupted``) describe what *this* :class:`ResultStore`
    instance observed since it was opened.
    """

    root: str
    epoch: int
    entries: int
    total_bytes: int
    hits: int
    misses: int
    writes: int
    evictions: int
    corrupted: int

    @property
    def hit_fraction(self) -> float:
        """Hits over lookups for this instance (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


# -------------------------------------------------------------------- store
class ResultStore:
    """Disk-backed, content-addressed cache of :class:`SessionResult` rows.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).  Different
        epochs coexist under one root.
    epoch:
        Engine/code epoch this store reads and writes (default: the current
        :data:`~repro.scenarios.engine.ENGINE_EPOCH`).  Entries written
        under other epochs are invisible — never hits, never evicted.
    max_entries / max_bytes:
        Optional LRU caps enforced after every write; ``None`` = unbounded.
        Recency is approximated by shard mtime (refreshed on every hit), so
        the cap is honest within a process and approximate across processes.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        epoch: int = ENGINE_EPOCH,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and int(max_entries) < 1:
            raise ConfigurationError("max_entries must be >= 1 (or None for unbounded)")
        if max_bytes is not None and int(max_bytes) < 1:
            raise ConfigurationError("max_bytes must be >= 1 (or None for unbounded)")
        self.root = Path(root).expanduser()
        self.epoch = int(epoch)
        self.max_entries = None if max_entries is None else int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._lock = threading.Lock()
        self._tmp_counter = itertools.count()
        self._clock = time.time()
        #: Approximate (entries, total_bytes) for O(1) cap checks; seeded by
        #: a scan on the first capped write, corrected by every eviction
        #: rescan, invalidated by evict()/clear().  Other processes' writes
        #: drift it, which the rescan at eviction time reconciles.
        self._tracked: tuple[int, int] | None = None
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._evictions = 0
        self._corrupted = 0

    # ------------------------------------------------------------- layout
    @property
    def epoch_dir(self) -> Path:
        """Directory holding this epoch's shards."""
        return self.root / f"epoch-{self.epoch}"

    def shard_path(self, key: str) -> Path:
        """Shard file for a spec hash (two-level fan-out keeps dirs small)."""
        return self.epoch_dir / key[:2] / f"{key}.json"

    def _shard_files(self) -> list[Path]:
        if not self.epoch_dir.is_dir():
            return []
        return [path for path in self.epoch_dir.glob("??/*.json") if path.is_file()]

    def _touch(self, path: Path) -> None:
        """Refresh a shard's mtime with a strictly increasing stamp.

        The strict monotone step keeps LRU ordering well-defined even when
        several touches land within the filesystem's timestamp resolution.
        """
        with self._lock:
            self._clock = max(self._clock + 1e-4, time.time())
            stamp = self._clock
        try:
            os.utime(path, (stamp, stamp))
        except OSError:  # pragma: no cover - raced with a concurrent evict
            pass

    # -------------------------------------------------------------- codec
    def _encode(self, key: str, result) -> dict:
        """Full shard record for a result: common envelope + codec payload."""
        kind = getattr(result, "store_kind", "session")
        try:
            encode, _ = _CODECS[kind]
        except KeyError as exc:
            raise ConfigurationError(f"no store codec registered for kind {kind!r}") from exc
        record = {
            "format": _RECORD_FORMAT,
            "epoch": self.epoch,
            "spec_hash": key,
            "kind": kind,
            "name": result.spec.name,
            "spec": result.spec.stored_canonical,
        }
        record.update(encode(result))
        return record

    def _decode(self, spec, key: str, payload: dict):
        """Rebuild a result from a shard record, validating the envelope."""
        if payload.get("format") not in _READABLE_FORMATS:
            raise StoreError(f"unknown record format {payload.get('format')!r}")
        if payload.get("epoch") != self.epoch:
            raise StoreError(f"epoch mismatch: {payload.get('epoch')!r} != {self.epoch}")
        if payload.get("spec_hash") != key:
            raise StoreError(f"content address mismatch: {payload.get('spec_hash')!r} != {key}")
        expected = getattr(spec, "store_kind", "session")
        kind = payload.get("kind", "session")
        if kind != expected:
            raise StoreError(f"record kind {kind!r} does not match the spec's {expected!r}")
        if payload.get("spec") != spec.stored_canonical:
            raise StoreError("stored canonical spec does not match the caller's spec")
        _, decode = _CODECS[expected]
        return decode(spec, key, payload)

    # ---------------------------------------------------------------- api
    def get(self, spec):
        """The stored result for ``spec``, or ``None`` on a miss.

        ``spec`` is any :class:`~repro.scenarios.spec.SpecIdentity` spec
        with a registered record kind (:class:`ScenarioSpec`,
        :class:`~repro.fleet.FleetSpec`, …).  The returned row is attached to
        the *caller's* spec object once the shard's stored canonical spec
        has been checked against the caller's
        :attr:`~repro.scenarios.spec.SpecIdentity.stored_canonical`.
        Corrupted shards, including one whose stored spec disagrees, count
        as misses and are deleted.
        """
        key = spec.spec_hash()
        path = self.shard_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            with self._lock:
                self._misses += 1
            return None
        try:
            result = self._decode(spec, key, json.loads(text))
        except (StoreError, ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            with self._lock:
                self._corrupted += 1
                self._misses += 1
            return None
        self._touch(path)
        with self._lock:
            self._hits += 1
        return result

    def put(self, spec, result) -> Path:
        """Persist a result under its spec's content address (atomic).

        ``spec``/``result`` may be any kind with a registered codec (session
        or fleet).  Re-putting an existing key overwrites it with identical
        bytes (equal specs produce equal results), so racing writers are
        harmless.  Returns the shard path.
        """
        key = spec.spec_hash()
        if result.spec_hash != key:
            raise ConfigurationError(
                f"result hash {result.spec_hash!r} does not match spec hash {key!r}"
            )
        record = self._encode(key, result)
        path = self.shard_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{key}.{os.getpid()}.{threading.get_ident()}.{next(self._tmp_counter)}.tmp"
        )
        data = json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        try:
            old_size = path.stat().st_size
        except OSError:
            old_size = 0
        try:
            tmp.write_text(data, encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self._touch(path)
        with self._lock:
            self._writes += 1
        if self.max_entries is not None or self.max_bytes is not None:
            self._account_put(path, old_size, len(data.encode("utf-8")))
        return path

    def __contains__(self, spec) -> bool:
        """Whether a shard exists for this spec (no validation, no touch)."""
        return self.shard_path(spec.spec_hash()).is_file()

    def evict(self, spec) -> bool:
        """Remove one entry; returns whether anything was removed."""
        path = self.shard_path(spec.spec_hash())
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        with self._lock:
            self._evictions += 1
            self._tracked = None  # reseeded on the next capped write
        return True

    def clear(self) -> int:
        """Remove every entry of this store's epoch; returns the count."""
        removed = 0
        for path in self._shard_files():
            path.unlink(missing_ok=True)
            removed += 1
        with self._lock:
            self._evictions += removed
            self._tracked = (0, 0)
        return removed

    def __len__(self) -> int:
        """Number of shards on disk for this store's epoch."""
        return len(self._shard_files())

    def stats(self) -> StoreStats:
        """Current on-disk footprint plus this instance's counters."""
        files = self._shard_files()
        total = 0
        for path in files:
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - raced with a concurrent evict
                continue
        with self._lock:
            return StoreStats(
                root=str(self.root),
                epoch=self.epoch,
                entries=len(files),
                total_bytes=total,
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                evictions=self._evictions,
                corrupted=self._corrupted,
            )

    # ------------------------------------------------------------ eviction
    def _account_put(self, keep: Path, old_size: int, new_size: int) -> None:
        """O(1) cap check after a write; full eviction scan only when over.

        Keeps an approximate (entries, bytes) tally so a capped store does
        not rescan the shard tree on every put — only the first capped write
        of this instance scans to seed the tally, and only an actually
        exceeded cap triggers the (accurate, rescanning) eviction pass.
        """
        with self._lock:
            tracked = self._tracked
        if tracked is None:
            entries, total = 0, 0
            for path in self._shard_files():
                try:
                    size = path.stat().st_size
                except OSError:  # pragma: no cover - raced with a concurrent evict
                    continue
                entries += 1
                total += size
        else:
            entries, total = tracked
            entries += 0 if old_size else 1
            total += new_size - old_size
        with self._lock:
            self._tracked = (entries, total)
        over_entries = self.max_entries is not None and entries > self.max_entries
        over_bytes = self.max_bytes is not None and total > self.max_bytes
        if over_entries or over_bytes:
            self._enforce_cap(keep)

    def _enforce_cap(self, keep: Path) -> None:
        """Drop least-recently-used shards until within the configured caps.

        ``keep`` (the shard just written) is never evicted, so a cap of N
        always admits the newest result.  The scan's outcome reseeds the
        approximate tally used by :meth:`_account_put`.
        """
        entries = []
        total = 0
        for path in self._shard_files():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with a concurrent evict
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda item: item[0])
        evicted = 0
        for mtime, size, path in entries:
            over_entries = self.max_entries is not None and len(entries) - evicted > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not over_entries and not over_bytes:
                break
            if path == keep:
                continue
            path.unlink(missing_ok=True)
            evicted += 1
            total -= size
        with self._lock:
            self._tracked = (len(entries) - evicted, total)
            if evicted:
                self._evictions += evicted
