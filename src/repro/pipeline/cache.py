"""Content-addressed artifact cache: in-memory LRU + optional npz spill.

The cache is keyed purely by stage fingerprint — a hash of the problem
fingerprint, every upstream stage fingerprint, and the stage's config
slice — so a lookup either misses or returns an artifact that is
interchangeable with what the stage would have computed.  Sharing one
cache across solvers, threads, or service jobs therefore never changes
results; it only skips recomputation.  It is thread-safe: all
bookkeeping happens under an internal lock, and artifacts are immutable
values.

With a ``spill_dir`` the cache additionally persists every stored
artifact as ``<fingerprint>.npz`` (arrays + a JSON meta record) and
falls back to disk on a memory miss — restarts, sibling processes
(``engine.map`` workers), and later CLI invocations pick artifacts up by
content address.  Telemetry: ``pipeline.cache.hits`` / ``.misses`` /
``.evictions`` / ``.spill_hits`` / ``.spill_writes`` (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro import telemetry
from repro.pipeline.artifacts import Artifact, artifact_from_payload

_UNSET = object()


class ArtifactCache:
    """Thread-safe LRU of pipeline artifacts, optionally spilling to disk.

    Args:
        max_entries: in-memory LRU capacity.
        spill_dir: directory for ``<fingerprint>.npz`` persistence;
            created on first write.  ``None`` keeps the cache memory-only.
    """

    def __init__(
        self, max_entries: int = 128, spill_dir: Optional[str] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.spill_dir = spill_dir
        self._entries: "OrderedDict[str, Artifact]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.spill_hits = 0
        self.spill_writes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Artifact]:
        """The cached artifact for ``fingerprint``, or ``None`` on miss.

        Checks the in-memory LRU first, then the spill directory; a
        spill hit is promoted back into memory.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
                telemetry.add("pipeline.cache.hits")
                return entry
            entry = self._load_spilled(fingerprint)
            if entry is not None:
                self.hits += 1
                self.spill_hits += 1
                telemetry.add("pipeline.cache.hits")
                telemetry.add("pipeline.cache.spill_hits")
                self._insert(fingerprint, entry)
                return entry
            self.misses += 1
            telemetry.add("pipeline.cache.misses")
            return None

    def put(self, artifact: Artifact) -> None:
        """Store ``artifact`` under its own fingerprint (and spill it)."""
        with self._lock:
            self._insert(artifact.fingerprint, artifact)
            self._spill(artifact)

    def _insert(self, fingerprint: str, artifact: Artifact) -> None:
        self._entries[fingerprint] = artifact
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            telemetry.add("pipeline.cache.evictions")

    # ------------------------------------------------------------------
    # Spill
    # ------------------------------------------------------------------
    def _spill_path(self, fingerprint: str) -> Optional[str]:
        if self.spill_dir is None:
            return None
        return os.path.join(self.spill_dir, f"{fingerprint}.npz")

    def _spill(self, artifact: Artifact) -> None:
        path = self._spill_path(artifact.fingerprint)
        if path is None or os.path.exists(path):
            return
        meta, arrays = artifact.to_payload()
        os.makedirs(self.spill_dir, exist_ok=True)
        # Write-temp + rename so a concurrent reader never sees a torn
        # file (same discipline as the service store's compaction).
        fd, tmp = tempfile.mkstemp(
            dir=self.spill_dir, suffix=".tmp", prefix="artifact-"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    __meta__=np.frombuffer(
                        json.dumps(meta, sort_keys=True).encode("utf-8"),
                        dtype=np.uint8,
                    ),
                    **arrays,
                )
            os.replace(tmp, path)
        except OSError:
            telemetry.add("pipeline.cache.spill_errors")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.spill_writes += 1
        telemetry.add("pipeline.cache.spill_writes")

    def _load_spilled(self, fingerprint: str) -> Optional[Artifact]:
        path = self._spill_path(fingerprint)
        if path is None or not os.path.exists(path):
            return None
        try:
            with np.load(path) as payload:
                meta = json.loads(bytes(payload["__meta__"]).decode("utf-8"))
                arrays = {
                    name: payload[name]
                    for name in payload.files
                    if name != "__meta__"
                }
        except (
            OSError,
            ValueError,
            KeyError,
            json.JSONDecodeError,
            zipfile.BadZipFile,
        ):
            # A torn or foreign file is a miss, never a crash.
            telemetry.add("pipeline.cache.spill_errors")
            return None
        return artifact_from_payload(fingerprint, meta, arrays)

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Counter snapshot (the ``inspect`` CLI's ``cache`` block)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "spill_hits": self.spill_hits,
                "spill_writes": self.spill_writes,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # Unpicklable lock + shared entries stay process-local; a worker that
    # unpickles a pipeline rebuilds against its own (default) cache.
    def __getstate__(self):
        raise TypeError("ArtifactCache is process-local and not picklable")


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------
_default_cache = ArtifactCache()
_default_lock = threading.Lock()


def get_default_cache() -> ArtifactCache:
    """The process-wide artifact cache used when none is given."""
    return _default_cache


def configure_cache(
    cache=_UNSET, *, max_entries=_UNSET, spill_dir=_UNSET
) -> ArtifactCache:
    """Replace the process-wide default cache; returns the previous one.

    Either pass a ready-made ``cache``, or ``max_entries``/``spill_dir``
    to build a fresh one.  The solve service installs a larger cache for
    its lifetime and restores the previous default on close.
    """
    global _default_cache
    with _default_lock:
        previous = _default_cache
        if cache is not _UNSET and cache is not None:
            _default_cache = cache
        else:
            _default_cache = ArtifactCache(
                max_entries=(
                    previous.max_entries if max_entries is _UNSET else max_entries
                ),
                spill_dir=None if spill_dir is _UNSET else spill_dir,
            )
        return previous
