"""Durable content-addressed result store shared across runs and workers.

The store maps a config hash (:func:`repro.api.engine.config_hash`, which
folds the package version into the digest, so results computed by an older
release can never be served by a newer one) to one JSON file on disk::

    <root>/<digest>.json

Each file is an envelope carrying provenance metadata next to the
serialized :class:`~repro.api.results.ExperimentResult`::

    {"store_format": 1,
     "meta": {"config_hash": ..., "experiment": ..., "version": ...,
              "created_unix": ..., "duration_seconds": ...},
     "result": {... ExperimentResult.to_dict() ...}}

Writes are atomic (unique temp file + ``os.replace``), so concurrent
writers -- multiple daemons, batch-engine worker pools, parallel CI jobs --
can share one store without torn reads: a reader either sees a complete
entry or none at all.  Unreadable, truncated or foreign files are treated
as absent rather than fatal.

The default location is ``~/.cache/repro`` (see :func:`default_store_dir`),
overridable with the ``REPRO_STORE_DIR`` environment variable; the CLI's
``--store-dir`` flag and the service daemon both default to it.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from ..api.results import ExperimentResult, ResultEncoder

__all__ = ["ResultStore", "StoreError", "default_store_dir"]

#: Format tag written into every envelope (bump on incompatible layout).
STORE_FORMAT = 1

_SUFFIX = ".json"

#: Process-wide counter making concurrent temp-file names unique even when
#: two threads of one process write the same digest at the same time.
_tmp_counter = itertools.count()
_tmp_lock = threading.Lock()


class StoreError(RuntimeError):
    """A result-store operation failed (unwritable root, bad digest...)."""


def default_store_dir() -> str:
    """The durable store location used when none is given explicitly.

    Resolution order: ``$REPRO_STORE_DIR``, ``$XDG_CACHE_HOME/repro``,
    ``~/.cache/repro``.
    """
    explicit = os.environ.get("REPRO_STORE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _check_digest(digest: str) -> str:
    if not digest or not all(c in "0123456789abcdef" for c in digest):
        raise StoreError(f"invalid config hash {digest!r}")
    return digest


class ResultStore:
    """Content-addressed, restart-durable experiment-result store.

    One instance wraps one directory; any number of instances (in any
    number of processes) may share that directory.  ``hits``/``misses``
    count this instance's lookups, so a long-running service can report its
    cache hit rate; the on-disk state is shared, the counters are not.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_store_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create result store at {self.root}: {exc}") from None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[ExperimentResult]:
        """The stored result for ``digest``, or None (never raises on torn
        or foreign files -- they read as absent)."""
        envelope = self._read(digest)
        if envelope is None:
            self.misses += 1
            return None
        self.hits += 1
        return ExperimentResult.from_dict(envelope["result"])

    def entry_meta(self, digest: str) -> Optional[Dict[str, Any]]:
        """The provenance metadata stored next to ``digest``'s result."""
        envelope = self._read(digest)
        if envelope is None:
            return None
        return dict(envelope["meta"])

    def __contains__(self, digest: str) -> bool:
        # A single _read answers both "does the file exist" (OSError reads
        # as None) and "is it a complete entry" -- no extra stat() probe.
        return self._read(digest) is not None

    def keys(self) -> List[str]:
        """Every digest with a readable entry, sorted."""
        digests = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in sorted(names):
            if name.endswith(_SUFFIX) and not name.startswith("."):
                digest = name[: -len(_SUFFIX)]
                if self._read(digest) is not None:
                    digests.append(digest)
        return digests

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    # ------------------------------------------------------------------
    # Write / delete
    # ------------------------------------------------------------------
    def put(
        self,
        digest: str,
        result: ExperimentResult,
        *,
        duration_seconds: float = 0.0,
    ) -> str:
        """Durably store ``result`` under ``digest``; returns the file path.

        The write is atomic: the envelope lands in a unique temp file in the
        same directory and is renamed over the final name, so a concurrent
        reader never observes a partial entry and the last writer wins.
        """
        from .. import __version__

        path = self._path(digest)
        envelope = {
            "store_format": STORE_FORMAT,
            "meta": {
                "config_hash": digest,
                "experiment": result.experiment,
                "version": __version__,
                "created_unix": round(time.time(), 3),
                "duration_seconds": round(duration_seconds, 6),
            },
            "result": result.to_dict(),
        }
        with _tmp_lock:
            serial = next(_tmp_counter)
        tmp_path = os.path.join(
            self.root, f".{digest}.tmp.{os.getpid()}.{serial}{_SUFFIX}"
        )
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, indent=2, cls=ResultEncoder)
                handle.write("\n")
            os.replace(tmp_path, path)
        except OSError as exc:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise StoreError(f"cannot write store entry {digest}: {exc}") from None
        self.writes += 1
        return path

    def discard(self, digest: str) -> bool:
        """Remove one entry; True when a file was deleted."""
        try:
            os.unlink(self._path(digest))
            return True
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise StoreError(f"cannot remove store entry {digest}: {exc}") from None

    def clear(self, *, experiment: Optional[str] = None) -> int:
        """Delete entries (all, or only one experiment's); returns the count.

        Unreadable files count as belonging to every experiment, so a full
        ``clear()`` always leaves an empty directory.
        """
        removed = 0
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return 0
        for name in names:
            if not name.endswith(_SUFFIX) or name.startswith("."):
                continue
            digest = name[: -len(_SUFFIX)]
            if experiment is not None:
                envelope = self._read(digest)
                if envelope is not None and envelope["result"].get("experiment") != experiment:
                    continue
            if self.discard(digest):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Store-wide statistics plus this instance's lookup counters.

        One pass over the directory: each entry is read and parsed exactly
        once (``keys()`` would already cost a full ``_read`` per file, so
        going through it would parse everything twice).
        """
        entries = 0
        total_bytes = 0
        by_experiment: Dict[str, int] = {}
        compute_seconds = 0.0
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            names = []
        for filename in names:
            if not filename.endswith(_SUFFIX) or filename.startswith("."):
                continue
            digest = filename[: -len(_SUFFIX)]
            envelope = self._read(digest)
            if envelope is None:
                continue
            entries += 1
            try:
                total_bytes += os.path.getsize(self._path(digest))
            except OSError:
                pass
            experiment = str(envelope["result"].get("experiment", "?"))
            by_experiment[experiment] = by_experiment.get(experiment, 0) + 1
            compute_seconds += float(envelope["meta"].get("duration_seconds", 0.0) or 0.0)
        lookups = self.hits + self.misses
        return {
            "root": self.root,
            "entries": entries,
            "total_bytes": total_bytes,
            "by_experiment": dict(sorted(by_experiment.items())),
            "saved_compute_seconds": round(compute_seconds, 3),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / lookups, 4) if lookups else None,
        }

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{_check_digest(digest)}{_SUFFIX}")

    def _read(self, digest: str) -> Optional[Dict[str, Any]]:
        """The parsed envelope for ``digest``, or None for anything else."""
        path = self._path(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if "store_format" in data and "result" in data:
            meta = data.get("meta")
            return {
                "meta": meta if isinstance(meta, dict) else {},
                "result": data["result"] if isinstance(data["result"], dict) else {},
            }
        return None
