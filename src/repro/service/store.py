"""Durable content-addressed result store shared across runs and workers.

The store maps a config hash (:func:`repro.api.engine.config_hash`, which
folds the package version into the digest, so results computed by an older
release can never be served by a newer one) to one row of one SQLite
database per store directory::

    <root>/results.sqlite3    table entries (digest TEXT PRIMARY KEY, envelope TEXT)

Each row's envelope is one line of compact JSON carrying provenance
metadata next to the serialized
:class:`~repro.api.results.ExperimentResult`::

    {"store_format": 1,
     "meta": {"config_hash": ..., "experiment": ..., "version": ...,
              "created_unix": ..., "duration_seconds": ...},
     "result": {... ExperimentResult.to_dict() ...}}

Concurrency: the database runs in SQLite's write-ahead-log (WAL) mode, so
any number of daemons, batch engines and campaigns, in any number of
processes and threads, can share one directory.  Writers take turns (one
at a time; a writer waits for another process's write lock) and readers
never wait for them.  A :meth:`ResultStore.put` is one autocommitted
``INSERT OR REPLACE``: a reader sees the complete entry or none, and the
last writer wins.  Unreadable, malformed or foreign rows read as absent,
and the next ``put`` of their digest overwrites them.

Durability: a committed entry survives a killed process.  As with the
one-file-per-entry layout of earlier releases there is no fsync per write
(``synchronous=NORMAL``), so an operating-system crash or power loss may
lose the latest entries, but it leaves the database consistent.  Keep the
store directory on a local filesystem: SQLite's locks and the WAL's
shared-memory index are not reliable over network filesystems.

Earlier releases kept one ``<digest>.json`` file per entry in the same
directory.  The store ignores those files and they can be deleted: their
digests embed an older package version, so they were never served.

The default location is ``~/.cache/repro`` (see :func:`default_store_dir`),
overridable with the ``REPRO_STORE_DIR`` environment variable; the CLI's
``--store-dir`` option (``serve``, ``cache``, ``campaign``) and
:class:`~repro.campaign.Campaign` default to it.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..api.results import ExperimentResult, ResultEncoder

# ``sqlite3`` is imported where a store opens or queries its database, not
# here: ``import repro`` must not load it, since simulations never open a
# store.

__all__ = ["ResultStore", "StoreError", "default_store_dir"]

#: Format tag written into every envelope (bump on incompatible layout).
STORE_FORMAT = 1

#: The database file of a store directory.
DB_FILE = "results.sqlite3"

#: Page cache of a store's connection, in KiB (SQLite's default is 2 MiB).
_CACHE_KIB = 64

#: How long a write waits for another process's write lock, in seconds.
_BUSY_TIMEOUT_S = 60.0

_SCHEMA = "CREATE TABLE IF NOT EXISTS entries (digest TEXT PRIMARY KEY, envelope TEXT NOT NULL)"


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


def _is_digest(digest: Any) -> bool:
    return isinstance(digest, str) and bool(digest) and all(
        c in "0123456789abcdef" for c in digest
    )


def _check_digest(digest: str) -> str:
    if not _is_digest(digest):
        raise StoreError(f"invalid config hash {digest!r}")
    return digest


class ResultStore:
    """Content-addressed, restart-durable experiment-result store.

    One instance wraps one directory through one database connection,
    which the instance's threads share; any number of instances (in any
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
        self._db_path = os.path.join(self.root, DB_FILE)
        self._lock = threading.Lock()
        self._db = self._open()
        # The connection object sits in a reference cycle of its own, so
        # without this it would stay open until a garbage collection.
        weakref.finalize(self, self._db.close)

    def _open(self):
        import sqlite3

        try:
            # Autocommit: every statement is its own transaction.
            db = sqlite3.connect(
                self._db_path,
                timeout=_BUSY_TIMEOUT_S,
                isolation_level=None,
                check_same_thread=False,
            )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open result store {self._db_path}: {exc}") from None
        try:
            db.execute(f"PRAGMA cache_size = -{_CACHE_KIB}")
            db.execute("PRAGMA synchronous = NORMAL")
            # While another process creates the same database, switching to
            # WAL can fail at once instead of waiting for its lock.
            deadline = time.monotonic() + _BUSY_TIMEOUT_S
            while True:
                try:
                    db.execute("PRAGMA journal_mode = WAL")
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            db.execute(_SCHEMA)
        except sqlite3.Error as exc:
            db.close()
            raise StoreError(f"cannot open result store {self._db_path}: {exc}") from None
        return db

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[ExperimentResult]:
        """The stored result for ``digest``, or None (never raises on a
        malformed or foreign entry -- it reads as absent)."""
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
        # One _read answers both "is there a row" and "is it a complete entry".
        return self._read(digest) is not None

    def _entries(self) -> Iterator[Tuple[str, Dict[str, Any], int]]:
        """``(digest, envelope, bytes)`` of every readable entry, sorted by
        digest; one query for all of them and one parse each."""
        rows, _ = self._execute("SELECT digest, envelope FROM entries ORDER BY digest")
        for digest, text in rows:
            envelope = self._parse(text) if _is_digest(digest) else None
            if envelope is not None:
                yield digest, envelope, len(text)

    def keys(self) -> List[str]:
        """Every digest with a readable entry, sorted."""
        return [digest for digest, _, _ in self._entries()]

    def items(self) -> List[Tuple[str, ExperimentResult]]:
        """Every readable entry as ``(digest, result)``, sorted by digest."""
        return [
            (digest, ExperimentResult.from_dict(envelope["result"]))
            for digest, envelope, _ in self._entries()
        ]

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
        """Durably store ``result`` under ``digest``; returns the database path.

        The write is one autocommitted statement, so a concurrent reader
        never observes a partial entry and the last writer wins.
        """
        from .. import __version__

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
        # json.dumps reaches the C encoder (json.dump never does).
        text = json.dumps(envelope, separators=(",", ":"), cls=ResultEncoder)
        self._execute(
            "INSERT OR REPLACE INTO entries (digest, envelope) VALUES (?, ?)",
            (_check_digest(digest), text),
        )
        self.writes += 1
        return self._db_path

    def discard(self, digest: str) -> bool:
        """Remove one entry; True when a row was deleted."""
        _, removed = self._execute(
            "DELETE FROM entries WHERE digest = ?", (_check_digest(digest),)
        )
        return removed > 0

    def clear(self, *, experiment: Optional[str] = None) -> int:
        """Delete entries (all, or only one experiment's); returns the count.

        Unreadable rows count as belonging to every experiment, so a full
        ``clear()`` always leaves an empty table.
        """
        if experiment is None:
            return self._execute("DELETE FROM entries")[1]
        rows, _ = self._execute("SELECT digest, envelope FROM entries ORDER BY digest")
        removed = 0
        for digest, text in rows:
            envelope = self._parse(text)
            if envelope is not None and envelope["result"].get("experiment") != experiment:
                continue
            removed += self._execute("DELETE FROM entries WHERE digest = ?", (digest,))[1]
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Store-wide statistics plus this instance's lookup counters.

        One pass over the table: each entry is parsed exactly once.
        ``total_bytes`` counts the readable entries' JSON.
        """
        entries = 0
        total_bytes = 0
        by_experiment: Dict[str, int] = {}
        compute_seconds = 0.0
        for _, envelope, size in self._entries():
            entries += 1
            total_bytes += size
            experiment = str(envelope["result"].get("experiment", "?"))
            by_experiment[experiment] = by_experiment.get(experiment, 0) + 1
            duration = envelope["meta"].get("duration_seconds")
            if isinstance(duration, (int, float)):
                compute_seconds += duration
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
    def _execute(self, sql: str, args: Sequence[Any] = ()) -> Tuple[List[tuple], int]:
        """Run one autocommitted statement: its rows and its row count."""
        import sqlite3

        with self._lock:
            try:
                cursor = self._db.execute(sql, args)
                return cursor.fetchall(), cursor.rowcount
            except sqlite3.Error as exc:
                raise StoreError(f"result store {self._db_path} failed: {exc}") from None

    def _read(self, digest: str) -> Optional[Dict[str, Any]]:
        """The parsed envelope for ``digest``, or None for anything else."""
        rows, _ = self._execute(
            "SELECT envelope FROM entries WHERE digest = ?", (_check_digest(digest),)
        )
        return self._parse(rows[0][0]) if rows else None

    @staticmethod
    def _parse(text: Any) -> Optional[Dict[str, Any]]:
        """The envelope a row's JSON holds, or None for anything else.

        An envelope whose result fails :meth:`ExperimentResult.is_dict_form`
        is "anything else" too, so that every read surface agrees the entry
        is absent and the next :meth:`put` overwrites it.
        """
        try:
            data = json.loads(text)
        except (TypeError, ValueError):
            return None
        if not isinstance(data, dict) or "store_format" not in data:
            return None
        result = data.get("result")
        if not ExperimentResult.is_dict_form(result):
            return None
        meta = data.get("meta")
        return {"meta": meta if isinstance(meta, dict) else {}, "result": result}
