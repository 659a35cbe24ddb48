"""Tests of the durable content-addressed result store (repro.service.store).

Covers the service-era cache guarantees: atomic concurrent writes (no torn
reads, not even from a killed writer), restart durability, foreign and
corrupt rows reading as absent, eviction, and the version-aware cache keys
the store shares with the batch engine.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import itertools
import json
import multiprocessing
import os
import re
import signal
import sqlite3
import sys
import time
from contextlib import closing

import pytest

import repro
from repro.api import BatchEngine, BatchJob, ExperimentResult, config_hash
from repro.service import ResultStore, StoreError, default_store_dir
from repro.service.store import DB_FILE

DIGEST = "ab12cd34ef56ab78"


def make_result(experiment: str = "table1", rows: int = 3) -> ExperimentResult:
    return ExperimentResult(
        experiment=experiment,
        payload=[{"row": i, "value": i * 10} for i in range(rows)],
        params={"rows": rows},
        paper_reference="Test",
        description="synthetic store payload",
    )


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.put(DIGEST, make_result(), duration_seconds=1.25)
        assert os.path.exists(path)
        loaded = store.get(DIGEST)
        assert loaded is not None
        assert loaded.experiment == "table1"
        assert loaded.rows() == make_result().rows()
        assert loaded.from_cache

    def test_meta_records_version_and_duration(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result(), duration_seconds=2.5)
        meta = store.entry_meta(DIGEST)
        assert meta is not None
        assert meta["version"] == repro.__version__
        assert meta["duration_seconds"] == 2.5
        assert meta["config_hash"] == DIGEST
        assert meta["experiment"] == "table1"

    def test_missing_entry_reads_as_none(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get("0123456789abcdef") is None
        assert store.misses == 1 and store.hits == 0

    def test_lookup_counters(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result())
        store.get(DIGEST)
        store.get("0123456789abcdef")
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_contains_len_keys(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert DIGEST not in store
        store.put(DIGEST, make_result())
        assert DIGEST in store
        assert len(store) == 1
        assert store.keys() == [DIGEST]

    def test_invalid_digest_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(StoreError, match="invalid config hash"):
            store.put("../escape", make_result())
        with pytest.raises(StoreError):
            store.get("UPPER")

    def test_corrupt_rows_read_as_absent(self, tmp_path, store_rows):
        store = ResultStore(str(tmp_path))
        store_rows.plant(tmp_path, "deadbeefdeadbeef", "{ torn wri")
        store_rows.plant(tmp_path, "feedfacefeedface", '["not", "a", "dict"]')
        # A bare to_dict() without the store envelope is a foreign row too,
        # and so are a non-text value and a key that is no config hash.
        store_rows.plant(tmp_path, DIGEST, json.dumps(make_result().to_dict()))
        store_rows.plant(tmp_path, "0123456789abcdef", 42)
        store.put("cccccccccccccccc", make_result())
        valid = store_rows.text(tmp_path, "cccccccccccccccc")
        assert store.discard("cccccccccccccccc")
        store_rows.plant(tmp_path, "NOT-A-HASH", valid)
        assert store.get("deadbeefdeadbeef") is None
        assert store.get("feedfacefeedface") is None
        assert store.get(DIGEST) is None
        assert store.get("0123456789abcdef") is None
        assert store.keys() == [] and store.items() == []
        assert store.stats()["entries"] == 0
        # clear() still removes the unreadable rows.
        assert store.clear() == 5
        assert store_rows.count(tmp_path) == 0


class TestDurabilityAndEviction:
    def test_survives_restart(self, tmp_path):
        ResultStore(str(tmp_path)).put(DIGEST, make_result(), duration_seconds=9.0)
        reopened = ResultStore(str(tmp_path))
        assert reopened.get(DIGEST) is not None
        assert reopened.entry_meta(DIGEST)["duration_seconds"] == 9.0

    def test_discard(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result())
        assert store.discard(DIGEST) is True
        assert store.discard(DIGEST) is False
        assert store.get(DIGEST) is None

    def test_clear_all_and_by_experiment(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("aaaaaaaaaaaaaaaa", make_result("table1"))
        store.put("bbbbbbbbbbbbbbbb", make_result("table2"))
        store.put("cccccccccccccccc", make_result("table2"))
        assert store.clear(experiment="table2") == 2
        assert store.keys() == ["aaaaaaaaaaaaaaaa"]
        assert store.clear() == 1
        assert len(store) == 0

    def test_put_overwrites_last_writer_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result(rows=1))
        store.put(DIGEST, make_result(rows=5))
        assert len(store.get(DIGEST).rows()) == 5
        assert len(store) == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        # The directory holds the database (and its WAL files), not one
        # file per entry.
        store = ResultStore(str(tmp_path))
        for digest in ("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"):
            store.put(digest, make_result())
        names = {p.name for p in tmp_path.iterdir()}
        assert DB_FILE in names
        assert names <= {DB_FILE, f"{DB_FILE}-wal", f"{DB_FILE}-shm"}

    def test_stats_shape(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("aaaaaaaaaaaaaaaa", make_result("table1"), duration_seconds=1.0)
        store.put("bbbbbbbbbbbbbbbb", make_result("table2"), duration_seconds=2.0)
        stats = store.stats()
        assert stats["root"] == str(tmp_path)
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["by_experiment"] == {"table1": 1, "table2": 1}
        assert stats["saved_compute_seconds"] == 3.0


class TestEntryLayout:
    """An entry is one row of compact JSON in the directory's database; the
    one-file-per-entry JSON of earlier releases is ignored."""

    def test_entry_is_one_line_of_compact_json(self, tmp_path, store_rows):
        store = ResultStore(str(tmp_path))
        assert store.put(DIGEST, make_result()) == str(tmp_path / DB_FILE)
        text = store_rows.text(tmp_path, DIGEST)
        assert "\n" not in text
        envelope = json.loads(text)
        assert text == json.dumps(envelope, separators=(",", ":"))
        assert envelope["store_format"] == 1

    def test_json_files_of_earlier_releases_are_ignored(self, tmp_path):
        job = BatchJob("table1")
        digest = config_hash(job)
        envelope = {
            "store_format": 1,
            "meta": {
                "config_hash": digest,
                "experiment": "table1",
                "version": repro.__version__,
                "created_unix": 1700000000.0,
                "duration_seconds": 0.75,
            },
            # Synthetic rows: a recomputed table1 would not carry them.
            "result": make_result("table1").to_dict(),
        }
        legacy = tmp_path / f"{digest}.json"
        with open(legacy, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, indent=2)
            handle.write("\n")

        store = ResultStore(str(tmp_path))
        assert store.get(digest) is None
        assert store.entry_meta(digest) is None
        assert store.keys() == []
        assert store.stats()["entries"] == 0
        [outcome] = BatchEngine(store=store).run_many([job])
        assert not outcome.cached
        assert store.get(digest).rows() == outcome.result.rows()
        # The store neither reads nor removes the old file.
        assert store.clear() == 1
        assert legacy.exists()


class TestMalformedEntries:
    """A parseable envelope whose result cannot be rebuilt reads as absent
    on every surface, so one bad entry neither crashes a batch nor
    outlives the next write of its design point."""

    @pytest.mark.parametrize(
        "field,value",
        [("rows", [1]), ("rows", "xyz"), ("rows", None), ("params", [1])],
        ids=["rows-of-ints", "rows-string", "rows-null", "params-list"],
    )
    def test_reads_as_absent_and_is_recomputed(self, tmp_path, store_rows, field, value):
        job, sibling = BatchJob("table1"), BatchJob("area")
        digest = config_hash(job)
        store = ResultStore(str(tmp_path))
        store.put(digest, make_result("table1"))
        store_rows.edit(tmp_path, digest, "result", field, value)

        assert store.get(digest) is None
        assert digest not in store
        assert store.entry_meta(digest) is None
        assert store.keys() == []
        assert store.stats()["entries"] == 0
        outcomes = BatchEngine(store=store).run_many([job, sibling])
        assert [(o.ok, o.cached) for o in outcomes] == [(True, False), (True, False)]
        assert store.get(digest).rows() == outcomes[0].result.rows()

    def test_non_numeric_duration_does_not_break_stats(self, tmp_path, store_rows):
        store = ResultStore(str(tmp_path))
        store.put("0123456789abcdef", make_result(), duration_seconds=1.5)
        store.put(DIGEST, make_result())
        store_rows.edit(tmp_path, DIGEST, "meta", "duration_seconds", "abc")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["saved_compute_seconds"] == 1.5


def _hammer_writes(root: str, digest: str, rows: int, count: int) -> None:
    """Child-process body: repeatedly overwrite one entry."""
    from repro.api import ExperimentResult
    from repro.service import ResultStore

    store = ResultStore(root)
    payload = [{"row": i, "value": i} for i in range(rows)]
    for _ in range(count):
        store.put(digest, ExperimentResult(experiment="stress", payload=payload))


class TestConcurrentWriters:
    def test_parallel_writers_never_tear(self, tmp_path):
        """Readers racing multiple writer processes see complete entries only."""
        root = str(tmp_path)
        rows = 50
        writers = [
            multiprocessing.Process(target=_hammer_writes, args=(root, DIGEST, rows, 30))
            for _ in range(3)
        ]
        for proc in writers:
            proc.start()
        reader = ResultStore(root)
        observed = 0
        try:
            while any(proc.is_alive() for proc in writers):
                result = reader.get(DIGEST)
                if result is not None:
                    observed += 1
                    # An entry is either absent or complete -- never torn.
                    assert len(result.rows()) == rows
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        assert observed > 0
        assert len(reader.get(DIGEST).rows()) == rows

    def test_threads_share_one_store(self, tmp_path):
        """A store's threads share its one connection: more threads than
        cores, switching as often as the interpreter allows, keep every
        entry whole and lose none."""
        store = ResultStore(str(tmp_path))

        def work(thread: int) -> None:
            for i in range(25):
                digest = f"{thread:08x}{i:08x}"
                store.put(digest, make_result(rows=thread % 5 + 1))
                assert len(store.get(digest).rows()) == thread % 5 + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(work, thread) for thread in range(8)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(store) == 200


def _open_and_put(root: str, start) -> None:
    """Child-process body: open the store when released, write one entry."""
    from repro.service import ResultStore

    while not start.is_set():  # spin: a blocking wait wakes the openers apart
        pass
    ResultStore(root).put(f"{os.getpid():016x}", make_result())


class TestConcurrentCreation:
    def test_processes_creating_one_store_at_once(self, tmp_path):
        """Processes that create one store's database at the same moment
        all open it (switching a new database to WAL can collide)."""
        for round_ in range(16):
            root = str(tmp_path / str(round_))
            start = multiprocessing.Event()
            openers = [
                multiprocessing.Process(target=_open_and_put, args=(root, start))
                for _ in range(4)
            ]
            for proc in openers:
                proc.start()
            try:
                time.sleep(0.05)
                start.set()
                parent = ResultStore(root)
                for proc in openers:
                    proc.join(timeout=120)
            finally:
                start.set()
                for proc in openers:
                    if proc.is_alive():
                        proc.kill()
            assert [proc.exitcode for proc in openers] == [0] * 4
            assert len(parent) == 4


def _write_until_killed(root: str) -> None:
    """Child-process body: put numbered entries, one after another, forever."""
    from repro.api import ExperimentResult
    from repro.service import ResultStore

    store = ResultStore(root)
    for serial in itertools.count():
        payload = [{"row": i, "value": serial} for i in range(50)]
        store.put(f"{serial:016x}", ExperimentResult(experiment="stress", payload=payload))


class TestKilledWriter:
    def test_entries_stay_complete_and_the_lock_is_released(self, tmp_path):
        """SIGKILL a writer in the middle of its loop of puts: every entry
        the reopened store lists is complete, and nothing holds the lock."""
        root = str(tmp_path)
        writer = multiprocessing.Process(target=_write_until_killed, args=(root,))
        writer.start()
        try:
            reader = ResultStore(root)
            deadline = time.monotonic() + 60
            while len(reader) < 20:
                assert writer.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            writer.kill()
            writer.join(timeout=60)
        assert writer.exitcode == -signal.SIGKILL

        store = ResultStore(root)
        keys = store.keys()
        assert len(keys) >= 20
        for digest in keys:
            rows = store.get(digest).rows()
            assert len(rows) == 50
            assert {row["value"] for row in rows} == {int(digest, 16)}
        # A writer that does not wait at all still gets the write lock.
        with closing(sqlite3.connect(os.path.join(root, DB_FILE), timeout=0)) as probe:
            probe.execute("BEGIN IMMEDIATE")
            probe.execute("ROLLBACK")
        store.put(DIGEST, make_result())
        assert store.get(DIGEST).rows() == make_result().rows()


class TestUnopenableDatabase:
    def test_a_database_file_that_is_not_sqlite_is_a_store_error(self, tmp_path):
        db_path = tmp_path / DB_FILE
        db_path.write_text("not a database\n" * 64)
        with pytest.raises(StoreError, match=re.escape(f"cannot open result store {db_path}")):
            ResultStore(str(tmp_path))


class TestDefaultLocation:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "explicit"))
        assert default_store_dir() == str(tmp_path / "explicit")

    def test_xdg_cache_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_store_dir() == os.path.join(str(tmp_path / "xdg"), "repro")

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_store_dir().endswith(os.path.join(".cache", "repro"))

    def test_store_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "via-env"))
        assert ResultStore().root == str(tmp_path / "via-env")


class TestEngineIntegration:
    def test_engine_writes_store_envelopes(self, tmp_path, store_rows):
        engine = BatchEngine(store=ResultStore(str(tmp_path)))
        result = engine.run(BatchJob("table1"))
        # The engine writes store envelopes, keyed by config hash.
        envelope = json.loads(store_rows.text(tmp_path, result.config_hash))
        assert envelope["store_format"] == 1
        assert envelope["meta"]["experiment"] == "table1"

    def test_engine_accepts_a_shared_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = BatchEngine(store=store).run(BatchJob("table1"))
        assert not first.cached
        second = BatchEngine(store=store).run(BatchJob("table1"))
        assert second.cached

    def test_every_batch_reads_the_store(self, tmp_path):
        # The store is the engine's only cache: a hit is not kept in memory.
        store = ResultStore(str(tmp_path))
        engine = BatchEngine(store=store)
        engine.run(BatchJob("table1"))
        for hits in (1, 2):
            assert engine.run(BatchJob("table1")).cached
            assert (store.hits, store.writes) == (hits, 1)

    def test_duplicate_jobs_read_the_store_once(self, tmp_path):
        store = ResultStore(str(tmp_path))
        outcomes = BatchEngine(store=store).run_many([BatchJob("table1")] * 3)
        assert (store.misses, store.hits, store.writes) == (1, 0, 1)
        assert [o.cached for o in outcomes] == [False, True, True]

    def test_a_store_is_the_only_cache_knob(self):
        # An engine gets its cache one way: a ResultStore (or none).
        assert list(inspect.signature(BatchEngine).parameters) == ["jobs", "store"]

    def test_store_entries_carry_compute_duration(self, tmp_path):
        engine = BatchEngine(store=ResultStore(str(tmp_path)))
        result = engine.run(BatchJob("table1"))
        meta = engine.store.entry_meta(result.config_hash)
        assert meta["duration_seconds"] >= 0.0

    def test_cache_key_includes_package_version(self, monkeypatch):
        """Satellite regression: a release bump must invalidate every key."""
        job = BatchJob("table1")
        before = config_hash(job)
        monkeypatch.setattr(repro, "__version__", "0.0.0.dev-test")
        after = config_hash(job)
        assert before != after


class TestSingleReadPaths:
    """Regressions for the double-parse bugs in stats() and __contains__."""

    def _counting(self, store, monkeypatch, name):
        calls = []
        original = getattr(store, name)

        def counted(arg):
            calls.append(arg)
            return original(arg)

        monkeypatch.setattr(store, name, counted)
        return calls

    def test_stats_parses_each_entry_exactly_once(self, tmp_path, monkeypatch, store_rows):
        store = ResultStore(str(tmp_path))
        digests = ["ab12cd34ef56ab78", "0123456789abcdef", "feedfacefeedface"]
        for digest in digests:
            store.put(digest, make_result())
        rows = sorted(store_rows.text(tmp_path, digest) for digest in digests)
        reads = self._counting(store, monkeypatch, "_read")
        parses = self._counting(store, monkeypatch, "_parse")
        stats = store.stats()
        assert stats["entries"] == 3
        assert reads == [] and sorted(parses) == rows

    def test_stats_values_unchanged_by_restructuring(self, tmp_path, store_rows):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result("table1"), duration_seconds=1.5)
        store.put("0123456789abcdef", make_result("table2"), duration_seconds=0.5)
        # Unreadable garbage must be skipped, not counted.
        store_rows.plant(tmp_path, "deadbeefdeadbeef", "{torn")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["by_experiment"] == {"table1": 1, "table2": 1}
        assert stats["saved_compute_seconds"] == 2.0
        assert stats["total_bytes"] > 0

    def test_contains_probes_the_file_once(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result())
        calls = self._counting(store, monkeypatch, "_read")
        parses = self._counting(store, monkeypatch, "_parse")
        assert DIGEST in store
        assert calls == [DIGEST] and len(parses) == 1

    def test_contains_treats_torn_files_as_absent(self, tmp_path, store_rows):
        store = ResultStore(str(tmp_path))
        store_rows.plant(tmp_path, DIGEST, "{torn")
        assert DIGEST not in store
        assert "0123456789abcdef" not in store
