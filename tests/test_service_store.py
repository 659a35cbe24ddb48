"""Tests of the durable content-addressed result store (repro.service.store).

Covers the service-era cache guarantees: atomic concurrent writes (no torn
reads), restart durability, foreign and corrupt files reading as absent,
eviction, and the version-aware cache keys the store shares with the batch
engine.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import os

import pytest

import repro
from repro.api import BatchEngine, BatchJob, ExperimentResult, config_hash
from repro.service import ResultStore, StoreError, default_store_dir

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

    def test_corrupt_files_read_as_absent(self, tmp_path):
        (tmp_path / "deadbeefdeadbeef.json").write_text("{ torn wri")
        (tmp_path / "feedfacefeedface.json").write_text('["not", "a", "dict"]')
        # A bare to_dict() without the store envelope is a foreign file too.
        (tmp_path / f"{DIGEST}.json").write_text(json.dumps(make_result().to_dict()))
        store = ResultStore(str(tmp_path))
        assert store.get("deadbeefdeadbeef") is None
        assert store.get("feedfacefeedface") is None
        assert store.get(DIGEST) is None
        assert store.keys() == []
        # clear() still removes the unreadable files.
        assert store.clear() == 3
        assert list(tmp_path.iterdir()) == []


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
        store = ResultStore(str(tmp_path))
        for digest in ("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"):
            store.put(digest, make_result())
        names = [p.name for p in tmp_path.iterdir()]
        assert all(not name.startswith(".") for name in names)
        assert len(names) == 2

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
    """New entries are one compact line; indented entries of older
    releases (same envelope, ``indent=2``) still read everywhere."""

    def test_entry_is_one_line_of_compact_json(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with open(store.put(DIGEST, make_result()), encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("\n") and text.count("\n") == 1
        envelope = json.loads(text)
        assert text == json.dumps(envelope, separators=(",", ":")) + "\n"
        assert envelope["store_format"] == 1

    def test_indented_entry_still_reads(self, tmp_path):
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
        with open(tmp_path / f"{digest}.json", "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, indent=2)
            handle.write("\n")

        store = ResultStore(str(tmp_path))
        assert store.get(digest).rows() == make_result().rows()
        assert store.entry_meta(digest) == envelope["meta"]
        assert store.keys() == [digest]
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["by_experiment"] == {"table1": 1}
        assert stats["saved_compute_seconds"] == 0.75
        [outcome] = BatchEngine(store=store).run_many([job])
        assert outcome.cached
        assert outcome.result.rows() == make_result().rows()


def _edit_envelope(path: str, section: str, key: str, value) -> None:
    """Overwrite one field of a stored envelope in place."""
    with open(path, encoding="utf-8") as handle:
        envelope = json.load(handle)
    envelope[section][key] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)


class TestMalformedEntries:
    """A parseable envelope whose result cannot be rebuilt reads as absent
    on every surface, so one bad entry neither crashes a batch nor
    outlives the next write of its design point."""

    @pytest.mark.parametrize(
        "field,value",
        [("rows", [1]), ("rows", "xyz"), ("rows", None), ("params", [1])],
        ids=["rows-of-ints", "rows-string", "rows-null", "params-list"],
    )
    def test_reads_as_absent_and_is_recomputed(self, tmp_path, field, value):
        job, sibling = BatchJob("table1"), BatchJob("area")
        digest = config_hash(job)
        store = ResultStore(str(tmp_path))
        _edit_envelope(store.put(digest, make_result("table1")), "result", field, value)

        assert store.get(digest) is None
        assert digest not in store
        assert store.entry_meta(digest) is None
        assert store.keys() == []
        assert store.stats()["entries"] == 0
        outcomes = BatchEngine(store=store).run_many([job, sibling])
        assert [(o.ok, o.cached) for o in outcomes] == [(True, False), (True, False)]
        assert store.get(digest).rows() == outcomes[0].result.rows()

    def test_non_numeric_duration_does_not_break_stats(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("0123456789abcdef", make_result(), duration_seconds=1.5)
        _edit_envelope(store.put(DIGEST, make_result()), "meta", "duration_seconds", "abc")
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
    def test_engine_writes_store_envelopes(self, tmp_path):
        engine = BatchEngine(store=ResultStore(str(tmp_path)))
        result = engine.run(BatchJob("table1"))
        # The engine writes store envelopes under the familiar layout.
        envelope = json.loads((tmp_path / f"{result.config_hash}.json").read_text())
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

    def _counting_read(self, store, monkeypatch):
        calls = []
        original = store._read

        def counted(digest):
            calls.append(digest)
            return original(digest)

        monkeypatch.setattr(store, "_read", counted)
        return calls

    def test_stats_parses_each_entry_exactly_once(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        digests = ["ab12cd34ef56ab78", "0123456789abcdef", "feedfacefeedface"]
        for digest in digests:
            store.put(digest, make_result())
        calls = self._counting_read(store, monkeypatch)
        stats = store.stats()
        assert stats["entries"] == 3
        assert sorted(calls) == sorted(digests)

    def test_stats_values_unchanged_by_restructuring(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result("table1"), duration_seconds=1.5)
        store.put("0123456789abcdef", make_result("table2"), duration_seconds=0.5)
        # Unreadable garbage must be skipped, not counted.
        with open(os.path.join(store.root, "deadbeefdeadbeef.json"), "w") as handle:
            handle.write("{torn")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["by_experiment"] == {"table1": 1, "table2": 1}
        assert stats["saved_compute_seconds"] == 2.0
        assert stats["total_bytes"] > 0

    def test_contains_probes_the_file_once(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        store.put(DIGEST, make_result())
        calls = self._counting_read(store, monkeypatch)
        assert DIGEST in store
        assert calls == [DIGEST]

    def test_contains_treats_torn_files_as_absent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with open(os.path.join(store.root, f"{DIGEST}.json"), "w") as handle:
            handle.write("{torn")
        assert DIGEST not in store
        assert "0123456789abcdef" not in store
