"""Tests of the batch engine (caching, fan-out, export) and the new CLI."""

from __future__ import annotations

import csv
import io
import json
from enum import Enum, IntEnum
from fractions import Fraction

import pytest

import repro
from repro.api import BatchEngine, BatchJob, config_hash
from repro.api.engine import _canonical
from repro.api.results import _plain
from repro.experiments.runner import main
from repro.geometry import Coord, Port
from repro.service import ResultStore


class TestConfigHash:
    def test_deterministic_and_param_sensitive(self):
        job = BatchJob("table2", {"sizes": (2, 3)})
        assert config_hash(job) == config_hash(BatchJob("table2", {"sizes": (2, 3)}))
        assert config_hash(job) != config_hash(BatchJob("table2", {"sizes": (2, 4)}))
        assert config_hash(job) != config_hash(BatchJob("table1", {"sizes": (2, 3)}))
        assert config_hash(job) != config_hash(BatchJob("table2", {"sizes": (2, 3)}, quick=True))

    def test_handles_non_json_values(self):
        from repro.api import Scenario

        config = Scenario.mesh(2).waw_wap().build()
        digest = config_hash(BatchJob("area", {"config": config}))
        assert digest == config_hash(BatchJob("area", {"config": config}))

    #: One value of every kind the flattening distinguishes.
    EVERY_KIND = {
        "share": Fraction(3, 4),
        "port": Port.XPLUS,
        "flag": True,
        "missing": None,
        "rate": 1.5,
        "sizes": (2, 4),
        "tags": {"b", "a"},
        "placement": {3: Coord(1, 2)},
        "controller": Coord(0, 0),
    }

    def test_digest_pinned_on_every_value_kind(self, monkeypatch):
        # A drifting digest would orphan every stored entry, so the
        # canonical form is pinned literally, not just for determinism.
        monkeypatch.setattr(repro, "__version__", "pinned")
        assert config_hash(BatchJob("scenario_wctt", self.EVERY_KIND)) == "49460a1bcd20b55d"

    def test_plain_pinned_on_every_value_kind(self):
        assert _plain(self.EVERY_KIND) == {
            "share": "3/4",
            "port": "X+",
            "flag": True,
            "missing": None,
            "rate": 1.5,
            "sizes": [2, 4],
            "tags": ["a", "b"],
            "placement": {"3": [1, 2]},
            "controller": [0, 0],
        }

    def test_enum_members_of_primitive_types_collapse_to_value(self):
        class Level(IntEnum):
            HIGH = 2

        class Mode(str, Enum):
            FAST = "fast"

        for member, value in ((Level.HIGH, 2), (Mode.FAST, "fast")):
            assert type(_plain(member)) is type(value) and _plain(member) == value
            assert _canonical(member) == value
        assert _plain(True) is True and _canonical(False) is False


class TestEngineCaching:
    def test_disk_cache_survives_engine_restart(self, tmp_path, store_rows):
        cache_dir = str(tmp_path / "cache")
        first = BatchEngine(store=ResultStore(cache_dir)).run(BatchJob("table2", {"sizes": (2,)}))
        assert not first.cached
        assert store_rows.text(cache_dir, first.config_hash) is not None

        second = BatchEngine(store=ResultStore(cache_dir)).run(BatchJob("table2", {"sizes": (2,)}))
        assert second.cached
        assert second.result.from_cache
        assert second.result.rows() == first.result.to_dict()["rows"]

    def test_no_cache_recomputes(self):
        # Without a store the engine caches nothing across batches.
        engine = BatchEngine()
        engine.run(BatchJob("table1"))
        assert not engine.run(BatchJob("table1")).cached

    def test_duplicate_jobs_in_one_batch_computed_once(self):
        engine = BatchEngine()
        results = engine.run_many([BatchJob("table1"), BatchJob("table1")])
        assert [r.cached for r in results] == [False, True]

    def test_cached_results_enumerates_disk_cache(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        engine = BatchEngine(store=ResultStore(cache_dir))
        engine.run_many([BatchJob("table1"), BatchJob("table2", {"sizes": (2,)})])
        store = ResultStore(cache_dir)
        parse = store._parse
        parsed = []

        def counted(text):
            envelope = parse(text)
            parsed.append(envelope["meta"]["config_hash"])
            return envelope

        monkeypatch.setattr(store, "_parse", counted)
        listed = BatchEngine(store=store).cached_results()
        assert {r.job.experiment for r in listed} == {"table1", "table2"}
        # One parse per entry.
        assert sorted(parsed) == sorted(r.config_hash for r in listed)


class TestEngineParallel:
    def test_parallel_jobs_match_serial(self):
        jobs = [BatchJob("table2", {"sizes": (size,)}) for size in (2, 3, 4)]
        serial = BatchEngine(jobs=1).run_many(jobs)
        parallel = BatchEngine(jobs=3).run_many(jobs)
        assert [r.result.to_dict()["rows"] for r in serial] == [
            r.result.to_dict()["rows"] for r in parallel
        ]

    def test_sweep_expands_axes_through_registry(self):
        engine = BatchEngine()
        results = engine.sweep("table2", size=(2, 3))
        assert [r.job.params for r in results] == [{"sizes": (2,)}, {"sizes": (3,)}]
        assert all(len(r.result.rows()) == 1 for r in results)

    def test_sweep_rejects_unsupported_axis(self):
        with pytest.raises(ValueError, match="cannot sweep axis"):
            BatchEngine().sweep("table1", packet_flits=(1, 4))

    def test_sweep_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            BatchEngine().sweep("table2", size=())


class TestEngineExport:
    @pytest.fixture(scope="class")
    def results(self):
        return BatchEngine().sweep("table2", size=(2, 3))

    def test_json_export(self, results):
        data = json.loads(BatchEngine.to_json(results))
        assert len(data) == 2
        for entry in data:
            assert entry["experiment"] == "table2"
            assert entry["config_hash"]
            assert entry["rows"]

    def test_csv_export(self, results):
        parsed = list(csv.reader(io.StringIO(BatchEngine.to_csv(results))))
        header, rows = parsed[0], parsed[1:]
        assert header[:2] == ["experiment", "config_hash"]
        assert "NxM" in header
        assert len(rows) == 2


class TestCLI:
    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "validation" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in data} >= {"table1", "table2"}

    def test_run_emits_valid_json_on_stdout(self, capsys):
        assert main(["run", "table2", "--quick", "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["experiment"] == "table2"
        assert data[0]["rows"]

    def test_run_text_report_unchanged(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "completed in" in out

    @pytest.mark.parametrize(
        "argv", [["run", "table1"], ["sweep", "--sizes", "2"]], ids=["run", "sweep"]
    )
    def test_no_cache_dir_caches_nothing(self, argv, tmp_path, monkeypatch, capsys):
        # Only --cache-dir gives run/sweep a store; they never fall back to
        # the default store directory.
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "default"))
        assert main(argv) == 0
        assert not (tmp_path / "default").exists()

    def test_run_rejects_unknown_name_with_suggestion(self, capsys):
        assert main(["run", "tabel2"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "table2" in err

    def test_sweep_subcommand_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["sweep", "--sizes", "2,3", "--jobs", "2", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "config hash" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "True" in second  # every design point now comes from the cache

    def test_sweep_requires_an_axis(self, capsys):
        assert main(["sweep"]) == 2
        assert "at least one axis" in capsys.readouterr().err

    def test_export_subcommand(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["export", "--cache-dir", cache_dir, "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["experiment"] == "table1"

    def test_export_empty_cache_fails(self, tmp_path, capsys):
        assert main(["export", "--cache-dir", str(tmp_path / "empty")]) == 1

    @pytest.mark.parametrize("argv", [[], ["table2"], ["--list"], ["table1", "--quick"]])
    def test_argv_without_subcommand_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage: repro-experiments" in capsys.readouterr().err

    def test_list_flag_does_not_hijack_subcommands(self, capsys):
        # 'run ... --list' must not be rewritten to a bare 'list'.
        with pytest.raises(SystemExit):
            main(["run", "table1", "--list"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table1"],
            ["sweep", "--sizes", "2"],
            ["campaign", "run", "table1"],
            ["campaign", "resume", "feedfacefeedface"],
        ],
    )
    def test_jobs_must_be_positive(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))  # the campaign store
        assert main(argv + ["--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_cache_hit_rows_keep_their_shape(self, tmp_path):
        # Disk-cache hits rebuild payloads as row dicts; rows() is the
        # shape-stable accessor either way.
        cache_dir = str(tmp_path / "cache")
        fresh = BatchEngine(store=ResultStore(cache_dir)).run(BatchJob("table2", {"sizes": (2,)}))
        hit = BatchEngine(store=ResultStore(cache_dir)).run(BatchJob("table2", {"sizes": (2,)}))
        assert fresh.result.rows() == hit.result.rows()
        assert hit.result.rows()[0]["regular max"] == fresh.result[0].regular.maximum

    def test_sweep_reports_failed_points(self, capsys):
        # A fault rate above 1 fails inside the worker: the sweep must say
        # so and exit 1, as run and submit do, not print a zero-row table.
        argv = [
            "sweep", "--experiment", "reliability_sweep", "--fault-rates", "1.5",
            "--trials", "1", "--quick",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "reliability_sweep [" in captured.err and "] failed: " in captured.err
        assert captured.out.strip() == "(no rows)"


class TestFailureCapture:
    BAD = BatchJob("scenario_wctt", {"scenario": {"mesh_width": 2, "design": "nope"}})

    def test_failed_job_becomes_recorded_outcome(self):
        result = BatchEngine().run(self.BAD)
        assert not result.ok
        assert "ScenarioError" in result.error
        assert result.result.rows() == []
        assert result.result.description.startswith("failed:")

    def test_failed_job_does_not_poison_its_siblings(self):
        jobs = [BatchJob("table1"), self.BAD, BatchJob("table2", {"sizes": (2,)})]
        results = BatchEngine().run_many(jobs)
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].result.rows() and results[2].result.rows()

    def test_failed_job_does_not_poison_the_worker_pool(self):
        # Same invariant through the multiprocessing fan-out: the captured
        # failure travels back as data, not as a pool-wide exception.
        jobs = [BatchJob("table1"), self.BAD, BatchJob("table2", {"sizes": (2,)})]
        results = BatchEngine(jobs=3).run_many(jobs)
        assert [r.ok for r in results] == [True, False, True]
        assert "ScenarioError" in results[1].error

    def test_failures_are_never_cached(self, tmp_path):
        engine = BatchEngine(store=ResultStore(str(tmp_path / "cache")))
        first = engine.run(self.BAD)
        second = engine.run(self.BAD)
        assert not first.ok and not second.ok
        assert not second.cached  # recomputed, not served from any cache
        assert engine.store.writes == 0

    def test_error_round_trips_through_to_dict(self):
        result = BatchEngine().run(self.BAD)
        data = result.to_dict()
        assert "ScenarioError" in data["error"]
        ok = BatchEngine().run(BatchJob("table1"))
        assert "error" not in ok.to_dict()
