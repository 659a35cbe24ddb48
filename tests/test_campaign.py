"""Tests of the campaign manager (repro.campaign).

Covers the campaign guarantees end to end: deterministic content-derived
sharding, durable shard checkpoints (interrupt + resume with zero
recomputation and a byte-identical result set), held-out blind validation
(a violation aborts before any blind shard is computed), failed design
points as recorded outcomes, manifest persistence, the structured report
(pinned by ``tests/golden/campaign/report.json``) and the ``campaign``
CLI subcommands.
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.api import BatchJob, ExperimentResult, config_hash, sweep_jobs
from repro.campaign import (
    CHECKPOINT_EXPERIMENT,
    ROLE_BLIND,
    ROLE_HOLDOUT,
    Campaign,
    CampaignError,
    HoldoutViolation,
    make_shards,
    shard_id_for,
)
from repro.experiments.runner import main
from repro.service import ResultStore

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "campaign", "report.json"
)

#: An intentionally invalid design point: fails inside the worker with a
#: deterministic ScenarioError, exercising the recorded-failure path.
BAD_JOB = BatchJob(
    "scenario_wctt", {"scenario": {"mesh_width": 2, "design": "nope"}}
)


def grid_jobs():
    """The canonical 4-point test grid (2x2 sweep, quick)."""
    return sweep_jobs(mesh=(2, 3), design=("regular", "waw_wap"), quick=True)


def build_campaign_golden(store_root):
    """The pinned golden campaign's deterministic result set.

    The package version is pinned for the duration (config hashes fold it
    in), so the golden file survives releases; shared with
    ``tools/make_golden.py`` for regeneration.
    """
    original = repro.__version__
    repro.__version__ = "golden"
    try:
        jobs = grid_jobs() + [BAD_JOB]
        campaign = Campaign(
            jobs,
            name="golden",
            shard_size=2,
            holdout=1,
            acceptance=lambda record: True,
            store=ResultStore(str(store_root)),
        )
        report = campaign.run()
        return json.loads(json.dumps(report.result_set(), sort_keys=True))
    finally:
        repro.__version__ = original


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_shard_ids_deterministic_and_content_derived(self):
        first = make_shards(grid_jobs(), shard_size=2, holdout=1)
        second = make_shards(grid_jobs(), shard_size=2, holdout=1)
        assert [s.shard_id for s in first] == [s.shard_id for s in second]
        assert [s.role for s in first] == [s.role for s in second]
        # The ID is derived from the member hashes alone.
        for shard in first:
            assert shard.shard_id == shard_id_for(shard.job_hashes)
            assert shard.job_hashes == tuple(config_hash(j) for j in shard.jobs)

    def test_chunking_preserves_grid_order(self):
        jobs = grid_jobs()
        shards = make_shards(jobs, shard_size=3, holdout=1)
        assert [len(s.jobs) for s in shards] == [3, 1]
        assert [j for s in shards for j in s.jobs] == jobs

    def test_holdout_is_smallest_ids(self):
        shards = make_shards(grid_jobs(), shard_size=1, holdout=2)
        held = sorted(s.shard_id for s in shards if s.role == ROLE_HOLDOUT)
        blind = [s.shard_id for s in shards if s.role == ROLE_BLIND]
        assert len(held) == 2
        assert all(h < b for h in held for b in blind)

    def test_shard_ids_distinct_from_job_hashes(self):
        shards = make_shards(grid_jobs(), shard_size=1, holdout=0)
        for shard in shards:
            assert shard.shard_id != shard.job_hashes[0]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one shard to unblind"):
            make_shards(grid_jobs(), shard_size=2, holdout=2)
        with pytest.raises(ValueError, match="shard_size"):
            make_shards(grid_jobs(), shard_size=0, holdout=0)
        with pytest.raises(ValueError, match="at least one job"):
            make_shards([], shard_size=1, holdout=0)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class TestCampaignRun:
    def test_run_checkpoints_every_shard(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = Campaign(grid_jobs(), name="t", shard_size=2, holdout=1, store=store)
        report = campaign.run()
        assert report.holdout_passed
        assert report.summary() == {
            "shards": 2,
            "holdout_shards": 1,
            "pending_shards": 0,
            "jobs": 4,
            "ok": 4,
            "failed": 0,
            "experiments": {"scenario_wctt": 4},
        }
        for shard in campaign.shards():
            checkpoint = store.get(shard.shard_id)
            assert checkpoint is not None
            assert checkpoint.experiment == CHECKPOINT_EXPERIMENT

    def test_failed_point_is_recorded_not_fatal(self, tmp_path):
        # One shard holds a good and a bad design point: the bad one becomes
        # a recorded failed outcome, its sibling's result survives.
        jobs = [grid_jobs()[0], BAD_JOB]
        campaign = Campaign(
            jobs, name="t", shard_size=2, holdout=0, store=ResultStore(str(tmp_path))
        )
        report = campaign.run()
        statuses = [j["status"] for j in report.to_dict()["shards"][0]["jobs"]]
        assert statuses == ["ok", "failed"]
        (failed,) = report.failed_points()
        assert "ScenarioError" in failed["error"]
        assert report.summary()["failed"] == 1
        assert any("failed design point" in note for note in report.anomalies())

    def test_acceptance_predicate_contract_violation(self, tmp_path):
        campaign = Campaign(
            grid_jobs(), name="t", shard_size=2, holdout=1,
            acceptance=lambda record: 42, store=ResultStore(str(tmp_path)),
        )
        with pytest.raises(CampaignError, match="acceptance predicate returned"):
            campaign.run()

    def test_campaign_id_stable_for_same_grid(self, tmp_path):
        store = ResultStore(str(tmp_path))
        a = Campaign(grid_jobs(), name="t", shard_size=2, holdout=1, store=store)
        b = Campaign(grid_jobs(), name="t", shard_size=2, holdout=1, store=store)
        c = Campaign(grid_jobs(), name="other", shard_size=2, holdout=1, store=store)
        assert a.campaign_id == b.campaign_id
        assert a.campaign_id != c.campaign_id


class TestResume:
    def test_interrupt_and_resume_is_byte_identical_with_zero_recompute(
        self, tmp_path
    ):
        jobs = grid_jobs()

        # Uninterrupted reference run in its own store.
        cold = Campaign(
            jobs, name="t", shard_size=1, holdout=1,
            store=ResultStore(str(tmp_path / "cold")),
        )
        cold_set = json.dumps(cold.run().result_set(), sort_keys=True)

        # Interrupted run: the progress hook kills the campaign after two
        # completed shards (their checkpoints are already durable).
        warm_root = str(tmp_path / "warm")
        store = ResultStore(warm_root)
        campaign = Campaign(jobs, name="t", shard_size=1, holdout=1, store=store)
        completed = []

        def kill_after_two(shard, record):
            completed.append(shard.shard_id)
            if len(completed) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(progress=kill_after_two)
        # Two shards each wrote one job result plus one checkpoint.
        assert store.writes == 4

        # Resume in a fresh store instance so the write counter isolates the
        # resumed run: only the two remaining shards may compute.
        resume_store = ResultStore(warm_root)
        resumed = Campaign(jobs, name="t", shard_size=1, holdout=1, store=resume_store)
        report = resumed.run()
        assert resume_store.writes == 4  # 2 remaining shards x (result + checkpoint)
        flags = {s["shard_id"]: s["resumed"] for s in report.to_dict()["shards"]}
        assert sorted(k for k, v in flags.items() if v) == sorted(completed)
        assert json.dumps(report.result_set(), sort_keys=True) == cold_set

    def test_fully_resumed_run_writes_nothing(self, tmp_path):
        root = str(tmp_path)
        Campaign(grid_jobs(), name="t", shard_size=2, holdout=1,
                 store=ResultStore(root)).run()
        store = ResultStore(root)
        report = Campaign(
            grid_jobs(), name="t", shard_size=2, holdout=1, store=store
        ).run()
        assert store.writes == 0
        assert report.timing()["resumed_shards"] == 2

    def test_resume_false_recomputes(self, tmp_path):
        root = str(tmp_path)
        Campaign(grid_jobs(), name="t", shard_size=2, holdout=1,
                 store=ResultStore(root)).run()
        store = ResultStore(root)
        report = Campaign(
            grid_jobs(), name="t", shard_size=2, holdout=1, store=store
        ).run(resume=False)
        assert report.timing()["resumed_shards"] == 0
        assert store.writes >= 2  # at least the two rewritten checkpoints

    def test_stale_checkpoint_is_ignored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = Campaign(grid_jobs(), name="t", shard_size=2, holdout=1, store=store)
        shard = campaign.shards()[0]
        # A checkpoint whose recorded job hashes do not match the shard
        # (e.g. written by a different grid) must not be resumed from.
        store.put(
            shard.shard_id,
            ExperimentResult(
                experiment=CHECKPOINT_EXPERIMENT,
                payload=[{"config_hash": "feedfacefeedface", "status": "ok"}],
                params={"executor": "engine"},
            ),
        )
        report = campaign.run()
        record = report.to_dict()["shards"][shard.index]
        assert record["resumed"] is False
        assert [j["status"] for j in record["jobs"]] == ["ok", "ok"]


class TestHoldout:
    def test_violation_aborts_before_any_blind_shard(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = Campaign(
            grid_jobs(), name="t", shard_size=1, holdout=1,
            acceptance=lambda record: "bound looks implausible",
            store=store,
        )
        with pytest.raises(HoldoutViolation, match="refusing to unblind"):
            campaign.run()
        for shard in campaign.shards():
            checkpointed = store.get(shard.shard_id) is not None
            assert checkpointed == (shard.role == ROLE_HOLDOUT)

    def test_default_acceptance_rejects_failed_holdout_points(self, tmp_path):
        # Every design point fails, so whichever shard is held out fails
        # acceptance and the campaign refuses to unblind.
        bad_jobs = [
            BatchJob("scenario_wctt", {"scenario": {"mesh_width": 2, "design": d}})
            for d in ("nope", "bogus")
        ]
        campaign = Campaign(
            bad_jobs, name="t", shard_size=1, holdout=1,
            store=ResultStore(str(tmp_path)),
        )
        with pytest.raises(HoldoutViolation, match="ScenarioError"):
            campaign.run()

    def test_fixed_acceptance_resumes_from_holdout_checkpoints(self, tmp_path):
        root = str(tmp_path)
        strict = Campaign(
            grid_jobs(), name="t", shard_size=1, holdout=1,
            acceptance=lambda record: False, store=ResultStore(root),
        )
        with pytest.raises(HoldoutViolation):
            strict.run()
        store = ResultStore(root)
        relaxed = Campaign(
            grid_jobs(), name="t", shard_size=1, holdout=1, store=store
        )
        report = relaxed.run()
        assert report.holdout_passed
        holdout_records = [
            s for s in report.to_dict()["shards"] if s["role"] == ROLE_HOLDOUT
        ]
        assert all(s["resumed"] for s in holdout_records)


class TestManifestAndCollect:
    def test_default_store_is_the_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "default"))
        campaign = Campaign(grid_jobs(), name="t", shard_size=2)
        assert campaign.store.root == str(tmp_path / "default")
        assert campaign.engine.store is campaign.store
        campaign.run()
        assert len(Campaign.saved_campaigns(ResultStore())) == 1

    def test_manifest_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = Campaign(grid_jobs(), name="t", shard_size=2, holdout=1, store=store)
        path = campaign.save_manifest()
        assert os.path.exists(path)
        assert Campaign.saved_campaigns(store) == [campaign.campaign_id]
        loaded = Campaign.load(campaign.campaign_id, store=store)
        assert loaded.campaign_id == campaign.campaign_id
        assert loaded.jobs == campaign.jobs
        assert [s.shard_id for s in loaded.shards()] == [
            s.shard_id for s in campaign.shards()
        ]

    def test_load_unknown_id_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot load campaign"):
            Campaign.load("0123456789abcdef", store=ResultStore(str(tmp_path)))

    def test_manifests_do_not_break_store_maintenance(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = Campaign(grid_jobs(), name="t", shard_size=2, holdout=1, store=store)
        campaign.run()
        # The manifest lives in a subdirectory, invisible to store scans.
        assert store.clear() > 0
        assert store.keys() == []
        assert Campaign.saved_campaigns(store) == [campaign.campaign_id]

    def test_collect_reports_pending_before_and_done_after(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = Campaign(grid_jobs(), name="t", shard_size=2, holdout=1, store=store)
        before = campaign.collect()
        assert not before.holdout_passed
        assert before.summary()["pending_shards"] == 2
        assert any("no checkpoint" in note for note in before.anomalies())
        ran = campaign.run()
        after = campaign.collect()
        assert after.holdout_passed
        assert after.summary()["pending_shards"] == 0
        assert json.dumps(after.result_set(), sort_keys=True) == json.dumps(
            ran.result_set(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Golden report
# ----------------------------------------------------------------------
class TestGoldenReport:
    def test_report_matches_golden(self, tmp_path):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        fresh = build_campaign_golden(tmp_path)
        assert fresh == golden, (
            "campaign result set diverged from tests/golden/campaign/"
            "report.json; if the change is intentional, regenerate with "
            "`PYTHONPATH=src python tools/make_golden.py campaign` and "
            "explain the diff"
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCampaignCLI:
    def test_run_resume_report(self, tmp_path, capsys):
        root = str(tmp_path)
        rc = main([
            "campaign", "run", "--experiment", "table2", "--sizes", "2,3,4",
            "--quick", "--name", "cli", "--shard-size", "1", "--holdout", "1",
            "--store-dir", root,
        ])
        assert rc == 0
        out = capsys.readouterr()
        assert "Campaign report" in out.out
        assert "held-out validation : passed" in out.out

        (campaign_id,) = Campaign.saved_campaigns(ResultStore(root))
        rc = main(["campaign", "resume", campaign_id, "--store-dir", root])
        assert rc == 0
        out = capsys.readouterr()
        assert "resumed from store" in out.err
        assert "resumed shards      : 3" in out.out

        report_path = str(tmp_path / "report.json")
        rc = main([
            "campaign", "report", campaign_id, "--store-dir", root,
            "--json", report_path,
        ])
        assert rc == 0
        with open(report_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["report_format"] == 1
        assert payload["summary"]["pending_shards"] == 0

    def test_unknown_id_lists_saved_campaigns(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main([
            "campaign", "run", "table1", "--name", "cli", "--shard-size", "1",
            "--holdout", "0", "--store-dir", root,
        ]) == 0
        capsys.readouterr()
        rc = main(["campaign", "report", "feedfacefeedface", "--store-dir", root])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot load campaign" in err
        assert "saved campaigns:" in err

    def test_holdout_violation_exit_code(self, tmp_path, capsys):
        rc = main([
            "campaign", "run", "--experiment", "scenario_wctt", "--quick",
            "--store-dir", str(tmp_path),
        ])
        # No axes with --experiment is a usage error, exercised for coverage.
        assert rc == 2
        assert "sweep axis" in capsys.readouterr().err
