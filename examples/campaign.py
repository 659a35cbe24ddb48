#!/usr/bin/env python3
"""Sharded, resumable, blind-validated sweeps with repro.campaign.

A hypothetical architect runs a design-space sweep as a *campaign*:

* the grid is chunked into content-addressed shards, each checkpointed to
  the durable result store the moment it completes;
* a held-out shard subset runs first and must pass an acceptance predicate
  before the full (blind) result set is computed -- the same blind-analysis
  discipline the ``bound_comparison`` experiment applies to its bounds;
* an interruption (simulated here by raising from the progress hook) costs
  nothing: the rerun resumes from the checkpoints and produces a
  byte-identical result set;
* a failing design point (simulated with an invalid scenario) becomes a
  recorded ``failed`` outcome in the report instead of aborting its shard.

Run it with::

    python examples/campaign.py
"""

from __future__ import annotations

import json
import tempfile

from repro.api import BatchJob, Scenario, sweep_jobs
from repro.campaign import Campaign
from repro.service import ResultStore


def run_campaign(store_root: str) -> None:
    # A 12-point grid: three mesh sizes x two designs x two packet limits,
    # plus one deliberately broken design point.
    jobs = sweep_jobs(
        Scenario.mesh(4),
        design=("regular", "waw_wap"),
        max_packet_flits=(1, 4),
        mesh=(3, 4, 5),
        quick=True,
    )
    jobs.append(
        BatchJob("scenario_wctt", {"scenario": {"mesh_width": 4, "design": "oops"}})
    )

    def tolerate_known_bad(record):
        """Acceptance: only the deliberately broken point may fail held-out."""
        return [
            f"unexpected failure {job['config_hash']}: {job['error']}"
            for job in record["jobs"]
            if job["status"] == "failed"
            and "unknown design 'oops'" not in (job["error"] or "")
        ]

    campaign = Campaign(
        jobs,
        name="example",
        shard_size=3,
        holdout=1,
        acceptance=tolerate_known_bad,
        store=ResultStore(store_root),
    )
    print(campaign.describe())

    # First attempt: kill the campaign after two shards to show resume.
    class Interrupted(Exception):
        pass

    seen = []

    def kill_after_two(shard, record):
        seen.append(shard.shard_id)
        if len(seen) == 2:
            raise Interrupted

    try:
        campaign.run(progress=kill_after_two)
    except Interrupted:
        print(f"\n-- interrupted after {len(seen)} shard(s); resuming --\n")

    # The rerun serves the completed shards from their checkpoints.
    store = ResultStore(store_root)
    resumed = Campaign(
        jobs, name="example", shard_size=3, holdout=1,
        acceptance=tolerate_known_bad, store=store,
    )
    report = resumed.run()
    print(report.render())

    print(f"\nresult-set digest is execution-independent: "
          f"{len(json.dumps(report.result_set()))} bytes of deterministic JSON")
    print(f"campaign manifest + checkpoints live under {store_root} (removed on exit)")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-campaign-example-") as store_root:
        run_campaign(store_root)


if __name__ == "__main__":
    main()
