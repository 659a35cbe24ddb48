"""Sharded, resumable, blind-validated sweep campaigns.

A :class:`Campaign` turns a job grid (an explicit
:class:`~repro.api.BatchJob` list, or :func:`repro.api.sweep` axes via
:meth:`Campaign.from_grid`) into deterministic shards
(:mod:`repro.campaign.sharding`) and drives them through the batch engine
with three guarantees:

* **No lost batches.**  Every design point runs through the engine's
  error-capturing worker path, so a raising point becomes a recorded
  ``failed`` outcome inside its shard instead of aborting it.
* **Resume with zero recomputation.**  Each completed shard is checkpointed
  to the shared :class:`~repro.service.store.ResultStore` under its
  content-derived shard ID; an interrupted campaign rerun with
  ``resume=True`` (the default) serves completed shards straight from the
  store and produces a byte-identical
  :meth:`~repro.campaign.report.CampaignReport.result_set`.
* **Blind validation.**  The held-out shard subset (content-derived, see
  :mod:`repro.campaign.sharding`) runs *first*; the full result set is only
  unblinded -- i.e. the blind shards are only computed -- once every
  held-out shard passes the campaign's acceptance predicate.  A violation
  raises :class:`HoldoutViolation` before any blind shard runs, as the
  blind-analysis discipline of :mod:`repro.experiments.bound_comparison` does.

The campaign's grid is persisted as a *manifest* under
``<store_root>/campaigns/<campaign_id>.json``, so ``campaign resume`` and
``campaign report`` (see :mod:`repro.experiments.runner`) can rebuild the
exact job list from the campaign ID alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..api.engine import BatchEngine, BatchJob
from ..api.results import ExperimentResult, ResultEncoder
from ..api.scenario import Scenario, sweep_jobs
from ..service.protocol import job_to_wire, jobs_from_wire
from ..service.store import ResultStore
from .report import CampaignReport
from .sharding import ROLE_BLIND, ROLE_HOLDOUT, Shard, make_shards

__all__ = [
    "Campaign",
    "CampaignError",
    "HoldoutViolation",
    "CHECKPOINT_EXPERIMENT",
    "MANIFEST_FORMAT",
]

#: Pseudo-experiment name under which shard checkpoints live in the store.
CHECKPOINT_EXPERIMENT = "campaign_shard"

#: Format tag written into every manifest (bump on incompatible layout).
MANIFEST_FORMAT = 1

#: Subdirectory of the store root holding campaign manifests.
_MANIFEST_DIR = "campaigns"

_CAMPAIGN_SALT = "repro-campaign:"

#: An acceptance predicate judges one held-out shard record and returns
#: True/None (pass), False, a violation string, or an iterable of violation
#: strings (empty = pass).
AcceptancePredicate = Callable[[Dict[str, Any]], Any]


class CampaignError(RuntimeError):
    """A campaign could not be built, executed or resumed."""


class HoldoutViolation(CampaignError):
    """A held-out subset failed its acceptance check, so nothing else was
    computed.  ``subject`` names it: ``campaign <id>`` or ``bound_comparison``."""

    def __init__(self, subject: str, violations: Sequence[str]) -> None:
        self.subject = subject
        self.violations = list(violations)
        details = "; ".join(self.violations)
        super().__init__(
            f"{subject}: held-out validation failed, refusing to "
            f"unblind the full result set: {details}"
        )


def _default_acceptance(record: Mapping[str, Any]) -> List[str]:
    """The default predicate: a held-out shard must have no failed point."""
    return [
        f"design point {job.get('config_hash')} ({job.get('experiment')}) "
        f"failed: {job.get('error')}"
        for job in record["jobs"]
        if job.get("status") == "failed"
    ]


class Campaign:
    """One sharded, resumable sweep over a fixed job grid.

    ``jobs`` fixes the grid (order matters: it defines the shard layout);
    ``shard_size``/``holdout`` control sharding (see
    :func:`~repro.campaign.sharding.make_shards`); ``acceptance`` is the
    held-out predicate (default: no failed design point in a held-out
    shard).  ``store`` is the durable checkpoint/result store (default: one
    over :func:`~repro.service.store.default_store_dir`); design points run
    through a :class:`~repro.api.BatchEngine` with ``engine_jobs`` workers
    over that store.
    """

    def __init__(
        self,
        jobs: Sequence[Union[BatchJob, Scenario]],
        *,
        name: str = "campaign",
        shard_size: int = 4,
        holdout: int = 1,
        acceptance: Optional[AcceptancePredicate] = None,
        store: Optional[ResultStore] = None,
        engine_jobs: int = 1,
    ) -> None:
        if not name:
            raise CampaignError("a campaign needs a non-empty name")
        self.name = name
        self.jobs: List[BatchJob] = [
            job.as_job() if isinstance(job, Scenario) else job for job in jobs
        ]
        if not all(isinstance(job, BatchJob) for job in self.jobs):
            raise CampaignError("jobs must be BatchJob or Scenario values")
        self.acceptance: AcceptancePredicate = (
            acceptance if acceptance is not None else _default_acceptance
        )
        self.store = store if store is not None else ResultStore()
        self.engine = BatchEngine(jobs=engine_jobs, store=self.store)
        self.shard_size = shard_size
        self.holdout = holdout
        try:
            self._shards = make_shards(
                self.jobs, shard_size=shard_size, holdout=holdout
            )
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
        self.campaign_id = _campaign_id(name, [s.shard_id for s in self._shards], holdout)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_grid(
        cls,
        base: Optional[Scenario] = None,
        *,
        experiment: str = "scenario_wctt",
        quick: bool = False,
        **options: Any,
    ) -> "Campaign":
        """Build a campaign straight from :func:`repro.api.sweep` axes.

        Keyword arguments that name campaign knobs (``name``,
        ``shard_size``, ``holdout``, ``acceptance``, ``store``,
        ``engine_jobs``) configure the campaign; everything else is a sweep
        axis.
        """
        campaign_keys = (
            "name", "shard_size", "holdout", "acceptance", "store", "engine_jobs",
        )
        campaign_kwargs = {k: options.pop(k) for k in campaign_keys if k in options}
        jobs = sweep_jobs(base, experiment=experiment, quick=quick, **options)
        return cls(jobs, **campaign_kwargs)

    @classmethod
    def load(
        cls,
        campaign_id: str,
        *,
        store: Optional[ResultStore] = None,
        **kwargs: Any,
    ) -> "Campaign":
        """Rebuild a campaign from its persisted manifest.

        The manifest pins the exact grid, name and sharding parameters, so
        the rebuilt campaign has the same ID and finds its checkpoints.
        """
        store = store if store is not None else ResultStore()
        path = _manifest_path(store.root, campaign_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"cannot load campaign {campaign_id!r} from {path}: {exc}"
            ) from None
        try:
            info = manifest["campaign"]
            campaign = cls(
                jobs_from_wire(manifest["jobs"]),
                name=info["name"],
                shard_size=int(info["shard_size"]),
                holdout=int(info["holdout_shards"]),
                store=store,
                **kwargs,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"malformed campaign manifest {path}: {exc}") from None
        if campaign.campaign_id != campaign_id:
            raise CampaignError(
                f"manifest {path} rebuilds to campaign {campaign.campaign_id}, "
                f"not {campaign_id} (package version changed? config hashes "
                f"include the version, so campaigns do not span releases)"
            )
        return campaign

    @staticmethod
    def saved_campaigns(store: ResultStore) -> List[str]:
        """The IDs of every manifest persisted under ``store``, sorted."""
        directory = os.path.join(store.root, _MANIFEST_DIR)
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shards(self) -> List[Shard]:
        """The campaign's shards in grid order."""
        return list(self._shards)

    def describe(self) -> str:
        return (
            f"campaign {self.name!r} [{self.campaign_id}]: {len(self.jobs)} "
            f"job(s) in {len(self._shards)} shard(s), {self.holdout} held out"
        )

    # ------------------------------------------------------------------
    # Manifest persistence
    # ------------------------------------------------------------------
    def save_manifest(self) -> str:
        """Persist the grid under the store; returns the manifest path."""
        directory = os.path.join(self.store.root, _MANIFEST_DIR)
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise CampaignError(f"cannot create manifest directory: {exc}") from None
        manifest = {
            "manifest_format": MANIFEST_FORMAT,
            "campaign": {
                "id": self.campaign_id,
                "name": self.name,
                "shard_size": self.shard_size,
                "holdout_shards": self.holdout,
            },
            "shard_ids": [s.shard_id for s in self._shards],
            "jobs": [job_to_wire(job) for job in self.jobs],
        }
        path = _manifest_path(self.store.root, self.campaign_id)
        tmp_path = path + f".tmp.{os.getpid()}"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, cls=ResultEncoder)
                handle.write("\n")
            os.replace(tmp_path, path)
        except OSError as exc:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise CampaignError(f"cannot write campaign manifest: {exc}") from None
        return path

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        resume: bool = True,
        progress: Optional[Callable[[Shard, Dict[str, Any]], None]] = None,
    ) -> CampaignReport:
        """Run the campaign: held-out shards first, then -- if they pass
        acceptance -- the blind remainder.

        With ``resume=True`` (the default) shards already checkpointed in
        the store are served without recomputation.  ``progress`` is called
        after each shard completes (checkpoint already durable), so an
        exception raised from it models an interruption the next ``run``
        resumes from.  Raises :class:`HoldoutViolation` when a held-out
        shard fails acceptance; no blind shard is computed in that case.
        """
        self.save_manifest()
        records: Dict[int, Dict[str, Any]] = {}

        held_out = [s for s in self._shards if s.role == ROLE_HOLDOUT]
        blind = [s for s in self._shards if s.role == ROLE_BLIND]

        violations: List[str] = []
        for shard in held_out:
            record = self._run_shard(shard, resume=resume)
            records[shard.index] = record
            violations.extend(self._judge(shard, record))
            if progress is not None:
                progress(shard, record)
        if violations:
            raise HoldoutViolation(f"campaign {self.campaign_id}", violations)

        for shard in blind:
            record = self._run_shard(shard, resume=resume)
            records[shard.index] = record
            if progress is not None:
                progress(shard, record)

        return self._build_report(
            [records[s.index] for s in self._shards], holdout_passed=True
        )

    def collect(self) -> CampaignReport:
        """Report-only view of the current checkpoint state (no execution).

        Shards without a checkpoint appear as ``pending``; ``holdout_passed``
        is only True when every held-out shard is done and passes
        acceptance.  Never raises :class:`HoldoutViolation` -- violations
        become report anomalies instead.
        """
        records: List[Dict[str, Any]] = []
        violations: List[str] = []
        holdout_done = True
        for shard in self._shards:
            record = self._checkpointed_record(shard)
            if record is None:
                record = _pending_record(shard)
                if shard.role == ROLE_HOLDOUT:
                    holdout_done = False
            elif shard.role == ROLE_HOLDOUT:
                violations.extend(self._judge(shard, record))
            records.append(record)
        passed = holdout_done and not violations
        report = self._build_report(records, holdout_passed=passed)
        report.extra_anomalies.extend(violations)
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _judge(self, shard: Shard, record: Dict[str, Any]) -> List[str]:
        """Normalise the acceptance predicate's verdict on one shard."""
        verdict = self.acceptance(record)
        prefix = f"shard {shard.index} [{shard.shard_id}]"
        if verdict is None or verdict is True:
            return []
        if verdict is False:
            return [f"{prefix}: acceptance predicate rejected the shard"]
        if isinstance(verdict, str):
            return [f"{prefix}: {verdict}"]
        if isinstance(verdict, Iterable):
            return [f"{prefix}: {item}" for item in verdict]
        raise CampaignError(
            f"acceptance predicate returned {verdict!r}; expected "
            "True/None/False, a string or an iterable of strings"
        )

    def _run_shard(self, shard: Shard, *, resume: bool) -> Dict[str, Any]:
        if resume:
            record = self._checkpointed_record(shard)
            if record is not None:
                return record
        start = time.perf_counter()
        job_records = [
            {
                "config_hash": result.config_hash,
                "experiment": result.job.experiment,
                "quick": result.job.quick,
                "status": "ok" if result.ok else "failed",
                "error": result.error,
                "cached": result.cached,
                "duration_seconds": round(result.duration_seconds, 6),
            }
            for result in self.engine.run_many(list(shard.jobs))
        ]
        duration = time.perf_counter() - start
        record = {
            "index": shard.index,
            "shard_id": shard.shard_id,
            "role": shard.role,
            "status": "done",
            "resumed": False,
            "executor": "engine",
            "worker_jobs": self.engine.jobs,
            "duration_seconds": round(duration, 6),
            "jobs": job_records,
        }
        self._write_checkpoint(shard, record)
        return record

    def _checkpointed_record(self, shard: Shard) -> Optional[Dict[str, Any]]:
        """The shard's durable checkpoint as a report record, or None.

        A checkpoint whose job hashes no longer match the shard (stale
        manifest, corrupted entry) reads as absent, forcing recomputation.
        """
        checkpoint = self.store.get(shard.shard_id)
        if checkpoint is None or checkpoint.experiment != CHECKPOINT_EXPERIMENT:
            return None
        job_records = [dict(row) for row in checkpoint.rows()]
        if tuple(r.get("config_hash") for r in job_records) != shard.job_hashes:
            return None
        meta = checkpoint.params
        return {
            "index": shard.index,
            "shard_id": shard.shard_id,
            "role": shard.role,
            "status": "done",
            "resumed": True,
            "executor": str(meta.get("executor", "?")),
            "worker_jobs": int(meta.get("worker_jobs", 0) or 0),
            "duration_seconds": float(meta.get("duration_seconds", 0.0) or 0.0),
            "jobs": job_records,
        }

    def _write_checkpoint(self, shard: Shard, record: Dict[str, Any]) -> None:
        checkpoint = ExperimentResult(
            experiment=CHECKPOINT_EXPERIMENT,
            payload=[dict(job) for job in record["jobs"]],
            params={
                "campaign_id": self.campaign_id,
                "campaign_name": self.name,
                "shard_index": shard.index,
                "shard_id": shard.shard_id,
                "role": shard.role,
                "executor": record["executor"],
                "worker_jobs": record["worker_jobs"],
                "duration_seconds": record["duration_seconds"],
            },
            description=shard.describe(),
        )
        self.store.put(
            shard.shard_id, checkpoint,
            duration_seconds=record["duration_seconds"],
        )

    def _build_report(
        self, records: List[Dict[str, Any]], *, holdout_passed: bool
    ) -> CampaignReport:
        from .. import __version__

        return CampaignReport(
            campaign_id=self.campaign_id,
            name=self.name,
            shard_size=self.shard_size,
            holdout=self.holdout,
            holdout_passed=holdout_passed,
            shards=records,
            version=__version__,
            store_root=self.store.root,
        )

    def __repr__(self) -> str:
        return f"Campaign({self.describe()})"


def _pending_record(shard: Shard) -> Dict[str, Any]:
    return {
        "index": shard.index,
        "shard_id": shard.shard_id,
        "role": shard.role,
        "status": "pending",
        "resumed": False,
        "executor": "?",
        "worker_jobs": 0,
        "duration_seconds": 0.0,
        "jobs": [
            {
                "config_hash": digest,
                "experiment": job.experiment,
                "quick": job.quick,
                "status": "pending",
                "error": None,
                "cached": False,
                "duration_seconds": 0.0,
            }
            for job, digest in zip(shard.jobs, shard.job_hashes)
        ],
    }


def _campaign_id(name: str, shard_ids: Sequence[str], holdout: int) -> str:
    blob = _CAMPAIGN_SALT + json.dumps(
        {"name": name, "shards": list(shard_ids), "holdout": holdout},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _manifest_path(store_root: str, campaign_id: str) -> str:
    safe = "".join(c for c in campaign_id if c.isalnum() or c in "-_")
    if not safe or safe != campaign_id:
        raise CampaignError(f"invalid campaign id {campaign_id!r}")
    return os.path.join(store_root, _MANIFEST_DIR, f"{safe}.json")
