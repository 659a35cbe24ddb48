"""Batch execution engine: parallel fan-out, config-hash caching, export.

The engine runs registered experiments described by :class:`BatchJob`
values.  Each job is keyed by a deterministic hash of its canonicalised
``(experiment, params, quick)`` triple plus the package version; results are
cached under that hash (in memory and, when ``cache_dir`` is given, as JSON
files on disk), so re-running a sweep only computes the design points that
changed.

Cache misses fan out over a :mod:`multiprocessing` pool when ``jobs > 1``;
results travel back as pickled :class:`ExperimentResult` objects, so the
caller can still render the full textual reports for freshly computed jobs.
Disk cache hits are rebuilt from their JSON form (rows only).

The persistent layer is the durable content-addressed
:class:`~repro.service.store.ResultStore` shared with the analysis daemon
(:mod:`repro.service`): pass ``store=ResultStore(...)`` to share one, or
keep passing ``cache_dir=...`` to get a store over that directory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import registry
from .results import ExperimentResult, ResultEncoder, _plain

# Imported after .results on purpose: repro.service.store builds on
# repro.api.results, so the submodule must already be in sys.modules.
from ..service.store import ResultStore

__all__ = [
    "BatchJob",
    "BatchResult",
    "BatchEngine",
    "config_hash",
    "axis_jobs",
    "map_jobs",
    "safe_execute_job",
]


def map_jobs(fn, items: Sequence[Any], *, jobs: int = 1) -> List[Any]:
    """Map a picklable function over ``items`` on the batch worker pool.

    The parallel fan-out used by :class:`BatchEngine` for cache misses,
    exposed for other bulk workloads (the Monte-Carlo trial runner of
    :mod:`repro.faults.montecarlo` reuses it).  ``jobs = 1`` -- or a single
    item -- runs in-process; larger values fan out over a
    :mod:`multiprocessing` pool of ``min(jobs, len(items))`` workers.
    Results come back in item order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    items = list(items)
    if not items:
        return []
    if jobs == 1 or len(items) == 1:
        return [fn(item) for item in items]
    import multiprocessing

    workers = min(jobs, len(items))
    context = multiprocessing.get_context()
    with context.Pool(processes=workers) as pool:
        return pool.map(fn, items)


@dataclass(frozen=True)
class BatchJob:
    """One experiment invocation: name plus run() keyword parameters."""

    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    quick: bool = False

    def describe(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        suffix = " [quick]" if self.quick else ""
        return f"{self.experiment}({rendered}){suffix}"


@dataclass
class BatchResult:
    """Outcome of one job: the result plus provenance metadata.

    ``error`` is ``None`` for a successful run; a failed design point
    carries the captured worker-side failure description instead (and an
    empty placeholder result), so one raising job can never discard its
    completed siblings' results.
    """

    job: BatchJob
    result: ExperimentResult
    config_hash: str
    cached: bool
    duration_seconds: float
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the job completed without a captured failure."""
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        data = self.result.to_dict()
        data["config_hash"] = self.config_hash
        data["cached"] = self.cached
        data["duration_seconds"] = round(self.duration_seconds, 6)
        if self.error is not None:
            data["error"] = self.error
        return data


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to a deterministic, hashable plain form.

    Containers get sorted keys and dataclasses keep a ``__type__`` tag (two
    different dataclasses with equal fields must not collide); everything
    else flattens through the shared :func:`repro.api.results._plain`.
    """
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{f.name: _canonical(getattr(value, f.name)) for f in fields(value)},
        }
    return _plain(value)


def config_hash(job: BatchJob) -> str:
    """Deterministic hash of one job's full configuration.

    Includes the package version so caches do not survive releases that may
    have changed the models.
    """
    from .. import __version__

    blob = json.dumps(
        {
            "version": __version__,
            "experiment": job.experiment,
            "quick": job.quick,
            "params": _canonical(dict(job.params)),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _execute_job(job: BatchJob) -> Tuple[ExperimentResult, float]:
    """Run one job in the current process (also the pool worker entry point)."""
    registry.discover()
    spec = registry.get_experiment(job.experiment)
    start = time.perf_counter()
    result = spec.run(quick=job.quick, **dict(job.params))
    return result, time.perf_counter() - start


def safe_execute_job(job: BatchJob) -> Tuple[str, Any, float]:
    """Pool-worker entry point that captures per-job failures.

    Returns ``("ok", result, seconds)`` or ``("error", description,
    seconds)``; the description is a pickle-safe string, so a raising
    design point travels back through the :mod:`multiprocessing` pool as a
    recorded failure instead of poisoning the whole ``pool.map`` call (which
    would discard every completed sibling result).
    """
    start = time.perf_counter()
    try:
        result, duration = _execute_job(job)
        return ("ok", result, duration)
    except Exception as exc:  # noqa: BLE001 - captured as the job's outcome
        return ("error", f"{type(exc).__name__}: {exc}", time.perf_counter() - start)


def axis_jobs(
    experiment: str,
    *,
    quick: bool = False,
    base_params: Optional[Mapping[str, Any]] = None,
    **axes: Iterable[Any],
) -> List[BatchJob]:
    """Expand axis grids into jobs (cartesian product, row-major order).

    Axis names are translated to run() parameters by the experiment's
    registered ``sweep_axes`` (e.g. ``size=(2, 3, 4)`` becomes
    ``sizes=(2,)`` per design point for table2 but ``mesh_size=2`` for
    table3); ``base_params`` are shared by every design point.
    """
    spec = registry.get_experiment(experiment)
    names = list(axes)
    grids = [list(axes[name]) for name in names]
    for name, values in zip(names, grids):
        if not values:
            raise ValueError(f"sweep axis {name!r} has no values")
    batch: List[BatchJob] = []
    for combo in itertools.product(*grids):
        params = dict(base_params or {})
        params.update(spec.params_for_axes(**dict(zip(names, combo))))
        batch.append(BatchJob(experiment=experiment, params=params, quick=quick))
    return batch


def _failure_result(job: BatchJob, error: str) -> ExperimentResult:
    """The empty placeholder result recorded for a failed design point."""
    return ExperimentResult(
        experiment=job.experiment,
        payload=[],
        params=dict(job.params),
        description=f"failed: {error}",
    )


class BatchEngine:
    """Cache-aware, optionally parallel runner for registered experiments.

    ``jobs`` is the worker-process count (1 = run in-process); ``cache_dir``
    enables the persistent cache (a :class:`ResultStore` over that
    directory) and ``store`` shares an existing store -- e.g. the daemon's
    ``~/.cache/repro`` -- instead; ``use_cache=False`` disables caching
    entirely (every job recomputes).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        store: Optional["ResultStore"] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if store is not None and cache_dir is not None:
            raise ValueError("pass either store= or cache_dir=, not both")
        self.jobs = jobs
        if store is None and cache_dir is not None:
            store = ResultStore(cache_dir)
        self.store = store
        self.cache_dir = store.root if store is not None else None
        self.use_cache = use_cache
        self._memory_cache: Dict[str, ExperimentResult] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, job: BatchJob) -> BatchResult:
        """Run a single job through the cache."""
        return self.run_many([job])[0]

    def run_many(self, jobs: Sequence[BatchJob]) -> List[BatchResult]:
        """Run all jobs, fanning cache misses out over the worker pool.

        Results come back in job order.  Duplicate jobs in one batch are
        computed once.
        """
        jobs = list(jobs)
        hashes = [config_hash(job) for job in jobs]
        results: Dict[int, BatchResult] = {}

        pending: Dict[str, List[int]] = {}
        for index, (job, digest) in enumerate(zip(jobs, hashes)):
            cached = self._cache_lookup(digest) if self.use_cache else None
            if cached is not None:
                results[index] = BatchResult(
                    job=job,
                    result=cached,
                    config_hash=digest,
                    cached=True,
                    duration_seconds=0.0,
                )
            else:
                pending.setdefault(digest, []).append(index)

        unique_jobs = [(digest, jobs[indices[0]]) for digest, indices in pending.items()]
        computed = self._compute([job for _, job in unique_jobs])
        for (digest, job), (status, payload, duration) in zip(unique_jobs, computed):
            if status != "ok":
                # A raising design point becomes a recorded failed outcome;
                # failures are never cached, so a resubmission retries.
                error = str(payload)
                for position, index in enumerate(pending[digest]):
                    results[index] = BatchResult(
                        job=jobs[index],
                        result=_failure_result(jobs[index], error),
                        config_hash=digest,
                        cached=position > 0,
                        duration_seconds=duration if position == 0 else 0.0,
                        error=error,
                    )
                continue
            result = payload
            if self.use_cache:
                self._cache_store(digest, result, duration)
            for position, index in enumerate(pending[digest]):
                results[index] = BatchResult(
                    job=jobs[index],
                    result=result,
                    config_hash=digest,
                    # Duplicates within the batch are computed once; only the
                    # first occurrence reports the compute time.
                    cached=position > 0,
                    duration_seconds=duration if position == 0 else 0.0,
                )
        return [results[i] for i in range(len(jobs))]

    def sweep(
        self,
        experiment: str,
        *,
        quick: bool = False,
        base_params: Optional[Mapping[str, Any]] = None,
        **axes: Iterable[Any],
    ) -> List[BatchResult]:
        """Expand axis grids into jobs (see :func:`axis_jobs`) and run them."""
        return self.run_many(
            axis_jobs(experiment, quick=quick, base_params=base_params, **axes)
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @staticmethod
    def to_json(results: Sequence[BatchResult], *, indent: Optional[int] = 2) -> str:
        """One JSON array with every result's dict form (always serialisable)."""
        return json.dumps(
            [r.to_dict() for r in results], indent=indent, cls=ResultEncoder
        )

    @staticmethod
    def to_csv(results: Sequence[BatchResult]) -> str:
        """Flat CSV: one line per data row, prefixed by experiment metadata."""
        header: List[str] = ["experiment", "config_hash"]
        flat_rows: List[Dict[str, Any]] = []
        for batch_result in results:
            result_header, result_rows = batch_result.result.to_csv_rows()
            for key in result_header:
                if key not in header:
                    header.append(key)
            for row in result_rows:
                flat: Dict[str, Any] = {
                    "experiment": batch_result.job.experiment,
                    "config_hash": batch_result.config_hash,
                }
                flat.update(dict(zip(result_header, row)))
                flat_rows.append(flat)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        for row in flat_rows:
            writer.writerow(row)
        return buffer.getvalue()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def cached_results(self) -> List[BatchResult]:
        """Everything currently in the persistent store (for ``export``)."""
        if self.store is None:
            return []
        results: List[BatchResult] = []
        for digest in self.store.keys():
            result = self.store.get(digest)
            if result is None:
                continue
            results.append(
                BatchResult(
                    job=BatchJob(experiment=result.experiment, params=result.params),
                    result=result,
                    config_hash=digest,
                    cached=True,
                    duration_seconds=0.0,
                )
            )
        return results

    def _cache_lookup(self, digest: str) -> Optional[ExperimentResult]:
        hit = self._memory_cache.get(digest)
        if hit is not None:
            return hit
        if self.store is None:
            return None
        hit = self.store.get(digest)
        if hit is not None:
            # Promote the disk hit so repeated lookups of the same digest
            # stop re-reading and re-parsing the JSON file.
            self._memory_cache[digest] = hit
        return hit

    def _cache_store(
        self, digest: str, result: ExperimentResult, duration: float = 0.0
    ) -> None:
        self._memory_cache[digest] = result
        if self.store is not None:
            self.store.put(digest, result, duration_seconds=duration)

    def _compute(self, jobs: List[BatchJob]) -> List[Tuple[str, Any, float]]:
        return map_jobs(safe_execute_job, jobs, jobs=self.jobs)
