"""The analysis daemon: a long-running asyncio server over the registry.

:class:`ReproService` wraps the experiment registry and the batch-execution
machinery behind the newline-delimited-JSON protocol of
:mod:`repro.service.protocol`:

* **async job queue with bounded concurrency** -- submissions land on an
  :class:`asyncio.Queue`; a single drainer task peels off up to
  ``batch_size`` jobs at a time and fans them onto the existing
  :func:`repro.api.engine.map_jobs` worker pool (``jobs`` processes), so
  the event loop stays responsive while compute saturates the cores;
* **durable content-addressed results** -- a daemon given a
  :class:`~repro.service.store.ResultStore` writes every computed result
  through to it, so answers survive daemon restarts and are shared with
  every other daemon, batch run or CI job pointing at the same directory;
  without one it serves from memory only;
* **request coalescing/dedup** -- identical design points (same config
  hash) submitted concurrently attach to one in-flight computation and are
  computed exactly once;
* **streaming progress** -- a submission with ``"stream": true`` receives
  one progress event per completed design point before the final response;
* **introspection** -- the ``stats`` operation reports queue depth, cache
  hit rate, jobs/second and the store statistics.

The server binds to localhost by default and implements no authentication:
it is a local analysis accelerator, not an internet-facing endpoint.

Synchronous entry points: :meth:`ReproService.run` (blocking, used by the
``repro-experiments serve`` CLI) and :func:`start_service_thread` (a
background daemon inside the current process, used by tests, benchmarks and
the documentation examples).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..api.engine import BatchJob, config_hash, map_jobs, safe_execute_job
from ..api.results import ExperimentResult
from .protocol import (
    DEFAULT_HOST,
    MAX_MESSAGE_BYTES,
    ProtocolError,
    decode,
    encode,
    error_response,
    jobs_from_wire,
    validate_request,
)
from .store import ResultStore

__all__ = ["ReproService", "ServiceHandle", "start_service_thread"]


def _run_batch(jobs: List[BatchJob], workers: int) -> List[Tuple[str, Any, float]]:
    """Execute one drained batch on the shared worker pool.

    Each job runs through :func:`repro.api.engine.safe_execute_job`, so one
    failing design point becomes a recorded failure instead of poisoning the
    whole batch.
    """
    return map_jobs(safe_execute_job, jobs, jobs=min(workers, len(jobs)))


class _Entry:
    """One unique design point known to the daemon (keyed by config hash)."""

    __slots__ = (
        "digest", "job", "future", "state", "error",
        "duration", "cached", "result", "submissions",
    )

    def __init__(self, digest: str, job: BatchJob, future: "asyncio.Future[None]"):
        self.digest = digest
        self.job = job
        self.future = future
        self.state = "queued"  # queued -> running -> done | failed
        self.error: Optional[str] = None
        self.duration = 0.0
        self.cached = False
        self.result: Optional[ExperimentResult] = None
        self.submissions = 0


class ReproService:
    """The persistent analysis service (see the module docstring).

    ``jobs`` bounds the compute concurrency (worker processes of the
    :func:`map_jobs` pool); ``batch_size`` is how many queued jobs one pool
    fan-out may take; ``store`` is the durable result store (``None`` runs
    fully in-memory: results die with the daemon); ``port=0`` binds an
    ephemeral port, reported by :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        jobs: int = 1,
        batch_size: int = 8,
        store: Optional[ResultStore] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.batch_size = batch_size
        self.store = store
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: "asyncio.Queue[str]" = None  # type: ignore[assignment]
        self._entries: Dict[str, _Entry] = {}
        self._drainer: Optional["asyncio.Task[None]"] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._executor = None
        self._started_at = 0.0
        self._stats = {
            "submitted": 0,
            "computed": 0,
            "failed": 0,
            "coalesced": 0,
            "store_hits": 0,
            "memory_hits": 0,
            "compute_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the socket and start the drainer; returns ``(host, port)``."""
        from concurrent.futures import ThreadPoolExecutor

        self._queue = asyncio.Queue()
        self._shutdown = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-compute"
        )
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_MESSAGE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._started_at = time.monotonic()
        self._drainer = asyncio.get_running_loop().create_task(self._drain())
        return self.address

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_shutdown`)."""
        assert self._shutdown is not None, "service not started"
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        """Ask a started service to stop (safe from the service's loop)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def stop(self) -> None:
        """Close the socket, cancel the drainer and fail pending jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._drainer = None
        for entry in self._entries.values():
            if not entry.future.done():
                entry.state = "failed"
                entry.error = "server stopped before the job completed"
                entry.future.set_result(None)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def run(self, *, announce=None) -> None:
        """Blocking entry point: serve until ``shutdown`` (CLI ``serve``)."""

        async def _main() -> None:
            await self.start()
            if announce is not None:
                announce(self)
            try:
                await self.wait_shutdown()
            finally:
                await self.stop()

        asyncio.run(_main())

    # ------------------------------------------------------------------
    # Job intake and compute
    # ------------------------------------------------------------------
    def _resolve(self, job: BatchJob) -> Tuple[_Entry, str]:
        """Dedup one submission; returns its entry plus the answer source.

        Source is ``store`` (durable hit), ``memory`` (already completed in
        this session), ``inflight`` (coalesced onto a queued/running
        computation) or ``queued`` (fresh work).
        """
        digest = config_hash(job)
        self._stats["submitted"] += 1
        entry = self._entries.get(digest)
        if entry is not None:
            entry.submissions += 1
            if entry.state in ("queued", "running"):
                self._stats["coalesced"] += 1
                return entry, "inflight"
            if entry.state == "done":
                self._stats["memory_hits"] += 1
                return entry, "memory"
            # A previously failed design point is retried on resubmission.
        if self.store is not None:
            result = self.store.get(digest)
            if result is not None:
                entry = _Entry(digest, job, asyncio.get_running_loop().create_future())
                entry.state = "done"
                entry.cached = True
                entry.result = result
                entry.submissions = 1
                entry.future.set_result(None)
                self._entries[digest] = entry
                self._stats["store_hits"] += 1
                return entry, "store"
        entry = _Entry(digest, job, asyncio.get_running_loop().create_future())
        entry.submissions = 1
        self._entries[digest] = entry
        self._queue.put_nowait(digest)
        return entry, "queued"

    async def _drain(self) -> None:
        """Forever: drain up to ``batch_size`` jobs, fan out, settle futures."""
        loop = asyncio.get_running_loop()
        while True:
            digests = [await self._queue.get()]
            while len(digests) < self.batch_size:
                try:
                    digests.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            entries = [self._entries[d] for d in digests]
            for entry in entries:
                entry.state = "running"
            try:
                outcomes = await loop.run_in_executor(
                    self._executor, _run_batch, [e.job for e in entries], self.jobs
                )
            except Exception as exc:  # noqa: BLE001 - pool-level failure
                outcomes = [("error", f"{type(exc).__name__}: {exc}", 0.0)] * len(entries)
            for entry, (status, payload, duration) in zip(entries, outcomes):
                if status == "ok":
                    entry.state = "done"
                    entry.duration = duration
                    self._stats["computed"] += 1
                    self._stats["compute_seconds"] += duration
                    if self.store is not None:
                        try:
                            self.store.put(entry.digest, payload, duration_seconds=duration)
                            # The durable copy is authoritative; drop the
                            # in-memory payload so long-running daemons stay
                            # bounded (fetch re-reads from the store).
                            entry.result = None
                        except Exception:  # noqa: BLE001 - store is best-effort
                            entry.result = payload
                    else:
                        entry.result = payload
                else:
                    entry.state = "failed"
                    entry.error = str(payload)
                    self._stats["failed"] += 1
                entry.future.set_result(None)

    def _entry_result(
        self, entry: _Entry, stored: Optional[Dict[str, ExperimentResult]] = None
    ) -> Optional[ExperimentResult]:
        """The completed result of ``entry``: from memory, from ``stored``
        (results already read from the store) or from the store."""
        if entry.result is not None:
            return entry.result
        if stored is not None and entry.digest in stored:
            return stored[entry.digest]
        if self.store is not None:
            return self.store.get(entry.digest)
        return None

    def _result_wire(
        self, entry: _Entry, stored: Optional[Dict[str, ExperimentResult]] = None
    ) -> Optional[Dict[str, Any]]:
        result = self._entry_result(entry, stored)
        if result is None:
            return None
        data = result.to_dict()
        data["config_hash"] = entry.digest
        data["cached"] = entry.cached
        data["duration_seconds"] = round(entry.duration, 6)
        return data

    def _ticket(self, entry: _Entry, source: str) -> Dict[str, Any]:
        ticket = {
            "hash": entry.digest,
            "experiment": entry.job.experiment,
            "state": entry.state,
            "source": source,
        }
        if entry.error is not None:
            ticket["error"] = entry.error
        return ticket

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        writer.write(encode(message))
        await writer.drain()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer, error_response("message exceeds the protocol size limit")
                    )
                    break
                if not line.strip():
                    break
                stop_after = False
                try:
                    message = decode(line)
                    op = validate_request(message)
                    stop_after = op == "shutdown"
                    await self._dispatch(op, message, writer)
                except ProtocolError as exc:
                    await self._send(writer, error_response(str(exc)))
                except Exception as exc:  # noqa: BLE001 - keep the daemon alive
                    await self._send(
                        writer,
                        error_response(f"internal error: {type(exc).__name__}: {exc}"),
                    )
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, op: str, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        if op == "ping":
            from .. import __version__

            await self._send(
                writer,
                {"ok": True, "pong": True, "server": "repro.service", "version": __version__},
            )
        elif op == "submit":
            await self._handle_submit(message, writer)
        elif op == "status":
            await self._send(writer, {"ok": True, "states": self._states(message["hashes"])})
        elif op == "fetch":
            await self._handle_fetch(message, writer)
        elif op == "stats":
            await self._send(writer, {"ok": True, "stats": self.stats()})
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "stopping": True})
            self.request_shutdown()

    async def _handle_submit(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        jobs = jobs_from_wire(message["jobs"])
        wait = bool(message.get("wait", True))
        stream = bool(message.get("stream", False)) and wait
        resolved = [self._resolve(job) for job in jobs]
        tickets = [self._ticket(entry, source) for entry, source in resolved]
        if not wait:
            await self._send(writer, {"ok": True, "tickets": tickets})
            return

        unique = {entry.digest: entry for entry, _ in resolved}
        pending = {entry.future for entry in unique.values() if not entry.future.done()}
        completed = len(unique) - len(pending)
        if stream:
            for entry in unique.values():
                if entry.future.done():
                    await self._send(
                        writer,
                        {
                            "event": "progress",
                            "hash": entry.digest,
                            "state": entry.state,
                            "completed": completed,
                            "total": len(unique),
                        },
                    )
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            completed += len(done)
            if stream:
                done_futures = set(done)
                for entry in unique.values():
                    if entry.future in done_futures:
                        await self._send(
                            writer,
                            {
                                "event": "progress",
                                "hash": entry.digest,
                                "state": entry.state,
                                "completed": completed,
                                "total": len(unique),
                            },
                        )
        results = []
        for (entry, source) in resolved:
            wire = self._result_wire(entry)
            if wire is not None and source in ("store", "memory", "inflight"):
                wire["cached"] = True
            results.append(wire)
        await self._send(
            writer,
            {
                "ok": True,
                "tickets": [self._ticket(entry, source) for entry, source in resolved],
                "results": results,
            },
        )

    def _states(self, hashes: List[str]) -> List[Dict[str, Any]]:
        states = []
        for digest in hashes:
            entry = self._entries.get(digest)
            if entry is not None:
                state = {"hash": digest, "state": entry.state}
                if entry.error is not None:
                    state["error"] = entry.error
            elif self.store is not None and digest in self.store:
                state = {"hash": digest, "state": "done", "source": "store"}
            else:
                state = {"hash": digest, "state": "unknown"}
            states.append(state)
        return states

    async def _handle_fetch(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        stored: Dict[str, ExperimentResult] = {}
        if message.get("all"):
            # One read per store entry, whether this session computed it or not.
            if self.store is not None:
                stored = dict(self.store.items())
            hashes = sorted(
                set(stored) | {d for d, e in self._entries.items() if e.state == "done"}
            )
        else:
            hashes = list(message["hashes"])
        results: List[Dict[str, Any]] = []
        missing: List[str] = []
        for digest in hashes:
            entry = self._entries.get(digest)
            wire: Optional[Dict[str, Any]] = None
            if entry is not None and entry.state == "done":
                wire = self._result_wire(entry, stored)
                if wire is not None:
                    wire["cached"] = True
            elif entry is not None and entry.state == "failed":
                missing.append(digest)
                continue
            elif self.store is not None:
                result = stored[digest] if digest in stored else self.store.get(digest)
                if result is not None:
                    wire = result.to_dict()
                    wire["config_hash"] = digest
                    wire["cached"] = True
                    wire["duration_seconds"] = 0.0
            if wire is None:
                missing.append(digest)
            else:
                results.append(wire)
        await self._send(writer, {"ok": True, "results": results, "missing": missing})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``stats`` operation's payload (also usable in-process)."""
        from .. import __version__

        uptime = max(time.monotonic() - self._started_at, 1e-9)
        finished = (
            self._stats["computed"]
            + self._stats["store_hits"]
            + self._stats["memory_hits"]
            + self._stats["coalesced"]
        )
        hits = (
            self._stats["store_hits"]
            + self._stats["memory_hits"]
            + self._stats["coalesced"]
        )
        running = sum(1 for e in self._entries.values() if e.state == "running")
        return {
            "version": __version__,
            "uptime_seconds": round(uptime, 3),
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "running": running,
            "workers": self.jobs,
            "batch_size": self.batch_size,
            "jobs": {
                "submitted": self._stats["submitted"],
                "unique": len(self._entries),
                "computed": self._stats["computed"],
                "failed": self._stats["failed"],
                "coalesced": self._stats["coalesced"],
                "store_hits": self._stats["store_hits"],
                "memory_hits": self._stats["memory_hits"],
            },
            "cache_hit_rate": (
                round(hits / self._stats["submitted"], 4)
                if self._stats["submitted"]
                else None
            ),
            "jobs_per_second": round(finished / uptime, 3),
            "compute_seconds": round(self._stats["compute_seconds"], 3),
            "store": self.store.stats() if self.store is not None else None,
        }


# ----------------------------------------------------------------------
# Background-thread harness (tests, benchmarks, examples)
# ----------------------------------------------------------------------
class ServiceHandle:
    """A service running on a daemon thread: address plus a stop switch."""

    def __init__(self, service: ReproService, thread: threading.Thread, loop) -> None:
        self.service = service
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        assert self.service.address is not None
        return self.service.address

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown and join the thread."""
        try:
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        except RuntimeError:
            pass  # loop already closed
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service_thread(**kwargs: Any) -> ServiceHandle:
    """Start a :class:`ReproService` on a daemon thread; returns its handle.

    Keyword arguments are forwarded to :class:`ReproService`.  The call
    returns once the socket is bound (so ``handle.address`` is valid) and
    raises if the service failed to start.
    """
    started = threading.Event()
    holder: Dict[str, Any] = {}

    async def _amain() -> None:
        service = ReproService(**kwargs)
        try:
            await service.start()
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            holder["error"] = exc
            started.set()
            return
        holder["service"] = service
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        try:
            await service.wait_shutdown()
        finally:
            await service.stop()

    thread = threading.Thread(
        target=lambda: asyncio.run(_amain()), name="repro-service", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("repro.service failed to start within 30 seconds")
    if "error" in holder:
        raise holder["error"]
    return ServiceHandle(holder["service"], thread, holder["loop"])
