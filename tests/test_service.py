"""Tests of the analysis daemon (repro.service): protocol, server, client.

The server tests run a real :class:`ReproService` on a background thread
bound to an ephemeral port with a temporary store, and talk to it through
:class:`ServiceClient` -- the same path the CLI and the examples use.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket
import time

import pytest

from repro.api import BatchEngine, BatchJob, ExperimentResult, Scenario, config_hash, sweep
from repro.api.registry import _REGISTRY, experiment
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    start_service_thread,
)
from repro.service.protocol import (
    ProtocolError,
    decode,
    encode,
    job_from_wire,
    job_to_wire,
    validate_request,
)


# ----------------------------------------------------------------------
# Protocol plumbing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "jobs": [{"experiment": "table1"}], "wait": True}
        assert decode(encode(message)) == message

    def test_encode_is_single_line(self):
        blob = encode({"text": "two\nlines"})
        assert blob.endswith(b"\n") and blob.count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            decode(b"{ not json\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode(b"[1, 2]\n")

    def test_validate_request_ops(self):
        assert validate_request({"op": "ping"}) == "ping"
        assert validate_request({"op": "fetch", "all": True}) == "fetch"
        with pytest.raises(ProtocolError, match="unknown operation"):
            validate_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError, match="non-empty 'jobs'"):
            validate_request({"op": "submit", "jobs": []})
        with pytest.raises(ProtocolError, match="'hashes' list"):
            validate_request({"op": "status"})

    def test_job_wire_roundtrip(self):
        job = BatchJob("table2", {"sizes": [2, 3]}, quick=True)
        assert job_from_wire(job_to_wire(job)) == job

    def test_job_from_wire_validation(self):
        with pytest.raises(ProtocolError, match="'experiment' name"):
            job_from_wire({"params": {}})
        with pytest.raises(ProtocolError, match="unknown job field"):
            job_from_wire({"experiment": "table1", "bogus": 1})
        with pytest.raises(ProtocolError, match="must be a boolean"):
            job_from_wire({"experiment": "table1", "quick": "yes"})


# ----------------------------------------------------------------------
# Server + client
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    """A live daemon on an ephemeral port backed by a temporary store."""
    handle = start_service_thread(port=0, store=ResultStore(str(tmp_path / "store")), jobs=1)
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def client(service):
    return ServiceClient(host=service.host, port=service.port, timeout=120.0)


@pytest.fixture
def slow_experiment():
    """A registered experiment that counts its invocations (in-process)."""
    calls = []

    @experiment(
        "svc_test_slow",
        description="service-test experiment counting invocations",
        paper_reference="(test)",
    )
    def run(*, delay=0.3, tag=0):
        time.sleep(delay)
        calls.append(tag)
        return [{"tag": tag}]

    try:
        yield "svc_test_slow", calls
    finally:
        _REGISTRY.pop("svc_test_slow", None)


class TestServerBasics:
    def test_ping(self, client):
        import repro

        response = client.ping()
        assert response["pong"] is True
        assert response["server"] == "repro.service"
        assert response["version"] == repro.__version__

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["workers"] == 1
        assert stats["jobs"]["submitted"] == 0
        assert stats["cache_hit_rate"] is None
        assert stats["store"]["entries"] == 0

    def test_submit_computes_and_returns_rows(self, client):
        response = client.submit([BatchJob("table1", quick=True)])
        (ticket,) = response["tickets"]
        assert ticket["state"] == "done" and ticket["source"] == "queued"
        (result,) = response["results"]
        assert result["experiment"] == "table1"
        assert result["rows"] and result["cached"] is False
        assert result["config_hash"] == config_hash(BatchJob("table1", quick=True))

    def test_resubmit_hits_the_store(self, client):
        job = {"experiment": "table1", "quick": True}
        first = client.submit([job])
        second = client.submit([job])
        assert second["tickets"][0]["source"] in ("memory", "store")
        assert second["results"][0]["cached"] is True
        assert second["results"][0]["rows"] == first["results"][0]["rows"]
        stats = client.stats()
        assert stats["jobs"]["computed"] == 1
        assert stats["jobs"]["submitted"] == 2

    def test_progress_events_stream(self, client):
        events = []
        client.submit(
            [BatchJob("table1", quick=True), BatchJob("table2", {"sizes": (2,)})],
            on_progress=events.append,
        )
        assert len(events) == 2
        assert events[-1]["completed"] == 2 and events[-1]["total"] == 2
        assert {e["state"] for e in events} == {"done"}

    def test_no_wait_tickets_then_status_then_fetch(self, client):
        response = client.submit([BatchJob("table1", quick=True)], wait=False)
        digest = response["tickets"][0]["hash"]
        assert "results" not in response
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            (state,) = client.status([digest])
            if state["state"] == "done":
                break
            time.sleep(0.05)
        assert state["state"] == "done"
        fetched = client.fetch([digest])
        assert fetched["missing"] == []
        assert fetched["results"][0]["rows"]

    def test_status_unknown_hash(self, client):
        (state,) = client.status(["00000000deadbeef"])
        assert state["state"] == "unknown"

    def test_fetch_missing_and_all(self, service, client, monkeypatch):
        assert client.fetch(["00000000deadbeef"])["missing"] == ["00000000deadbeef"]
        client.submit([BatchJob("table1", quick=True)])
        # An entry only the store knows: another process computed it.
        store = service.service.store
        BatchEngine(store=ResultStore(store.root)).run(BatchJob("table2", quick=True))
        parse = store._parse
        parsed = []

        def counted(text):
            envelope = parse(text)
            parsed.append(envelope["meta"]["config_hash"])
            return envelope

        monkeypatch.setattr(store, "_parse", counted)
        everything = client.fetch(all=True)
        assert len(everything["results"]) == 2
        # One parse per store entry, the daemon's own included.
        assert sorted(parsed) == sorted(r["config_hash"] for r in everything["results"])

    def test_failing_job_reports_error_and_retries(self, client):
        response = client.submit([{"experiment": "table1", "params": {"bogus_kw": 1}}])
        (ticket,) = response["tickets"]
        assert ticket["state"] == "failed"
        assert "bogus_kw" in ticket["error"]
        assert response["results"] == [None]
        # A failed design point is retried (not served from memory) later.
        again = client.submit([{"experiment": "table1", "params": {"bogus_kw": 1}}])
        assert again["tickets"][0]["state"] == "failed"
        assert client.stats()["jobs"]["failed"] == 2

    def test_unknown_experiment_fails_cleanly(self, client):
        response = client.submit([{"experiment": "table42"}])
        assert response["tickets"][0]["state"] == "failed"
        assert "unknown experiment" in response["tickets"][0]["error"]


class TestDedup:
    def test_concurrent_identical_submissions_compute_once(self, client, slow_experiment):
        name, calls = slow_experiment
        job = {"experiment": name, "params": {"delay": 0.5}}

        def submit():
            return client.submit([job])

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            responses = [f.result() for f in [pool.submit(submit) for _ in range(4)]]
        # Every caller got the same completed design point...
        assert all(r["tickets"][0]["state"] == "done" for r in responses)
        assert all(r["results"][0]["rows"] == [{"tag": 0}] for r in responses)
        # ...but the experiment ran exactly once.
        assert len(calls) == 1
        stats = client.stats()
        assert stats["jobs"]["computed"] == 1
        assert stats["jobs"]["coalesced"] + stats["jobs"]["memory_hits"] == 3

    def test_duplicates_inside_one_submission_compute_once(self, client, slow_experiment):
        name, calls = slow_experiment
        job = {"experiment": name, "params": {"delay": 0.05}}
        response = client.submit([job, job, job])
        assert len(response["results"]) == 3
        assert len(calls) == 1
        assert client.stats()["jobs"]["coalesced"] == 2


class TestSweepAcceptance:
    def test_sweep_submitted_twice_computes_each_point_once(self, client):
        """The PR's acceptance scenario: dedup + durable store hits."""
        grid = sweep(Scenario.mesh(3), design=("regular", "waw_wap"))
        first = client.submit_scenarios(grid, quick=True)
        assert [t["source"] for t in first["tickets"]] == ["queued", "queued"]
        second = client.submit_scenarios(grid, quick=True)
        assert all(t["source"] in ("memory", "store") for t in second["tickets"])
        assert all(r["cached"] for r in second["results"])
        stats = client.stats()
        assert stats["jobs"]["computed"] == 2  # exactly once per design point
        assert stats["jobs"]["submitted"] == 4
        labels = {r["rows"][0]["scenario"] for r in second["results"]}
        assert labels == {"regular-3x3", "waw_wap-3x3"}

    def test_results_survive_daemon_restart(self, tmp_path):
        store_dir = str(tmp_path / "store")
        job = {"experiment": "table1", "quick": True}
        with start_service_thread(port=0, store=ResultStore(store_dir)) as handle:
            ServiceClient(port=handle.port).submit([job])
        with start_service_thread(port=0, store=ResultStore(store_dir)) as handle:
            reborn = ServiceClient(port=handle.port)
            response = reborn.submit([job])
            assert response["tickets"][0]["source"] == "store"
            assert response["results"][0]["cached"] is True
            stats = reborn.stats()
            assert stats["jobs"]["computed"] == 0
            assert stats["jobs"]["store_hits"] == 1

    def test_store_is_shared_with_the_batch_engine(self, service, client, tmp_path):
        client.submit([{"experiment": "table1", "quick": True}])
        engine = BatchEngine(store=ResultStore(service.service.store.root))
        result = engine.run(BatchJob("table1", quick=True))
        assert result.cached  # computed by the daemon, reused by the engine


class TestServerRobustness:
    def test_malformed_line_gets_error_response(self, service):
        with socket.create_connection(service.address, timeout=10) as conn:
            conn.sendall(b"{ not json\n")
            reply = json.loads(conn.makefile("rb").readline())
        assert reply["ok"] is False and "malformed" in reply["error"]

    def test_unknown_op_gets_error_response(self, service):
        with socket.create_connection(service.address, timeout=10) as conn:
            conn.sendall(encode({"op": "frobnicate"}))
            reply = json.loads(conn.makefile("rb").readline())
        assert reply["ok"] is False and "unknown operation" in reply["error"]

    def test_connection_survives_an_error_line(self, service):
        # One bad request must not kill the connection for the next one.
        with socket.create_connection(service.address, timeout=10) as conn:
            reader = conn.makefile("rb")
            conn.sendall(encode({"op": "frobnicate"}))
            assert json.loads(reader.readline())["ok"] is False
            conn.sendall(encode({"op": "ping"}))
            assert json.loads(reader.readline())["pong"] is True

    def test_malformed_store_entry_is_recomputed(self, tmp_path, store_rows):
        # An entry whose rows are not objects must read as a store miss,
        # not fail every submit of its design point.
        store = ResultStore(str(tmp_path / "store"))
        job = BatchJob("table1", quick=True)
        store.put(config_hash(job), ExperimentResult("table1", payload=[]))
        store_rows.edit(store.root, config_hash(job), "result", "rows", [1])
        with start_service_thread(port=0, store=store) as handle:
            response = ServiceClient(port=handle.port).submit([job])
        assert response["tickets"][0]["source"] == "queued"
        assert response["results"][0]["rows"]
        assert store.get(config_hash(job)).rows() == response["results"][0]["rows"]

    def test_client_error_when_daemon_is_down(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        dead = ServiceClient(port=free_port, timeout=5.0)
        with pytest.raises(ServiceError, match="is the daemon running"):
            dead.ping()

    def test_client_raises_on_server_error_response(self, client):
        with pytest.raises(ServiceError, match="non-empty 'jobs'"):
            client._request({"op": "submit", "jobs": []})

    def test_service_constructor_validation(self):
        from repro.service import ReproService

        with pytest.raises(ValueError, match="jobs"):
            ReproService(jobs=0)
        with pytest.raises(ValueError, match="batch_size"):
            ReproService(batch_size=0)

    def test_in_memory_service_has_no_store(self, tmp_path, monkeypatch):
        # Without a store the daemon writes nothing, not even to the default
        # store directory.
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "default"))
        with start_service_thread(port=0) as handle:
            client = ServiceClient(port=handle.port)
            client.submit([{"experiment": "table1", "quick": True}])
            stats = client.stats()
            assert stats["store"] is None
            assert stats["jobs"]["computed"] == 1
        assert not (tmp_path / "default").exists()

    def test_as_results_helper(self, client):
        response = client.submit([{"experiment": "table1", "quick": True}])
        (rebuilt,) = ServiceClient.as_results(response["results"])
        assert rebuilt.experiment == "table1"
        assert rebuilt.rows() == response["results"][0]["rows"]
