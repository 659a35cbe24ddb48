"""Tests of the service CLI surface (serve / submit / status / fetch / cache).

One test drives a real ``repro-experiments serve`` subprocess end to end;
the rest talk to an in-process daemon thread through ``main()`` exactly as
a user would, asserting exit codes and printed output.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.api import BatchEngine
from repro.experiments.runner import main
from repro.service import ResultStore, ServiceClient, start_service_thread
from repro.service.store import DB_FILE

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def daemon(tmp_path):
    handle = start_service_thread(port=0, store=ResultStore(str(tmp_path / "store")))
    try:
        yield handle
    finally:
        handle.stop()


def _port_args(daemon):
    return ["--port", str(daemon.port)]


class TestServeSubprocess:
    def test_serve_submit_shutdown_cycle(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve",
             "--port", "0", "--store-dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO_ROOT,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on [0-9.]+:(\d+)", banner)
            assert match, f"unexpected serve banner: {banner!r}"
            port = int(match.group(1))
            assert main(["submit", "table1", "--quick", "--port", str(port)]) == 0
            ServiceClient(port=port).shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestSubmitCommand:
    def test_submit_then_cached_resubmit(self, daemon, capsys):
        args = ["submit", "table1", "--quick"] + _port_args(daemon)
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "False" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "True" in second  # served from the durable store

    def test_submit_sweep_axes(self, daemon, capsys):
        args = ["submit", "--experiment", "table2", "--sizes", "2,3"] + _port_args(daemon)
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("table2") == 2

    def test_submit_json_export(self, daemon, capsys):
        args = ["submit", "table1", "--quick", "--json", "-"] + _port_args(daemon)
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["experiment"] == "table1"
        assert data[0]["rows"]

    def test_submit_no_wait_prints_tickets(self, daemon, capsys):
        args = ["submit", "table1", "--quick", "--no-wait"] + _port_args(daemon)
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "queued" in captured.out or "done" in captured.out
        assert "status" in captured.err

    def test_submit_rejects_unknown_experiment(self, daemon, capsys):
        assert main(["submit", "tabel2"] + _port_args(daemon)) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_submit_rejects_names_plus_axes(self, daemon, capsys):
        args = ["submit", "table2", "--sizes", "2"] + _port_args(daemon)
        assert main(args) == 2
        assert "not both" in capsys.readouterr().err

    def test_submit_experiment_without_axes(self, daemon, capsys):
        args = ["submit", "--experiment", "table2"] + _port_args(daemon)
        assert main(args) == 2
        assert "at least one sweep axis" in capsys.readouterr().err

    def test_submit_failed_job_exit_code(self, daemon, capsys):
        # reliability_sweep cannot sweep mesh sizes -> server-side failure.
        args = ["submit", "--experiment", "table1", "--packet-flits", "9"] + _port_args(daemon)
        assert main(args) == 2
        assert "cannot sweep axis" in capsys.readouterr().err

    def test_submit_unreachable_daemon(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        args = ["submit", "table1", "--quick", "--port", str(free_port), "--timeout", "5"]
        assert main(args) == 1
        assert "is the daemon running" in capsys.readouterr().err


class TestGridExpansion:
    def test_grid_commands_expand_jobs_identically(self, daemon, tmp_path, capsys):
        grid = ["--experiment", "table2", "--sizes", "2,3", "--quick"]
        expected = [
            result.config_hash
            for result in BatchEngine().sweep("table2", quick=True, size=(2, 3))
        ]

        assert main(["sweep", *grid, "--json", "-"]) == 0
        swept = [entry["config_hash"] for entry in json.loads(capsys.readouterr().out)]

        assert main(["submit", *grid, "--no-wait", *_port_args(daemon)]) == 0
        ticket_rows = capsys.readouterr().out.splitlines()[2:]  # below the header
        submitted = [row.split()[0] for row in ticket_rows]

        argv = [
            "campaign", "run", *grid, "--shard-size", "1",
            "--store-dir", str(tmp_path / "campaign"), "--json", "-",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        campaigned = [job["config_hash"] for shard in report["shards"] for job in shard["jobs"]]

        assert len(expected) == 2
        assert swept == submitted == campaigned == expected


class TestStatusAndFetch:
    def test_status_and_fetch_roundtrip(self, daemon, capsys):
        client = ServiceClient(port=daemon.port)
        response = client.submit([{"experiment": "table1", "quick": True}])
        digest = response["tickets"][0]["hash"]
        assert main(["status", digest] + _port_args(daemon)) == 0
        assert "done" in capsys.readouterr().out
        assert main(["status", digest, "--json"] + _port_args(daemon)) == 0
        states = json.loads(capsys.readouterr().out)
        assert states[0]["hash"] == digest
        assert main(["fetch", digest] + _port_args(daemon)) == 0
        data = json.loads(capsys.readouterr().out)  # fetch defaults to JSON on stdout
        assert data[0]["experiment"] == "table1"

    def test_fetch_all_and_missing(self, daemon, capsys):
        ServiceClient(port=daemon.port).submit([{"experiment": "table1", "quick": True}])
        assert main(["fetch"] + _port_args(daemon)) == 0
        assert json.loads(capsys.readouterr().out)
        assert main(["fetch", "00000000deadbeef"] + _port_args(daemon)) == 1
        assert "missing" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_clear(self, daemon, tmp_path, capsys):
        store_dir = daemon.service.store.root
        ServiceClient(port=daemon.port).submit([{"experiment": "table1", "quick": True}])
        assert main(["cache", "stats", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "table1" in out
        assert main(["cache", "stats", "--store-dir", store_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert main(["cache", "clear", "--store-dir", store_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--store-dir", store_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_clear_by_experiment(self, tmp_path, capsys):
        from repro.api import BatchEngine, BatchJob

        store_dir = str(tmp_path / "store")
        BatchEngine(store=ResultStore(store_dir)).run_many(
            [BatchJob("table1"), BatchJob("table2", {"sizes": (2,)})]
        )
        assert main(["cache", "clear", "--store-dir", store_dir, "--experiment", "table2"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--store-dir", store_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["by_experiment"] == {"table1": 1}

    def test_cache_defaults_to_default_store_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "via-env"))
        assert main(["cache", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["root"] == str(tmp_path / "via-env")


#: Every command that opens a store, less the store directory's value.
STORE_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["run", "table1", "--cache-dir"],
        ["sweep", "--sizes", "2", "--cache-dir"],
        ["export", "--cache-dir"],
        ["serve", "--port", "0", "--store-dir"],
        ["cache", "stats", "--store-dir"],
        ["campaign", "run", "table1", "--store-dir"],
    ],
    ids=["run", "sweep", "export", "serve", "cache", "campaign"],
)


class TestUnopenableStore:
    @STORE_COMMANDS
    def test_store_below_a_file_is_a_usage_error(self, argv, tmp_path, capsys):
        """Every command opens its store the same way: a directory that
        cannot be created prints the store's message and exits 2."""
        afile = tmp_path / "afile"
        afile.write_text("")
        root = str(afile / "sub")
        assert main(argv + [root]) == 2
        assert f"cannot create result store at {root}" in capsys.readouterr().err

    @STORE_COMMANDS
    def test_database_that_is_not_sqlite_is_a_usage_error(self, argv, tmp_path, capsys):
        """A store directory whose database file is something else exits 2
        with a message naming that file."""
        db_path = tmp_path / DB_FILE
        db_path.write_text("not a database\n" * 64)
        assert main(argv + [str(tmp_path)]) == 2
        assert f"cannot open result store {db_path}" in capsys.readouterr().err
