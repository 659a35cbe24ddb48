#!/usr/bin/env python3
"""Analysis as a service: a client session against the repro daemon.

This example plays both sides of the service protocol in one process: it
starts a daemon on a background thread (exactly what ``repro-experiments
serve`` runs in the foreground), then walks the client surface a design
team would script against a shared long-running daemon:

* submit individual experiments and watch streamed progress,
* submit a ``sweep()`` scenario grid that computes server-side with
  dedup -- identical design points run exactly once,
* resubmit the same grid and observe every point served from the durable
  content-addressed store,
* inspect queue/cache statistics, and
* reuse the daemon's store from a plain ``BatchEngine``.

Against a real daemon, replace ``start_service_thread`` with the address
of a ``repro-experiments serve`` process.  Run it with::

    python examples/service_client.py
"""

from __future__ import annotations

import tempfile

from repro.analysis.reporting import format_key_values, format_table, format_title
from repro.api import BatchEngine, BatchJob, Scenario, sweep
from repro.service import ResultStore, ServiceClient, start_service_thread


def submit_experiments(client: ServiceClient) -> None:
    """Individual paper experiments, with streamed per-job progress."""
    print(format_title("Submitting experiments to the daemon"))
    jobs = [BatchJob("table1", quick=True), BatchJob("table2", quick=True)]
    response = client.submit(
        jobs,
        on_progress=lambda event: print(
            f"  progress {event['completed']}/{event['total']}: "
            f"{event['hash']} is {event['state']}"
        ),
    )
    print(
        format_table(
            [
                {
                    "experiment": ticket["experiment"],
                    "hash": ticket["hash"],
                    "source": ticket["source"],
                    "rows": len(result["rows"]),
                }
                for ticket, result in zip(response["tickets"], response["results"])
            ]
        )
    )
    print()


def submit_scenario_grid(client: ServiceClient) -> None:
    """A sweep() grid evaluated server-side, then resubmitted for free."""
    print(format_title("A scenario grid: computed once, then served from the store"))
    grid = sweep(
        Scenario.mesh(4),
        design=("regular", "waw_wap"),
        max_packet_flits=(1, 4),
    )
    first = client.submit_scenarios(grid, quick=True)
    second = client.submit_scenarios(grid, quick=True)  # all cache hits
    print(
        format_table(
            [
                {
                    "scenario": result["rows"][0]["scenario"],
                    "WCTT max": result["rows"][0]["WCTT max"],
                    "first": ticket["source"],
                    "resubmit": again["source"],
                }
                for ticket, again, result in zip(
                    first["tickets"], second["tickets"], second["results"]
                )
            ]
        )
    )
    assert all(result["cached"] for result in second["results"])
    print()


def show_stats(client: ServiceClient) -> None:
    """The daemon's own accounting: queue, dedup and hit-rate counters."""
    print(format_title("Daemon statistics"))
    stats = client.stats()
    print(
        format_key_values(
            {
                "version": stats["version"],
                "submitted": stats["jobs"]["submitted"],
                "computed once": stats["jobs"]["computed"],
                "store hits": stats["jobs"]["store_hits"],
                "memory hits": stats["jobs"]["memory_hits"],
                "coalesced in-flight": stats["jobs"]["coalesced"],
                "cache hit rate": stats["cache_hit_rate"],
                "store entries": stats["store"]["entries"],
            }
        )
    )
    print()


def share_store_with_engine(store_dir: str) -> None:
    """Daemon-computed results are ordinary BatchEngine cache hits."""
    print(format_title("The durable store is shared with the batch engine"))
    engine = BatchEngine(store=ResultStore(store_dir))
    hit = engine.run(BatchJob("table1", quick=True))
    print(f"engine.run(table1) cached: {hit.cached}  (hash {hit.config_hash})")
    print()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-service-example-") as store_dir:
        with start_service_thread(port=0, store=ResultStore(store_dir)) as handle:
            client = ServiceClient(host=handle.host, port=handle.port)
            print(f"daemon listening on {handle.host}:{handle.port}, store at {store_dir}\n")
            submit_experiments(client)
            submit_scenario_grid(client)
            show_stats(client)
        share_store_with_engine(store_dir)


if __name__ == "__main__":
    main()
