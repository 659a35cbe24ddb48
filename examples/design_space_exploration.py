#!/usr/bin/env python3
"""Design-space exploration through the Scenario / sweep / engine API.

This example shows the library as a *design tool* rather than a paper
re-run.  A hypothetical architect explores how the guaranteed and the average
behaviour of the proposed WaW+WaP mesh react to three knobs:

* mesh size (core count),
* maximum packet size allowed in the network,
* router buffer depth,

then sweeps a registered experiment through the cache-aware batch engine and
finally validates the analytical bound of one design point against the
cycle-accurate simulator under adversarial congestion.

Run it with::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

import tempfile

from repro.analysis.backends import make_analysis_backend
from repro.analysis.reporting import format_table, format_title
from repro.analysis.validation import validate_flow_bound
from repro.api import BatchEngine, Scenario, sweep
from repro.core import FlowSet, wctt_summary
from repro.core.area import waw_wap_overhead
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.geometry import Coord
from repro.noc.network import Network
from repro.service import ResultStore
from repro.workloads.synthetic import UniformRandomTraffic


def sweep_mesh_size() -> None:
    """One sweep() call replaces the hand-written double config loop."""
    rows = []
    for scenario in sweep(mesh=(4, 6, 8, 10, 12)):
        regular = scenario.regular().max_packet_flits(4).build()
        proposal = scenario.waw_wap().max_packet_flits(4).build()
        flows = FlowSet.all_to_one(regular.mesh, Coord(0, 0))
        regular_summary = wctt_summary(
            make_analysis_backend("regular").analysis(regular), flows, packet_flits=1
        )
        proposal_summary = wctt_summary(
            WaWWaPWCTTAnalysis.for_memory_traffic(proposal, include_replies=False),
            flows,
            packet_flits=1,
        )
        rows.append(
            {
                "mesh": f"{regular.mesh.width}x{regular.mesh.height}",
                "cores": regular.mesh.num_nodes - 1,
                "regular max WCTT": regular_summary.maximum,
                "WaW+WaP max WCTT": proposal_summary.maximum,
                "area overhead (%)": round(waw_wap_overhead(proposal) * 100, 2),
            }
        )
    print(format_title("Scaling the chip: worst-case guarantees vs core count"))
    print(format_table(rows))
    print()


def sweep_packet_size_and_buffers() -> None:
    """A two-axis grid of design points from a single sweep() expansion."""
    rows = []
    far = Coord(7, 7)
    base = Scenario.mesh(8)
    for scenario in sweep(base, max_packet_flits=(1, 4, 8, 16), buffer_depth=(2, 4, 8)):
        regular = scenario.regular().build()
        proposal = scenario.waw_wap().build()
        regular_bound = make_analysis_backend("regular").analysis(regular).wctt_packet(
            far, Coord(0, 0), packet_flits=1
        )
        proposal_bound = WaWWaPWCTTAnalysis.for_memory_traffic(
            proposal, include_replies=False
        ).wctt_packet(far, Coord(0, 0))
        rows.append(
            {
                "max packet (flits)": regular.max_packet_flits,
                "buffers (flits)": regular.buffer_depth,
                "regular WCTT (7,7)": regular_bound,
                "WaW+WaP WCTT (7,7)": proposal_bound,
            }
        )
    print(format_title("Packet size and buffering: only the regular design reacts"))
    print(format_table(rows))
    print()


def sweep_registered_experiment() -> None:
    """Run the Table II experiment over a grid through the batch engine.

    The engine caches every design point by config hash in its result
    store, so re-running the exploration (or sharing the store between runs)
    only computes what changed; ``jobs`` fans the misses out over worker
    processes.
    """
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        engine = BatchEngine(jobs=2, store=ResultStore(cache_dir))
        results = engine.sweep("table2", size=(2, 3, 4, 5, 6))
        print(format_title("Registered-experiment sweep through the batch engine"))
        # Read the flattened rows() rather than the native payload: rows keep
        # the same shape whether a result was computed or came from the cache.
        print(
            format_table(
                [
                    {
                        "design point": result.job.describe(),
                        "config hash": result.config_hash,
                        "cached": result.cached,
                        "regular max": result.result.rows()[0]["regular max"],
                        "WaW+WaP max": result.result.rows()[0]["WaW+WaP max"],
                    }
                    for result in results
                ]
            )
        )
        rerun = engine.sweep("table2", size=(2, 3, 4, 5, 6))
        print(f"\nre-sweep hits the cache for all {len(rerun)} points: "
              f"{all(r.cached for r in rerun)}")
    print()


def average_latency_check() -> None:
    rows = []
    for label, config in (
        ("regular", Scenario.mesh(4).regular().build()),
        ("WaW+WaP", Scenario.mesh(4).waw_wap().build()),
    ):
        network = Network(config)
        traffic = UniformRandomTraffic(config.mesh, injection_rate=0.02, payload_flits=4, seed=42)
        traffic.drive(network, cycles=2_000)
        network.run_until_idle(max_cycles=200_000)
        summary = network.stats.latency_summary(network_only=True)
        rows.append(
            {
                "design": label,
                "messages": summary.count,
                "avg latency": round(summary.average, 1),
                "max latency": summary.maximum,
            }
        )
    print(format_title("Average behaviour under uniform random traffic (cycle-accurate)"))
    print(format_table(rows))
    print()


def validate_one_design_point() -> None:
    result = validate_flow_bound(
        Scenario.mesh(4).waw_wap().max_packet_flits(1).build(),
        Coord(3, 3),
        Coord(0, 0),
        congestion_cycles=1_500,
    )
    print(format_title("Bound validation of the chosen design point"))
    print(
        f"  flow (3,3)->(0,0): analytical bound {result.analytical_bound} cycles, "
        f"worst observed {result.observed_worst} cycles "
        f"({result.tightness * 100:.0f}% of the bound) -> safe={result.is_safe}"
    )


def main() -> None:
    sweep_mesh_size()
    sweep_packet_size_and_buffers()
    sweep_registered_experiment()
    average_latency_check()
    validate_one_design_point()


if __name__ == "__main__":
    main()
