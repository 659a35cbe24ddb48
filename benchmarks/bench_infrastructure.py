"""Infrastructure micro-benchmarks (not tied to a specific paper artefact).

These track the cost of the two computational kernels every experiment rests
on -- the analytical WCTT evaluation and the cycle-accurate simulation loop --
so that performance regressions in the library itself are visible.
"""

from __future__ import annotations

from repro.analysis.backends import make_analysis_backend
from repro.core.config import regular_mesh_config, waw_wap_config
from repro.core.ubd import UBDTable
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.geometry import Coord
from repro.noc.network import Network


def bench_regular_wctt_corner_flow(benchmark):
    """One corner-to-corner regular-mesh WCTT evaluation on the 8x8 chip."""
    config = regular_mesh_config(8, max_packet_flits=4)
    regular = make_analysis_backend("regular")

    def run():
        analysis = regular.analysis(config)
        return analysis.wctt_packet(Coord(7, 7), Coord(0, 0), packet_flits=1)

    assert benchmark(run) > 0


def bench_waw_wap_full_ubd_table(benchmark):
    """Building the full 63-core UBD table for the WaW+WaP design."""
    config = waw_wap_config(8, max_packet_flits=4)

    def run():
        return UBDTable(config)

    table = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(table) == 63


def bench_network_cycle_loop_idle(benchmark):
    """Cost of stepping an idle 8x8 network for 1000 cycles."""
    network = Network(waw_wap_config(8))

    def run():
        network.run(1_000)
        return network.cycle

    assert benchmark.pedantic(run, rounds=2, iterations=1) > 0


def bench_network_cycle_loop_loaded(benchmark):
    """Cost of delivering a burst of hotspot messages on a 4x4 network."""
    config = regular_mesh_config(4)

    def run():
        network = Network(config)
        for _ in range(5):
            for src in config.mesh.nodes():
                if src != Coord(0, 0):
                    network.send(src, Coord(0, 0), 4, kind="load")
        network.run_until_idle(max_cycles=100_000)
        return network.stats.completed_messages

    assert benchmark.pedantic(run, rounds=2, iterations=1) == 75


def bench_memory_traffic_weight_analysis(benchmark):
    """Building the WaW+WaP analysis with memory-traffic weights (8x8)."""

    def run():
        return WaWWaPWCTTAnalysis.for_memory_traffic(waw_wap_config(8))

    analysis = benchmark.pedantic(run, rounds=2, iterations=1)
    assert analysis.round_flits(Coord(0, 0), list(analysis.mesh.output_ports(Coord(0, 0)))[0]) >= 1
