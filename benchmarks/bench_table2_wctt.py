"""Benchmark E2 -- regenerate paper Table II (WCTT scaling with mesh size)."""

from __future__ import annotations

from repro.experiments import table2_wctt


def bench_table2_full(benchmark):
    """All mesh sizes 2x2..8x8, both designs, 1-flit packets (the full table)."""
    rows = benchmark.pedantic(table2_wctt.run, rounds=1, iterations=1)
    by_mesh = {r.mesh: r for r in rows}

    # Headline claims of the paper:
    # (1) at 8x8 the regular worst case sits orders of magnitude above WaW+WaP;
    eight = by_mesh["8x8"]
    assert eight.regular.maximum > 1_000 * eight.waw_wap.maximum
    # (2) the regular minimum does not grow with the mesh size;
    assert by_mesh["3x3"].regular.minimum == by_mesh["8x8"].regular.minimum
    # (3) the WaW+WaP bounds stay uniform (max within a small factor of min).
    assert eight.waw_wap.maximum < 10 * eight.waw_wap.minimum

    benchmark.extra_info["regular_max_8x8"] = eight.regular.maximum
    benchmark.extra_info["waw_wap_max_8x8"] = eight.waw_wap.maximum
    print()
    print(table2_wctt.report(rows))


def bench_table2_regular_8x8_analysis_only(benchmark):
    """Cost of the regular-mesh analysis alone on the 64-node chip."""
    from repro.analysis.backends import make_analysis_backend
    from repro.core.config import regular_mesh_config
    from repro.core.flows import FlowSet
    from repro.core.wctt import wctt_summary
    from repro.geometry import Coord

    config = regular_mesh_config(8, max_packet_flits=1)
    flows = FlowSet.all_to_one(config.mesh, Coord(0, 0))
    regular = make_analysis_backend("regular")

    def run():
        return wctt_summary(regular.analysis(config), flows, packet_flits=1)

    summary = benchmark(run)
    assert summary.maximum > summary.minimum


def bench_table2_waw_wap_8x8_analysis_only(benchmark):
    """Cost of the WaW+WaP analysis alone on the 64-node chip."""
    from repro.core.config import waw_wap_config
    from repro.core.flows import FlowSet
    from repro.core.wctt import wctt_summary
    from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
    from repro.geometry import Coord

    config = waw_wap_config(8, max_packet_flits=1)
    flows = FlowSet.all_to_one(config.mesh, Coord(0, 0))

    def run():
        analysis = WaWWaPWCTTAnalysis.for_memory_traffic(config, include_replies=False)
        return wctt_summary(analysis, flows, packet_flits=1)

    summary = benchmark(run)
    assert summary.maximum < 10 * summary.minimum
