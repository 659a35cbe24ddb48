"""Benchmark: event-driven vs cycle-accurate backend on the EEMBC workload.

The paper's Table III workload -- each EEMBC-Autobench-like benchmark running
alone against the memory controller of the 8x8 mesh -- is the regime the
event-driven backend was built for: long compute gaps between NoC round
trips that the cycle-accurate reference walks one cycle at a time.  This
benchmark runs the full suite under both backends, asserts the makespans
are bit-identical and records the wall-clock trajectory in
``BENCH_sim.json`` at the repository root.

The event backend's savings are guarded by work counts, not by a
wall-clock ratio: ``tests/test_work_counters.py`` pins the cycles, system
steps, router steps and forwarded flits of this exact workload, and those
pins fail when event jumps are disabled or when idle routers are stepped.
"""

from __future__ import annotations

import json
import os
import time

from repro.api import Scenario
from repro.geometry import Coord
from repro.manycore.system import ManycoreSystem
from repro.workloads.eembc import autobench_suite

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_sim.json")

#: Scaled-down instruction counts keep the cycle-accurate reference runnable
#: in CI; the compute-gap structure (and therefore the speedup regime) is
#: scale-invariant.
PROFILE_SCALE = 0.005
MESH_SIZE = 8


def _run_suite(backend: str) -> "tuple[dict, float]":
    """Run every benchmark alone at the far corner; return makespans + time."""
    config = Scenario.mesh(MESH_SIZE).waw_wap().backend(backend).build()
    far_corner = Coord(MESH_SIZE - 1, MESH_SIZE - 1)
    makespans = {}
    start = time.perf_counter()
    for profile in autobench_suite():
        system = ManycoreSystem(config)
        system.add_profile_core(far_corner, profile.scaled(PROFILE_SCALE))
        system.run_to_completion()
        makespans[profile.name] = system.makespan()
    return makespans, time.perf_counter() - start


def bench_event_driven_vs_cycle_accurate(benchmark):
    """Wall-clock of both backends over the 16-benchmark EEMBC suite."""
    cycle_makespans, cycle_seconds = _run_suite("cycle")

    event_state = {}

    def run_event():
        event_state["makespans"], event_state["seconds"] = _run_suite("event")

    benchmark.pedantic(run_event, rounds=1, iterations=1)
    event_makespans = event_state["makespans"]
    event_seconds = event_state["seconds"]

    # Differential guard: the speedup is only worth anything if the numbers
    # are exactly the cycle-accurate ones.
    assert event_makespans == cycle_makespans

    speedup = cycle_seconds / event_seconds
    record = {
        "benchmark": "table3-eembc-per-core (each Autobench kernel alone at "
        f"({MESH_SIZE - 1},{MESH_SIZE - 1}) of the {MESH_SIZE}x{MESH_SIZE} "
        "WaW+WaP mesh)",
        "profile_scale": PROFILE_SCALE,
        "benchmarks": len(cycle_makespans),
        "simulated_cycles_total": sum(cycle_makespans.values()),
        "cycle_accurate_seconds": round(cycle_seconds, 3),
        "event_driven_seconds": round(event_seconds, 3),
        "speedup": round(speedup, 2),
        "makespans_identical": True,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    benchmark.extra_info.update(record)


def bench_event_driven_drain_throughput(benchmark):
    """Event-driven drain of a bursty hotspot load on the 8x8 mesh."""
    from repro.noc.network import Network

    config = Scenario.mesh(8).waw_wap().backend("event").build()

    def run():
        network = Network(config)
        for src in config.mesh.nodes():
            if src != Coord(0, 0):
                network.send(src, Coord(0, 0), 4, kind="load")
        network.run_until_idle(max_cycles=500_000)
        return network.stats.completed_messages

    assert benchmark.pedantic(run, rounds=2, iterations=1) == 63
