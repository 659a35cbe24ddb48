#!/usr/bin/env python3
"""Quickstart: compare worst-case traversal bounds of the two NoC designs.

This is the five-minute tour of the library:

1. describe the two design points of the paper (regular wNoC vs WaW+WaP) on
   the evaluated 8x8 mesh;
2. ask the analytical models for time-composable WCTT bounds of a few flows
   towards the memory controller;
3. build the per-core upper-bound-delay (UBD) table each design would use in
   the WCET-computation mode;
4. double check one flow on the cycle-accurate simulator.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Coord,
    Network,
    UBDTable,
    make_analysis_backend,
    regular_mesh_config,
    waw_wap_config,
)
from repro.analysis.reporting import format_table, format_title


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The two design points: same mesh, same messages, different policies.
    # ------------------------------------------------------------------
    regular = regular_mesh_config(8, max_packet_flits=4)
    proposal = waw_wap_config(8, max_packet_flits=4)
    print(format_title("Design points"))
    print(f"  baseline : {regular.describe()}")
    print(f"  proposal : {proposal.describe()}")
    print()

    # ------------------------------------------------------------------
    # 2. Time-composable WCTT bounds for a near, a mid and a far core.
    # ------------------------------------------------------------------
    memory = regular.memory_controller
    paper = make_analysis_backend(None)  # the paper's bound for each design point
    regular_analysis = paper.analysis(regular)
    proposal_analysis = paper.analysis(proposal)

    rows = []
    for label, core in [("near", Coord(1, 0)), ("mid", Coord(4, 3)), ("far", Coord(7, 7))]:
        regular_bound = regular_analysis.wctt_packet(core, memory, packet_flits=1)
        proposal_bound = proposal_analysis.wctt_packet(core, memory, packet_flits=1)
        rows.append(
            {
                "core": f"{label} {core}",
                "hops to MC": core.manhattan(memory) + 1,
                "regular WCTT": regular_bound,
                "WaW+WaP WCTT": proposal_bound,
                "gain": round(regular_bound / proposal_bound, 2),
            }
        )
    print(format_title("Per-flow WCTT bounds (1-flit request towards the memory controller)"))
    print(format_table(rows))
    print()

    # ------------------------------------------------------------------
    # 3. Upper bound delays: what a memory access costs in WCET mode.
    # ------------------------------------------------------------------
    regular_ubd = UBDTable(regular)
    proposal_ubd = UBDTable(proposal)
    rows = []
    for label, core in [("near", Coord(1, 0)), ("far", Coord(7, 7))]:
        rows.append(
            {
                "core": f"{label} {core}",
                "regular load UBD": regular_ubd.load_ubd(core),
                "WaW+WaP load UBD": proposal_ubd.load_ubd(core),
            }
        )
    print(format_title("Per-core load UBDs (request + memory + cache-line reply)"))
    print(format_table(rows))
    print()

    # ------------------------------------------------------------------
    # 4. Sanity check one uncontended flow on the cycle-accurate simulator.
    # ------------------------------------------------------------------
    network = Network(proposal)
    message = network.send(Coord(7, 7), memory, payload_flits=1, kind="load")
    network.run_until_idle(max_cycles=10_000)
    print(format_title("Cycle-accurate cross-check (no contention)"))
    print(
        f"  simulated zero-load latency (7,7)->(0,0): {message.network_latency} cycles; "
        f"analytical worst case: {proposal_analysis.wctt_packet(Coord(7, 7), memory)} cycles"
    )


if __name__ == "__main__":
    main()
