#!/usr/bin/env python3
"""Competing analysis backends on one design point, then the full experiment.

The analysis-backend registry makes the WCTT analysis itself a design axis:
the paper's ``regular`` / ``weighted`` bounds and the flow-aware
``holistic`` and ``trajectory`` analyses all answer the same questions
through one interface.  This example

1. bounds one victim flow of a 4x4 WaW+WaP design with every applicable
   backend, on the full all-to-one workload and on a sparse checkerboard
   workload -- the regime where flow-aware analyses beat the paper's
   traffic-agnostic bounds;
2. cross-checks the sparse-workload bounds against the cycle-accurate
   simulator's most adversarial congestion with ``check_bounds``, the one
   soundness check the ``validation`` and ``bound_comparison`` experiments
   share;
3. runs the registered ``bound_comparison`` experiment (quick grid) and
   prints its tightness report.

Run it with::

    python examples/bound_comparison.py
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.backends import make_analysis_backend
from repro.analysis.reporting import format_table, format_title
from repro.analysis.validation import AdversarialCheck, check_bounds
from repro.api import Scenario
from repro.core.flows import FlowSet
from repro.core.weights import WeightTable
from repro.experiments import bound_comparison
from repro.geometry import Coord

SCENARIO = Scenario.mesh(4).waw_wap()
BACKENDS = ("weighted", "holistic", "trajectory")


def _workloads(config):
    """The full all-to-one flow set and a sparse checkerboard subset."""
    dst = config.memory_controller
    victim = Coord(3, 3)
    nodes = [n for n in config.mesh.nodes() if n != dst]
    sparse = [n for n in nodes if (n.x + n.y) % 2 == 0 or n == victim]
    return victim, dst, {
        "full": FlowSet.from_pairs(config.mesh, [(n, dst) for n in nodes]),
        "sparse": FlowSet.from_pairs(config.mesh, [(n, dst) for n in sparse]),
    }


def bound_rows() -> List[Dict[str, object]]:
    config = SCENARIO.build()
    victim, dst, workloads = _workloads(config)
    # The WaW arbiters are statically configured for the general all-to-one
    # case; a sparse workload does not re-weight the hardware.
    static_weights = WeightTable.from_flow_set(
        FlowSet.all_to_one(config.mesh, dst)
    )
    rows = []
    for workload, flow_set in workloads.items():
        row: Dict[str, object] = {
            "workload": workload,
            "flows": len(flow_set),
            "flow": f"{victim}->{dst}",
        }
        for name in BACKENDS:
            backend = make_analysis_backend(name)
            analysis = backend.validation_analysis(
                config, destination=dst, flow_set=flow_set,
                weight_table=static_weights,
            )
            row[name] = analysis.wctt_packet(victim, dst)
        rows.append(row)
    return rows


def sparse_check() -> AdversarialCheck:
    """Every backend's bound vs the worst probe latency under adversarial
    sparse-workload congestion (one-flit probes, 1200 cycles)."""
    config = SCENARIO.build()
    victim, dst, workloads = _workloads(config)
    return check_bounds(
        config,
        victim,
        dst,
        BACKENDS,
        payload_flits=1,
        congestion_cycles=1_200,
        background_sources=[f.source for f in workloads["sparse"]],
    )


def main() -> None:
    print(format_title("Burst-safe packet bounds of one victim flow (4x4 WaW+WaP)"))
    rows = bound_rows()
    print(format_table(rows))
    print()

    check = sparse_check()
    worst = check.observed_worst
    print(f"worst simulated probe latency under the sparse adversary: {worst}")
    for name, bound in check.bounds.items():
        print(f"  {name:10s} bound {bound:4d}  slack {bound - worst:4d}  "
              f"{'sound' if bound >= worst else 'UNSOUND'}")
    print()

    print("Running the registered bound_comparison experiment (quick grid)...")
    print()
    result = bound_comparison.run(
        mesh_sizes=(3,), payload_sizes=(1,), congestion_cycles=600
    )
    print(bound_comparison.report(result))


if __name__ == "__main__":
    main()
