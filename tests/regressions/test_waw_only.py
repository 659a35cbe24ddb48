"""A WaW-only design has no paper bound: the counterexample that shows it.

The paper's regular-mesh bound assumes round-robin arbitration: at most one
grant to each other input between two grants to ours.  Weighted arbitration
without WaP (``Scenario.waw_only()``) breaks that premise.  On a 3x3 WaW-only
mesh at buffer depth 4, the windowed adversary below delays a 2-flit probe
(2,0)->(0,0) by 40 cycles, above the regular bound of 29.  The flow-aware
backends' burst-safe bounds (77) hold.  That is why every path that serves
the paper's bound refuses WaW-only designs
(``tests/test_analysis_backends.py::TestWaWOnlyRefused``).

The adversary is ``windowed.py``'s: windowed sources and gated probes.  The
WaW arbiters run the destination's all-to-one weight table, as
``repro.analysis.validation.check_bounds`` configures them.
"""

from __future__ import annotations

from repro.analysis.backends import make_analysis_backend
from repro.api.scenario import Scenario
from repro.core import FlowSet, RegularMeshWCTTAnalysis, WeightTable
from repro.geometry import Coord
from repro.noc.network import Network
from windowed import probe_latencies

MC = Coord(0, 0)
PROBE = Coord(2, 0)
PROBE_FLITS = 2
#: source -> (start cycle, window w, message flits p)
SOURCES = {
    Coord(1, 0): (2, 6, 8),
    Coord(0, 1): (7, 4, 8),
    Coord(1, 1): (11, 1, 1),
    Coord(0, 2): (19, 5, 2),
    Coord(2, 1): (31, 3, 4),
}
PROBE_CYCLES = (9, 99, 139, 160, 196)
#: The probes' simulated network latencies.
LATENCIES = [19, 40, 21, 36, 25]


def _config():
    return Scenario.mesh(3).waw_only().buffer_depth(4).build()


def _weights(config):
    return WeightTable.from_flow_set(FlowSet.all_to_one(config.mesh, MC))


def _probe_latencies():
    config = _config()
    network = Network(config, weight_table=_weights(config))
    return probe_latencies(network, MC, SOURCES, PROBE, PROBE_FLITS, PROBE_CYCLES)


def test_a_probe_exceeds_the_regular_bound_on_a_waw_only_mesh():
    config = _config()
    regular = RegularMeshWCTTAnalysis(config).wctt_message(
        PROBE, MC, payload_flits=PROBE_FLITS
    )
    assert _probe_latencies() == LATENCIES
    assert regular == 29 and max(LATENCIES) > regular


def test_the_flow_aware_validation_bounds_hold():
    # Without WaP, check_bounds charges a probe message its plain message bound.
    config = _config()
    bounds = [
        make_analysis_backend(name)
        .validation_analysis(config, destination=MC, weight_table=_weights(config))
        .wctt_message(PROBE, MC, payload_flits=PROBE_FLITS)
        for name in ("holistic", "trajectory")
    ]
    assert bounds == [77, 77]
    assert max(LATENCIES) <= min(bounds)
