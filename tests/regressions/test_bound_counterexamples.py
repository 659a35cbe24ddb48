"""The paper's bounds do not hold: the counterexamples of ROADMAP.md item 1.

Each case has two tests.  One pins the latency the simulator observes.  The
other, a strict xfail, asserts that the burst-safe message bound
``repro.analysis.validation.check_bounds`` validates (the paper's backend)
covers it.  When item 1's fix raises a bound above its observation, that
xfail turns XPASS and fails: remove its mark then.  Each case is simulated
once.

* **Shallow buffers**: ``check_bounds``' adversary (gated probes, 1500
  cycles) from the far corner to the memory controller at (0,0).
* **Paper defaults** (3x3, L=4, m=1, depth 4, memory controller at (0,0),
  1-flit probes): ``windowed.py``'s windowed sources and gated probes.  The
  WaW+WaP network and analysis both run the all-to-one weight table, as
  ``check_bounds`` configures them.
* **A lone packet** on a 2x3 regular mesh at depth 1.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.backends import make_analysis_backend
from repro.analysis.validation import check_bounds
from repro.core import FlowSet, WeightTable, regular_mesh_config, waw_wap_config
from repro.geometry import Coord
from repro.noc.network import Network
from windowed import probe_latencies

MC = Coord(0, 0)
CONFIG_FNS = {"regular": regular_mesh_config, "waw_wap": waw_wap_config}

ITEM_1 = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the bound misses a simulated latency (ROADMAP.md item 1)",
)

#: (design, probe flits, buffer depth, mesh width) -> worst probe latency.
SHALLOW = {
    ("waw_wap", 1, 1, 3): 68,
    ("waw_wap", 1, 1, 4): 128,
    ("waw_wap", 1, 1, 6): 213,
    ("waw_wap", 1, 2, 3): 48,
    ("waw_wap", 1, 2, 4): 88,
    ("waw_wap", 1, 2, 6): 258,
    ("regular", 4, 1, 3): 227,
    ("regular", 4, 1, 4): 1367,
}


def _shallow_id(case) -> str:
    design, flits, depth, width = case
    return f"{design}-{flits}flit-depth{depth}-{width}x{width}"


@functools.lru_cache(maxsize=None)
def _shallow(case):
    design, flits, depth, width = case
    config = CONFIG_FNS[design](width, buffer_depth=depth)
    corner = Coord(width - 1, width - 1)
    return check_bounds(config, corner, MC, payload_flits=flits, congestion_cycles=1500)


@pytest.mark.parametrize("case", SHALLOW, ids=_shallow_id)
def test_shallow_buffer_latency(case):
    assert _shallow(case).observed_worst == SHALLOW[case]


@ITEM_1
@pytest.mark.parametrize("case", SHALLOW, ids=_shallow_id)
def test_shallow_buffer_bound_holds(case):
    check = _shallow(case)
    assert check.observed_worst <= check.bounds[None]


#: design -> (sources, probe source, probe cycles, probe latencies).
WINDOWED = {
    "regular": (
        {
            Coord(1, 0): (1, 2, 8),
            Coord(0, 1): (0, 1, 2),
            Coord(2, 1): (0, 2, 1),
            Coord(0, 2): (0, 2, 4),
            Coord(1, 2): (0, 5, 1),
        },
        Coord(2, 2),
        (30,),
        [177],
    ),
    "waw_wap": (
        {
            Coord(1, 0): (0, 1, 3),
            Coord(2, 0): (0, 1, 2),
            Coord(0, 1): (0, 1, 3),
            Coord(2, 1): (0, 3, 3),
            Coord(2, 2): (0, 2, 5),
        },
        Coord(1, 1),
        (22, 53, 111),
        [31, 26, 40],
    ),
}


@functools.lru_cache(maxsize=None)
def _windowed(design):
    """The probes' latencies and the paper's bound of a 1-flit probe message."""
    sources, probe, cycles, _ = WINDOWED[design]
    config = CONFIG_FNS[design](3)
    weights = None
    if config.is_waw:
        weights = WeightTable.from_flow_set(FlowSet.all_to_one(config.mesh, MC))
    network = Network(config, weight_table=weights)
    latencies = probe_latencies(network, MC, sources, probe, 1, cycles)
    # A 1-flit probe is one slice: check_bounds' burst-safe rule is the
    # plain message bound.
    bound = (
        make_analysis_backend(None)
        .validation_analysis(config, destination=MC, weight_table=weights)
        .wctt_message(probe, MC, payload_flits=1)
    )
    return latencies, bound


@pytest.mark.parametrize("design", WINDOWED)
def test_windowed_probe_latencies(design):
    assert _windowed(design)[0] == WINDOWED[design][3]


@ITEM_1
@pytest.mark.parametrize("design", WINDOWED)
def test_windowed_bound_holds(design):
    latencies, bound = _windowed(design)
    assert max(latencies) <= bound


LONE_SOURCE, LONE_DESTINATION = Coord(1, 2), Coord(0, 2)


@functools.lru_cache(maxsize=None)
def _lone_packet():
    """Zero-load latency and paper bound of one 4-flit packet at depth 1."""
    config = regular_mesh_config(2, 3, buffer_depth=1)
    [latency] = probe_latencies(
        Network(config), LONE_DESTINATION, {}, LONE_SOURCE, 4, (0,)
    )
    bound = (
        make_analysis_backend(None)
        .analysis(config)
        .wctt_packet(LONE_SOURCE, LONE_DESTINATION, packet_flits=4)
    )
    return latency, bound


def test_lone_packet_latency():
    assert _lone_packet()[0] == 17


@ITEM_1
def test_lone_packet_bound_holds():
    latency, bound = _lone_packet()
    assert latency <= bound


def test_probes_are_gated():
    """A probe waits for the previous one to arrive.

    Ungated, a probe sent every 200 cycles queues behind the victim's own
    earlier probes once a latency exceeds 200 cycles: this run then
    observed 1570 cycles, above the bound of 1023.
    """
    check = check_bounds(
        regular_mesh_config(4), Coord(3, 3), MC, payload_flits=4, congestion_cycles=2000
    )
    assert (check.observed_worst, check.probes) == (815, 3)
    assert check.observed_worst <= check.bounds[None]
