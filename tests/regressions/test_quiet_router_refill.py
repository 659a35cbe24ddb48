"""A quiet router does not refill its WaW counters the way the paper's arbiter does.

The paper's WaW arbiter adds one credit to every counter below its weight in
each cycle in which nobody requests the output.  ``Router._settle_idle``
instead gives every arbiter ``buffer_depth`` idle cycles once, when the
router goes quiet, however long it then stays quiet.  A counter drained by
more than ``buffer_depth`` therefore stays below its weight for good.

Recipe: a 4x4 WaW+WaP mesh on the cycle-accurate backend; three rounds of
one 4-flit ``load`` from every other node to the memory controller at (0,0);
drain (cycle 250); then 500 idle cycles.  The ``Y-`` output of router (0,1)
still holds its ``Y-`` input at 5 credits of a weight of 8; at one credit
per idle cycle it would have been back at 8 after three.

A fix can change the simulated timing of every WaW design, and so the
benchmark's pinned trials: it belongs with the bound work of ROADMAP.md
item 1 and its benchmark re-pin.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.geometry import Coord
from repro.noc.network import Network

MC = Coord(0, 0)


@pytest.mark.xfail(
    strict=True,
    reason="a quiet router refills WaW counters by buffer_depth once (ROADMAP.md item 1)",
)
def test_idle_cycles_refill_every_waw_counter():
    config = Scenario.mesh(4).waw_wap().backend("cycle").build()
    network = Network(config)
    for _ in range(3):
        for source in config.mesh.nodes():
            if source != MC:
                network.send(source, MC, 4, kind="load")
    assert network.run_until_idle() == 250
    network.run(500)
    short = {
        (coord, out, port): (arbiter.credit_of(port), weight)
        for coord, router in network.routers.items()
        for out, arbiter in router.arbiters.items()
        for port, weight in arbiter.weights.items()
        if arbiter.credit_of(port) != weight
    }
    assert short == {}
