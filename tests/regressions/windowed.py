"""Windowed sources and gated probes: the adversary of the regression cases.

* A *windowed source* keeps ``w`` messages of ``p`` flits outstanding
  towards the destination from its start cycle on (written ``w×p``).
* The probes are *gated*: each is sent at its cycle, which must come after
  the previous probe has arrived.

Latency is ``Message.network_latency``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.geometry import Coord
from repro.noc.network import Network

#: source -> (start cycle, window w, message flits p)
Sources = Dict[Coord, Tuple[int, int, int]]


def probe_latencies(
    network: Network,
    destination: Coord,
    sources: Sources,
    probe: Coord,
    probe_flits: int,
    probe_cycles: Sequence[int],
) -> List[int]:
    """Run ``sources`` and the gated probes of ``probe -> destination``.

    The sources keep their windows full until the last probe has arrived;
    returns the probes' latencies in sending order.
    """
    live: Dict[Coord, list] = {source: [] for source in sources}
    probes = []
    while len(probes) < len(probe_cycles) or probes[-1].completion_cycle is None:
        cycle = network.cycle
        for source, (start, window, flits) in sources.items():
            if cycle >= start:
                live[source] = [m for m in live[source] if m.completion_cycle is None]
                while len(live[source]) < window:
                    live[source].append(
                        network.send(source, destination, flits, kind="background")
                    )
        if cycle in probe_cycles:
            assert not probes or probes[-1].completion_cycle is not None, "probe not gated"
            probes.append(network.send(probe, destination, probe_flits, kind="probe"))
        network.step()
    return [message.network_latency for message in probes]
