"""Synthetic traffic generators for the NoC simulator.

Three families of generators are provided:

* :class:`UniformRandomTraffic` -- classic uniform random traffic at a
  configurable injection rate, used for average-performance comparisons and
  stress tests;
* :class:`HotspotTraffic` -- every node targets a single hotspot node (the
  memory controller of the evaluated manycore), the pattern under which the
  unfair bandwidth allocation of distributed round-robin shows up;
* :class:`AdversarialCongestionTraffic` -- the validation workload: the
  network is saturated by background flows that interfere with one *victim*
  flow on every hop of its path, and the victim periodically injects probe
  packets whose observed traversal times are compared against the analytical
  WCTT bound.

All generators are deterministic given their seed, so experiments and tests
are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..geometry import Coord, Mesh
from ..noc.flit import Message
from ..noc.network import Network
from ..topology import as_topology

__all__ = ["UniformRandomTraffic", "HotspotTraffic", "AdversarialCongestionTraffic"]


@dataclass
class UniformRandomTraffic:
    """Every node injects packets to uniformly random destinations.

    ``injection_rate`` is the probability that a node injects one message in
    a given cycle (messages per node per cycle).
    """

    mesh: Mesh
    injection_rate: float
    payload_flits: int = 1
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ValueError("injection_rate must be within [0, 1]")
        if self.payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        self._rng = random.Random(self.seed)

    def drive(self, network: Network, cycles: int) -> List[Message]:
        """Inject traffic for ``cycles`` cycles, stepping the network."""
        nodes = list(self.mesh.nodes())
        sent: List[Message] = []
        for _ in range(cycles):
            for src in nodes:
                if self._rng.random() < self.injection_rate:
                    dst = self._rng.choice(nodes)
                    while dst == src:
                        dst = self._rng.choice(nodes)
                    sent.append(
                        network.send(src, dst, self.payload_flits, kind="synthetic")
                    )
            network.step()
        return sent


@dataclass
class HotspotTraffic:
    """Every node sends to one hotspot node at a configurable rate."""

    mesh: Mesh
    hotspot: Coord
    injection_rate: float
    payload_flits: int = 1
    seed: int = 1

    def __post_init__(self) -> None:
        self.mesh.require(self.hotspot)
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ValueError("injection_rate must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def drive(self, network: Network, cycles: int) -> List[Message]:
        sent: List[Message] = []
        sources = [c for c in self.mesh.nodes() if c != self.hotspot]
        for _ in range(cycles):
            for src in sources:
                if self._rng.random() < self.injection_rate:
                    sent.append(
                        network.send(src, self.hotspot, self.payload_flits, kind="hotspot")
                    )
            network.step()
        return sent


@dataclass
class AdversarialCongestionTraffic:
    """Saturating background traffic crafted against one victim flow.

    Every node whose XY route towards the victim's destination shares at
    least one link with the victim's route keeps a configurable number of
    messages outstanding towards that destination, recreating the worst-case
    contention assumption of the analytical models as closely as a real
    (finite-buffer) network allows.  Probe messages of the victim flow are
    injected at a low rate and their latencies recorded.
    """

    mesh: Mesh
    victim_source: Coord
    victim_destination: Coord
    background_outstanding: int = 4
    probe_period: int = 200
    payload_flits: int = 1
    #: Optional allow-list of background sources.  ``None`` (default) lets
    #: every overlapping node interfere; a list restricts the adversary to a
    #: known workload's sources (the ``bound_comparison`` experiment uses
    #: this to simulate sparse workloads matching a flow-aware analysis).
    background_sources: Optional[List[Coord]] = None

    def __post_init__(self) -> None:
        self.mesh.require(self.victim_source)
        self.mesh.require(self.victim_destination)
        if self.victim_source == self.victim_destination:
            raise ValueError("victim source and destination coincide")
        if self.background_outstanding < 1 or self.probe_period < 1:
            raise ValueError("invalid adversarial traffic parameters")
        if self.background_sources is not None:
            for node in self.background_sources:
                self.mesh.require(node)

    # ------------------------------------------------------------------
    def interfering_sources(self) -> List[Coord]:
        """Nodes whose route to the destination overlaps the victim's route."""
        topology = as_topology(self.mesh)
        victim_links = {
            (hop.router, hop.out_port)
            for hop in topology.route(self.victim_source, self.victim_destination)
        }
        allowed = (
            None if self.background_sources is None else set(self.background_sources)
        )
        sources = []
        for node in self.mesh.nodes():
            if node in (self.victim_source, self.victim_destination):
                continue
            if allowed is not None and node not in allowed:
                continue
            links = {
                (hop.router, hop.out_port)
                for hop in topology.route(node, self.victim_destination)
            }
            if links & victim_links:
                sources.append(node)
        return sources

    def drive(self, network: Network, cycles: int) -> Tuple[List[Message], List[Message]]:
        """Run the scenario; returns (probe_messages, background_messages)."""
        interferers = self.interfering_sources()
        outstanding: Dict[Coord, List[Message]] = {src: [] for src in interferers}
        probes: List[Message] = []
        background: List[Message] = []

        for cycle in range(cycles):
            # Keep every interferer's outstanding window full.
            for src in interferers:
                live = [m for m in outstanding[src] if m.completion_cycle is None]
                outstanding[src] = live
                while len(live) < self.background_outstanding:
                    msg = network.send(
                        src, self.victim_destination, self.payload_flits, kind="background"
                    )
                    live.append(msg)
                    background.append(msg)
            if cycle % self.probe_period == 0:
                probes.append(
                    network.send(
                        self.victim_source,
                        self.victim_destination,
                        self.payload_flits,
                        kind="probe",
                    )
                )
            network.step()

        # Drain the probes (stop refilling the background).
        guard = 0
        while any(p.completion_cycle is None for p in probes):
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - defensive
                raise RuntimeError("probe messages did not drain")
            network.step()
        return probes, background

    def worst_probe_latency(self, network: Network, cycles: int) -> int:
        """Convenience wrapper returning the largest observed probe latency."""
        probes, _ = self.drive(network, cycles)
        latencies = [p.network_latency for p in probes if p.network_latency is not None]
        if not latencies:
            raise RuntimeError("no probe completed")
        return max(latencies)
