"""Flow-set-aware competing WCTT analyses: holistic and trajectory.

The paper's analyses are *traffic-agnostic*: the regular-mesh bound charges
every legal input port of every crossed output port (assumption 1 of Section
II.A -- "every node may communicate with every other node"), and the WaW+WaP
bound charges one full arbitration round per hop.  When the interfering
traffic is actually known -- the evaluated manycore only carries core <->
memory-controller flows -- both over-approximate: input ports that carry no
flow of the workload never request an output port and contribute no
contention.

This module adds two analyses that exploit a known interfering
:class:`~repro.core.flows.FlowSet`, the classic competing lenses of the
WCRT-analysis literature (holistic vs trajectory):

* :class:`HolisticAnalysis` -- a per-router busy-period view.  At every
  output port crossed by the packet the *input ports* that carry at least
  one interfering flow are charged: each active input contributes its
  worst-case occupancy once per arbitration round (its WaW flit credits
  under weighted arbitration, one packet slot under round-robin), and the
  per-packet occupancy is the same back-pressure-aware downstream recursion
  the regular-mesh reference uses.  Restricted to a full all-to-one flow set
  on the plain mesh this collapses to exactly the regular recursion, which
  is how the analysis inherits the reference's validated structure.
* :class:`TrajectoryAnalysis` -- a path-following view.  The bound walks the
  packet's route source -> destination and accumulates, per hop, one
  worst-case service per interfering *flow* crossing the hop's output port
  (not per input port).  Counting flows instead of ports is never below the
  holistic per-port pressure (every active port carries >= 1 flow, and under
  WaW each flow is charged at least its port's credit share), and the
  accumulation is a plain sum with no progress ``max()`` -- so the
  trajectory bound dominates the holistic bound hop for hop.  It is the
  deliberately pessimistic second opinion of the pair.

On a WaW+WaP design both analyses switch to the *local* per-hop model the
paper's weighted bound is built on (min-size packets are fully absorbed by
downstream buffers, so a hop's delay no longer depends on downstream
contention): one arbitration round per hop, but a round only serves the
*active* inputs' credit slots instead of every input's -- which is exactly
where a flow-aware bound can beat the paper on sparse workloads.

Burst safety: the adversarial validation traffic keeps several messages per
flow outstanding, so interfering packets may sit *ahead of the analysed
packet in its own input buffer*.  Under round-robin with recursive service
times the busy-period recursion dominates any finite backlog (the same
argument the regular reference relies on and the validation experiment
confirms); under WaW+WaP the buffered backlog is charged explicitly as
extra arbitration rounds, as the weighted bound's burst-safe variant
does.  Both analyses are therefore burst-safe as-is and serve as their own
validation variant.

The per-hop rules are the paper analyses' own: the merging service
recursion and busy-period walk of :mod:`repro.core.wctt_regular` and the
WaW+WaP hop charge of :mod:`repro.core.wctt_weighted`, fed with flow-aware
contention instead of every legal input's.

Both analyses are topology-generic: routes, port legality and downstream
links all come from :mod:`repro.topology`, so tori, rings and concentrated
meshes analyse exactly like the plain mesh.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.config import NoCConfig
from ..core.flows import Flow, FlowSet
from ..core.wctt_regular import busy_period_wctt, merging_service_times
from ..core.wctt_weighted import waw_hop_delay
from ..core.weights import WeightTable
from ..geometry import Coord, Mesh, Port

__all__ = ["FlowAwareWCTTAnalysis", "HolisticAnalysis", "TrajectoryAnalysis"]


class FlowAwareWCTTAnalysis:
    """Common machinery of the holistic and trajectory analyses.

    Parameters
    ----------
    config:
        The NoC design point.  Any arbitration/packetization combination is
        accepted: WaP bounds the contending packet size to ``m`` flits, WaW
        weights the per-input pressure by the input's flit credits.
    flow_set:
        The interfering flows.  Defaults to the all-to-one memory traffic of
        the evaluated manycore (every node towards the memory controller).
        The bound only covers flows of this set -- analysing a flow outside
        it raises.
    weight_table:
        WaW credits per input port.  Only consulted on weighted-arbitration
        designs; defaults to the weights derived from ``flow_set`` (the
        table the hardware of the evaluated system would be configured
        with).  Pass the network's actual table when it differs.
    """

    def __init__(
        self,
        config: NoCConfig,
        flow_set: Optional[FlowSet] = None,
        *,
        weight_table: Optional[WeightTable] = None,
    ):
        self.config = config
        self.mesh: Mesh = config.mesh
        self.topology = config.topology
        self.flow_set: FlowSet = (
            flow_set
            if flow_set is not None
            else FlowSet.all_to_one(config.mesh, config.memory_controller)
        )
        if len(self.flow_set) == 0:
            raise ValueError("flow-aware analyses need a non-empty flow set")
        self.weights: Optional[WeightTable] = None
        if config.is_waw:
            self.weights = (
                weight_table.require_topology(self.topology)
                if weight_table is not None
                else WeightTable.from_flow_set(self.flow_set)
            )
        #: Size assumed for contending packets: WaP caps every arbitration
        #: slot at the minimum packet size, otherwise contenders are maximal.
        self.contender_packet_flits = (
            config.min_packet_flits if config.is_wap else config.max_packet_flits
        )
        self._crossing_cache: Dict[Tuple[Coord, Port], Dict[Port, int]] = {}
        self._pressure_cache: Dict[Tuple[Coord, Port], int] = {}

    # ------------------------------------------------------------------
    # Contention structure
    # ------------------------------------------------------------------
    def crossing_by_input(self, router: Coord, out_port: Port) -> Dict[Port, int]:
        """Interfering-flow count per input port feeding ``out_port``."""
        key = (router, out_port)
        cached = self._crossing_cache.get(key)
        if cached is not None:
            return cached
        crossing: Dict[Port, int] = {}
        for flow in self.flow_set.flows_through_output(router, out_port):
            for hop in flow.route(self.mesh):
                if hop.router == router and hop.out_port == out_port:
                    crossing[hop.in_port] = crossing.get(hop.in_port, 0) + 1
                    break
        self._crossing_cache[key] = crossing
        return crossing

    def _input_slots(self, router: Coord, in_port: Port) -> int:
        """Packet slots an active input may consume per arbitration round."""
        if self.weights is None:
            return 1  # round-robin: one grant between two grants to ours
        return max(1, self.weights.input_credits(router, in_port))

    def _port_pressure(self, router: Coord, crossing: Dict[Port, int]) -> int:
        """Subclass hook: contending packet slots per round of one port."""
        raise NotImplementedError

    def pressure(self, router: Coord, out_port: Port) -> int:
        """Worst-case contending packet slots per round of ``out_port``.

        Zero when no interfering flow crosses the port at all.
        """
        key = (router, out_port)
        cached = self._pressure_cache.get(key)
        if cached is None:
            cached = self._port_pressure(router, self.crossing_by_input(router, out_port))
            self._pressure_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Packet / message bounds
    # ------------------------------------------------------------------
    def _own_flow(self, source: Coord, destination: Coord) -> Flow:
        if source == destination:
            raise ValueError("source and destination coincide")
        flow = Flow(source, destination)
        if flow not in self.flow_set:
            raise ValueError(
                f"flow {source}->{destination} is not part of the interfering "
                f"flow set this {type(self).__name__} was built for; construct "
                "the analysis with a flow set containing it"
            )
        return flow

    def _own_flits(self, packet_flits: Optional[int]) -> int:
        if packet_flits is None:
            return (
                self.config.min_packet_flits
                if self.config.is_wap
                else self.config.max_packet_flits
            )
        if packet_flits < 1:
            raise ValueError("packet_flits must be >= 1")
        if self.config.is_wap and packet_flits > self.config.min_packet_flits:
            raise ValueError(
                "WaP never injects packets larger than the minimum size "
                f"({self.config.min_packet_flits} flits); got {packet_flits}"
            )
        return packet_flits

    def wctt_packet(
        self, source: Coord, destination: Coord, *, packet_flits: Optional[int] = None
    ) -> int:
        """WCTT of one packet of a flow of the set.

        On a WaW+WaP design, the sum of the weighted bound's burst-safe hop
        charge over the route, each round serving the active inputs' slots
        only.  Otherwise the regular merging recursion over the route's
        flow-aware pressures, accumulated by :meth:`_route_bound`.
        """
        self._own_flow(source, destination)
        own_flits = self._own_flits(packet_flits)
        route = self.topology.route(source, destination)
        pressures = [max(1, self.pressure(hop.router, hop.out_port)) for hop in route]
        if self.config.is_waw_wap:
            return sum(
                waw_hop_delay(
                    self.config,
                    hop.out_port,
                    slots,
                    self._input_slots(hop.router, hop.in_port),
                )
                for hop, slots in zip(route, pressures)
            )
        services = merging_service_times(
            self.config.timing, self.contender_packet_flits, pressures
        )
        return self._route_bound(own_flits, pressures, services)

    def _route_bound(
        self, own_flits: int, pressures: List[int], services: List[int]
    ) -> int:
        """Subclass hook: the packet bound from per-hop pressures and
        output-port service times."""
        raise NotImplementedError

    def wctt_message(self, source: Coord, destination: Coord, *, payload_flits: int) -> int:
        """WCTT of a whole message: the sum of its slices' packet bounds.

        Deliberately NO inter-slice pipelining credit: the weighted
        reference's ``first + (slices - 1) * bottleneck_round`` argument
        assumes regulated contenders, and against non-conforming (bursty)
        traffic the input-buffer backlog re-accumulates between slices --
        the ``bound_comparison`` experiment demonstrates observations above
        the pipelined bound.  Charging every slice the full packet bound
        keeps the flow-aware message bounds burst-safe as-is.
        """
        if payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        if self.config.is_wap:
            slices = self.config.messages.wap_slices(payload_flits)
            return slices * self.wctt_packet(source, destination)
        max_flits = self.config.max_packet_flits
        full, rest = divmod(payload_flits, max_flits)
        total = 0
        if full:
            total += full * self.wctt_packet(source, destination, packet_flits=max_flits)
        if rest:
            total += self.wctt_packet(source, destination, packet_flits=rest)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.config.describe()}, "
            f"{len(self.flow_set)} interfering flows)"
        )


class HolisticAnalysis(FlowAwareWCTTAnalysis):
    """Per-router busy-period iteration over the interfering flow set.

    The packet's route is walked destination -> source: the converged
    busy-period length of each output port (one full round of every active
    input's slots, each slot held for the back-pressure-aware downstream
    service time) feeds the wait of the hop before it, exactly like the
    regular reference -- but only input ports that actually carry an
    interfering flow are charged, and under WaW each is charged its
    configured credit share.
    """

    def _port_pressure(self, router: Coord, crossing: Dict[Port, int]) -> int:
        return sum(self._input_slots(router, in_port) for in_port in crossing)

    def _route_bound(
        self, own_flits: int, pressures: List[int], services: List[int]
    ) -> int:
        return busy_period_wctt(self.config.timing, own_flits, pressures, services)


class TrajectoryAnalysis(FlowAwareWCTTAnalysis):
    """Path-following worst-case accumulation along the packet's route.

    The bound follows the packet source -> destination and simply adds, per
    hop, the router pipeline, the link and a wait of one worst-case service
    per interfering *flow* crossing the output port.  Charging flows rather
    than input ports (and a plain sum rather than the holistic progress
    ``max``) makes this bound dominate the holistic one everywhere -- the
    conservative end of the competing pair.
    """

    def _port_pressure(self, router: Coord, crossing: Dict[Port, int]) -> int:
        if self.weights is None:
            return sum(crossing.values())
        return sum(
            max(count, self._input_slots(router, in_port))
            for in_port, count in crossing.items()
        )

    def _route_bound(
        self, own_flits: int, pressures: List[int], services: List[int]
    ) -> int:
        timing = self.config.timing
        total = timing.routing_latency  # injection-router pipeline
        for i, (pressure, service) in enumerate(zip(pressures, services)):
            if i > 0:
                total += timing.link_latency + timing.routing_latency
            total += (pressure - 1) * service
        return total + own_flits * timing.flit_cycle
