"""Time-composable WCTT analysis of the *regular* wormhole mesh.

This module derives the worst-case traversal time (WCTT) of a packet through
a conventional wormhole mesh with XY routing and plain round-robin switch
arbitration under the paper's time-composability assumptions (Section II.A):

1. every node may communicate with every other node, so the analysis cannot
   rely on knowing the actual contending flows;
2. whenever a packet is injected, every possible contender is assumed to be
   requesting the same output ports along the whole path;
3. arbitration is round-robin, which guarantees that between two consecutive
   grants to an input port every other requesting input port is granted at
   most once;
4. contending packets have the maximum allowed size ``L``;
5. the network is congested when the packet is injected (full back-pressure).

Under wormhole switching a packet that wins an output port keeps it until its
tail flit has left, and with the network congested the packet can only drain
as fast as it acquires its *next* output port.  The per-packet service time
of an output port is therefore recursive over the downstream hops.  This
recursion -- multiplied at every hop by the number of possible contenders --
is what makes regular-mesh WCTT estimates explode with network size (the
left half of the paper's Table II).

Two variants of the recursion are provided through ``contender_policy``:

* ``"merging"`` (default, reproduces the paper's Table II shape): a contender
  that wins an output port on our path is assumed to continue along *our*
  path towards our destination, i.e. the interfering traffic merges with the
  analysed flow.  This matches the evaluated system, where every flow under
  analysis shares its destination (the memory controller) with its
  contenders, and keeps the bound of nodes adjacent to the destination small
  and independent of the mesh size (the constant ``min`` column of Table II).
* ``"any_direction"``: a contender may continue in whichever legal direction
  maximises its occupancy of the port.  This is the fully destination-
  agnostic (most conservative) bound; it grows faster and penalises even the
  nodes adjacent to the destination.  It is exposed for the ablation study
  (`repro.experiments.ablation_mechanisms`) and for users who need bounds
  valid under arbitrary traffic.

The model is parameterised by the router timing constants of
:class:`~repro.core.config.RouterTiming`; absolute cycle counts therefore
differ from the paper's (whose pipeline constants are not published) but the
growth law and the orders of magnitude are reproduced, which is what the
evaluation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Coord, Mesh, Port
from .config import NoCConfig, RouterTiming

__all__ = [
    "RegularMeshWCTTAnalysis",
    "ServiceTimeBreakdown",
    "CONTENDER_POLICIES",
    "merging_service_times",
    "busy_period_wctt",
]

#: Supported contender downstream-routing assumptions.
CONTENDER_POLICIES = ("merging", "any_direction")


def merging_service_times(
    timing: RouterTiming, contender_flits: int, contenders: Sequence[int]
) -> List[int]:
    """Worst occupancy of each route hop's output port by one contending packet.

    ``contenders[i]`` is the number of inputs (ours included) that may
    request the output port of the route's hop ``i``.  Under the ``merging``
    policy a contender that wins hop ``i``'s port follows the rest of the
    route, so it holds the port until it has won hop ``i + 1``'s port
    against that hop's contenders, each holding it for its own service time.
    The ejection hop drains a ``contender_flits`` packet at link rate.
    """
    serialization = contender_flits * timing.flit_cycle
    services = [0] * len(contenders)
    services[-1] = serialization
    for i in range(len(contenders) - 2, -1, -1):
        occupancy = timing.routing_latency + contenders[i + 1] * services[i + 1]
        services[i] = max(serialization, occupancy) + timing.link_latency
    return services


def busy_period_wctt(
    timing: RouterTiming,
    own_flits: int,
    contenders: Sequence[int],
    services: Sequence[int],
) -> int:
    """WCTT of an ``own_flits`` packet from its route's per-hop contention.

    At every hop the packet waits for one grant to each other contender of
    the hop's output port (round-robin), each holding the port for
    ``services[i]``.  The route is walked backwards, accumulating the
    packet's worst-case progress from each hop's grant to full ejection.
    """
    own_serialization = own_flits * timing.flit_cycle
    progress_after = own_serialization  # after the last (ejection) grant
    for i in range(len(contenders) - 1, 0, -1):
        wait = (contenders[i] - 1) * services[i]
        stage = timing.link_latency + timing.routing_latency + wait + progress_after
        progress_after = max(own_serialization, stage)
    injection_wait = (contenders[0] - 1) * services[0]
    return timing.routing_latency + injection_wait + progress_after


@dataclass(frozen=True)
class ServiceTimeBreakdown:
    """Diagnostic record of one (router, output port) service-time evaluation."""

    router: Coord
    out_port: Port
    contenders: int
    service_time: int
    worst_next_port: Optional[Port]


class RegularMeshWCTTAnalysis:
    """Worst-case traversal time bounds for the regular (baseline) wNoC.

    Parameters
    ----------
    config:
        The NoC design point.  Only the mesh, the timing constants and the
        maximum packet size are used; the arbitration/packetization fields
        are ignored because this analysis *is* the round-robin / single
        packet baseline.
    contender_packet_flits:
        Size assumed for contending packets.  Defaults to the maximum packet
        size of the configuration (assumption 4 of the paper); Table II uses
        1-flit packets network-wide, which corresponds to a configuration
        with ``max_packet_flits=1``.
    contender_policy:
        ``"merging"`` or ``"any_direction"`` (see the module docstring).
    """

    def __init__(
        self,
        config: NoCConfig,
        *,
        contender_packet_flits: Optional[int] = None,
        contender_policy: str = "merging",
    ):
        self.config = config
        self.mesh: Mesh = config.mesh
        self.topology = config.topology
        self.contender_packet_flits = (
            contender_packet_flits
            if contender_packet_flits is not None
            else config.max_packet_flits
        )
        if self.contender_packet_flits < 1:
            raise ValueError("contender_packet_flits must be >= 1")
        if contender_policy not in CONTENDER_POLICIES:
            raise ValueError(
                f"contender_policy must be one of {CONTENDER_POLICIES}, got {contender_policy!r}"
            )
        if contender_policy == "any_direction" and self.topology.has_wraparound:
            # The destination-agnostic recursion walks every legal downstream
            # turn; wrap-around links make that walk cyclic (it never reaches
            # an edge), so the policy is only defined for acyclic topologies.
            raise ValueError(
                "the 'any_direction' contender policy requires an edge-bounded "
                f"topology; use 'merging' on a {self.topology.describe_short()}"
            )
        self.contender_policy = contender_policy
        self._service_cache: Dict[Tuple[Coord, Port], int] = {}
        self._breakdowns: Dict[Tuple[Coord, Port], ServiceTimeBreakdown] = {}

    # ------------------------------------------------------------------
    # Contention structure
    # ------------------------------------------------------------------
    def contender_count(self, router: Coord, out_port: Port) -> int:
        """Number of input ports that may request ``out_port`` (incl. ours)."""
        return len(self.topology.legal_inputs_for_output(router, out_port))

    # ------------------------------------------------------------------
    # Worst-case per-packet service time of an output port
    # ------------------------------------------------------------------
    def service_time_any_direction(self, router: Coord, out_port: Port) -> int:
        """Service time under the ``any_direction`` contender policy (memoised)."""
        key = (router, out_port)
        cached = self._service_cache.get(key)
        if cached is not None:
            return cached

        timing = self.config.timing
        serialization = self.contender_packet_flits * timing.flit_cycle

        if out_port is Port.LOCAL:
            value = serialization
            breakdown = ServiceTimeBreakdown(router, out_port, 0, value, None)
        else:
            downstream = self.topology.downstream(router, out_port)
            if downstream is None:
                raise ValueError(f"output port {out_port} of {router} leaves the topology")
            in_port = out_port  # travel-direction port naming
            worst = 0
            worst_port: Optional[Port] = None
            for next_out in self.topology.legal_outputs_for_input(downstream, in_port):
                contenders = self.contender_count(downstream, next_out)
                next_service = self.service_time_any_direction(downstream, next_out)
                occupancy = timing.routing_latency + contenders * next_service
                if occupancy > worst:
                    worst = occupancy
                    worst_port = next_out
            value = max(serialization, worst) + timing.link_latency
            breakdown = ServiceTimeBreakdown(
                router, out_port, self.contender_count(router, out_port), value, worst_port
            )

        self._service_cache[key] = value
        self._breakdowns[key] = breakdown
        return value

    def service_breakdown(self, router: Coord, out_port: Port) -> ServiceTimeBreakdown:
        """Diagnostic breakdown of an ``any_direction`` service-time computation."""
        self.service_time_any_direction(router, out_port)
        return self._breakdowns[(router, out_port)]

    # ------------------------------------------------------------------
    # Worst-case traversal time of a packet along its own route
    # ------------------------------------------------------------------
    def wctt_packet(
        self, source: Coord, destination: Coord, *, packet_flits: Optional[int] = None
    ) -> int:
        """WCTT (cycles) of one packet of ``packet_flits`` flits.

        The bound follows the packet along its XY route; at every hop the
        packet waits for one maximum-size packet of every other possible
        contender of the requested output port (round-robin), where each
        contender may hold the port for its full back-pressure-aware service
        time.
        """
        if source == destination:
            raise ValueError("source and destination coincide")
        own_flits = packet_flits if packet_flits is not None else self.config.max_packet_flits
        if own_flits < 1:
            raise ValueError("packet_flits must be >= 1")

        timing = self.config.timing
        route = self.topology.route(source, destination)
        contenders = [self.contender_count(hop.router, hop.out_port) for hop in route]
        if self.contender_policy == "any_direction":
            services = [
                self.service_time_any_direction(hop.router, hop.out_port) for hop in route
            ]
        else:
            services = merging_service_times(
                timing, self.contender_packet_flits, contenders
            )
        return busy_period_wctt(timing, own_flits, contenders, services)

    def wctt_message(
        self, source: Coord, destination: Coord, *, payload_flits: int
    ) -> int:
        """WCTT of a whole message under regular single-packet packetization.

        A message that fits the maximum packet size is one packet; larger
        messages are split into maximum-size packets whose worst-case times
        add up (no pipelining is guaranteed under round-robin arbitration
        because every packet re-arbitrates against full contention).
        """
        if payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        max_flits = self.config.max_packet_flits
        full, rest = divmod(payload_flits, max_flits)
        total = 0
        if full:
            total += full * self.wctt_packet(source, destination, packet_flits=max_flits)
        if rest:
            total += self.wctt_packet(source, destination, packet_flits=rest)
        return total
