"""Time-composable WCTT analysis of the WaW + WaP wormhole mesh.

With the paper's two mechanisms in place the worst-case traversal time of a
packet no longer depends on how long contenders' packets are (WaP bounds
every arbitration slot to the minimum packet size ``m``) nor on how unfairly
the distributed round-robin arbiters split bandwidth (WaW guarantees every
input port of every output port a fixed share of the link).  The bound for a
packet then becomes *local* to each hop:

* at every output port ``o`` crossed by the packet, one full weighted
  arbitration round serves ``O`` flits, where ``O`` is the total weight of
  the port (the number of flows -- or upstream sources -- that can use it);
  the packet's input port owns ``I`` of those slots;
* in the worst case the packet finds the round at the least favourable
  position and every slot of the round is used, so it is forwarded after at
  most ``O`` flit times plus the router pipeline latency;
* subsequent packets of the same flow (WaP slices of a longer message) are
  guaranteed one slot per round on every port of the path, so the message
  rate is bounded by the largest round along the path.

The per-hop delays simply add up along the route, which yields bounds that
grow polynomially (roughly quadratically for the corner-to-corner flow) with
the mesh dimension and are within a small factor of each other across flows
-- the right half of the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..geometry import Coord, Mesh, Port
from .config import NoCConfig
from .flows import FlowSet
from .weights import WeightTable

__all__ = ["WaWWaPWCTTAnalysis", "HopDelayBreakdown", "waw_hop_delay"]


def waw_hop_delay(
    config: NoCConfig, out_port: Port, round_slots: int, input_slots: Optional[int] = None
) -> int:
    """Worst-case cycles for a minimum-size packet to cross one WaW+WaP hop.

    The router pipeline, full arbitration rounds of the output port of
    ``round_slots`` minimum-size packets each, and the link (none on
    ejection).  Regulated contenders leave one round's worth of backlog
    ahead of the packet, so one round is charged.  With ``input_slots``,
    the slots the packet's own input owns per round, the charge is
    burst-safe: non-conforming upstream flows may have filled the input
    buffer ahead of the packet, and draining that ``buffer_depth`` backlog
    takes the input's slots of further rounds.
    """
    timing = config.timing
    rounds = 1
    if input_slots is not None:
        rounds += max(0, -(-config.buffer_depth // input_slots) - 1)
    return (
        timing.routing_latency
        + rounds * round_slots * config.min_packet_flits * timing.flit_cycle
        + (0 if out_port is Port.LOCAL else timing.link_latency)
    )


@dataclass(frozen=True)
class HopDelayBreakdown:
    """Per-hop contribution to a WaW+WaP WCTT bound (diagnostics/reports)."""

    router: Coord
    in_port: Port
    out_port: Port
    round_flits: int
    own_input_weight: int
    delay: int


class WaWWaPWCTTAnalysis:
    """Worst-case traversal time bounds for the WaW + WaP design.

    Parameters
    ----------
    config:
        The NoC design point (must use WaW arbitration + WaP packetization
        for the bound to be sound; this is checked).
    weight_table:
        The statically configured WaW weights.  Defaults to the closed-form
        all-to-all weights of the paper (Section III); the evaluated manycore
        uses weights derived from its all-to-one memory traffic, which can be
        passed explicitly (see :meth:`for_memory_traffic`).
    regulated_contenders:
        ``True`` (default) reproduces the paper's model: every contending
        flow is assumed to conform to its guaranteed share, so a packet never
        finds more than one arbitration round's worth of backlog ahead of it
        at any hop.  ``False`` additionally accounts for the worst backlog
        that can physically sit in the packet's own input buffer
        (``buffer_depth`` flits injected by bursty upstream flows), which
        yields a larger bound that is safe even against non-conforming
        (bursty) traffic; the simulator-based validation uses this variant.
    """

    def __init__(
        self,
        config: NoCConfig,
        weight_table: Optional[WeightTable] = None,
        *,
        regulated_contenders: bool = True,
    ):
        if not config.is_waw or not config.is_wap:
            raise ValueError(
                "WaWWaPWCTTAnalysis requires a WaW+WaP configuration; "
                f"got {config.describe()}"
            )
        self.config = config
        self.mesh: Mesh = config.mesh
        self.topology = config.topology
        self.weights: WeightTable = (
            weight_table.require_topology(self.topology)
            if weight_table is not None
            else WeightTable.from_closed_form(config.mesh)
        )
        self.regulated_contenders = regulated_contenders
        self._hop_cache: Dict[Tuple[Coord, Port, Port], int] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_memory_traffic(
        cls, config: NoCConfig, *, include_replies: bool = True
    ) -> "WaWWaPWCTTAnalysis":
        """Analysis with weights derived from the evaluated manycore traffic.

        All cores send requests to the memory controller and (optionally) the
        memory controller sends replies back to every core; the WaW weights
        are derived from that flow set, which is how the hardware of the
        evaluated 64-core system would be configured.
        """
        mesh = config.mesh
        mc = config.memory_controller
        pairs = [(src, mc) for src in mesh.nodes() if src != mc]
        if include_replies:
            pairs += [(mc, dst) for dst in mesh.nodes() if dst != mc]
        return cls(config, WeightTable.from_flow_set(FlowSet.from_pairs(mesh, pairs)))

    # ------------------------------------------------------------------
    # Per-hop bound
    # ------------------------------------------------------------------
    def round_flits(self, router: Coord, out_port: Port) -> int:
        """Flits served in one full weighted arbitration round of a port."""
        return max(1, self.weights.output_round_flits(router, out_port))

    def hop_delay(self, router: Coord, in_port: Port, out_port: Port) -> int:
        """Worst-case cycles for a minimum-size packet to cross one hop.

        :func:`waw_hop_delay` over the port's full weighted round (every slot
        of every input), burst-safe when contenders are not regulated.
        """
        key = (router, in_port, out_port)
        cached = self._hop_cache.get(key)
        if cached is not None:
            return cached
        input_slots = None
        if not self.regulated_contenders:
            input_slots = max(1, self.weights.input_credits(router, in_port))
        delay = waw_hop_delay(
            self.config, out_port, self.round_flits(router, out_port), input_slots
        )
        self._hop_cache[key] = delay
        return delay

    def hop_breakdowns(self, source: Coord, destination: Coord) -> List[HopDelayBreakdown]:
        """Per-hop breakdown of the bound of a flow (reports/diagnostics)."""
        result: List[HopDelayBreakdown] = []
        for hop in self.topology.route(source, destination):
            result.append(
                HopDelayBreakdown(
                    router=hop.router,
                    in_port=hop.in_port,
                    out_port=hop.out_port,
                    round_flits=self.round_flits(hop.router, hop.out_port),
                    own_input_weight=self.weights.input_credits(hop.router, hop.in_port),
                    delay=self.hop_delay(hop.router, hop.in_port, hop.out_port),
                )
            )
        return result

    # ------------------------------------------------------------------
    # Packet / message bounds
    # ------------------------------------------------------------------
    def wctt_packet(
        self, source: Coord, destination: Coord, *, packet_flits: Optional[int] = None
    ) -> int:
        """WCTT of a single minimum-size packet (WaP slice).

        ``packet_flits`` is accepted for interface compatibility with the
        regular-mesh analysis but must not exceed the minimum packet size --
        under WaP no larger packet ever enters the network.
        """
        if source == destination:
            raise ValueError("source and destination coincide")
        if packet_flits is not None and packet_flits > self.config.min_packet_flits:
            raise ValueError(
                "WaP never injects packets larger than the minimum size "
                f"({self.config.min_packet_flits} flits); got {packet_flits}"
            )
        total = 0
        for hop in self.topology.route(source, destination):
            total += self.hop_delay(hop.router, hop.in_port, hop.out_port)
        return total

    def bottleneck_round(self, source: Coord, destination: Coord) -> int:
        """Largest arbitration round (in cycles) along the route of a flow.

        This bounds the guaranteed service interval of the flow: one
        minimum-size packet of the flow is served at least once per round on
        every port of its path, so consecutive WaP slices are spaced by at
        most the largest round.
        """
        m = self.config.min_packet_flits
        flit = self.config.timing.flit_cycle
        worst = 0
        for hop in self.topology.route(source, destination):
            worst = max(worst, self.round_flits(hop.router, hop.out_port) * m * flit)
        return worst

    def wctt_message(self, source: Coord, destination: Coord, *, payload_flits: int) -> int:
        """WCTT of a whole message sliced by WaP into minimum-size packets.

        The first slice pays the full per-hop bound; every subsequent slice
        is guaranteed one slot per arbitration round on every link of the
        path, so the message completes within ``(k - 1)`` bottleneck rounds
        after the first slice, where ``k`` is the number of slices (including
        the replicated-header overhead computed by the WaP packetizer).
        """
        slices = self.config.messages.wap_slices(payload_flits)
        first = self.wctt_packet(source, destination)
        if slices == 1:
            return first
        return first + (slices - 1) * self.bottleneck_round(source, destination)
