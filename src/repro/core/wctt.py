"""What every WCTT analysis shares: its interface, summaries and maps.

Which analysis bounds a design point is the analysis-backend registry's
decision (:func:`repro.analysis.make_analysis_backend`; ``None`` is the
paper's pair).  This module provides:

* :class:`WCTTAnalysis` -- the protocol the paper's and the flow-aware
  analyses satisfy;
* :class:`WCTTSummary` / :func:`wctt_summary` -- the max/mean/min statistics
  over a flow set that the paper's Table II reports;
* :func:`wctt_map` -- the per-source WCTT map towards a single destination
  (used by the per-core UBD tables and the EEMBC experiment);
* :func:`zero_load_latency` -- the latency with no contention at all, a
  lower bound of every analysis' WCTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, Optional, Protocol, Union

from ..geometry import Coord
from .config import NoCConfig
from .flows import FlowSet

__all__ = [
    "WCTTAnalysis",
    "WCTTSummary",
    "wctt_summary",
    "wctt_map",
    "zero_load_latency",
]


class WCTTAnalysis(Protocol):
    """Common interface of the WCTT analyses."""

    config: NoCConfig

    def wctt_packet(
        self, source: Coord, destination: Coord, *, packet_flits: Optional[int] = None
    ) -> int: ...

    def wctt_message(self, source: Coord, destination: Coord, *, payload_flits: int) -> int: ...


@dataclass(frozen=True)
class WCTTSummary:
    """Max/mean/min WCTT over a set of flows (one row of the paper's Table II)."""

    design: str
    mesh: str
    maximum: int
    average: float
    minimum: int
    flow_count: int

    def as_dict(self) -> Dict[str, Union[str, int, float]]:
        return {
            "design": self.design,
            "mesh": self.mesh,
            "max": self.maximum,
            "mean": round(self.average, 2),
            "min": self.minimum,
            "flows": self.flow_count,
        }


def wctt_summary(
    analysis: WCTTAnalysis,
    flow_set: FlowSet,
    *,
    packet_flits: int = 1,
    design_label: Optional[str] = None,
) -> WCTTSummary:
    """Compute max/mean/min packet WCTT over every flow of ``flow_set``."""
    if len(flow_set) == 0:
        raise ValueError("flow set is empty")
    values = [
        analysis.wctt_packet(flow.source, flow.destination, packet_flits=packet_flits)
        for flow in flow_set
    ]
    config = analysis.config
    label = design_label if design_label is not None else (
        "WaW+WaP" if config.is_waw_wap else "regular"
    )
    return WCTTSummary(
        design=label,
        # ``short_label`` is "WxH" for the plain mesh (seed-identical rows)
        # and carries the topology kind otherwise (e.g. "4x4 torus").
        mesh=config.topology.short_label(),
        maximum=max(values),
        average=mean(values),
        minimum=min(values),
        flow_count=len(values),
    )


def wctt_map(
    analysis: WCTTAnalysis,
    destination: Coord,
    *,
    packet_flits: int = 1,
) -> Dict[Coord, int]:
    """Per-source packet WCTT towards a single destination.

    Returns a mapping from every node (other than ``destination``) to its
    WCTT bound; the destination itself is omitted.  This is the quantity the
    per-core UBD tables of the evaluated manycore are built from.
    """
    mesh = analysis.config.mesh
    mesh.require(destination)
    return {
        src: analysis.wctt_packet(src, destination, packet_flits=packet_flits)
        for src in mesh.nodes()
        if src != destination
    }


def zero_load_latency(
    config: NoCConfig, source: Coord, destination: Coord, packet_flits: int = 1
) -> int:
    """Latency of one packet with no contention at all (lower bound).

    The router pipeline at every hop of the route, the links between the
    hops and the packet's own serialization.
    """
    hops = len(config.topology.route(source, destination))
    timing = config.timing
    return (
        hops * timing.routing_latency
        + (hops - 1) * timing.link_latency
        + packet_flits * timing.flit_cycle
    )
