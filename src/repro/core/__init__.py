"""The paper's contribution: WaP, WaW and the time-composable WCTT analyses.

Public surface of :mod:`repro.core`:

* configuration of design points (:mod:`repro.core.config`),
* communication flows and per-port accounting (:mod:`repro.core.flows`),
* WaW arbitration weights (:mod:`repro.core.weights`),
* arbitration policies (:mod:`repro.core.arbitration`),
* packetization policies (:mod:`repro.core.packetization`),
* WCTT analytical models (:mod:`repro.core.wctt_regular`,
  :mod:`repro.core.wctt_weighted`, :mod:`repro.core.wctt`),
* per-core upper bound delays (:mod:`repro.core.ubd`),
* the router area model (:mod:`repro.core.area`).
"""

from .config import (
    ArbitrationPolicy,
    MessageConfig,
    NoCConfig,
    PacketizationPolicy,
    RouterTiming,
    regular_mesh_config,
    waw_wap_config,
)
from .flows import Flow, FlowSet
from .weights import (
    PortCounts,
    WeightTable,
    paper_port_counts,
    source_port_counts,
    waw_weight,
)
from .arbitration import RoundRobinArbiter, WeightedRoundRobinArbiter, make_arbiter
from .packetization import (
    MessageDescriptor,
    PacketDescriptor,
    RegularPacketizer,
    WaPPacketizer,
    make_packetizer,
)
from .wctt_regular import RegularMeshWCTTAnalysis
from .wctt_weighted import WaWWaPWCTTAnalysis
from .wctt import WCTTSummary, wctt_map, wctt_summary
from .ubd import MemoryTiming, UBDEntry, UBDTable
from .area import AreaBreakdown, AreaParameters, noc_area, router_area, waw_wap_overhead

__all__ = [
    # config
    "ArbitrationPolicy",
    "MessageConfig",
    "NoCConfig",
    "PacketizationPolicy",
    "RouterTiming",
    "regular_mesh_config",
    "waw_wap_config",
    # flows
    "Flow",
    "FlowSet",
    # weights
    "PortCounts",
    "WeightTable",
    "paper_port_counts",
    "source_port_counts",
    "waw_weight",
    # arbitration
    "RoundRobinArbiter",
    "WeightedRoundRobinArbiter",
    "make_arbiter",
    # packetization
    "MessageDescriptor",
    "PacketDescriptor",
    "RegularPacketizer",
    "WaPPacketizer",
    "make_packetizer",
    # wctt
    "RegularMeshWCTTAnalysis",
    "WaWWaPWCTTAnalysis",
    "WCTTSummary",
    "wctt_map",
    "wctt_summary",
    # ubd
    "MemoryTiming",
    "UBDEntry",
    "UBDTable",
    # area
    "AreaBreakdown",
    "AreaParameters",
    "noc_area",
    "router_area",
    "waw_wap_overhead",
]
