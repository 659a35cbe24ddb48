"""Upper-Bound Delays (UBD) for the WCET-computation mode.

The evaluated architecture supports the WCET-computation mode of Paolieri et
al. [17]: at analysis time every request that accesses the NoC is delayed by
an *upper bound delay* so that the measured execution time is a safe WCET
estimate; at deployment time the mode is disabled and requests experience
only their actual (smaller) delays.

For a core at node ``c`` accessing a memory controller at node ``mc`` the UBD
of one memory operation is the round trip

    UBD(c) = WCTT(request  c -> mc) + T_memory + WCTT(reply  mc -> c)

where the request/reply sizes follow the message configuration of the design
point (1-flit loads, 4-flit cache-line replies -- 5 one-flit packets under
WaP) and the WCTT terms come from the analytical model of the design point.
Evictions (write-backs) have their own round trip with a 4-flit request and a
1-flit acknowledgement.

:class:`UBDTable` precomputes these values for every core of the mesh; the
manycore WCET mode (:mod:`repro.manycore.wcet_mode`) and the EEMBC/3DPP
experiments consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..geometry import Coord
from .config import NoCConfig
from .flows import FlowSet
from .wctt import WCTTAnalysis
from .weights import WeightTable

__all__ = ["MemoryTiming", "UBDEntry", "UBDTable"]


@dataclass(frozen=True)
class MemoryTiming:
    """Latency of the memory controller itself (outside the NoC).

    ``service_latency`` is the worst-case cycles between the arrival of a
    request at the controller and the injection of its reply (DRAM access
    plus controller queueing bound); it is identical for both design points
    so it only shifts both WCET estimates by the same amount.
    """

    service_latency: int = 30

    def __post_init__(self) -> None:
        if self.service_latency < 0:
            raise ValueError("service_latency must be >= 0")


@dataclass(frozen=True)
class UBDEntry:
    """Upper bound delays of one core, in cycles."""

    core: Coord
    #: Round-trip bound of a load / write-miss (request + memory + reply).
    load_ubd: int
    #: Round-trip bound of an eviction (write-back + memory + acknowledge).
    eviction_ubd: int
    #: The individual legs, kept for reporting.
    request_wctt: int
    reply_wctt: int
    eviction_wctt: int
    eviction_ack_wctt: int


class UBDTable:
    """Per-core upper bound delays for one NoC design point.

    The table is filled by the analysis it holds, four message bounds per
    core.  It takes no closed-form grid of :mod:`repro.analysis.vector`: no
    benchmark workload builds a table, and vectorizing one saved 0-25 ms on
    quick experiment runs of 10-270 ms (in-process, on a 2-vCPU host).

    ``backend`` selects a registered :class:`~repro.analysis.AnalysisBackend`
    by name (``regular``, ``weighted``, ``holistic``, ``trajectory``) to
    compute the WCTT legs with; the default ``None`` is the paper's analysis
    for the design point, and refuses the designs the registry refuses.
    The analysis is built over the table's request/reply memory-traffic flow
    set, so flow-aware backends bound exactly the traffic the table
    describes, and a WaW design without a ``weight_table`` gets the weights
    the evaluated manycore would be configured with: those of that flow set.
    Mutually exclusive with passing a ready ``analysis`` object.
    """

    def __init__(
        self,
        config: NoCConfig,
        *,
        memory: Optional[MemoryTiming] = None,
        analysis: Optional[WCTTAnalysis] = None,
        weight_table: Optional[WeightTable] = None,
        backend: Optional[str] = None,
    ):
        self.config = config
        self.memory = memory if memory is not None else MemoryTiming()
        if backend is not None and analysis is not None:
            raise ValueError("pass either backend= or analysis=, not both")
        self.analysis: WCTTAnalysis = (
            analysis if analysis is not None else self._backend_analysis(backend, weight_table)
        )
        self._entries: Dict[Coord, UBDEntry] = {}
        self._build()

    # ------------------------------------------------------------------
    def _backend_analysis(
        self, backend: Optional[str], weight_table: Optional[WeightTable]
    ) -> WCTTAnalysis:
        """Resolve ``backend=`` into an analysis over the memory flow set."""
        # Imported lazily: repro.analysis depends on this module.
        from ..analysis.backends import make_analysis_backend

        resolved = make_analysis_backend(backend)
        resolved.require(self.config)

        mesh = self.config.mesh
        mc = self.config.memory_controller
        pairs = [(src, mc) for src in mesh.nodes() if src != mc]
        pairs += [(mc, dst) for dst in mesh.nodes() if dst != mc]
        flow_set = FlowSet.from_pairs(mesh, pairs)
        if weight_table is None and self.config.is_waw:
            weight_table = WeightTable.from_flow_set(flow_set)
        return resolved.analysis(
            self.config, flow_set=flow_set, weight_table=weight_table
        )

    # ------------------------------------------------------------------
    def _build(self) -> None:
        mesh = self.config.mesh
        mc = self.config.memory_controller
        msgs = self.config.messages
        for core in mesh.nodes():
            if core == mc:
                continue
            request = self.analysis.wctt_message(core, mc, payload_flits=msgs.request_flits)
            reply = self.analysis.wctt_message(mc, core, payload_flits=msgs.reply_flits)
            eviction = self.analysis.wctt_message(core, mc, payload_flits=msgs.eviction_flits)
            eviction_ack = self.analysis.wctt_message(
                mc, core, payload_flits=msgs.eviction_ack_flits
            )
            service = self.memory.service_latency
            self._entries[core] = UBDEntry(
                core=core,
                load_ubd=request + service + reply,
                eviction_ubd=eviction + service + eviction_ack,
                request_wctt=request,
                reply_wctt=reply,
                eviction_wctt=eviction,
                eviction_ack_wctt=eviction_ack,
            )

    # ------------------------------------------------------------------
    def entry(self, core: Coord) -> UBDEntry:
        """UBD entry of one core; raises for the memory-controller node."""
        if core == self.config.memory_controller:
            raise ValueError("the memory-controller node does not run application cores")
        self.config.mesh.require(core)
        return self._entries[core]

    def load_ubd(self, core: Coord) -> int:
        return self.entry(core).load_ubd

    def eviction_ubd(self, core: Coord) -> int:
        return self.entry(core).eviction_ubd

    def cores(self):
        """Iterate the cores covered by the table (every node but the MC)."""
        return iter(self._entries.keys())

    def as_dict(self) -> Dict[Coord, UBDEntry]:
        return dict(self._entries)

    def max_load_ubd(self) -> int:
        return max(e.load_ubd for e in self._entries.values())

    def min_load_ubd(self) -> int:
        return min(e.load_ubd for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UBDTable({self.config.describe()}, "
            f"load UBD {self.min_load_ubd()}..{self.max_load_ubd()} cycles)"
        )
