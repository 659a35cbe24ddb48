"""Validation of the analytical WCTT bounds against the cycle-accurate simulator.

A worst-case bound is only useful if it is *safe*: no traversal observed on
the real (here: simulated) network may exceed it.  This module builds the
most adversarial congestion scenario the simulator can express for a chosen
victim flow -- every node whose path overlaps the victim's path keeps several
messages outstanding towards the victim's destination -- measures the worst
traversal time of probe messages of the victim flow, and compares it against
the burst-safe bound of each requested analysis backend.

:func:`check_bounds` is the one soundness check: experiment E9
(:func:`validate_flow_bound` / :func:`validate_design`) and experiment E12
(:mod:`repro.experiments.bound_comparison`) are both calls of it.

Because the analytical models assume an unbounded backlog of interfering
packets at *every* hop simultaneously (which finite buffers cannot fully
sustain), the measured worst case is expected to stay below the bound, often
by a comfortable margin for the regular design; the validation asserts the
safety direction (measured <= bound) and reports the tightness ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..core.config import NoCConfig
from ..core.flows import FlowSet
from ..core.weights import WeightTable
from ..geometry import Coord
from ..noc.network import Network
from ..workloads.synthetic import AdversarialCongestionTraffic
from .backends import make_analysis_backend

__all__ = [
    "AdversarialCheck",
    "BoundValidationResult",
    "check_bounds",
    "validate_flow_bound",
    "validate_design",
]


class AdversarialCheck(NamedTuple):
    """Worst completed probe latency, the number of completed probes and the
    burst-safe message bound of each requested backend (keyed by its name)."""

    observed_worst: int
    probes: int
    bounds: Dict[Optional[str], int]


def _burst_safe_message_bound(config, analysis, source, destination, payload) -> int:
    """Burst-safe bound for a whole probe message.

    WaP analyses pipeline consecutive slices at one arbitration-round
    spacing (``first + (slices - 1) * bottleneck_round``) -- an argument
    that assumes *regulated* contenders and is demonstrably exceeded under
    the adversarial traffic simulated here (backlog re-accumulates between
    slices).  Every slice is therefore charged the full burst-safe packet
    bound.  Non-WaP designs keep their message bound: it is already a plain
    sum over the message's packets.
    """
    if not config.is_wap:
        return analysis.wctt_message(source, destination, payload_flits=payload)
    packet = analysis.wctt_packet(
        source, destination, packet_flits=config.min_packet_flits
    )
    return config.messages.wap_slices(payload) * packet


def check_bounds(
    config: NoCConfig,
    source: Coord,
    destination: Coord,
    backends: Sequence[Optional[str]] = (None,),
    *,
    payload_flits: int,
    congestion_cycles: int,
    background_sources: Optional[Sequence[Coord]] = None,
) -> AdversarialCheck:
    """Bound a ``payload_flits`` probe message of ``source -> destination``
    with every backend, then simulate the flow once under adversarial
    congestion for ``congestion_cycles`` cycles.

    ``backends`` are analysis-backend names (``None`` = the paper's); one
    that does not apply to ``config`` raises the registry's ``ValueError``
    before anything is simulated.
    ``background_sources`` restricts the adversary to a sparse workload,
    whose flow set (those sources towards ``destination``) the analyses see.
    """
    mesh = config.mesh
    # The WaW hardware is statically configured for the general all-to-one
    # case; a sparse workload does NOT re-weight the arbiters.  That static
    # table is what the network runs with and what every analysis is told
    # about -- the flow-aware backends win by charging only the subset of
    # its credits that can actually request.
    weights = None
    if config.is_waw:
        all_to_one = FlowSet.all_to_one(mesh, config.memory_controller)
        weights = WeightTable.from_flow_set(all_to_one)
    flow_set = None
    if background_sources is not None:
        pairs = [(src, destination) for src in background_sources]
        flow_set = FlowSet.from_pairs(mesh, pairs)
    bounds: Dict[Optional[str], int] = {}
    for name in backends:
        analysis = make_analysis_backend(name).validation_analysis(
            config, destination=destination, flow_set=flow_set, weight_table=weights
        )
        bounds[name] = _burst_safe_message_bound(
            config, analysis, source, destination, payload_flits
        )

    traffic = AdversarialCongestionTraffic(
        mesh=mesh,
        victim_source=source,
        victim_destination=destination,
        payload_flits=payload_flits,
        background_sources=background_sources,
    )
    network = Network(config, weight_table=weights)
    latencies = traffic.probe_latencies(network, congestion_cycles)
    return AdversarialCheck(max(latencies), len(latencies), bounds)


@dataclass(frozen=True)
class BoundValidationResult:
    """Outcome of one bound-vs-measurement comparison."""

    design: str
    source: Coord
    destination: Coord
    analytical_bound: int
    observed_worst: int
    probes: int

    @property
    def is_safe(self) -> bool:
        """True when no observed traversal exceeded the analytical bound."""
        return self.observed_worst <= self.analytical_bound

    @property
    def tightness(self) -> float:
        """Observed worst case as a fraction of the bound (1.0 = tight)."""
        return self.observed_worst / self.analytical_bound if self.analytical_bound else 0.0


def validate_flow_bound(
    config: NoCConfig,
    source: Coord,
    destination: Coord,
    *,
    congestion_cycles: int = 2_000,
) -> BoundValidationResult:
    """Check the paper's burst-safe bound of one flow against the adversary.

    The probe is a message of the design's minimum packet size.  A design
    no paper bound covers (weighted arbitration without WaP) raises the
    backend registry's ``ValueError``.
    """
    check = check_bounds(
        config,
        source,
        destination,
        payload_flits=config.min_packet_flits,
        congestion_cycles=congestion_cycles,
    )
    return BoundValidationResult(
        design="WaW+WaP" if config.is_waw_wap else "regular",
        source=source,
        destination=destination,
        analytical_bound=check.bounds[None],
        observed_worst=check.observed_worst,
        probes=check.probes,
    )


def validate_design(
    config: NoCConfig, *, congestion_cycles: int = 1_500
) -> List[BoundValidationResult]:
    """Validate the bound for a representative set of flows of a design point.

    The destination is the memory controller and the sources are the nearest
    node, the farthest node and a mid-distance node -- the three regimes
    where the bound behaves differently.
    """
    mesh = config.mesh
    dst = config.memory_controller
    far = Coord(mesh.width - 1, mesh.height - 1)
    near = Coord(1, 0) if dst == Coord(0, 0) else Coord(max(0, dst.x - 1), dst.y)
    mid = Coord(mesh.width // 2, mesh.height // 2)
    return [
        validate_flow_bound(config, source, dst, congestion_cycles=congestion_cycles)
        for source in (near, mid, far)
        if source != dst
    ]
