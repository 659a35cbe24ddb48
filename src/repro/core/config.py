"""Configuration objects describing a wormhole mesh NoC design point.

The paper compares two design points of the *same* mesh substrate:

* the **regular** wNoC: one packet per request (whatever its size, up to the
  maximum allowed packet length), plain round-robin switch arbitration;
* the **WaW + WaP** wNoC: requests sliced into minimum-size packets at the
  NIC (WaP) and weighted round-robin arbitration with statically computed
  weights (WaW).

:class:`NoCConfig` captures everything the analytical models and the
simulator need to know about a design point: topology, router timing,
arbitration/packetization policy and message sizes.  The message-size
constants of the evaluated manycore (1-flit load requests, 4-flit cache-line
replies over 132-bit links, one extra control flit per multi-flit message
under WaP) are provided by :class:`MessageConfig` defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from ..faults.models import FaultModel, ModelSpecLike, make_fault_model
from ..geometry import Coord, Mesh
from ..topology.base import Topology, as_topology

__all__ = [
    "ArbitrationPolicy",
    "PacketizationPolicy",
    "RouterTiming",
    "MessageConfig",
    "NoCConfig",
    "regular_mesh_config",
    "waw_wap_config",
]


class ArbitrationPolicy(Enum):
    """Switch-allocation arbitration policy of the routers."""

    ROUND_ROBIN = "round-robin"
    WEIGHTED_ROUND_ROBIN = "waw"


class PacketizationPolicy(Enum):
    """How the NIC turns a request/reply message into network packets."""

    #: One packet carrying the whole message payload (regular wNoC).
    SINGLE_PACKET = "single-packet"
    #: WaP: the payload is sliced into minimum-size packets, replicating the
    #: header/control information in every slice.
    MINIMUM_SIZE_PACKETS = "wap"


@dataclass(frozen=True)
class RouterTiming:
    """Per-hop timing constants of the router pipeline.

    ``routing_latency`` covers route computation, switch allocation and
    switch traversal of a header flit in the absence of contention (the
    canonical 3-stage router of the paper's baseline); ``link_latency`` is
    the wire/retiming delay between adjacent routers; ``flit_cycle`` is the
    number of cycles needed to forward one flit once the output port is
    owned (1 for a full-width link).
    """

    routing_latency: int = 3
    link_latency: int = 1
    flit_cycle: int = 1

    def __post_init__(self) -> None:
        if self.routing_latency < 1:
            raise ValueError("routing_latency must be >= 1")
        if self.link_latency < 0:
            raise ValueError("link_latency must be >= 0")
        if self.flit_cycle < 1:
            raise ValueError("flit_cycle must be >= 1")

    @property
    def hop_latency(self) -> int:
        """Zero-load latency contribution of one hop (header flit)."""
        return self.routing_latency + self.link_latency


@dataclass(frozen=True)
class MessageConfig:
    """Flit counts of the messages exchanged by the evaluated manycore.

    The defaults reproduce the system of Section IV: 64-byte cache lines and
    16 bits of control data over 132-bit links give 1-flit load/write-miss
    requests and 4-flit memory replies; evicted lines are 4-flit writes with
    a 1-flit acknowledgement.  Under WaP every flit of a multi-flit message
    carries its own control information, which costs one extra flit on the
    4-flit messages (25 % overhead), i.e. 5 single-flit packets.
    """

    #: Flits of a load / write-miss request travelling core -> memory.
    request_flits: int = 1
    #: Flits of a memory reply (a cache line) travelling memory -> core.
    reply_flits: int = 4
    #: Flits of an eviction (write-back) message travelling core -> memory.
    eviction_flits: int = 4
    #: Flits of the eviction acknowledgement travelling memory -> core.
    eviction_ack_flits: int = 1
    #: Per-packet header/control overhead, in flits, added to every packet
    #: created by WaP beyond the first (the first slice reuses the original
    #: header).  The paper's 512+5*16 bit example corresponds to one extra
    #: flit per 4-flit payload, i.e. ``wap_header_flits = 0.25`` per payload
    #: flit aggregated; we model it exactly by packet accounting instead, so
    #: this field stores the *flit* size of a control header.
    control_bits: int = 16
    #: Link width in bits (132 in the paper); used to convert payload bits to
    #: flits when building custom messages.
    link_width_bits: int = 132

    def __post_init__(self) -> None:
        for name in ("request_flits", "reply_flits", "eviction_flits", "eviction_ack_flits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.link_width_bits <= self.control_bits:
            raise ValueError("link_width_bits must exceed control_bits")

    def flits_for_payload_bits(self, payload_bits: int) -> int:
        """Number of flits of a single-packet message carrying ``payload_bits``.

        The first flit carries ``control_bits`` of header alongside payload,
        mirroring the paper's 512+16-bit cache-line reply that fits 4 flits
        of a 132-bit link.
        """
        if payload_bits < 0:
            raise ValueError("payload_bits must be >= 0")
        return max(1, math.ceil((payload_bits + self.control_bits) / self.link_width_bits))

    def wap_packets_for_payload_bits(self, payload_bits: int) -> int:
        """Number of 1-flit WaP packets for a ``payload_bits`` message.

        Every slice replicates the control information, so the usable payload
        per flit shrinks by ``control_bits``; the paper's 512-bit line over
        132-bit flits with 16-bit control becomes 5 packets (25 % overhead).
        """
        if payload_bits < 0:
            raise ValueError("payload_bits must be >= 0")
        usable = self.link_width_bits - self.control_bits
        return max(1, math.ceil(payload_bits / usable))

    def wap_slices(self, payload_flits: int) -> int:
        """Number of WaP slices of a message of ``payload_flits`` flits.

        A single-flit message already has the minimum size and travels as
        one slice without overhead; a longer one is re-sliced by
        :meth:`wap_packets_for_payload_bits` (a 4-flit cache line becomes 5).
        """
        if payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        if payload_flits == 1:
            return 1
        return self.wap_packets_for_payload_bits(
            payload_flits * self.link_width_bits - self.control_bits
        )


@dataclass(frozen=True)
class NoCConfig:
    """Complete description of a wormhole NoC design point.

    ``mesh`` holds the network structure: either a plain
    :class:`~repro.geometry.Mesh` (the seed representation, treated as a 2D
    mesh with XY routing) or any :class:`~repro.topology.Topology`
    (torus, ring, concentrated mesh, YX routing, ...).  Use the
    :attr:`topology` property to obtain the normalised topology object.
    """

    mesh: Mesh
    arbitration: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN
    packetization: PacketizationPolicy = PacketizationPolicy.SINGLE_PACKET
    #: Maximum packet length allowed in the network, in flits (the paper's L).
    max_packet_flits: int = 4
    #: Minimum packet length, in flits (the paper's m); WaP slices every
    #: request into packets of exactly this size.
    min_packet_flits: int = 1
    #: Input buffer depth of every router port, in flits.
    buffer_depth: int = 4
    timing: RouterTiming = field(default_factory=RouterTiming)
    messages: MessageConfig = field(default_factory=MessageConfig)
    #: Location of the memory controller of the evaluated manycore.
    memory_controller: Coord = field(default_factory=lambda: Coord(0, 0))
    #: Simulation backend driving this design point's simulations:
    #: ``"cycle"`` (reference, step every component every cycle) or
    #: ``"event"`` (skip provably idle cycles; bit-identical results).  The
    #: name is resolved against :func:`repro.sim.make_backend` when a
    #: :class:`~repro.noc.network.Network` is built; it does not affect any
    #: analytical model.
    sim_backend: str = "cycle"
    #: Optional per-link fault model (:mod:`repro.faults`).  ``None`` -- and
    #: any *null* model whose fault rates are all zero -- simulates perfectly
    #: reliable links, bit-identically to the seed model; a faulty model
    #: additionally arms the NIC-level HARQ retransmission protocol
    #: configured by the model's ``reliability``.  Like ``sim_backend`` it
    #: affects only simulation, never the analytical WCTT models.
    fault_model: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        if self.max_packet_flits < 1:
            raise ValueError("max_packet_flits must be >= 1")
        if self.min_packet_flits < 1:
            raise ValueError("min_packet_flits must be >= 1")
        if self.min_packet_flits > self.max_packet_flits:
            raise ValueError("min_packet_flits cannot exceed max_packet_flits")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if not isinstance(self.sim_backend, str) or not self.sim_backend:
            raise ValueError("sim_backend must be a non-empty backend name")
        if self.fault_model is not None and not isinstance(self.fault_model, FaultModel):
            raise ValueError(
                "fault_model must be a repro.faults.FaultModel (use "
                "make_fault_model / with_fault_model to build one) or None"
            )
        self.mesh.require(self.memory_controller)

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The network structure as a :class:`~repro.topology.Topology`.

        A plain :class:`~repro.geometry.Mesh` is normalised to the
        behaviourally identical :class:`~repro.topology.Mesh2D` with XY
        routing.
        """
        return as_topology(self.mesh)

    @property
    def is_waw(self) -> bool:
        return self.arbitration is ArbitrationPolicy.WEIGHTED_ROUND_ROBIN

    @property
    def is_wap(self) -> bool:
        return self.packetization is PacketizationPolicy.MINIMUM_SIZE_PACKETS

    @property
    def is_waw_wap(self) -> bool:
        return self.is_waw and self.is_wap

    @property
    def arbitration_slot_flits(self) -> int:
        """Worst-case arbitration slot duration (in flits) seen by contenders.

        This is the quantity WaP controls: with single-packet packetization a
        contender may hold an output port for a maximum-size packet; with WaP
        every packet has the minimum size.
        """
        return self.min_packet_flits if self.is_wap else self.max_packet_flits

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_mesh(self, mesh: Mesh) -> "NoCConfig":
        """Same design point on a different mesh size."""
        return replace(self, mesh=mesh)

    def with_max_packet_flits(self, flits: int) -> "NoCConfig":
        """Same design point with a different maximum packet length."""
        return replace(self, max_packet_flits=flits)

    def with_backend(self, backend: str) -> "NoCConfig":
        """Same design point simulated by a different backend."""
        return replace(self, sim_backend=backend)

    def with_fault_model(self, model: ModelSpecLike = None, **params) -> "NoCConfig":
        """Same design point with a different link fault model.

        Accepts whatever :func:`repro.faults.make_fault_model` accepts: a
        ready :class:`~repro.faults.FaultModel`, a kind name with keyword
        parameters (``config.with_fault_model("independent",
        loss_rate=0.01)``), a mapping, or ``None`` to remove the model.
        """
        return replace(self, fault_model=make_fault_model(model, **params))

    def describe(self) -> str:
        """One-line human readable description (used by reports)."""
        name = "WaW+WaP" if self.is_waw_wap else (
            "WaW" if self.is_waw else ("WaP" if self.is_wap else "regular")
        )
        return (
            f"{name} wNoC on a {self.topology.describe_short()}, "
            f"L={self.max_packet_flits} flits, m={self.min_packet_flits} flits, "
            f"buffers={self.buffer_depth} flits"
        )


def regular_mesh_config(
    width: int,
    height: Optional[int] = None,
    *,
    max_packet_flits: int = 4,
    buffer_depth: int = 4,
    memory_controller: Optional[Coord] = None,
    timing: Optional[RouterTiming] = None,
) -> NoCConfig:
    """Baseline design point: plain round-robin, single-packet messages."""
    mesh = Mesh(width, height if height is not None else width)
    return NoCConfig(
        mesh=mesh,
        arbitration=ArbitrationPolicy.ROUND_ROBIN,
        packetization=PacketizationPolicy.SINGLE_PACKET,
        max_packet_flits=max_packet_flits,
        buffer_depth=buffer_depth,
        timing=timing if timing is not None else RouterTiming(),
        memory_controller=memory_controller if memory_controller is not None else Coord(0, 0),
    )


def waw_wap_config(
    width: int,
    height: Optional[int] = None,
    *,
    max_packet_flits: int = 4,
    buffer_depth: int = 4,
    memory_controller: Optional[Coord] = None,
    timing: Optional[RouterTiming] = None,
) -> NoCConfig:
    """The paper's proposal: WaP packetization plus WaW weighted arbitration."""
    mesh = Mesh(width, height if height is not None else width)
    return NoCConfig(
        mesh=mesh,
        arbitration=ArbitrationPolicy.WEIGHTED_ROUND_ROBIN,
        packetization=PacketizationPolicy.MINIMUM_SIZE_PACKETS,
        max_packet_flits=max_packet_flits,
        buffer_depth=buffer_depth,
        timing=timing if timing is not None else RouterTiming(),
        memory_controller=memory_controller if memory_controller is not None else Coord(0, 0),
    )
