"""Packetization policies: regular single-packet and WaP slicing.

The NIC (network interface controller) turns a processor/memory *request*
into one or more network *packets*.  The paper contrasts:

* **regular packetization** -- the whole request becomes a single packet of
  up to the maximum allowed size ``L``; contenders must therefore be assumed
  to hold an output port for ``L`` flits when deriving time-composable
  bounds; and
* **WaP (WCTT-aware Packetization)** -- the request payload is sliced into
  minimum-size packets (``m`` flits, one flit in the evaluated system) and
  the header/control information is replicated in every slice.  The price is
  the replicated control data: a 4-flit cache-line reply becomes 5 one-flit
  packets (the paper's 25 % overhead example).

These classes are pure policy objects: they compute packet descriptors from
message descriptors and are shared by the analytical models (which only need
the flit counts) and by the cycle-accurate NIC model (which instantiates the
actual packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .config import NoCConfig, PacketizationPolicy

__all__ = [
    "MessageDescriptor",
    "PacketDescriptor",
    "Packetizer",
    "RegularPacketizer",
    "WaPPacketizer",
    "make_packetizer",
]


@dataclass(frozen=True)
class MessageDescriptor:
    """A request or reply as seen by the NIC, before packetization.

    ``payload_flits`` counts the flits needed to carry the payload with a
    single header (the regular-packetization size); ``kind`` is a free-form
    tag (``"load"``, ``"reply"``, ``"eviction"``...) used by statistics.
    """

    payload_flits: int
    kind: str = "data"

    def __post_init__(self) -> None:
        if self.payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")


@dataclass(frozen=True)
class PacketDescriptor:
    """One network packet produced by a packetizer.

    ``flits`` is the total packet length including header/control overhead;
    ``index``/``total`` locate the packet within its parent message so the
    destination NIC can reassemble it.
    """

    flits: int
    index: int
    total: int
    kind: str = "data"

    def __post_init__(self) -> None:
        if self.flits < 1:
            raise ValueError("packets carry at least one flit")
        if not 0 <= self.index < self.total:
            raise ValueError("packet index out of range")


class Packetizer:
    """Interface of a packetization policy."""

    def __init__(self, config: NoCConfig):
        self.config = config

    def packetize(self, message: MessageDescriptor) -> List[PacketDescriptor]:
        """Split ``message`` into packets (never empty)."""
        raise NotImplementedError

    def total_flits(self, message: MessageDescriptor) -> int:
        """Total flits injected for ``message`` (including any WaP overhead)."""
        return sum(p.flits for p in self.packetize(message))

    def overhead_flits(self, message: MessageDescriptor) -> int:
        """Extra flits w.r.t. the regular single-packet encoding."""
        return self.total_flits(message) - message.payload_flits


class RegularPacketizer(Packetizer):
    """Baseline: one packet per message, capped by the maximum packet size.

    Messages larger than the maximum allowed packet size ``L`` are split into
    ceil(payload / L) packets of at most ``L`` flits each -- the behaviour of
    a conventional NIC once the network imposes a maximum packet length.  In
    the evaluated system all messages fit in one packet (L >= 4 flits).
    """

    def packetize(self, message: MessageDescriptor) -> List[PacketDescriptor]:
        max_flits = self.config.max_packet_flits
        remaining = message.payload_flits
        sizes: List[int] = []
        while remaining > 0:
            take = min(remaining, max_flits)
            sizes.append(take)
            remaining -= take
        total = len(sizes)
        return [
            PacketDescriptor(flits=size, index=i, total=total, kind=message.kind)
            for i, size in enumerate(sizes)
        ]


class WaPPacketizer(Packetizer):
    """WaP: slice the payload into minimum-size packets, replicating headers.

    Every slice carries ``min_packet_flits`` flits.  Header/control
    information is replicated in each slice, which consumes part of the flit
    capacity: the number of slices for a message of ``p`` payload flits is
    computed through the bit-level accounting of
    :meth:`repro.core.config.MessageConfig.wap_slices`, so a
    4-flit (512-bit) cache line over 132-bit flits with 16-bit control yields
    5 packets, the paper's 25 % overhead.
    """

    def packetize(self, message: MessageDescriptor) -> List[PacketDescriptor]:
        m = self.config.min_packet_flits
        # Each slice is exactly one minimum-size packet.  A single-flit
        # request is one slice without overhead (the origin of the
        # "negligible average degradation" result: only multi-flit messages
        # pay the price).
        slices = self.config.messages.wap_slices(message.payload_flits)
        return [
            PacketDescriptor(flits=m, index=i, total=slices, kind=message.kind)
            for i in range(slices)
        ]


def make_packetizer(config: NoCConfig) -> Packetizer:
    """Instantiate the packetizer selected by ``config.packetization``."""
    if config.packetization is PacketizationPolicy.MINIMUM_SIZE_PACKETS:
        return WaPPacketizer(config)
    return RegularPacketizer(config)
