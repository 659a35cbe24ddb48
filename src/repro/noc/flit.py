"""Flits, packets and messages exchanged through the simulated NoC.

The cycle-accurate model works at flit granularity (wormhole switching
forwards packets flit by flit and arbitration decisions are taken when the
*header* flit of a packet requests an output port).  Three levels of
aggregation exist:

* :class:`Message` -- what a core/memory controller sends: a request, a
  cache-line reply, an eviction...  Messages are what the manycore layer and
  the statistics reason about.
* :class:`Packet` -- what the NIC injects after packetization.  A message is
  one packet in the regular design and possibly several minimum-size packets
  under WaP.
* :class:`Flit` -- the unit of link bandwidth and buffering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..geometry import Coord

__all__ = ["FlitType", "Flit", "Packet", "Message"]

_message_ids = itertools.count()
_packet_ids = itertools.count()


class FlitType:
    """Flit type tags (plain constants; cheaper than an Enum in the hot loop)."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: Single-flit packet: simultaneously head and tail.
    HEAD_TAIL = "head_tail"


@dataclass
class Message:
    """An end-to-end transfer between two nodes.

    ``payload_flits`` is the size under regular (single-header) encoding; the
    packetizer of the sending NIC decides how many packets and flits actually
    enter the network.  ``kind`` tags the message for statistics and for the
    manycore protocol handlers (``"load"``, ``"reply"``, ``"eviction"``,
    ``"eviction_ack"``, ``"data"`` ...).  ``context`` is an opaque field the
    manycore layer uses to correlate replies with outstanding requests.
    """

    source: Coord
    destination: Coord
    payload_flits: int
    kind: str = "data"
    context: Optional[object] = None
    message_id: int = field(default_factory=lambda: next(_message_ids))
    #: Per-sender sequence number under the HARQ reliability layer
    #: (``None`` when the network has no fault model).
    sequence: Optional[int] = None
    #: Cycle at which the sending NIC accepted the message.
    created_cycle: Optional[int] = None
    #: Cycle at which the first flit entered the network.
    injection_cycle: Optional[int] = None
    #: Cycle at which the last flit was ejected at the destination.
    completion_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        if self.source == self.destination:
            raise ValueError("message source and destination coincide")

    @property
    def latency(self) -> Optional[int]:
        """End-to-end latency in cycles (``None`` while in flight)."""
        if self.completion_cycle is None or self.created_cycle is None:
            return None
        return self.completion_cycle - self.created_cycle

    @property
    def network_latency(self) -> Optional[int]:
        """Latency from first-flit injection to last-flit ejection."""
        if self.completion_cycle is None or self.injection_cycle is None:
            return None
        return self.completion_cycle - self.injection_cycle


@dataclass
class Packet:
    """One network packet: a head flit, optional body flits and a tail."""

    message: Message
    size_flits: int
    index: int
    total: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Transmission attempt this packet belongs to (1 = original send;
    #: retransmissions repacketize with higher attempts).
    attempt: int = 1
    #: Set by the fault injector when any flit of this packet was corrupted
    #: or lost in flight; the destination NIC discards faulty packets.
    faulty: bool = False

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError("packets carry at least one flit")

    @property
    def source(self) -> Coord:
        return self.message.source

    @property
    def destination(self) -> Coord:
        return self.message.destination

    def make_flits(self) -> List["Flit"]:
        """Materialise the flits of this packet, in transmission order."""
        flits: List[Flit] = []
        for i in range(self.size_flits):
            if self.size_flits == 1:
                ftype = FlitType.HEAD_TAIL
            elif i == 0:
                ftype = FlitType.HEAD
            elif i == self.size_flits - 1:
                ftype = FlitType.TAIL
            else:
                ftype = FlitType.BODY
            flits.append(Flit(packet=self, sequence=i, flit_type=ftype))
        return flits


@dataclass
class Flit:
    """The unit of buffering and link bandwidth."""

    packet: Packet
    sequence: int
    flit_type: str
    #: Cycle at which the flit becomes visible at the head of its current
    #: buffer (set by the router/NIC when the flit is enqueued).
    ready_cycle: int = 0
    #: Fault-injection marks: a corrupted flit carries damaged payload, a
    #: lost flit is an erasure.  Either mark also sets ``packet.faulty``.
    corrupted: bool = False
    lost: bool = False
    #: Lookahead route of a head flit: the port number (see
    #: :data:`repro.noc.router.PORTS`) of the output it requests at the
    #: router whose input buffer holds it, set when that router accepts it.
    #: ``-1`` on body and tail flits, which follow their head's lock.
    route: int = -1

    @property
    def is_head(self) -> bool:
        return self.flit_type in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self.flit_type in (FlitType.TAIL, FlitType.HEAD_TAIL)

    @property
    def destination(self) -> Coord:
        return self.packet.destination

    @property
    def source(self) -> Coord:
        return self.packet.source

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flit(pkt={self.packet.packet_id}, seq={self.sequence}, "
            f"{self.flit_type}, {self.source}->{self.destination})"
        )
