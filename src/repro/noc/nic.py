"""Network interface controller (NIC) model.

The NIC sits between a node (core or memory controller) and its router.  On
the send side it packetizes messages according to the configured policy
(regular single-packet or WaP minimum-size slicing, computed once per message
size and kind), serialises the resulting flits and injects them into the
router's LOCAL input buffer under credit flow control, one flit per cycle.
On the receive side it reassembles packets into messages and notifies
registered listeners (the manycore protocol handlers, the statistics
collector) when a message completes.

When the network carries a (non-null) fault model, each NIC additionally
runs the HARQ-style reliability protocol of :mod:`repro.faults`:

* the send side stamps every message with a per-NIC sequence number, tracks
  it as *pending* until acknowledged, and retransmits it -- as a fresh
  packetization with an incremented ``attempt`` number -- when a NACK
  arrives or the (exponentially backed-off) ACK timeout expires (the NIC
  rescans its timers only once the earliest deadline can have passed);
* the receive side reassembles per ``(message, attempt)``, discards
  attempts whose packets carry fault marks (answering with a NACK so the
  sender can retransmit without waiting for the timeout), delivers each
  message exactly once, and answers clean attempts with an ACK;
* ACK/NACK control messages are themselves ordinary single-flit network
  traffic (kinds ``"harq-ack"`` / ``"harq-nack"``) and can be corrupted or
  lost like any other packet, in which case they are silently dropped and
  the sender's retransmit timer provides recovery;
* a sender that exhausts ``max_retries`` raises
  :class:`~repro.faults.MessageDeliveryError` naming the failing message
  instead of stalling the drain loop silently.

Without a fault model none of this machinery is instantiated and the NIC
behaves bit-identically to the reliable-link model (enforced by the
differential test grid).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.config import NoCConfig
from ..core.packetization import MessageDescriptor, PacketDescriptor, Packetizer, make_packetizer
from ..faults.models import MessageDeliveryError, ReliabilityConfig
from ..geometry import Coord
from .flit import Flit, Message, Packet

__all__ = ["ACK_KIND", "CONTROL_KINDS", "NACK_KIND", "NIC"]

#: Callback invoked when a message completes at this NIC: ``f(message, cycle)``.
MessageListener = Callable[[Message, int], None]

#: Kinds of the HARQ control messages (never surfaced to message listeners).
ACK_KIND = "harq-ack"
NACK_KIND = "harq-nack"
CONTROL_KINDS = frozenset((ACK_KIND, NACK_KIND))


class _PendingReliable:
    """Send-side state of one unacknowledged message."""

    __slots__ = ("message", "attempt", "deadline", "queued_flits")

    def __init__(self, message: Message, deadline: int, queued_flits: int):
        self.message = message
        self.attempt = 1
        self.deadline = deadline
        #: Flits of the current attempt still waiting in the injection
        #: queue; the retransmit timer never fires while the attempt is
        #: still being serialised (it re-arms instead).
        self.queued_flits = queued_flits


class _AttemptState:
    """Receive-side reassembly state of one ``(message, attempt)``."""

    __slots__ = ("expected", "tails", "faulty")

    def __init__(self, expected: int):
        self.expected = expected
        self.tails = 0
        self.faulty = False


class NIC:
    """Network interface of one node."""

    def __init__(
        self,
        coord: Coord,
        config: NoCConfig,
        packetizer: Optional[Packetizer] = None,
        *,
        reliability: Optional[ReliabilityConfig] = None,
    ):
        self.coord = coord
        self.config = config
        self.packetizer = packetizer if packetizer is not None else make_packetizer(config)
        #: HARQ parameters; ``None`` on a fault-free network (all of the
        #: reliability state below then stays empty and costs nothing).
        self.reliability = reliability

        #: Flits serialised and waiting to enter the router's LOCAL buffer.
        self._injection_queue: Deque[Flit] = deque()
        #: Called with this NIC when its injection queue goes non-empty
        #: (set by the owning network to track busy NICs incrementally).
        self._work_listener: Optional[Callable[["NIC"], None]] = None
        #: Credits towards the router's LOCAL input buffer.
        self.injection_credits = config.buffer_depth
        #: Packets of partially received messages: message_id -> tail flits seen.
        self._reassembly: Dict[int, int] = {}
        self._expected_packets: Dict[int, int] = {}
        self._pending_messages: Dict[int, Message] = {}

        #: Packet descriptors of each ``(payload_flits, kind)`` sent so far.
        self._shapes: Dict[Tuple[int, str], List[PacketDescriptor]] = {}
        # Reliability (HARQ) state -- all empty unless ``reliability`` is set.
        self._sequence_counter = 0
        #: Unacknowledged sent messages: message_id -> pending record.
        self._pending: Dict[int, _PendingReliable] = {}
        #: A lower bound of every pending ACK deadline: :meth:`step` scans
        #: the timers only once it has passed.
        self._next_deadline = 0
        #: Receive-side reassembly per (message_id, attempt).
        self._attempts: Dict[Tuple[int, int], _AttemptState] = {}
        #: Message ids already delivered to the listeners (duplicates from
        #: crossed retransmissions are re-ACKed but not redelivered).
        self._delivered: set = set()

        self.sent_messages: List[Message] = []
        self.received_messages: List[Message] = []
        self._listeners: List[MessageListener] = []

        # Statistics
        self.injected_flits = 0
        self.ejected_flits = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.nacks_sent = 0
        self.control_messages_sent = 0
        self.dropped_control_packets = 0
        self.duplicate_deliveries = 0

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def set_work_listener(self, listener: Optional[Callable[["NIC"], None]]) -> None:
        """Register the queue-went-non-empty callback (one per NIC)."""
        self._work_listener = listener

    def send_message(self, message: Message, now: int) -> None:
        """Accept a message from the node, packetize it and queue its flits."""
        if message.source != self.coord:
            raise ValueError(
                f"NIC at {self.coord} asked to send a message whose source is {message.source}"
            )
        had_work = self.has_work()
        message.created_cycle = now
        if self.reliability is not None:
            message.sequence = self._sequence_counter
            self._sequence_counter += 1
            queued = self._enqueue_packets(message, attempt=1)
            deadline = now + self.reliability.retry_timeout(1)
            self._next_deadline = min(self._next_deadline, deadline) if self._pending else deadline
            self._pending[message.message_id] = _PendingReliable(message, deadline, queued)
        else:
            self._enqueue_packets(message, attempt=1)
        self.sent_messages.append(message)
        if not had_work and self._work_listener is not None:
            self._work_listener(self)

    def _enqueue_packets(self, message: Message, attempt: int) -> int:
        """Packetize ``message`` and queue its flits; returns the flit count."""
        shape = (message.payload_flits, message.kind)
        descriptors = self._shapes.get(shape)
        if descriptors is None:
            descriptors = self._shapes[shape] = self.packetizer.packetize(
                MessageDescriptor(payload_flits=message.payload_flits, kind=message.kind)
            )
        queued = 0
        for pkt_desc in descriptors:
            packet = Packet(
                message=message,
                size_flits=pkt_desc.flits,
                index=pkt_desc.index,
                total=pkt_desc.total,
                attempt=attempt,
            )
            flits = packet.make_flits()
            self._injection_queue.extend(flits)
            queued += len(flits)
        return queued

    def pending_injection_flits(self) -> int:
        return len(self._injection_queue)

    def has_work(self) -> bool:
        return bool(self._injection_queue) or bool(self._pending)

    def ready_to_inject(self) -> bool:
        """True when :meth:`step` would inject a flit this cycle.

        A NIC with queued flits but no credits is inert until a credit event
        returns -- the event-driven backend uses this to tell the two apart.
        """
        return bool(self._injection_queue) and self.injection_credits > 0

    def next_timer_cycle(self) -> Optional[int]:
        """Earliest pending retransmit deadline (``None`` without pending)."""
        if not self._pending:
            return None
        return min(pending.deadline for pending in self._pending.values())

    def step(self, now: int, injects: List[Tuple["NIC", Flit]]) -> None:
        """Service expired retransmit timers, then inject at most one flit as ``(nic, flit)``."""
        if self._pending and now >= self._next_deadline:
            self._service_timers(now)
        if not self._injection_queue or self.injection_credits <= 0:
            return
        flit = self._injection_queue.popleft()
        self.injection_credits -= 1
        message = flit.packet.message
        if message.injection_cycle is None:
            message.injection_cycle = now
        if self._pending:
            pending = self._pending.get(message.message_id)
            if pending is not None and pending.queued_flits > 0:
                pending.queued_flits -= 1
                if pending.queued_flits == 0:
                    # The attempt is now fully in the network: start the ACK
                    # wait here, so queueing delay cannot eat the timeout
                    # window and trigger spurious retransmissions.
                    # (A later deadline: ``_next_deadline`` stays a lower bound.)
                    pending.deadline = now + self.reliability.retry_timeout(pending.attempt)
        self.injected_flits += 1
        injects.append((self, flit))

    def return_injection_credit(self) -> None:
        """The router freed one slot of its LOCAL input buffer."""
        self.injection_credits += 1
        if self.injection_credits > self.config.buffer_depth:
            raise RuntimeError(f"NIC {self.coord}: injection credit overflow")

    # ------------------------------------------------------------------
    # Reliability protocol (send side)
    # ------------------------------------------------------------------
    def _service_timers(self, now: int) -> None:
        """Retransmit every pending message whose ACK deadline expired."""
        for pending in list(self._pending.values()):
            if pending.deadline > now:
                continue
            if pending.queued_flits > 0:
                # Still serialising the current attempt (congested queue):
                # re-arm without consuming a retry.
                pending.deadline = now + self.reliability.retry_timeout(pending.attempt)
                continue
            self._retransmit(pending, now, reason="ACK timeout")
        self._next_deadline = min(pending.deadline for pending in self._pending.values())

    def _retransmit(self, pending: _PendingReliable, now: int, *, reason: str) -> None:
        """Launch the next transmission attempt or give up with a clear error."""
        reliability = self.reliability
        message = pending.message
        if pending.attempt >= reliability.max_attempts:
            raise MessageDeliveryError(
                f"message {message.message_id} (seq {message.sequence}, kind "
                f"{message.kind!r}, {message.source}->{message.destination}) "
                f"abandoned after {pending.attempt} attempts "
                f"({reliability.max_retries} retransmissions allowed); last "
                f"failure: {reason} at cycle {now}"
            )
        pending.attempt += 1
        self.retransmissions += 1
        pending.queued_flits = self._enqueue_packets(message, attempt=pending.attempt)
        pending.deadline = now + reliability.retry_timeout(pending.attempt)
        self._next_deadline = min(self._next_deadline, pending.deadline)

    def _send_control(self, kind: str, original: Message, attempt: int, now: int) -> None:
        """Queue a single-flit ACK/NACK towards ``original``'s sender."""
        had_work = self.has_work()
        control = Message(
            source=self.coord,
            destination=original.source,
            payload_flits=1,
            kind=kind,
            context=(original.message_id, attempt),
        )
        control.created_cycle = now
        self._enqueue_packets(control, attempt=1)
        self.control_messages_sent += 1
        if not had_work and self._work_listener is not None:
            self._work_listener(self)

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def add_listener(self, listener: MessageListener) -> None:
        """Register a callback invoked whenever a message completes here."""
        self._listeners.append(listener)

    def receive_flit(self, flit: Flit, now: int) -> None:
        """Accept one ejected flit; complete the message when fully received."""
        self.ejected_flits += 1
        if not flit.is_tail:
            return
        if self.reliability is not None:
            self._receive_tail_reliable(flit, now)
            return
        packet = flit.packet
        message = packet.message
        if message.destination != self.coord:
            raise RuntimeError(
                f"flit for {message.destination} ejected at {self.coord}: routing bug"
            )
        mid = message.message_id
        self._pending_messages[mid] = message
        self._expected_packets[mid] = packet.total
        self._reassembly[mid] = self._reassembly.get(mid, 0) + 1
        if self._reassembly[mid] >= self._expected_packets[mid]:
            message.completion_cycle = now
            self.received_messages.append(message)
            del self._reassembly[mid]
            del self._expected_packets[mid]
            del self._pending_messages[mid]
            for listener in self._listeners:
                listener(message, now)

    def _receive_tail_reliable(self, flit: Flit, now: int) -> None:
        """Tail arrival under the reliability protocol."""
        packet = flit.packet
        message = packet.message
        if message.destination != self.coord:
            raise RuntimeError(
                f"flit for {message.destination} ejected at {self.coord}: routing bug"
            )
        if message.kind in CONTROL_KINDS:
            self._receive_control(packet, flit, now)
            return
        if flit.lost:
            # An erased tail: the receiver cannot even detect that the
            # packet ended, so no reassembly progress and no NACK -- the
            # sender's retransmit timer provides the recovery path.
            return
        mid = message.message_id
        key = (mid, packet.attempt)
        state = self._attempts.get(key)
        if state is None:
            state = self._attempts[key] = _AttemptState(expected=packet.total)
        state.tails += 1
        if packet.faulty:
            state.faulty = True
        if state.tails < state.expected:
            return
        del self._attempts[key]
        if state.faulty:
            # CRC failure somewhere in the attempt: ask for a retransmission
            # instead of waiting for the sender's timeout.
            self.nacks_sent += 1
            self._send_control(NACK_KIND, message, packet.attempt, now)
            return
        self.acks_sent += 1
        self._send_control(ACK_KIND, message, packet.attempt, now)
        if mid in self._delivered:
            # A slow earlier attempt completed after a retransmission
            # already delivered the message: re-ACK (done above), drop.
            self.duplicate_deliveries += 1
            return
        self._delivered.add(mid)
        # Purge partial reassembly state of superseded attempts.
        for stale in [k for k in self._attempts if k[0] == mid]:
            del self._attempts[stale]
        message.completion_cycle = now
        self.received_messages.append(message)
        for listener in self._listeners:
            listener(message, now)

    def _receive_control(self, packet: Packet, flit: Flit, now: int) -> None:
        """Handle an arriving ACK/NACK (addressed to this, the sender, NIC)."""
        if packet.faulty or flit.lost:
            # Control packets get no control packets of their own: a damaged
            # ACK/NACK is silently dropped and the retransmit timer recovers.
            self.dropped_control_packets += 1
            return
        message = packet.message
        mid, attempt = message.context
        pending = self._pending.get(mid)
        if pending is None:
            return  # Stale control for an already-acknowledged message.
        if message.kind == ACK_KIND:
            del self._pending[mid]
            return
        # NACK: retransmit immediately, but only if it names the attempt we
        # are currently waiting on (a NACK for a superseded attempt carries
        # no new information -- the newer attempt is already in flight).
        if pending.attempt == attempt:
            self._retransmit(pending, now, reason=f"NACK for attempt {attempt}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight_messages(self) -> int:
        """Messages partially received and still being reassembled."""
        return len(self._pending_messages) + len(self._attempts)

    def pending_acks(self) -> int:
        """Sent messages still waiting for an acknowledgement."""
        return len(self._pending)

    def reliability_state(self) -> Optional[Dict[str, int]]:
        """Snapshot of the in-flight retransmit state (``None`` when clean).

        Surfaced by the stall diagnostics so a drain timeout under faults
        shows which NICs were still waiting on ACKs and how hard they had
        been retrying.
        """
        if not self._pending:
            return None
        return {
            "pending_acks": len(self._pending),
            "max_attempt": max(p.attempt for p in self._pending.values()),
            "next_deadline": min(p.deadline for p in self._pending.values()),
            "queued_retransmit_flits": sum(p.queued_flits for p in self._pending.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NIC({self.coord}, queue={len(self._injection_queue)}, "
            f"credits={self.injection_credits})"
        )
