"""In-order blocking core model driven by a workload operation stream.

The cores of the evaluated manycore are simple in-order cores: on a cache
miss the core sends a load request to the memory controller and stalls until
the cache-line reply arrives; dirty-line evictions are posted (the core does
not wait for the acknowledgement, which matches the common write-back buffer
behaviour).  Between NoC operations the core computes for the number of
cycles dictated by its workload.

The core can be driven by either workload representation of
:mod:`repro.workloads.trace`:

* profile-driven streams issue one NoC load per operation (the profile
  already counts *misses*);
* address-level traces go through the private :class:`~repro.manycore.cache.Cache`
  first, and only misses/write-backs reach the NoC.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..geometry import Coord
from ..noc.flit import Message
from ..noc.network import Network
from ..workloads.trace import MemoryOperation
from .cache import Cache

__all__ = ["Core"]


class Core:
    """One processing core attached to a node of the network."""

    def __init__(
        self,
        node: Coord,
        network: Network,
        operations: Iterator[MemoryOperation],
        *,
        cache: Optional[Cache] = None,
        memory_controller: Optional[Coord] = None,
        name: str = "",
    ):
        self.node = node
        self.network = network
        self.config = network.config
        self.config.mesh.require(node)
        self.memory_controller = (
            memory_controller if memory_controller is not None else self.config.memory_controller
        )
        if self.memory_controller == node:
            raise ValueError("a core cannot be placed on the memory-controller node")
        self.name = name or f"core@{node}"
        self.cache = cache

        self._operations = iter(operations)
        self._compute_remaining = 0
        self._current_op: Optional[MemoryOperation] = None
        self._waiting_reply = False
        self._finished_stream = False

        # Statistics
        self.issued_loads = 0
        self.issued_evictions = 0
        self.completed_loads = 0
        self.stall_cycles = 0
        self.compute_cycles = 0
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None

        network.add_listener(node, self._on_message)

    # ------------------------------------------------------------------
    # Workload stream handling
    # ------------------------------------------------------------------
    def _fetch_next(self) -> None:
        try:
            op = next(self._operations)
        except StopIteration:
            self._current_op = None
            self._finished_stream = True
            return
        self._current_op = op
        self._compute_remaining = op.compute_cycles

    # ------------------------------------------------------------------
    # NoC interaction
    # ------------------------------------------------------------------
    def _on_message(self, message: Message, cycle: int) -> None:
        if message.kind == "reply" and message.context is self:
            self._waiting_reply = False
            self.completed_loads += 1
            # The reply of the last operation finishes the core's execution.
            self._maybe_finish(cycle)
        # Eviction acknowledgements are not waited for.

    def _issue(self, op: MemoryOperation) -> None:
        """Translate one workload operation into NoC traffic."""
        messages = self.config.messages
        if self.cache is not None and op.address is not None:
            result = self.cache.access(op.address, is_write=op.is_write)
            if result.writeback:
                self.network.send(
                    self.node,
                    self.memory_controller,
                    messages.eviction_flits,
                    kind="eviction",
                    context=self,
                )
                self.issued_evictions += 1
            if result.hit:
                return  # no NoC traffic, continue with the next operation
            self._send_load()
            return

        # Profile-driven operation: writes model dirty-line evictions, reads
        # model load misses.
        if op.is_write:
            self.network.send(
                self.node,
                self.memory_controller,
                messages.eviction_flits,
                kind="eviction",
                context=self,
            )
            self.issued_evictions += 1
        else:
            self._send_load()

    def _send_load(self) -> None:
        messages = self.config.messages
        self.network.send(
            self.node,
            self.memory_controller,
            messages.request_flits,
            kind="load",
            context=self,
        )
        self.issued_loads += 1
        self._waiting_reply = True

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the workload stream is exhausted and nothing is pending.

        The stream is first read on the core's first step, so a core is
        never done before it has stepped, and ``finish_cycle`` is stamped in
        the same call that makes it done (an empty stream starts and
        finishes on the first step).
        """
        return self._finished_stream and self._current_op is None and not self._waiting_reply

    def step(self, cycle: int) -> None:
        """Advance the core by one cycle."""
        if self.done:
            return
        if self.start_cycle is None:
            self.start_cycle = cycle

        if self._waiting_reply:
            self.stall_cycles += 1
            return

        if self._current_op is None:
            self._fetch_next()
            if self._current_op is None:
                self._maybe_finish(cycle)
                return

        if self._compute_remaining > 0:
            self._compute_remaining -= 1
            self.compute_cycles += 1
            return

        op = self._current_op
        self._current_op = None
        self._issue(op)
        self._fetch_next()
        self._maybe_finish(cycle)

    def _maybe_finish(self, cycle: int) -> None:
        if self.done and self.finish_cycle is None:
            self.finish_cycle = cycle

    # ------------------------------------------------------------------
    # Activity introspection / bulk idle (event-driven backend support)
    # ------------------------------------------------------------------
    def next_activity_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle at which :meth:`step` does more than bookkeeping.

        ``None`` means the core cannot act on its own (it is stalled on a
        reply, or finished) -- something else in the system must wake it.
        ``now`` forces a real step whenever the core still has timestamps to
        record or an operation to fetch/issue.
        """
        if self.done:
            return None
        if self.start_cycle is None:
            return now
        if self._waiting_reply:
            return None
        if self._current_op is None:
            return now
        if self._compute_remaining > 0:
            return now + self._compute_remaining
        return now

    def skip_cycles(self, cycles: int) -> None:
        """Replay ``cycles`` steps in which this core only counts time.

        Exactly mirrors what ``cycles`` calls to :meth:`step` would do while
        the core is stalled (stall accounting) or mid-compute-gap (gap
        countdown); the event-driven backend guarantees the core cannot
        reach an issue/fetch point inside the skipped stretch.
        """
        if cycles <= 0 or self.done:
            return
        if self._waiting_reply:
            self.stall_cycles += cycles
            return
        if self._current_op is None or self._compute_remaining < cycles:
            raise RuntimeError(
                f"{self.name}: skipped {cycles} cycles across an activity point "
                "(event-driven backend bug)"
            )
        self._compute_remaining -= cycles
        self.compute_cycles += cycles

    @property
    def elapsed_cycles(self) -> Optional[int]:
        if self.start_cycle is None or self.finish_cycle is None:
            return None
        return self.finish_cycle - self.start_cycle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else ("stalled" if self._waiting_reply else "running")
        return f"Core({self.name}, {state}, loads={self.issued_loads})"
