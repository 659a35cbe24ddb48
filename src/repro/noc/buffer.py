"""Input-port flit buffers with credit-based backpressure accounting."""

from __future__ import annotations

from typing import List, Optional

from .flit import Flit

__all__ = ["FlitBuffer"]


class FlitBuffer:
    """A bounded FIFO of flits attached to one router input port.

    The upstream router (or NIC) tracks a credit per free slot of this
    buffer: it may only forward a flit when a credit is available, and the
    credit is returned when the flit leaves the buffer.  The buffer itself
    only enforces its capacity; credit bookkeeping lives in the router to
    keep the hot loop simple.
    """

    __slots__ = ("capacity", "name", "flits")

    def __init__(self, capacity: int, name: str = "buffer"):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        #: The buffered flits, head of line first.  A plain list: buffers
        #: are a few flits deep, and the router's allocation loop reads and
        #: pops it directly.
        self.flits: List[Flit] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.flits)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.flits)

    @property
    def is_full(self) -> bool:
        return len(self.flits) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.flits

    # ------------------------------------------------------------------
    def push(self, flit: Flit) -> None:
        """Append a flit; raises if the upstream violated credit flow control."""
        if self.is_full:
            raise OverflowError(f"{self.name}: push into a full buffer (credit protocol violation)")
        self.flits.append(flit)

    def peek(self) -> Optional[Flit]:
        """Head-of-line flit without removing it (``None`` when empty)."""
        return self.flits[0] if self.flits else None

    def pop(self) -> Flit:
        """Remove and return the head-of-line flit."""
        if not self.flits:
            raise IndexError(f"{self.name}: pop from an empty buffer")
        return self.flits.pop(0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlitBuffer({self.name}, {len(self)}/{self.capacity})"
