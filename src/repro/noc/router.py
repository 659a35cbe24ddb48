"""Cycle-accurate wormhole router model.

Each router has up to five ports (``X+``, ``X-``, ``Y+``, ``Y-``, ``LOCAL``)
with one flit FIFO per *input* port, credit-based flow control towards its
downstream neighbours and one arbiter per *output* port.  Which ports exist,
which output a header flit requests and which input ports may legally
contend for an output all come from the configuration's pluggable
:class:`~repro.topology.Topology` (mesh, torus, ring, concentrated mesh; XY
or YX dimension order), so the same router model serves every topology.
Wormhole switching is modelled faithfully:

* only the **head** flit of a packet takes part in switch allocation;
* once an input port wins an output port it keeps it until the **tail** flit
  has been forwarded (the wormhole lock), so a blocked packet holds the
  output port and back-pressures its upstream routers;
* body/tail flits stream at one flit per cycle per output port, subject to
  downstream credits.

The arbitration policy is pluggable through :mod:`repro.core.arbitration`:
plain round-robin for the regular design, the WaW flit-counter weighted
round-robin for the proposed design.  The router pipeline is abstracted as a
configurable latency applied to head flits between their arrival at an input
buffer and their eligibility for allocation (``RouterTiming.routing_latency``),
which reproduces the zero-load per-hop latency of a multi-stage router
without simulating every stage.

Routing is *lookahead*: a head flit's output port is computed once, when it
enters an input buffer, and kept on the flit (:attr:`Flit.route`).  The
per-cycle state lives in lists indexed by *port number*, the position of the
port in :data:`PORTS`, so the hot loop never hashes a
:class:`~repro.geometry.Port`; ``Port`` appears only at the API boundary.
Each router position's ports and legal contenders are computed once per
topology and shared.

Routers never move flits directly; they emit *events* (forward, eject,
credit return) that the :class:`~repro.noc.network.Network` applies at the
end of the cycle, making the simulation independent of the order in which
routers are evaluated within a cycle.  Within one router, output ports are
served in topology order against the router's live state: a tail flit
forwarded through an earlier output releases its input, and the next head
flit of that input may win a later output in the same cycle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.arbitration import Arbiter, make_arbiter
from ..core.config import NoCConfig
from ..core.weights import WeightTable
from ..geometry import Coord, Port
from ..topology import Topology
from .buffer import FlitBuffer
from .flit import Flit, FlitType

__all__ = ["PORTS", "PORT_INDEX", "Router", "RouterEvent"]

#: Every router port, in port-number order: router state and event payloads
#: refer to a port by its position in this tuple.
PORTS: Tuple[Port, ...] = tuple(Port)
#: Port number of each :class:`Port` (used at the ``Port`` API boundary).
PORT_INDEX: Dict[Port, int] = {port: index for index, port in enumerate(PORTS)}
_LOCAL = PORT_INDEX[Port.LOCAL]

_HEADS = (FlitType.HEAD, FlitType.HEAD_TAIL)
_TAILS = (FlitType.TAIL, FlitType.HEAD_TAIL)

#: Events a router emits during one cycle, applied by the network afterwards
#: (ports are port numbers, see :data:`PORTS`):
#: ``("forward", router, out_port, flit)`` -- flit leaves through a directional output;
#: ``("eject", router, flit)``             -- flit is delivered to the local NIC;
#: ``("credit", router, in_port)``         -- one credit is returned upstream of ``in_port``.
RouterEvent = Tuple


class _Layout(NamedTuple):
    """The ports of one router position, shared by every router built there."""

    #: Port numbers of the existing input ports.
    inputs: Tuple[int, ...]
    #: Per existing output port, in topology order: its port number, its
    #: legal contender input ports and their port numbers.
    outputs: Tuple[Tuple[int, Tuple[Port, ...], Tuple[int, ...]], ...]
    #: Lookahead routing memo: destination ``(x, y)`` -> output port number.
    routes: Dict[Tuple[int, int], int]


@lru_cache(maxsize=16)
def _layouts(topology: Topology) -> Dict[Coord, _Layout]:
    """Every router position's ports and legal contenders, built once per topology."""
    layouts = {}
    for coord in topology.nodes():
        outputs = []
        for port in topology.output_ports(coord):
            contenders = topology.legal_inputs_for_output(coord, port)
            numbers = tuple(PORT_INDEX[p] for p in contenders)
            outputs.append((PORT_INDEX[port], contenders, numbers))
        inputs = tuple(PORT_INDEX[p] for p in topology.input_ports(coord))
        layouts[coord] = _Layout(inputs, tuple(outputs), {})
    return layouts


class Router:
    """One wormhole router of the mesh."""

    def __init__(
        self,
        coord: Coord,
        config: NoCConfig,
        weight_table: Optional[WeightTable] = None,
    ):
        self.coord = coord
        self.config = config
        self.mesh = config.mesh
        self.topology = config.topology
        self.timing = config.timing
        layout = _layouts(self.topology)[coord]
        self._routes = layout.routes
        self._depth = config.buffer_depth

        #: Input buffers by port number (``None`` where the input does not
        #: exist), and their flit lists, which the allocation loop reads.
        self._buffers: List[Optional[FlitBuffer]] = [None] * len(PORTS)
        self._fifos: List[Optional[List[Flit]]] = [None] * len(PORTS)
        for port in layout.inputs:
            buffer = FlitBuffer(config.buffer_depth, name=f"{coord}:{PORTS[port].value}")
            self._buffers[port] = buffer
            self._fifos[port] = buffer.flits
        #: Flits buffered over all inputs.
        self._flits = 0
        #: Which input port number owns each output port (wormhole lock).
        self._owner: List[Optional[int]] = [None] * len(PORTS)
        #: Credits towards the downstream buffer of each directional output.
        self._credits: List[int] = [config.buffer_depth] * len(PORTS)
        #: Per output port, in topology order: ``(port number, arbiter,
        #: contender port numbers)``; the arbiter is ``None`` for an output
        #: no input may legally request.
        plan = []
        for out, contenders, numbers in layout.outputs:
            arbiter = None
            if contenders:
                weights = (
                    weight_table.arbitration_weights(coord, PORTS[out])
                    if (config.is_waw and weight_table is not None)
                    else None
                )
                arbiter = make_arbiter(contenders, weighted=config.is_waw, weights=weights)
            plan.append((out, arbiter, numbers))
        self._plan: Tuple[Tuple[int, Optional[Arbiter], Tuple[int, ...]], ...] = tuple(plan)

        # Statistics / idle bookkeeping.
        self.forwarded_flits = 0
        self._was_idle = True

    # ------------------------------------------------------------------
    # Port-level views (tests and diagnostics)
    # ------------------------------------------------------------------
    @property
    def buffers(self) -> Dict[Port, FlitBuffer]:
        """The buffer of each existing input port."""
        return {PORTS[i]: buf for i, buf in enumerate(self._buffers) if buf is not None}

    @property
    def arbiters(self) -> Dict[Port, Arbiter]:
        """The arbiter of each output port that some input may request."""
        return {PORTS[out]: arbiter for out, arbiter, _ in self._plan if arbiter is not None}

    @property
    def output_owner(self) -> Dict[Port, Optional[Port]]:
        """The input port holding each output port's wormhole lock (``None`` if free)."""
        return {
            PORTS[out]: None if self._owner[out] is None else PORTS[self._owner[out]]
            for out, _, _ in self._plan
        }

    # ------------------------------------------------------------------
    # Buffer interface used by the network when applying events
    # ------------------------------------------------------------------
    def accept_flit(self, in_port: Port, flit: Flit, ready_cycle: int) -> None:
        """Enqueue an incoming flit on ``in_port``."""
        self._accept(PORT_INDEX[in_port], flit, ready_cycle)

    def _accept(self, port: int, flit: Flit, ready_cycle: int) -> None:
        """Enqueue ``flit`` on input port number ``port``; route it if it is a head."""
        flit.ready_cycle = ready_cycle
        if flit.flit_type in _HEADS:
            destination = flit.packet.message.destination
            key = (destination.x, destination.y)
            route = self._routes.get(key)
            if route is None:
                route = PORT_INDEX[self.topology.output_port(self.coord, destination)]
                self._routes[key] = route
            flit.route = route
        self._buffers[port].push(flit)
        self._flits += 1

    def buffered_flits(self) -> int:
        return self._flits

    def has_work(self) -> bool:
        return self._flits > 0

    # ------------------------------------------------------------------
    # Activity introspection / bulk idle (event-driven backend support)
    # ------------------------------------------------------------------
    def next_ready_cycle(self) -> Optional[int]:
        """Earliest ``ready_cycle`` among the head-of-line flits; ``None`` if empty.

        This is a conservative lower bound on the next cycle at which this
        router can move a flit: every action of :meth:`step` (allocation or
        forwarding) starts from a head-of-line flit whose ``ready_cycle`` has
        been reached.
        """
        best: Optional[int] = None
        for fifo in self._fifos:
            if fifo:
                ready = fifo[0].ready_cycle
                if best is None or ready < best:
                    best = ready
        return best

    def skip_cycles(self, cycles: int) -> None:
        """Replay ``cycles`` consecutive no-activity steps in closed form.

        The caller (the event-driven backend) guarantees that during the
        skipped stretch no head-of-line flit anywhere in the network is
        ready, so a cycle-accurate step of this router would at most notify
        requester-less arbiters of an idle cycle (a no-op for round-robin, a
        saturating credit refill for WaW) -- exactly what this method applies
        in bulk.  Output ports held by a wormhole lock are skipped, matching
        the per-cycle code path.
        """
        if cycles <= 0:
            return
        if not self._flits:
            self._settle_idle()
            return
        self._was_idle = False
        for out, arbiter, _ in self._plan:
            if arbiter is not None and self._owner[out] is None:
                arbiter.idle_cycles(cycles)

    def _settle_idle(self) -> None:
        """Apply the one-time arbiter refill of a router that went quiet.

        The WaW credit counters refill while their output ports sit idle;
        doing it once (capped at the buffer depth) when the router goes quiet
        is equivalent to calling idle_cycle every empty cycle.
        """
        if self._was_idle:
            return
        for _, arbiter, _ in self._plan:
            if arbiter is not None:
                arbiter.idle_cycles(self._depth)
        self._was_idle = True

    # ------------------------------------------------------------------
    # One simulation cycle
    # ------------------------------------------------------------------
    def step(self, now: int, events: List[RouterEvent]) -> None:
        """Evaluate one cycle, appending the resulting events to ``events``.

        Output ports are served in topology order.  A free output polls its
        legal contenders for a ready head flit routed to it; the owner of a
        locked output forwards its next flit.  Both read the live state, so
        an input whose tail left through an earlier output competes for the
        later outputs of the same cycle.
        """
        if not self._flits:
            # Nothing buffered anywhere: apply the one-time idle refill.
            self._settle_idle()
            return
        self._was_idle = False
        fifos = self._fifos
        owner = self._owner
        credits = self._credits

        for out, arbiter, contenders in self._plan:
            holder = owner[out]
            if holder is None:
                if arbiter is None:
                    continue
                # No per-input grant state is needed: a granted head leaves
                # in the cycle it wins, and body/tail flits carry route -1,
                # so a matching route is always an unallocated head.
                requesters = []
                for position, port in enumerate(contenders):
                    fifo = fifos[port]
                    if fifo:
                        head = fifo[0]
                        if head.route == out and head.ready_cycle <= now:
                            requesters.append(position)
                if not requesters:
                    arbiter.idle_cycle()
                    continue
                if out != _LOCAL and credits[out] <= 0:
                    # The downstream buffer is full: allocation is deferred, the
                    # arbiter state is left untouched (nobody is served).
                    continue
                holder = owner[out] = contenders[arbiter.pick(requesters)]

            # Move one flit of the packet owning ``out`` (if possible).
            fifo = fifos[holder]
            if not fifo:
                continue
            flit = fifo[0]
            if flit.ready_cycle > now:
                continue
            if out != _LOCAL and credits[out] <= 0:
                continue
            del fifo[0]
            self._flits -= 1
            self.forwarded_flits += 1
            # Return a credit to whoever feeds this input port.
            events.append(("credit", self, holder))
            if out == _LOCAL:
                events.append(("eject", self, flit))
            else:
                credits[out] -= 1
                events.append(("forward", self, out, flit))
            if flit.flit_type in _TAILS:
                owner[out] = None

    # ------------------------------------------------------------------
    def return_credit(self, out_port: Port) -> None:
        """Called by the network when the downstream buffer freed one slot."""
        if out_port is not Port.LOCAL:
            self._return_credit(PORT_INDEX[out_port])

    def _return_credit(self, out: int) -> None:
        """One credit back for directional output port number ``out``."""
        self._credits[out] += 1
        if self._credits[out] > self._depth:
            raise RuntimeError(
                f"credit overflow on {self.coord} {PORTS[out]}: flow-control protocol violation"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Router({self.coord}, {self.buffered_flits()} flits buffered)"
