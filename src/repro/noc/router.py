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
Each router position's ports, legal contenders and neighbours are computed
once per topology and shared, so building a router only creates its state.

Routers never move flits directly; they emit one *move* event per flit
leaving an input, which the :class:`~repro.noc.network.Network` applies at
the end of the cycle (the input's credit goes upstream, then the flit is
forwarded or ejected), so results do not depend on the order in which
routers are evaluated.  Within one router, output ports are served in
topology order against the router's live state: a tail flit forwarded
through an earlier output releases its input, and the next head flit of
that input may win a later output in the same cycle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.arbitration import Arbiter, RoundRobinArbiter, WeightedRoundRobinArbiter
from ..core.config import NoCConfig
from ..core.weights import WeightTable
from ..geometry import Coord, Mesh, Port
from ..topology import Topology
from .flit import HEADS, TAILS, Flit

__all__ = ["PORTS", "PORT_INDEX", "Router", "RouterEvent"]

#: Every router port, in port-number order: router state and event payloads
#: refer to a port by its position in this tuple.
PORTS: Tuple[Port, ...] = tuple(Port)
#: Port number of each :class:`Port` (used at the ``Port`` API boundary).
PORT_INDEX: Dict[Port, int] = {port: index for index, port in enumerate(PORTS)}
_LOCAL = PORT_INDEX[Port.LOCAL]

#: The event of one flit move, applied by the network after every router
#: stepped: ``(router, in_port, out_port, flit)`` (port numbers, see
#: :data:`PORTS`).  ``flit`` left the buffer of ``in_port``, so one credit
#: goes back to whoever feeds that input; it leaves through ``out_port``,
#: towards the downstream router or, when that is ``LOCAL``, to the NIC.
RouterEvent = Tuple["Router", int, int, Flit]


class _Layout(NamedTuple):
    """The ports, requester tables and links of one router position.

    Built once per topology and shared by every router built there; a
    requester table depends only on its output's contenders, so outputs
    with the same contenders share one.
    """

    #: Port number and buffer name of each existing input port.
    inputs: Tuple[Tuple[int, str], ...]
    #: Per existing output port, in topology order: its port number, its
    #: legal contender input ports, their port numbers and its requester
    #: table, which maps a bit mask of input port numbers to the positions
    #: (ascending) of the contenders in the mask.
    outputs: Tuple[Tuple[int, Tuple[Port, ...], Tuple[int, ...], Tuple[Tuple[int, ...], ...]], ...]
    #: By port number, the position in ``topology.nodes()`` of the router
    #: reached through each output port and of the router feeding each input
    #: port (``None`` where the port has no link).
    downstream: Tuple[Optional[int], ...]
    upstream: Tuple[Optional[int], ...]
    #: By port number, the name of the link leaving through each output
    #: port: the fault injector seeds the link's RNG stream from it.
    links: Tuple[str, ...]
    #: Lookahead routing memo: :attr:`Message.route_key` of the destination
    #: -> output port number.
    routes: Dict[int, int]


@lru_cache(maxsize=16)
def _layouts(topology: Topology) -> Dict[Coord, _Layout]:
    """Every router position's ports, contenders and neighbours, built once per topology."""
    position = {coord: index for index, coord in enumerate(topology.nodes())}
    layouts = {}
    tables: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = {}
    for coord in position:
        outputs = []
        for port in topology.output_ports(coord):
            contenders = topology.legal_inputs_for_output(coord, port)
            numbers = tuple(PORT_INDEX[p] for p in contenders)
            table = tables.get(numbers)
            if table is None:
                table = tables[numbers] = tuple(
                    tuple(at for at, number in enumerate(numbers) if mask >> number & 1)
                    for mask in range(1 << len(PORTS))
                )
            outputs.append((PORT_INDEX[port], contenders, numbers, table))
        inputs = tuple((PORT_INDEX[p], f"{coord}:{p.value}") for p in topology.input_ports(coord))
        downstream, upstream = (
            tuple(position.get(neighbour(coord, port)) for port in PORTS)
            for neighbour in (topology.downstream, topology.upstream)
        )
        links = tuple(f"{coord.x},{coord.y}:{port.value}" for port in PORTS)
        layouts[coord] = _Layout(inputs, tuple(outputs), downstream, upstream, links, {})
    return layouts


@lru_cache(maxsize=16)
def _default_weights(mesh: Mesh) -> WeightTable:
    """The default WaW table of ``mesh``, built once and shared: nothing mutates a table."""
    return WeightTable.from_closed_form(mesh)


class Router:
    """One wormhole router of the mesh.

    A ``weight_table`` must belong to the configured topology; a WaW router
    without one shares its topology's all-to-all table.  A WaW arbiter reads
    its contenders' credits from ``weight_table.counts(coord)``: for a table
    of the configured topology these are
    :meth:`~repro.core.weights.WeightTable.arbitration_weights`.
    """

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
        if weight_table is not None:
            weight_table.require_topology(self.topology)
        elif config.is_waw:
            # Default WaW configuration: the all-to-all weights of the
            # topology (closed-form on the XY mesh, flow-derived elsewhere).
            weight_table = _default_weights(config.mesh)
        self.weight_table = weight_table
        layout = _layouts(self.topology)[coord]
        self._routes = layout.routes
        self._inputs = layout.inputs
        self._depth = config.buffer_depth

        #: The input buffers by port number (``None`` where the input does not
        #: exist): each a list of flits, head of line first, at most
        #: ``buffer_depth`` long.
        self._fifos: List[Optional[List[Flit]]] = [None] * len(PORTS)
        for port, _ in layout.inputs:
            self._fifos[port] = []
        #: Flits buffered over all inputs.
        self._flits = 0
        #: Which input port number owns each output port (wormhole lock).
        self._owner: List[Optional[int]] = [None] * len(PORTS)
        #: Credits towards the downstream buffer of each directional output.
        self._credits: List[int] = [config.buffer_depth] * len(PORTS)
        self._outputs = layout.outputs
        #: Per output port, in topology order: ``(port number, arbiter,
        #: contender port numbers, counters, weights, requester table)``; see
        #: :meth:`_build_plan`, which sets it when the first flit arrives.
        self._plan: Optional[Tuple[tuple, ...]] = None

        # Statistics / idle bookkeeping.
        self.forwarded_flits = 0
        self._was_idle = True

    def _build_plan(self) -> Tuple[tuple, ...]:
        """Build the arbiters and the per-output plan the router steps through.

        The arbiter is ``None`` for an output no input may legally request.
        An idle cycle changes nothing while a WaW arbiter's counter list
        equals its weight list (both ``None`` for round-robin, which keeps
        no idle state, and where there is no arbiter).  So an arbiter stays
        in its initial state until its router holds a flit, and the plan is
        built then (:meth:`_accept`): most routers of a mesh that carries
        one core's traffic never build one.
        """
        waw = self.config.is_waw
        if waw:
            counts = self.weight_table.counts(self.coord).inputs
            weights = [counts.get(port, 0) for port in PORTS]
        plan = []
        for out, contenders, numbers, table in self._outputs:
            arbiter = counters = weights_at = None
            if contenders and waw:
                arbiter = WeightedRoundRobinArbiter(contenders, [weights[n] for n in numbers])
                counters, weights_at = arbiter._credits, arbiter._weights
            elif contenders:
                arbiter = RoundRobinArbiter(contenders)
            plan.append((out, arbiter, numbers, counters, weights_at, table))
        self._plan = tuple(plan)
        return self._plan

    # ------------------------------------------------------------------
    # Port-level views (tests and diagnostics)
    # ------------------------------------------------------------------
    @property
    def buffers(self) -> Dict[Port, List[Flit]]:
        """The buffered flits of each existing input port, head of line first."""
        return {PORTS[port]: self._fifos[port] for port, _ in self._inputs}

    @property
    def arbiters(self) -> Dict[Port, Arbiter]:
        """The arbiter of each output port that some input may request."""
        plan = self._plan if self._plan is not None else self._build_plan()
        return {PORTS[out]: arbiter for out, arbiter, *_ in plan if arbiter is not None}

    @property
    def output_owner(self) -> Dict[Port, Optional[Port]]:
        """The input port holding each output port's wormhole lock (``None`` if free)."""
        return {
            PORTS[out]: None if self._owner[out] is None else PORTS[self._owner[out]]
            for out, *_ in self._outputs
        }

    # ------------------------------------------------------------------
    # Buffer interface used by the network when applying events
    # ------------------------------------------------------------------
    def accept_flit(self, in_port: Port, flit: Flit, ready_cycle: int) -> None:
        """Enqueue an incoming flit on ``in_port``."""
        self._accept(PORT_INDEX[in_port], flit, ready_cycle)

    def _accept(self, port: int, flit: Flit, ready_cycle: int) -> None:
        """Enqueue ``flit`` on input port number ``port``; route it if it is a head."""
        fifo = self._fifos[port]
        if len(fifo) >= self._depth:
            raise OverflowError(f"{dict(self._inputs)[port]}: push into a full buffer")
        flit.ready_cycle = ready_cycle
        if flit.flit_type in HEADS:
            message = flit.packet.message
            route = self._routes.get(message.route_key)
            if route is None:
                route = PORT_INDEX[self.topology.output_port(self.coord, message.destination)]
                self._routes[message.route_key] = route
            flit.route = route
        fifo.append(flit)
        self._flits += 1
        if self._plan is None:
            self._build_plan()

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
        ready, so a cycle-accurate step of this router would at most refill
        the WaW counters of its requester-less outputs, saturating at the
        weights -- exactly what this method applies in bulk.  As in
        :meth:`step`, only free outputs whose WaW counters differ from their
        weights are called: a round-robin arbiter keeps no idle state, and
        an output held by a wormhole lock is not idle.
        """
        if cycles <= 0:
            return
        if not self._flits:
            self._settle_idle()
            return
        self._was_idle = False
        for out, arbiter, _, counters, weights, _ in self._plan:
            if counters != weights and self._owner[out] is None:
                arbiter.idle_cycles(cycles)

    def _settle_idle(self) -> None:
        """Apply the one-time arbiter refill of a router that went quiet.

        Every WaW arbiter whose counters differ from its weights, a locked
        output's included, gets ``buffer_depth`` idle cycles once per quiet
        stretch, however long the stretch lasts; the others would not change.
        The paper's arbiter refills one credit per idle cycle instead, so a
        WaW counter more than ``buffer_depth`` below its weight stays below
        it (``tests/regressions/test_quiet_router_refill.py``).
        """
        if self._was_idle:
            return
        for _, arbiter, _, counters, weights, _ in self._plan:
            if counters != weights:
                arbiter.idle_cycles(self._depth)
        self._was_idle = True

    # ------------------------------------------------------------------
    # One simulation cycle
    # ------------------------------------------------------------------
    def step(self, now: int, moves: List[RouterEvent]) -> None:
        """Evaluate one cycle, appending one event per flit move to ``moves``.

        Output ports are served in topology order.  A free output reads its
        requesters from its requester table, keyed by the bit mask of the
        inputs whose ready head flit is routed to it.  A lone requester wins
        without a ``pick`` call where its arbiter's
        ``lone_grant_keeps_state`` says the grant changes nothing (WaW,
        which leaves a unique candidate's flit count unaltered); round-robin
        picks even a lone requester, which moves its pointer.  The owner of
        a locked output forwards its next flit.  A tail forwarded through an
        earlier output adds its input's next head to the masks, so that
        input competes for the later outputs of the same cycle.
        """
        if not self._flits:
            # Nothing buffered anywhere: apply the one-time idle refill.
            self._settle_idle()
            return
        self._was_idle = False
        fifos = self._fifos
        owner = self._owner
        credits = self._credits
        moved = 0
        # By output port number, the bit mask of the input port numbers whose
        # ready head-of-line flit is routed to it.  No per-input grant state
        # is needed: a granted head leaves in the cycle it wins, and body and
        # tail flits carry route -1, so a routed head is always unallocated.
        requests = [0] * len(PORTS)
        for port, fifo in enumerate(fifos):
            if fifo:
                head = fifo[0]
                if head.route >= 0 and head.ready_cycle <= now:
                    requests[head.route] |= 1 << port

        for out, arbiter, contenders, counters, weights, table in self._plan:
            holder = owner[out]
            if holder is None:
                requesters = table[requests[out]]
                if not requesters:
                    if counters != weights:
                        arbiter.idle_cycle()
                    continue
                if out != _LOCAL and credits[out] <= 0:
                    # The downstream buffer is full: allocation is deferred, the
                    # arbiter state is left untouched (nobody is served).
                    continue
                if len(requesters) == 1 and arbiter.lone_grant_keeps_state:
                    holder = contenders[requesters[0]]
                else:
                    holder = contenders[arbiter.pick(requesters)]
                owner[out] = holder

            # Move one flit of the packet owning ``out`` (if possible).
            fifo = fifos[holder]
            if not fifo:
                continue
            flit = fifo[0]
            if flit.ready_cycle > now:
                continue
            if out != _LOCAL:
                if credits[out] <= 0:
                    continue
                credits[out] -= 1
            del fifo[0]
            moved += 1
            moves.append((self, holder, out, flit))
            if flit.flit_type in TAILS:
                owner[out] = None
                # The next flit of this input is a head: it may request a
                # later output in this same cycle.
                if fifo and fifo[0].ready_cycle <= now:
                    requests[fifo[0].route] |= 1 << holder
        self._flits -= moved
        self.forwarded_flits += moved

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
