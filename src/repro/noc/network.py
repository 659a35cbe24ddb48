"""The assembled network and its cycle-driven simulation loop.

:class:`Network` instantiates one :class:`~repro.noc.router.Router` and one
:class:`~repro.noc.nic.NIC` per node of the configuration's topology and
wires them along the topology's links -- a 2D mesh reproduces the paper's
system, but any :class:`~repro.topology.Topology` (torus, ring, concentrated
mesh) wires and simulates the same way, with each router exposing exactly
the ports its topology gives it.  Within a cycle every NIC and every router
is evaluated against the *previous* end-of-cycle state of its neighbours
and emits events (inject, forward, eject, credit); the events are applied
once everybody has been evaluated, so simulation results do not depend on
the order in which routers are visited.

The network exposes a deliberately small API to the layers above it
(:mod:`repro.manycore`, :mod:`repro.workloads`):

* :meth:`Network.send` -- enqueue a message for injection;
* :meth:`Network.add_listener` -- observe message completions at a node;
* :meth:`Network.step` / :meth:`Network.run` / :meth:`Network.run_until_idle`
  -- advance time;
* :attr:`Network.stats` -- aggregated traffic statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..core.config import NoCConfig
from ..core.weights import WeightTable
from ..geometry import Coord, Port
from ..sim import SimulationBackend, make_backend
from .flit import Message
from .nic import NIC
from .router import PORT_INDEX, PORTS, Router
from .stats import NetworkStats

__all__ = ["Network"]

_LOCAL = PORT_INDEX[Port.LOCAL]


class Network:
    """A complete wormhole NoC instance on the configured topology."""

    def __init__(
        self,
        config: NoCConfig,
        weight_table: Optional[WeightTable] = None,
        *,
        backend: Union[str, SimulationBackend, None] = None,
    ):
        self.config = config
        # The time-advancement strategy: an explicit argument wins, otherwise
        # the config's sim_backend (default: the cycle-accurate reference).
        self.backend = make_backend(backend if backend is not None else config.sim_backend)
        self.mesh = config.mesh
        self.topology = config.topology
        if config.is_waw and weight_table is None:
            # Default WaW configuration: the all-to-all weights of the
            # topology (closed-form on the XY mesh, flow-derived elsewhere).
            weight_table = WeightTable.from_closed_form(config.mesh)
        self.weight_table = weight_table

        # A null fault model (all rates zero) is treated exactly like no
        # fault model at all: no injector, no HARQ state in the NICs, and a
        # simulation bit-identical to the reliable-link path.
        fault_spec = config.fault_model
        if fault_spec is not None and fault_spec.is_null:
            fault_spec = None
        #: Per-link fault runtime; ``None`` on a reliable network.
        self.fault_injector = fault_spec.instantiate() if fault_spec is not None else None
        reliability = fault_spec.reliability if fault_spec is not None else None

        self.routers: Dict[Coord, Router] = {
            coord: Router(coord, config, weight_table) for coord in self.topology.nodes()
        }
        self.nics: Dict[Coord, NIC] = {
            coord: NIC(coord, config, reliability=reliability)
            for coord in self.topology.nodes()
        }
        #: Wiring by port number (see :data:`repro.noc.router.PORTS`), built
        #: once so that applying an event is a table lookup: for each router,
        #: its NIC and the routers downstream of each output port and upstream
        #: of each input port (``None`` where the port has no link).
        self._links: Dict[
            Router, Tuple[NIC, List[Optional[Router]], List[Optional[Router]]]
        ] = {}
        for coord, router in self.routers.items():
            downstream, upstream = (
                [self.routers.get(neighbour(coord, port)) for port in PORTS]
                for neighbour in (self.topology.downstream, self.topology.upstream)
            )
            self._links[router] = (self.nics[coord], downstream, upstream)
        #: The router each NIC injects into.
        self._injects: Dict[NIC, Router] = {
            self.nics[coord]: router for coord, router in self.routers.items()
        }

        self.cycle = 0
        self.stats = NetworkStats()
        for nic in self.nics.values():
            nic.add_listener(self.stats.record_message)

        self._pending_sends: List[Message] = []
        #: Routers currently holding buffered flits (an insertion-ordered
        #: set; a dict for determinism).  Maintained by the step/apply path
        #: as a superset invariant -- every router with work is in here --
        #: and pruned at the end of each cycle, where routers that went
        #: quiet get their one-time arbiter idle refill applied eagerly
        #: (state-equivalent to the refill their next per-cycle step would
        #: perform).  The event-driven backend walks only this set.
        self._busy_routers: Dict[Router, None] = {}
        #: NICs whose injection queue is non-empty, same superset invariant
        #: (inserted by the NICs' work listener on enqueue, pruned at the
        #: end of each cycle).  NICs keep no idle-cycle state, so leaving
        #: the set needs no settling.  The listener is the set's own
        #: ``setdefault``, not a method of the network: nothing the network
        #: owns refers back to it, and a NIC and the set refer to each other
        #: only while the NIC has work, so reference counting frees a
        #: drained network without waiting for the cycle collector.
        self._busy_nics: Dict[NIC, None] = {}
        for nic in self.nics.values():
            nic.set_work_listener(self._busy_nics.setdefault)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(
        self,
        source: Coord,
        destination: Coord,
        payload_flits: int,
        *,
        kind: str = "data",
        context: Optional[object] = None,
    ) -> Message:
        """Create a message and hand it to the source NIC at the current cycle."""
        message = Message(
            source=source,
            destination=destination,
            payload_flits=payload_flits,
            kind=kind,
            context=context,
        )
        self.nics[source].send_message(message, self.cycle)
        self.stats.record_send(message)
        return message

    def add_listener(self, node: Coord, listener: Callable[[Message, int], None]) -> None:
        """Register a completion callback at ``node`` (e.g. a memory controller)."""
        self.nics[node].add_listener(listener)

    def nic(self, node: Coord) -> NIC:
        return self.nics[self.mesh.require(node)]

    def router(self, node: Coord) -> Router:
        return self.routers[self.mesh.require(node)]

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one clock cycle."""
        events: List[tuple] = []
        now = self.cycle

        for nic in self.nics.values():
            if nic.has_work():
                nic.step(now, events)
        for router in self.routers.values():
            router.step(now, events)

        self._apply_events(events, now)
        self._finish_cycle()

    def step_active(self) -> None:
        """One clock cycle touching only components that can hold work.

        Identical outcome to :meth:`step`: a NIC outside the busy set has an
        empty injection queue and a router outside the busy set has nothing
        buffered, so their per-cycle steps would be no-ops (a leaving
        router's one-time idle refill was applied when it left).  Used by
        the event-driven backend so the per-cycle cost scales with the
        traffic, not with the network size.
        """
        events: List[tuple] = []
        now = self.cycle

        for nic in self._busy_nics:
            nic.step(now, events)
        for router in list(self._busy_routers):
            router.step(now, events)

        self._apply_events(events, now)
        self._finish_cycle()

    def _finish_cycle(self) -> None:
        """Prune the busy sets (settling leaving routers) and advance time."""
        emptied = [router for router in self._busy_routers if not router.has_work()]
        for router in emptied:
            router._settle_idle()
            del self._busy_routers[router]
        drained = [nic for nic in self._busy_nics if not nic.has_work()]
        for nic in drained:
            del self._busy_nics[nic]
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Advance the network by ``cycles`` clock cycles."""
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        for _ in range(cycles):
            self.step()

    def is_idle(self) -> bool:
        """True when no flit is buffered or queued anywhere in the network.

        Every router and NIC with work is in its busy set (the sets'
        superset invariant), so only the busy sets are asked.
        """
        return not any(r.has_work() for r in self._busy_routers) and not any(
            n.has_work() for n in self._busy_nics
        )

    def run_until_idle(self, *, max_cycles: int = 1_000_000) -> int:
        """Run until the network drains completely; returns the final cycle.

        Time advancement is delegated to the configured
        :class:`~repro.sim.SimulationBackend` (cycle-accurate stepping or
        event-driven idle-cycle skipping; both produce identical results).
        Raises :class:`~repro.sim.SimulationStallError` -- with the buffered
        flit count and the busiest nodes' occupancy -- if the network has not
        drained after ``max_cycles``.  Dimension-ordered routing on a mesh
        (and on a concentrated mesh) is deadlock-free, so failing to drain
        there would be a simulator bug; on wrapped topologies (torus, ring)
        the wrap links close cyclic channel dependencies and heavily loaded
        traffic *can* genuinely deadlock -- bound the offered load (e.g.
        bounded outstanding request/reply traffic) when simulating those.
        """
        if self.fault_injector is not None:
            self.fault_injector.spec.reliability.validate_drain_budget(max_cycles)
        return self.backend.run_until_idle(self, max_cycles=max_cycles)

    # ------------------------------------------------------------------
    # Activity introspection / bulk idle (event-driven backend support)
    # ------------------------------------------------------------------
    def next_activity_cycle(self) -> Optional[int]:
        """Earliest cycle at which any component can act; ``None`` when idle.

        Conservative lower bound: returns the current cycle whenever a NIC
        holds both queued flits and injection credits, or any head-of-line
        flit is already ready (even if it would turn out to be blocked on
        downstream credits), so skipping up to -- but not into -- the
        returned cycle is always safe.
        """
        now = self.cycle
        best: Optional[int] = None
        for nic in self._busy_nics:
            if nic.ready_to_inject():
                return now
            # A NIC waiting only on ACKs acts again at its retransmit timer.
            timer = nic.next_timer_cycle()
            if timer is not None:
                if timer <= now:
                    return now
                if best is None or timer < best:
                    best = timer
        for router in self._busy_routers:
            ready = router.next_ready_cycle()
            if ready is None:
                continue
            if ready <= now:
                return now
            if best is None or ready < best:
                best = ready
        return best

    def skip_idle_cycles(self, cycles: int) -> None:
        """Advance the clock by ``cycles`` cycles in which nothing can act.

        Only valid when :meth:`next_activity_cycle` is at least ``cycles``
        ahead; replays the skipped steps' sole state effect (arbiters of
        requester-less output ports observing idle cycles) in closed form.
        """
        if cycles <= 0:
            return
        # Routers outside the busy set hold no flits and were settled when
        # they left it; only busy routers accumulate idle-arbiter state.
        for router in self._busy_routers:
            router.skip_cycles(cycles)
        self.cycle += cycles

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply_events(self, events: Iterable[tuple], now: int) -> None:
        timing = self.config.timing
        head_delay = timing.routing_latency
        body_delay = timing.flit_cycle
        link_latency = timing.link_latency
        injector = self.fault_injector
        links = self._links
        busy_routers = self._busy_routers
        for event in events:
            tag = event[0]
            if tag == "forward":
                _, router, out_port, flit = event
                receiver = links[router][1][out_port]
                if receiver is None:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"flit forwarded off the topology at {router.coord} {PORTS[out_port]}"
                    )
                if injector is not None:
                    # Faults strike on router-to-router link traversals (the
                    # local NIC-router connection is reliable on-die wiring).
                    # Both backends funnel forwards through this one apply
                    # path, so fault decisions are backend-independent.
                    injector.transmit(router.coord, PORTS[out_port], flit)
                delay = link_latency + (head_delay if flit.is_head else body_delay)
                # Travel-direction naming: the flit enters on the input port
                # with the number of the output it left through.
                receiver._accept(out_port, flit, now + delay)
                busy_routers[receiver] = None
            elif tag == "eject":
                _, router, flit = event
                links[router][0].receive_flit(flit, now + 1)
                self.stats.record_flit_hop(flit)
            elif tag == "credit":
                _, router, in_port = event
                nic, _, upstream = links[router]
                if in_port == _LOCAL:
                    nic.return_injection_credit()
                else:
                    feeder = upstream[in_port]
                    if feeder is None:  # pragma: no cover - defensive
                        raise RuntimeError(f"credit towards a missing neighbour at {router.coord}")
                    feeder._return_credit(in_port)
            elif tag == "inject":
                _, nic, flit = event
                receiver = self._injects[nic]
                receiver._accept(_LOCAL, flit, now + (head_delay if flit.is_head else body_delay))
                busy_routers[receiver] = None
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event {tag!r}")

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and experiments)
    # ------------------------------------------------------------------
    def buffered_flits(self) -> int:
        return sum(r.buffered_flits() for r in self.routers.values())

    def total_injected_flits(self) -> int:
        return sum(n.injected_flits for n in self.nics.values())

    def total_ejected_flits(self) -> int:
        return sum(n.ejected_flits for n in self.nics.values())

    def total_retransmissions(self) -> int:
        """Retransmission attempts launched by all NICs (0 without faults)."""
        return sum(n.retransmissions for n in self.nics.values())

    def total_pending_acks(self) -> int:
        """Sent messages across all NICs still waiting for an ACK."""
        return sum(n.pending_acks() for n in self.nics.values())

    def fault_counts(self) -> Dict[str, int]:
        """The fault injector's counters (all zero on a reliable network)."""
        if self.fault_injector is None:
            return {"transmitted": 0, "corrupted": 0, "lost": 0}
        return self.fault_injector.fault_counts()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network({self.config.describe()}, cycle={self.cycle})"
