"""Communication flows and per-port flow accounting.

A *flow* is a (source, destination) pair of nodes that exchange packets.  The
WaW arbitration weights of the paper are derived from how many flows (or,
more precisely, how many distinct *source nodes*) can cross each router port
under the topology's deterministic routing; this module provides:

* :class:`Flow` -- a single source/destination pair with its deterministic
  route through a given topology.
* :class:`FlowSet` -- a collection of flows with constructors for the traffic
  patterns used in the paper (all-to-all for the generic weight equations,
  all-to-one towards the memory controller for the evaluated manycore) and
  queries for per-port flow and source counts.  The ``mesh`` argument may be
  a plain :class:`~repro.geometry.Mesh` (XY mesh, the seed behaviour) or any
  :class:`~repro.topology.Topology`.

The distinction between *flow* counts and *source* counts matters: the
paper's closed-form port weights (Section III) count the number of upstream
source nodes whose traffic can cross a port, not the number of individual
(source, destination) flows.  :meth:`FlowSet.port_source_count` reproduces
the former, :meth:`FlowSet.port_flow_count` the latter; Table I of the paper
is reproduced with source counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..geometry import Coord, Mesh, Port
from ..topology.base import Hop, as_topology

__all__ = ["Flow", "FlowSet", "PortKey"]

#: Key identifying one side of a router port: (router, port, "in"|"out").
PortKey = Tuple[Coord, Port, str]


@dataclass(frozen=True)
class Flow:
    """A unidirectional communication flow between two nodes."""

    source: Coord
    destination: Coord

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError(f"flow source and destination coincide: {self.source}")

    def route(self, mesh: Mesh) -> List[Hop]:
        """Deterministic route of the flow through ``mesh`` (any topology)."""
        return as_topology(mesh).route(self.source, self.destination)

    def hop_count(self, mesh: Optional[Mesh] = None) -> int:
        """Number of routers crossed.

        Without a topology this is the Manhattan distance + 1 (exact for a
        mesh, an upper bound for wrapped topologies); pass the topology to
        get its routed distance instead.
        """
        if mesh is not None:
            return as_topology(mesh).distance(self.source, self.destination) + 1
        return self.source.manhattan(self.destination) + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flow({self.source}->{self.destination})"


class FlowSet:
    """A set of flows over a mesh, with per-port occupancy accounting.

    The constructor accepts any iterable of :class:`Flow`; the class methods
    build the canonical traffic patterns of the paper.
    """

    def __init__(self, mesh: Mesh, flows: Iterable[Flow]):
        self.mesh = mesh
        self._flows: List[Flow] = []
        seen: Set[Tuple[Coord, Coord]] = set()
        for flow in flows:
            mesh.require(flow.source)
            mesh.require(flow.destination)
            key = (flow.source, flow.destination)
            if key in seen:
                continue
            seen.add(key)
            self._flows.append(flow)
        self._port_flows: Optional[Dict[PortKey, List[Flow]]] = None

    # ------------------------------------------------------------------
    # Constructors for canonical traffic patterns
    # ------------------------------------------------------------------
    @classmethod
    def all_to_all(cls, mesh: Mesh) -> "FlowSet":
        """Every node sends to every other node (paper Section III weights)."""
        flows = (
            Flow(src, dst)
            for src in mesh.nodes()
            for dst in mesh.nodes()
            if src != dst
        )
        return cls(mesh, flows)

    @classmethod
    def all_to_one(cls, mesh: Mesh, destination: Coord) -> "FlowSet":
        """Every node sends to ``destination`` (cores -> memory controller)."""
        mesh.require(destination)
        return cls(mesh, (Flow(src, destination) for src in mesh.nodes() if src != destination))

    @classmethod
    def one_to_all(cls, mesh: Mesh, source: Coord) -> "FlowSet":
        """``source`` sends to every other node (memory controller -> cores)."""
        mesh.require(source)
        return cls(mesh, (Flow(source, dst) for dst in mesh.nodes() if dst != source))

    @classmethod
    def from_pairs(cls, mesh: Mesh, pairs: Iterable[Tuple[Coord, Coord]]) -> "FlowSet":
        """Build a flow set from explicit (source, destination) pairs."""
        return cls(mesh, (Flow(src, dst) for src, dst in pairs))

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows)

    def __contains__(self, flow: Flow) -> bool:
        return flow in self._flows

    @property
    def flows(self) -> Tuple[Flow, ...]:
        return tuple(self._flows)

    # ------------------------------------------------------------------
    # Per-port accounting
    # ------------------------------------------------------------------
    def _index(self) -> Dict[PortKey, List[Flow]]:
        """Lazily build the port -> flows index."""
        if self._port_flows is None:
            index: Dict[PortKey, List[Flow]] = {}
            for flow in self._flows:
                for hop in flow.route(self.mesh):
                    index.setdefault((hop.router, hop.in_port, "in"), []).append(flow)
                    index.setdefault((hop.router, hop.out_port, "out"), []).append(flow)
            self._port_flows = index
        return self._port_flows

    def flows_through_input(self, router: Coord, port: Port) -> Tuple[Flow, ...]:
        """Flows whose route enters ``router`` through input ``port``."""
        return tuple(self._index().get((router, port, "in"), ()))

    def flows_through_output(self, router: Coord, port: Port) -> Tuple[Flow, ...]:
        """Flows whose route leaves ``router`` through output ``port``."""
        return tuple(self._index().get((router, port, "out"), ()))

    def port_flow_count(self, router: Coord, port: Port, direction: str) -> int:
        """Number of flows crossing a port (``direction`` is ``"in"``/``"out"``)."""
        if direction not in ("in", "out"):
            raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
        return len(self._index().get((router, port, direction), ()))

    def port_source_count(self, router: Coord, port: Port, direction: str) -> int:
        """Number of distinct *source nodes* whose traffic crosses a port.

        This is the quantity the paper's closed-form weight equations count:
        e.g. at router ``(x, y)`` the ``X+`` input port can carry traffic of
        the ``x`` nodes that precede the router in its row, regardless of how
        many destinations each of those nodes talks to.
        """
        if direction not in ("in", "out"):
            raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
        flows = self._index().get((router, port, direction), ())
        return len({flow.source for flow in flows})

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def max_link_load(self) -> int:
        """Largest number of flows sharing any single output port."""
        best = 0
        for (router, port, direction), flows in self._index().items():
            if direction == "out":
                best = max(best, len(flows))
        return best

    def destinations(self) -> Set[Coord]:
        return {flow.destination for flow in self._flows}

    def sources(self) -> Set[Coord]:
        return {flow.source for flow in self._flows}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowSet({len(self._flows)} flows on {self.mesh})"
