"""The pluggable topology/routing abstraction.

Everything above the geometry layer -- the WaW weight model, both WCTT
analyses, the cycle-accurate simulator and the public :class:`repro.api.Scenario`
builder -- talks to the network structure through the :class:`Topology`
interface defined here:

* node enumeration and identification (inherited from
  :class:`~repro.geometry.Mesh`: ``nodes()``, ``node_id``, ``coord_of``);
* physical connectivity (``downstream``, ``upstream``, ``input_ports``,
  ``output_ports``, ``links()``);
* deterministic routing (``route(src, dst)``, ``output_port(current, dst)``)
  driven by a pluggable dimension-ordered :class:`RoutingStrategy` (XY or YX);
* the static legal-turn relation the time-composable analyses rely on
  (``legal_inputs_for_output`` / ``legal_outputs_for_input``).

A topology is a frozen dataclass extending :class:`~repro.geometry.Mesh`
(every supported topology arranges its nodes on a ``width x height``
coordinate grid), so any :class:`Topology` can be stored wherever a ``Mesh``
is expected -- in particular in :attr:`repro.core.config.NoCConfig.mesh` --
and all structural queries dispatch polymorphically.  Concrete topologies
live in sibling modules: :class:`~repro.topology.mesh.Mesh2D` (the paper's
baseline), :class:`~repro.topology.torus.Torus2D`,
:class:`~repro.topology.ring.Ring` and
:class:`~repro.topology.concentrated.ConcentratedMesh`.

Routes are deterministic and minimal for every topology, which is the
property both WCTT analyses need: the set of (router, input, output) triples
a flow can occupy is a static function of its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..geometry import Coord, Mesh, Port

__all__ = [
    "Hop",
    "RoutingStrategy",
    "XY",
    "YX",
    "ROUTING_STRATEGIES",
    "Topology",
    "as_topology",
]


@dataclass(frozen=True)
class Hop:
    """One router traversal of a route.

    ``router`` is the router being crossed, ``in_port`` the input port the
    packet arrives on (``LOCAL`` for the injection router) and ``out_port``
    the output port the packet leaves through (``LOCAL`` for the ejection
    router).
    """

    router: Coord
    in_port: Port
    out_port: Port


def _mirror(ports: Tuple[Port, ...]) -> Tuple[Port, ...]:
    """Swap the X and Y axes of a port tuple (XY tables -> YX tables)."""
    swap = {
        Port.XPLUS: Port.YPLUS,
        Port.XMINUS: Port.YMINUS,
        Port.YPLUS: Port.XPLUS,
        Port.YMINUS: Port.XMINUS,
        Port.LOCAL: Port.LOCAL,
    }
    return tuple(swap[p] for p in ports)


# Legal turns under X-first dimension-ordered routing: a packet never turns
# from the Y dimension back into the X dimension.  The tuple ordering is
# significant -- it fixes the candidate order of the round-robin arbiters of
# the simulator -- and must not be changed.
_XY_LEGAL_INPUTS: Dict[Port, Tuple[Port, ...]] = {
    Port.XPLUS: (Port.XPLUS, Port.LOCAL),
    Port.XMINUS: (Port.XMINUS, Port.LOCAL),
    Port.YPLUS: (Port.YPLUS, Port.XPLUS, Port.XMINUS, Port.LOCAL),
    Port.YMINUS: (Port.YMINUS, Port.XPLUS, Port.XMINUS, Port.LOCAL),
    Port.LOCAL: (Port.XPLUS, Port.XMINUS, Port.YPLUS, Port.YMINUS),
}

_XY_LEGAL_OUTPUTS: Dict[Port, Tuple[Port, ...]] = {
    Port.XPLUS: (Port.XPLUS, Port.YPLUS, Port.YMINUS, Port.LOCAL),
    Port.XMINUS: (Port.XMINUS, Port.YPLUS, Port.YMINUS, Port.LOCAL),
    Port.YPLUS: (Port.YPLUS, Port.LOCAL),
    Port.YMINUS: (Port.YMINUS, Port.LOCAL),
    Port.LOCAL: (Port.XPLUS, Port.XMINUS, Port.YPLUS, Port.YMINUS, Port.LOCAL),
}

_YX_LEGAL_INPUTS = {_mirror((p,))[0]: _mirror(v) for p, v in _XY_LEGAL_INPUTS.items()}
_YX_LEGAL_OUTPUTS = {_mirror((p,))[0]: _mirror(v) for p, v in _XY_LEGAL_OUTPUTS.items()}


@dataclass(frozen=True)
class RoutingStrategy:
    """A deterministic dimension-ordered routing discipline.

    ``axes`` is the order in which the dimensions are resolved: ``("x", "y")``
    is the paper's XY routing (X first), ``("y", "x")`` is YX.  The strategy
    decides, given the per-axis signed steps computed by the topology, which
    output port a packet takes next, and owns the static legal-turn tables
    that the arbiters and the WCTT analyses consume.
    """

    name: str
    axes: Tuple[str, str]

    def __post_init__(self) -> None:
        if tuple(sorted(self.axes)) != ("x", "y"):
            raise ValueError(f"axes must be a permutation of ('x', 'y'), got {self.axes}")

    # ------------------------------------------------------------------
    def output_port(self, steps: Dict[str, int]) -> Port:
        """Output port for the per-axis signed steps (``0`` = axis resolved).

        ``steps["x"]`` is ``+1``/``-1``/``0`` for travel in +x / -x / done,
        likewise for ``"y"``; returns ``LOCAL`` when both axes are resolved.
        """
        for axis in self.axes:
            step = steps[axis]
            if step > 0:
                return Port.XPLUS if axis == "x" else Port.YPLUS
            if step < 0:
                return Port.XMINUS if axis == "x" else Port.YMINUS
        return Port.LOCAL

    # ------------------------------------------------------------------
    @property
    def legal_inputs(self) -> Dict[Port, Tuple[Port, ...]]:
        """For each output port, the input ports that may ever request it."""
        return _XY_LEGAL_INPUTS if self.axes[0] == "x" else _YX_LEGAL_INPUTS

    @property
    def legal_outputs(self) -> Dict[Port, Tuple[Port, ...]]:
        """For each input port, the output ports a packet on it may request."""
        return _XY_LEGAL_OUTPUTS if self.axes[0] == "x" else _YX_LEGAL_OUTPUTS


#: X-first dimension-ordered routing (the paper's XY).
XY = RoutingStrategy("xy", ("x", "y"))
#: Y-first dimension-ordered routing.
YX = RoutingStrategy("yx", ("y", "x"))

#: Strategies addressable by name (:meth:`repro.api.Scenario.topology`).
ROUTING_STRATEGIES: Dict[str, RoutingStrategy] = {"xy": XY, "yx": YX}


@dataclass(frozen=True)
class Topology(Mesh):
    """Base class of every concrete topology.

    Subclasses choose the physical connectivity by overriding
    :meth:`~repro.geometry.Mesh.downstream` / :meth:`~repro.geometry.Mesh.upstream`
    (wrap-around links, missing dimensions, ...) and the distance metric by
    overriding :meth:`axis_step`; routing, legal turns and route validation
    are implemented here once, in terms of those two hooks.
    """

    routing: RoutingStrategy = XY

    #: Registry key of the topology (overridden by every subclass).
    kind = "abstract"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.routing, RoutingStrategy):
            raise ValueError(f"routing must be a RoutingStrategy, got {self.routing!r}")

    # ------------------------------------------------------------------
    # Structure hooks
    # ------------------------------------------------------------------
    def axis_step(self, current: Coord, destination: Coord, axis: str) -> int:
        """Signed unit step (+1/-1/0) along ``axis`` from ``current`` towards
        ``destination``, honouring the topology's link structure.

        Must be *consistent*: repeatedly stepping must reach the destination
        in a minimal number of hops, and the step must not change sign along
        the way (dimension-ordered routes never reverse within an axis).
        """
        raise NotImplementedError

    def axis_distance(self, source: Coord, destination: Coord, axis: str) -> int:
        """Routed hop count along one axis (``abs`` difference on a mesh,
        shortest way around on a wrapped axis)."""
        raise NotImplementedError

    def distance(self, source: Coord, destination: Coord) -> int:
        """Routed hop distance between two nodes (0 for a node to itself)."""
        return self.axis_distance(source, destination, "x") + self.axis_distance(
            source, destination, "y"
        )

    @property
    def terminals_per_node(self) -> int:
        """Processing elements attached to each router (1 except CMesh)."""
        return 1

    @property
    def num_terminals(self) -> int:
        """Total processing elements of the system."""
        return self.num_nodes * self.terminals_per_node

    @property
    def has_wraparound(self) -> bool:
        """True when some link wraps an edge (torus/ring); the closed-form
        mesh weight equations and the ``any_direction`` contender recursion
        only apply when this is False."""
        return False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def output_port(self, current: Coord, destination: Coord) -> Port:
        """Output port selected at ``current`` for ``destination``.

        Returns ``Port.LOCAL`` when ``current == destination``.
        """
        steps = {
            "x": 0 if current.x == destination.x else self.axis_step(current, destination, "x"),
            "y": 0 if current.y == destination.y else self.axis_step(current, destination, "y"),
        }
        return self.routing.output_port(steps)

    def route(self, source: Coord, destination: Coord) -> List[Hop]:
        """Full deterministic route from ``source`` to ``destination``.

        The first hop's input port is ``LOCAL`` (injection at the source
        router) and the last hop's output port is ``LOCAL`` (ejection at the
        destination router).  A route from a node to itself is a single hop
        ``Hop(router, LOCAL, LOCAL)``.
        """
        self.require(source)
        self.require(destination)

        hops: List[Hop] = []
        current = source
        in_port = Port.LOCAL
        # The path length is bounded by the routed distance, so the loop below
        # always terminates; the explicit bound guards against routing bugs.
        for _ in range(self.distance(source, destination) + 1):
            out_port = self.output_port(current, destination)
            hops.append(Hop(current, in_port, out_port))
            if out_port is Port.LOCAL:
                return hops
            nxt = self.downstream(current, out_port)
            if nxt is None:  # pragma: no cover - defensive
                raise RuntimeError(f"route left the topology at {current} via {out_port}")
            # Travel-direction port naming: the packet enters the next router
            # on the input port named after its direction of travel.
            in_port = out_port
            current = nxt
        raise RuntimeError(  # pragma: no cover - defensive
            f"route from {source} to {destination} did not terminate"
        )

    # ------------------------------------------------------------------
    # Legal turns (time-composable contention structure)
    # ------------------------------------------------------------------
    def legal_inputs_for_output(self, router: Coord, out_port: Port) -> Tuple[Port, ...]:
        """Input ports of ``router`` that may request ``out_port``.

        Only ports that physically exist at ``router`` are returned.  The
        LOCAL input is a legitimate contender for every directional output
        (the local core can inject towards any direction) but never for the
        LOCAL output (a node does not send packets to itself through the
        network).
        """
        existing = set(self.input_ports(router))
        return tuple(p for p in self.routing.legal_inputs[out_port] if p in existing)

    def legal_outputs_for_input(self, router: Coord, in_port: Port) -> Tuple[Port, ...]:
        """Output ports of ``router`` that a packet on ``in_port`` may request."""
        existing = set(self.output_ports(router))
        return tuple(p for p in self.routing.legal_outputs[in_port] if p in existing)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def short_label(self) -> str:
        """Compact label used in result rows.

        ``Mesh2D`` overrides this to the bare ``"8x8"`` so existing mesh
        experiment outputs are unchanged; every other topology names itself.
        """
        return self.describe_short()

    def describe_short(self) -> str:
        """Human-readable structure description, e.g. ``"8x8 torus"``."""
        return f"{self.width}x{self.height} {self.kind}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe_short()


@lru_cache(maxsize=128)
def _mesh2d_for(width: int, height: int) -> "Topology":
    from .mesh import Mesh2D

    return Mesh2D(width, height)


def as_topology(mesh: Mesh) -> Topology:
    """Normalise a plain :class:`~repro.geometry.Mesh` to a topology object.

    A :class:`Topology` passes through unchanged; a bare ``Mesh`` (the seed
    representation, still produced by ``Scenario.mesh(...)`` without a
    topology axis) is viewed as a :class:`~repro.topology.mesh.Mesh2D` with
    XY routing, which is behaviourally identical.
    """
    if isinstance(mesh, Topology):
        return mesh
    return _mesh2d_for(mesh.width, mesh.height)
