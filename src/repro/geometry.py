"""Mesh geometry primitives shared by the analysis and the simulator.

The paper studies a canonical 2D mesh with XY (dimension-ordered, X first)
routing.  Everything else in this package -- the WaW weight model, the WCTT
analyses and the cycle-accurate simulator -- is expressed in terms of the
small vocabulary defined here:

* :class:`Coord` -- a node/router coordinate ``(x, y)``.  ``x`` is the
  horizontal coordinate (column, ``0 .. width-1``) and ``y`` the vertical
  coordinate (row, ``0 .. height-1``), exactly as in the paper's weight
  equations.  The memory controller of the evaluated manycore sits at
  ``(0, 0)`` (the paper's ``R(0, 0)``).
* :class:`Port` -- the five router ports.  Ports are named after the
  *direction of travel* of the traffic they carry, matching the paper's
  ``X+/X-/Y+/Y-/PME`` notation: the ``XPLUS`` input port of router ``(x, y)``
  receives flits travelling in the ``+x`` direction (i.e. coming from the
  neighbour at ``(x - 1, y)``), and the ``XPLUS`` output port forwards flits
  towards ``(x + 1, y)``.
* :class:`Mesh` -- the rectangular node grid, responsible for iterating
  nodes, resolving neighbours and validating coordinates.  It is the base
  class of every pluggable :class:`~repro.topology.Topology` (torus, ring,
  concentrated mesh, ...); routing lives on the topology objects of
  :mod:`repro.topology`, not here.

Keeping the naming aligned with the paper makes the weight equations of
Section III and their reproduction in :mod:`repro.core.weights` directly
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Tuple

__all__ = ["Coord", "Port", "Mesh", "DIRECTION_PORTS"]


@dataclass(frozen=True, order=True)
class Coord:
    """A node coordinate in the mesh.

    ``x`` grows to the right (East), ``y`` grows downwards (South); the
    memory controller of the evaluated system is at ``Coord(0, 0)``.
    """

    x: int
    y: int

    def __iter__(self):
        return iter((self.x, self.y))

    def manhattan(self, other: "Coord") -> int:
        """Manhattan (hop) distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def offset(self, dx: int, dy: int) -> "Coord":
        """Return the coordinate displaced by ``(dx, dy)``."""
        return Coord(self.x + dx, self.y + dy)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x},{self.y})"


class Port(Enum):
    """Router ports, named by the direction of travel of the traffic.

    ``LOCAL`` is the paper's ``PME`` port (processor/memory element): the
    injection port when used as an input and the ejection port when used as
    an output.
    """

    LOCAL = "PME"
    XPLUS = "X+"
    XMINUS = "X-"
    YPLUS = "Y+"
    YMINUS = "Y-"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Port.{self.name}"

    @property
    def is_local(self) -> bool:
        return self is Port.LOCAL

    @property
    def axis(self) -> Optional[str]:
        """``"x"`` or ``"y"`` for directional ports, ``None`` for LOCAL."""
        if self in (Port.XPLUS, Port.XMINUS):
            return "x"
        if self in (Port.YPLUS, Port.YMINUS):
            return "y"
        return None


#: Directional ports only (excludes LOCAL), in a fixed deterministic order.
DIRECTION_PORTS: Tuple[Port, ...] = (
    Port.XPLUS,
    Port.XMINUS,
    Port.YPLUS,
    Port.YMINUS,
)

#: Displacement of the downstream router reached through each output port.
_OUTPUT_DISPLACEMENT = {
    Port.XPLUS: (1, 0),
    Port.XMINUS: (-1, 0),
    Port.YPLUS: (0, 1),
    Port.YMINUS: (0, -1),
}

#: Displacement of the upstream router feeding each input port.
_INPUT_DISPLACEMENT = {
    Port.XPLUS: (-1, 0),
    Port.XMINUS: (1, 0),
    Port.YPLUS: (0, -1),
    Port.YMINUS: (0, 1),
}


@dataclass(frozen=True)
class Mesh:
    """A ``width x height`` 2D mesh (the paper's ``NxM``).

    ``width`` is the number of columns (the paper's ``N``, horizontal
    dimension) and ``height`` the number of rows (the paper's ``M``).
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"mesh dimensions must be positive, got {self.width}x{self.height}"
            )

    # ------------------------------------------------------------------
    # Node enumeration / identification
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def nodes(self) -> Iterator[Coord]:
        """Iterate all node coordinates in row-major order."""
        for y in range(self.height):
            for x in range(self.width):
                yield Coord(x, y)

    def contains(self, coord: Coord) -> bool:
        return 0 <= coord.x < self.width and 0 <= coord.y < self.height

    def require(self, coord: Coord) -> Coord:
        """Return ``coord`` if it lies inside the mesh, raise otherwise."""
        if not self.contains(coord):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height} mesh")
        return coord

    def node_id(self, coord: Coord) -> int:
        """Row-major integer identifier of a node (``y * width + x``)."""
        self.require(coord)
        return coord.y * self.width + coord.x

    def coord_of(self, node_id: int) -> Coord:
        """Inverse of :meth:`node_id`."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node id {node_id} outside 0..{self.num_nodes - 1}")
        return Coord(node_id % self.width, node_id // self.width)

    # ------------------------------------------------------------------
    # Port topology
    # ------------------------------------------------------------------
    def downstream(self, coord: Coord, out_port: Port) -> Optional[Coord]:
        """Router reached through ``out_port`` of ``coord`` (``None`` at edges).

        ``LOCAL`` has no downstream router (the flit is ejected).
        """
        self.require(coord)
        if out_port is Port.LOCAL:
            return None
        dx, dy = _OUTPUT_DISPLACEMENT[out_port]
        nxt = coord.offset(dx, dy)
        return nxt if self.contains(nxt) else None

    def upstream(self, coord: Coord, in_port: Port) -> Optional[Coord]:
        """Router feeding ``in_port`` of ``coord`` (``None`` at edges/LOCAL)."""
        self.require(coord)
        if in_port is Port.LOCAL:
            return None
        dx, dy = _INPUT_DISPLACEMENT[in_port]
        prev = coord.offset(dx, dy)
        return prev if self.contains(prev) else None

    def output_ports(self, coord: Coord) -> List[Port]:
        """Output ports that physically exist at ``coord`` (LOCAL included)."""
        ports = [Port.LOCAL]
        for port in DIRECTION_PORTS:
            if self.downstream(coord, port) is not None:
                ports.append(port)
        return ports

    def input_ports(self, coord: Coord) -> List[Port]:
        """Input ports that physically exist at ``coord`` (LOCAL included)."""
        ports = [Port.LOCAL]
        for port in DIRECTION_PORTS:
            if self.upstream(coord, port) is not None:
                ports.append(port)
        return ports

    def links(self) -> Iterator[Tuple[Coord, Port, Coord]]:
        """Iterate all directed inter-router links as ``(src, out_port, dst)``."""
        for coord in self.nodes():
            for port in DIRECTION_PORTS:
                nxt = self.downstream(coord, port)
                if nxt is not None:
                    yield coord, port, nxt

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.width}x{self.height} mesh"
