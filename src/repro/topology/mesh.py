"""The canonical 2D mesh topology (the paper's baseline).

:class:`Mesh2D` is the topology-object form of a plain
:class:`~repro.geometry.Mesh` with XY routing: a rectangular grid with no
wrap-around links and dimension-ordered routing.  With the default XY
strategy its routes, legal-turn tables, WCTT bounds and simulation results
are identical to the original hard-coded implementation (the equivalence is
locked down by ``tests/test_topology.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Coord
from .base import Topology

__all__ = ["Mesh2D"]


@dataclass(frozen=True)
class Mesh2D(Topology):
    """A ``width x height`` 2D mesh (the paper's ``NxM``) with XY/YX routing."""

    kind = "mesh"

    def axis_step(self, current: Coord, destination: Coord, axis: str) -> int:
        cur, dst = (current.x, destination.x) if axis == "x" else (current.y, destination.y)
        if cur < dst:
            return 1
        if cur > dst:
            return -1
        return 0

    def axis_distance(self, source: Coord, destination: Coord, axis: str) -> int:
        if axis == "x":
            return abs(source.x - destination.x)
        return abs(source.y - destination.y)

    def describe_short(self) -> str:
        return f"{self.width}x{self.height} mesh"

    def short_label(self) -> str:
        return f"{self.width}x{self.height}"
