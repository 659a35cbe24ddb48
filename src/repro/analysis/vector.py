"""All-to-one WCTT grids of the paper's analyses, from their closed forms.

The scalar WCTT analyses (:mod:`repro.core.wctt_regular`,
:mod:`repro.core.wctt_weighted`) walk every flow's route hop by hop, so a
``sweep()`` grid of design points pays ``O(flows x route length)`` hop
evaluations per point.  This module evaluates the same closed forms for
every source towards one destination ``d = (dx, dy)`` at once, on plain
python ints and lists.  All XY routes towards ``d`` share their column
suffix at ``x = dx``, so the per-source WCTT grid decomposes into one
O(height) column chain plus one pass along each row.

The kernels serve :mod:`repro.experiments.scenario_wctt` only: the packet
bound of every source towards the memory controller, on the paper's
closed-form weights with regulated contenders.  Per-core UBD tables,
message bounds and table-weighted or burst-safe WaW bounds are left to the
scalar analyses: no benchmark workload builds a
:class:`~repro.core.ubd.UBDTable`, and vectorizing one saved 0-25 ms on
quick experiment runs of 10-270 ms (in-process, on a 2-vCPU host).

Exactness is non-negotiable: the kernels must produce *bit-identical
integers* to the scalar path (the differential harness
``tests/test_differential_analysis.py`` enforces it across a wide grid).
Python ints never overflow, so no design point needs a guard, and two
facts turn the route walks into closed forms:

1. The WaW+WaP per-hop delay depends only on the hop's output port and on
   one coordinate of its router: an X hop's round is its column's output
   count, a Y hop's its row's.  A source's bound is therefore
   ``row[sx] + col[sy]``: the X hops of its row's walk to column ``dx``
   plus the Y hops and the ejection hop of column ``dx`` -- two prefix sums.
2. In the regular merging-policy analysis both ``max()`` operations
   provably never bind when ``routing_latency >= 1`` (the recursive
   occupancy always exceeds the serialization floor), so the service
   recursion and the route walk collapse to linear recurrences, evaluated
   once down the destination column and then along every row.

Scope: edge-bounded meshes (plain :class:`~repro.geometry.Mesh`,
:class:`~repro.topology.mesh.Mesh2D`,
:class:`~repro.topology.concentrated.ConcentratedMesh`) with XY routing,
under the ``merging`` contender policy that the paper's analyses use.
Everything else (torus, ring, YX) falls back to the scalar reference.  No
caller chooses between the two paths: :func:`vector_supported` is the
single gatekeeper, which the kernels consult when they are built; they
raise :class:`NotVectorizable` with its reason, and
:mod:`repro.experiments.scenario_wctt` then takes the scalar path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..geometry import Coord, Mesh, Port
from ..topology.base import Topology
from ..core.config import NoCConfig
from ..core.wctt import WCTTSummary
from .backends import make_analysis_backend

__all__ = [
    "NotVectorizable",
    "vector_supported",
    "VectorWaWWaPAnalysis",
    "VectorRegularAnalysis",
    "make_vector_analysis",
    "vector_wctt_map",
    "vector_wctt_summary",
]

#: Topology kinds whose route structure matches the edge-bounded XY mesh.
_SUPPORTED_KINDS = ("mesh", "cmesh")

#: A grid of per-source values, ``grid[sy][sx]``.
Grid = List[List[int]]


# ----------------------------------------------------------------------
# Support predicate
# ----------------------------------------------------------------------
class NotVectorizable(ValueError):
    """A kernel refused a design point that :func:`vector_supported` rejects."""


def vector_supported(config: NoCConfig) -> Optional[str]:
    """Why ``config`` cannot take the closed-form grids (``None`` = it can).

    The single gatekeeper for all auto-wiring: a non-``None`` return is a
    human-readable reason (wrap-around links, a topology other than a mesh
    or concentrated mesh, YX routing) and the caller must use the scalar
    reference instead.
    """
    topology = config.topology
    if topology.has_wraparound:
        return f"wrap-around links ({topology.describe_short()}) need the scalar path"
    kind = getattr(topology, "kind", "mesh")
    if kind not in _SUPPORTED_KINDS:
        return f"unsupported topology kind {kind!r}"
    if topology.routing.axes[0] != "x":
        return "only XY routing is vectorized"
    return None


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
class VectorWaWWaPAnalysis:
    """WaW+WaP packet bounds of a whole grid, as two prefix sums.

    Mirrors :class:`~repro.core.wctt_weighted.WaWWaPWCTTAnalysis` on its
    defaults bit-for-bit: closed-form source-count weights, the same
    ``max(1, .)`` clamp, one arbitration round per hop (regulated
    contenders).  ``wctt_grid_to(d)`` returns the packet bound of every
    source towards ``d`` in one shot.
    """

    def __init__(self, config: NoCConfig):
        if not config.is_waw or not config.is_wap:
            raise ValueError(
                "VectorWaWWaPAnalysis requires a WaW+WaP configuration; "
                f"got {config.describe()}"
            )
        reason = vector_supported(config)
        if reason is not None:
            raise NotVectorizable(f"configuration not vectorizable: {reason}")
        self.config = config
        self.mesh: Mesh = config.mesh
        self.topology: Topology = config.topology
        w, h = self.mesh.width, self.mesh.height
        s = self.topology.terminals_per_node
        #: Output counts of the closed-form weight table
        #: (:func:`~repro.core.weights.source_port_counts` times the terminals
        #: per router), the slots of one arbitration round.  An X port's
        #: count depends only on its router's column and a Y port's only on
        #: its row, so each is a list over that coordinate.
        self.round_slots: Dict[Port, List[int]] = {
            Port.XPLUS: [s * (x + 1) for x in range(w)],
            Port.XMINUS: [s * (w - x) for x in range(w)],
            Port.YPLUS: [s * w * (y + 1) for y in range(h)],
            Port.YMINUS: [s * w * (h - y) for y in range(h)],
        }
        #: The LOCAL output's count, the same at every router.
        self.eject_slots = s * (w * h - 1)

    def _validate_packet(self, packet_flits: Optional[int]) -> None:
        if packet_flits is not None and packet_flits > self.config.min_packet_flits:
            raise ValueError(
                "WaP never injects packets larger than the minimum size "
                f"({self.config.min_packet_flits} flits); got {packet_flits}"
            )

    def wctt_grid_to(
        self, destination: Coord, *, packet_flits: Optional[int] = None
    ) -> Grid:
        """Packet WCTT of every source towards ``destination``.

        Returns ``grid[sy][sx]``; the destination's own cell is 0 (a node
        does not send to itself).
        """
        self.mesh.require(destination)
        self._validate_packet(packet_flits)
        w, h = self.mesh.width, self.mesh.height
        dx, dy = destination.x, destination.y
        timing = self.config.timing
        # ``waw_hop_delay`` with one round of ``max(1, slots)`` slots:
        # pipeline, round and link; every link port has at least one slot.
        slot_cycles = self.config.min_packet_flits * timing.flit_cycle
        link_hop = timing.routing_latency + timing.link_latency
        slots = self.round_slots

        # row[sx]: the X hops at columns sx .. dx (exclusive).
        row = [0] * w
        xplus, xminus = slots[Port.XPLUS], slots[Port.XMINUS]
        for x in range(dx - 1, -1, -1):
            row[x] = row[x + 1] + link_hop + xplus[x] * slot_cycles
        for x in range(dx + 1, w):
            row[x] = row[x - 1] + link_hop + xminus[x] * slot_cycles
        # col[sy]: the Y hops at rows sy .. dy (exclusive) and the ejection.
        col = [0] * h
        col[dy] = timing.routing_latency + max(1, self.eject_slots) * slot_cycles
        yplus, yminus = slots[Port.YPLUS], slots[Port.YMINUS]
        for y in range(dy - 1, -1, -1):
            col[y] = col[y + 1] + link_hop + yplus[y] * slot_cycles
        for y in range(dy + 1, h):
            col[y] = col[y - 1] + link_hop + yminus[y] * slot_cycles

        grid = [[c + r for r in row] for c in col]
        grid[dy][dx] = 0
        return grid


class VectorRegularAnalysis:
    """Regular-mesh bounds of a whole grid, from linear recurrences.

    Mirrors :class:`~repro.core.wctt_regular.RegularMeshWCTTAnalysis` under
    the ``merging`` contender policy.  Because ``routing_latency >= 1`` the
    scalar recursion's ``max(serialization, occupancy)`` always resolves to
    the occupancy term and the route walk's ``max(own_serialization, stage)``
    always resolves to the stage, so

    * per-hop service times follow the linear recurrence
      ``service[i] = (rl + ll) + contenders[i+1] * service[i+1]``, and
    * the packet bound is the plain sum
      ``own_serialization + hops*rl + (hops-1)*ll + sum((c_i - 1) * service_i)``.

    Both are walked backwards from the ejection hop: once down the
    destination column, then from each row's turn hop along the row.  The
    service products grow exponentially with the route length, which
    python ints hold exactly.
    """

    def __init__(
        self,
        config: NoCConfig,
        *,
        contender_packet_flits: Optional[int] = None,
    ):
        reason = vector_supported(config)
        if reason is not None:
            raise NotVectorizable(f"configuration not vectorizable: {reason}")
        self.config = config
        self.mesh: Mesh = config.mesh
        self.topology: Topology = config.topology
        self.contender_packet_flits = (
            contender_packet_flits
            if contender_packet_flits is not None
            else config.max_packet_flits
        )
        if self.contender_packet_flits < 1:
            raise ValueError("contender_packet_flits must be >= 1")

    def wctt_grid_to(
        self, destination: Coord, *, packet_flits: Optional[int] = None
    ) -> Grid:
        """Packet WCTT of every source towards ``destination``.

        Returns ``grid[sy][sx]``; the destination's own cell is 0.
        """
        own = (
            packet_flits if packet_flits is not None else self.config.max_packet_flits
        )
        if own < 1:
            raise ValueError("packet_flits must be >= 1")
        self.mesh.require(destination)
        w, h = self.mesh.width, self.mesh.height
        dx, dy = destination.x, destination.y
        timing = self.config.timing
        rl = timing.routing_latency
        a = rl + timing.link_latency
        # Contenders of an output: the physically existing ports among its
        # XY legal inputs (repro.topology.base._XY_LEGAL_INPUTS).  The LOCAL
        # output's are the four link inputs.  An X or Y output's are the
        # LOCAL input and the input behind it, from the router at ``+ step``
        # (absent at the mesh edge); a Y output's add both X inputs of its
        # column.
        x_inputs = (dx > 0) + (dx < w - 1)

        # Column chain at x = dx, from the ejection hop up and down: the
        # service time and contender count of the hop at (dx, y), and the
        # bound of a source there.  ``col_bound[dy]`` is the ejection hop's
        # share alone, which every route ends with; each hop before it adds
        # ``rl + ll`` and its wait ``(c - 1) * service``.
        serv = self.contender_packet_flits * timing.flit_cycle
        c = x_inputs + (dy > 0) + (dy < h - 1)
        bound = own * timing.flit_cycle + rl + (c - 1) * serv
        col_serv, col_c, col_bound = [serv] * h, [c] * h, [bound] * h
        for step, ys in ((-1, range(dy - 1, -1, -1)), (1, range(dy + 1, h))):
            serv, c, bound = col_serv[dy], col_c[dy], col_bound[dy]
            for y in ys:
                serv = a + c * serv
                c = 1 + x_inputs + (0 <= y + step < h)
                bound += a + (c - 1) * serv
                col_serv[y], col_c[y], col_bound[y] = serv, c, bound

        grid = []
        for sy in range(h):
            row = [0] * w
            row[dx] = col_bound[sy]
            for step, xs in ((-1, range(dx - 1, -1, -1)), (1, range(dx + 1, w))):
                serv, c, bound = col_serv[sy], col_c[sy], col_bound[sy]
                for x in xs:
                    serv = a + c * serv
                    c = 1 + (0 <= x + step < w)
                    bound += a + (c - 1) * serv
                    row[x] = bound
            grid.append(row)
        grid[dy][dx] = 0
        return grid


# ----------------------------------------------------------------------
# Front-end mirroring the paper's analysis backends
# ----------------------------------------------------------------------
VectorAnalysisType = Union[VectorWaWWaPAnalysis, VectorRegularAnalysis]


def make_vector_analysis(config: NoCConfig) -> VectorAnalysisType:
    """Closed-form counterpart of ``make_analysis_backend(None).analysis(config)``.

    Refuses what the paper's backends refuse (weighted arbitration without
    WaP), with the registry's reason.
    """
    make_analysis_backend(None).require(config)
    if config.is_waw_wap:
        return VectorWaWWaPAnalysis(config)
    contender = config.min_packet_flits if config.is_wap else None
    return VectorRegularAnalysis(config, contender_packet_flits=contender)


def _grid_values(grid: Grid, destination: Coord) -> List[int]:
    """``grid``'s values in (row-major) :meth:`Mesh.nodes` order, less ``destination``."""
    values = [value for row in grid for value in row]
    del values[destination.y * len(grid[0]) + destination.x]
    return values


def vector_wctt_map(
    analysis: VectorAnalysisType, destination: Coord, *, packet_flits: int = 1
) -> Dict[Coord, int]:
    """Closed-form counterpart of :func:`repro.core.wctt.wctt_map`."""
    grid = analysis.wctt_grid_to(destination, packet_flits=packet_flits)
    sources = (c for c in analysis.mesh.nodes() if c != destination)
    return dict(zip(sources, _grid_values(grid, destination)))


def vector_wctt_summary(config: NoCConfig, *, packet_flits: int = 1) -> WCTTSummary:
    """All-to-one WCTT summary, bit-identical to the scalar pipeline.

    Equivalent to ``make_analysis_backend(None).wctt_summary(config,
    packet_flits=...)`` but computed from one to-destination grid.  The mean
    is :func:`statistics.mean`'s exact rule without its ``Fraction``
    arithmetic: an ``int`` when whole, else the correctly rounded
    ``total / count``, so its type and rounding match too.
    """
    analysis = make_vector_analysis(config)
    destination = config.memory_controller
    grid = analysis.wctt_grid_to(destination, packet_flits=packet_flits)
    values = _grid_values(grid, destination)
    if not values:
        raise ValueError("flow set is empty")
    total, count = sum(values), len(values)
    whole, rest = divmod(total, count)
    return WCTTSummary(
        design="WaW+WaP" if config.is_waw_wap else "regular",
        mesh=config.topology.short_label(),
        maximum=max(values),
        average=whole if rest == 0 else total / count,
        minimum=min(values),
        flow_count=count,
    )
