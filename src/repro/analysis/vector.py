"""Numpy-vectorized all-to-one WCTT grids of the paper's analyses.

The scalar WCTT analyses (:mod:`repro.core.wctt_regular`,
:mod:`repro.core.wctt_weighted`) walk every flow's route hop by hop in pure
python, so a ``sweep()`` grid of design points pays
``O(flows x route length)`` python-loop iterations per point.  This module
evaluates the same closed forms as array operations over the whole node
grid at once:

* per-port weight/contender count matrices come straight from the closed
  forms (:func:`closed_form_count_arrays`);
* all XY routes towards one destination ``d = (dx, dy)`` share their
  column suffix at ``x = dx``, so the per-source WCTT map decomposes into
  one O(height) column chain plus row-wise prefix sums -- a handful of
  cumulative sums instead of a route walk per flow.

The kernels serve :mod:`repro.experiments.scenario_wctt` only: the packet
bound of every source towards the memory controller, on the paper's
closed-form weights with regulated contenders.  Per-core UBD tables,
message bounds and table-weighted or burst-safe WaW bounds are left to the
scalar analyses: no benchmark workload builds a
:class:`~repro.core.ubd.UBDTable`, and vectorizing one saved 0-25 ms on
quick experiment runs of 10-270 ms (in-process, on a 2-vCPU host).

Exactness is non-negotiable: the vectorized engine must produce
*bit-identical integers* to the scalar path (the differential harness
``tests/test_differential_analysis.py`` enforces it across a wide grid).
Two facts make that possible:

1. In the regular merging-policy analysis both ``max()`` operations
   provably never bind when ``routing_latency >= 1`` (the recursive
   occupancy always exceeds the serialization floor), so the service
   recursion and the route walk collapse to linear recurrences.  Those are
   evaluated on **object-dtype arrays holding python ints**, because
   regular-mesh bounds grow exponentially (contender products) and must
   not be squeezed into ``int64``.
2. The WaW+WaP per-hop delay depends only on the (input port, output
   port) pair of a hop, and XY routes have a fixed port structure --
   delays sum as ``int64`` cumulative sums (a conservative overflow bound
   is checked at construction; :func:`vector_supported` refuses design
   points that could exceed ``2**62``).

Scope: edge-bounded meshes (plain :class:`~repro.geometry.Mesh`,
:class:`~repro.topology.mesh.Mesh2D`,
:class:`~repro.topology.concentrated.ConcentratedMesh`) with XY routing,
under the ``merging`` contender policy that the paper's analyses use.
Everything else (torus, ring, YX) falls back to the scalar reference.  No
caller chooses between the two paths: :func:`vector_supported` is the
single gatekeeper that :mod:`repro.experiments.scenario_wctt` consults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

try:  # numpy is an install_requires, but degrade gracefully without it.
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

from ..geometry import Coord, Mesh, Port
from ..topology.base import Topology, as_topology
from ..core.config import NoCConfig
from ..core.wctt import WCTTSummary
from .backends import make_analysis_backend

__all__ = [
    "HAS_NUMPY",
    "closed_form_count_arrays",
    "vector_supported",
    "VectorWaWWaPAnalysis",
    "VectorRegularAnalysis",
    "make_vector_analysis",
    "vector_wctt_map",
    "vector_wctt_summary",
]

#: Largest intermediate the int64 WaW kernel may produce before the design
#: point is refused (headroom below ``2**63 - 1`` for sums and products).
_INT64_SAFE = 2**62

#: Topology kinds whose route structure matches the edge-bounded XY mesh.
_SUPPORTED_KINDS = ("mesh", "cmesh")


# ----------------------------------------------------------------------
# Count matrices
# ----------------------------------------------------------------------
def _coordinate_grids(width: int, height: int):
    """Broadcastable column (``xs``) and row (``ys``) index grids."""
    xs = np.arange(width, dtype=np.int64).reshape(1, width)
    ys = np.arange(height, dtype=np.int64).reshape(height, 1)
    return xs, ys


def closed_form_count_arrays(mesh: Mesh) -> Tuple[Dict[Port, Any], Dict[Port, Any]]:
    """Per-port flow-count matrices from the paper's closed forms.

    Vectorized counterpart of :func:`repro.core.weights.source_port_counts`,
    scaled by the topology's ``terminals_per_node`` exactly like
    :meth:`~repro.core.weights.WeightTable.from_closed_form`.  Returns
    ``(inputs, outputs)``: dicts mapping each :class:`Port` to an
    ``(height, width)`` int64 array indexed ``[y, x]``.
    """
    topology = as_topology(mesh)
    n, m = mesh.width, mesh.height
    xs, ys = _coordinate_grids(n, m)
    ones = np.ones((m, n), dtype=np.int64)
    inputs = {
        Port.XPLUS: xs * ones,
        Port.XMINUS: (n - 1 - xs) * ones,
        Port.YPLUS: n * ys * ones,
        Port.YMINUS: n * (m - 1 - ys) * ones,
        Port.LOCAL: ones.copy(),
    }
    outputs = {
        Port.XPLUS: (xs + 1) * ones,
        Port.XMINUS: (n - xs) * ones,
        Port.YPLUS: n * (ys + 1) * ones,
        Port.YMINUS: n * (m - ys) * ones,
        Port.LOCAL: (n * m - 1) * ones,
    }
    scale = topology.terminals_per_node
    if scale != 1:
        inputs = {p: a * scale for p, a in inputs.items()}
        outputs = {p: a * scale for p, a in outputs.items()}
    return inputs, outputs


# ----------------------------------------------------------------------
# Support predicate
# ----------------------------------------------------------------------
def vector_supported(config: NoCConfig) -> Optional[str]:
    """Why ``config`` cannot take the vectorized path (``None`` = it can).

    The single gatekeeper for all auto-wiring: a non-``None`` return is a
    human-readable reason (missing numpy, wrap-around links, YX routing,
    int64 overflow risk) and the caller must use the scalar reference
    instead.
    """
    if not HAS_NUMPY:
        return "numpy is not installed"
    topology = config.topology
    if topology.has_wraparound:
        return f"wrap-around links ({topology.describe_short()}) need the scalar path"
    kind = getattr(topology, "kind", "mesh")
    if kind not in _SUPPORTED_KINDS:
        return f"unsupported topology kind {kind!r}"
    if topology.routing.axes[0] != "x":
        return "only XY routing is vectorized"
    if config.is_waw_wap:
        # Conservative per-hop ceiling of the kernel's one round per hop:
        # every port round is at most the all-to-all total times the
        # concentration.
        timing = config.timing
        round_ceiling = max(
            1, config.mesh.num_nodes * topology.terminals_per_node
        )
        hop_ceiling = (
            timing.routing_latency
            + round_ceiling * config.min_packet_flits * timing.flit_cycle
            + timing.link_latency
        )
        hops = config.mesh.width + config.mesh.height + 2
        if hops * hop_ceiling > _INT64_SAFE:
            return "bounds could overflow the int64 kernel; use the scalar path"
    return None


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _suffix_sums(arr):
    """``out[..., j] = sum(arr[..., j:])`` along the last axis."""
    return np.flip(np.cumsum(np.flip(arr, axis=-1), axis=-1), axis=-1)


class VectorWaWWaPAnalysis:
    """Vectorized WaW+WaP packet bounds (int64 kernel).

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
            raise ValueError(f"configuration not vectorizable: {reason}")
        self.config = config
        self.mesh: Mesh = config.mesh
        self.topology: Topology = config.topology
        _, counts_out = closed_form_count_arrays(config.mesh)
        timing = config.timing
        round_cycles = config.min_packet_flits * timing.flit_cycle
        #: ``hop_delay`` of every router per output port: pipeline, one full
        #: arbitration round and the link.  With one round per hop the input
        #: port does not enter.
        self._delay = {
            p: timing.routing_latency
            + np.maximum(1, counts_out[p]) * round_cycles
            + (0 if p is Port.LOCAL else timing.link_latency)
            for p in Port
        }

    def _column_out(self, sys_col, dy: int, dx: int):
        """Delay of the hop at ``(dx, y)`` leaving towards row ``dy``
        (``LOCAL`` at ``y == dy``)."""
        return np.where(
            sys_col < dy,
            self._delay[Port.YPLUS][:, dx],
            np.where(
                sys_col > dy,
                self._delay[Port.YMINUS][:, dx],
                self._delay[Port.LOCAL][:, dx],
            ),
        )

    def _validate_packet(self, packet_flits: Optional[int]) -> None:
        if packet_flits is not None and packet_flits > self.config.min_packet_flits:
            raise ValueError(
                "WaP never injects packets larger than the minimum size "
                f"({self.config.min_packet_flits} flits); got {packet_flits}"
            )

    def wctt_grid_to(
        self, destination: Coord, *, packet_flits: Optional[int] = None
    ):
        """Packet WCTT of every source towards ``destination``.

        Returns an ``(height, width)`` int64 array indexed ``[sy, sx]``;
        the destination's own cell is 0 (a node does not send to itself).
        """
        self.mesh.require(destination)
        self._validate_packet(packet_flits)
        h, w = self.mesh.height, self.mesh.width
        dx, dy = destination.x, destination.y
        ys = np.arange(h, dtype=np.int64)
        delay = self._delay

        # Column suffix (shared by every source of a row): the hops at
        # (dx, y) strictly between sy and dy plus the ejection hop.
        cs_up = np.concatenate(([0], np.cumsum(delay[Port.YPLUS][:, dx])))
        cs_dn = np.concatenate(([0], np.cumsum(delay[Port.YMINUS][:, dx])))
        eject = delay[Port.LOCAL][dy, dx]
        col_path = np.where(
            ys < dy,
            cs_up[dy] - cs_up[np.minimum(ys + 1, dy)] + eject,
            np.where(
                ys > dy,
                cs_dn[np.maximum(ys, dy + 1)] - cs_dn[dy + 1] + eject,
                0,
            ),
        )
        # The hop at (dx, sy) that enters the destination column.
        turn = self._column_out(ys, dy, dx) + col_path

        grid = np.zeros((h, w), dtype=np.int64)

        # Sources in the destination column inject straight onto it.
        grid[:, dx] = np.where(ys != dy, turn, 0)

        # Sources left of the destination travel X+ then turn at (dx, sy).
        if dx > 0:
            xp = delay[Port.XPLUS]
            between = np.concatenate(
                (_suffix_sums(xp[:, 1:dx]), np.zeros((h, 1), dtype=np.int64)),
                axis=1,
            )  # between[:, sx] = sum of hops at sx+1 .. dx-1
            grid[:, :dx] = xp[:, :dx] + between + turn[:, None]

        # Sources right of the destination travel X- then turn.
        if dx < w - 1:
            xm = delay[Port.XMINUS]
            between = np.concatenate(
                (
                    np.zeros((h, 1), dtype=np.int64),
                    np.cumsum(xm[:, dx + 1 : w - 1], axis=1),
                ),
                axis=1,
            )  # between[:, sx - dx - 1] = sum of hops at dx+1 .. sx-1
            grid[:, dx + 1 :] = xm[:, dx + 1 :] + between + turn[:, None]
        return grid


class VectorRegularAnalysis:
    """Vectorized regular-mesh bounds (object-dtype exact-int kernel).

    Mirrors :class:`~repro.core.wctt_regular.RegularMeshWCTTAnalysis` under
    the ``merging`` contender policy.  Because ``routing_latency >= 1`` the
    scalar recursion's ``max(serialization, occupancy)`` always resolves to
    the occupancy term and the route walk's ``max(own_serialization, stage)``
    always resolves to the stage, so

    * per-hop service times follow the linear recurrence
      ``service[i] = (rl + ll) + contenders[i+1] * service[i+1]``, and
    * the packet bound is the plain sum
      ``own_serialization + hops*rl + (hops-1)*ll + sum((c_i - 1) * service_i)``.

    Both are evaluated over object-dtype arrays of python ints (the service
    products grow exponentially with the route length), with the row
    recurrences vectorized across all rows at once.
    """

    def __init__(
        self,
        config: NoCConfig,
        *,
        contender_packet_flits: Optional[int] = None,
    ):
        reason = vector_supported(config)
        if reason is not None:
            raise ValueError(f"configuration not vectorizable: {reason}")
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
        timing = config.timing
        self._rl = timing.routing_latency
        self._ll = timing.link_latency
        self._fc = timing.flit_cycle
        self._serialization = self.contender_packet_flits * self._fc

        w, h = self.mesh.width, self.mesh.height
        xs, ys = _coordinate_grids(w, h)
        has_xp_in = (xs > 0) * 1  # X+ input exists
        has_xm_in = (xs < w - 1) * 1
        has_yp_in = (ys > 0) * 1
        has_ym_in = (ys < h - 1) * 1
        ones = np.ones((h, w), dtype=np.int64)
        # Contender counts: physically existing ports among the XY legal
        # inputs of each output (repro.topology.base._XY_LEGAL_INPUTS).
        # Kept as object arrays of python ints: the service recurrences
        # multiply these into exponentially large values, which must never
        # be squeezed (and silently wrapped) into int64.
        self._contenders = {
            Port.XPLUS: (ones + has_xp_in).astype(object),
            Port.XMINUS: (ones + has_xm_in).astype(object),
            Port.YPLUS: (ones + has_yp_in + has_xp_in + has_xm_in).astype(object),
            Port.YMINUS: (ones + has_ym_in + has_xp_in + has_xm_in).astype(object),
            Port.LOCAL: ((has_xp_in + has_xm_in + has_yp_in + has_ym_in) * ones).astype(object),
        }
        self._base_cache: Dict[Coord, Any] = {}

    def _col_out(self, y: int, dy: int) -> Port:
        if y < dy:
            return Port.YPLUS
        if y > dy:
            return Port.YMINUS
        return Port.LOCAL

    def base_grid_to(self, destination: Coord):
        """Packet bound minus the packet's own serialization, per source.

        The full bound is ``base + packet_flits * flit_cycle`` -- the own
        flits only enter through the additive serialization term, so one
        base grid serves every packet size of a design point.  Object-dtype
        ``(height, width)`` array of python ints; destination cell 0.
        """
        self.mesh.require(destination)
        cached = self._base_cache.get(destination)
        if cached is not None:
            return cached
        h, w = self.mesh.height, self.mesh.width
        dx, dy = destination.x, destination.y
        a = self._rl + self._ll
        S = self._serialization
        C = self._contenders

        # Column chain at x = dx: service time and accumulated
        # (contenders - 1) * service of the hops from (dx, y) to (dx, dy).
        col_serv: List[int] = [0] * h
        col_sum: List[int] = [0] * h
        col_serv[dy] = S
        col_sum[dy] = (int(C[Port.LOCAL][dy, dx]) - 1) * S
        for y in range(dy - 1, -1, -1):
            nxt = int(C[self._col_out(y + 1, dy)][y + 1, dx])
            col_serv[y] = a + nxt * col_serv[y + 1]
            own = int(C[Port.YPLUS][y, dx])
            col_sum[y] = (own - 1) * col_serv[y] + col_sum[y + 1]
        for y in range(dy + 1, h):
            nxt = int(C[self._col_out(y - 1, dy)][y - 1, dx])
            col_serv[y] = a + nxt * col_serv[y - 1]
            own = int(C[Port.YMINUS][y, dx])
            col_sum[y] = (own - 1) * col_serv[y] + col_sum[y - 1]
        col_serv_v = np.array(col_serv, dtype=object)
        col_sum_v = np.array(col_sum, dtype=object)

        ys = np.arange(h, dtype=np.int64)
        xs = np.arange(w, dtype=np.int64)
        # Contenders of the turn hop at (dx, sy) -- its output port.
        turn_c = np.where(
            ys < dy,
            C[Port.YPLUS][:, dx],
            np.where(ys > dy, C[Port.YMINUS][:, dx], C[Port.LOCAL][:, dx]),
        )

        total = np.zeros((h, w), dtype=object)
        total[:, dx] = col_sum_v
        # Row recurrences, vectorized across rows (loop over columns only).
        if dx > 0:
            serv = a + turn_c * col_serv_v  # service at (dx - 1, sy)
            acc = (C[Port.XPLUS][:, dx - 1] - 1) * serv + col_sum_v
            total[:, dx - 1] = acc
            for x in range(dx - 2, -1, -1):
                serv = a + C[Port.XPLUS][:, x + 1] * serv
                acc = acc + (C[Port.XPLUS][:, x] - 1) * serv
                total[:, x] = acc
        if dx < w - 1:
            serv = a + turn_c * col_serv_v  # service at (dx + 1, sy)
            acc = (C[Port.XMINUS][:, dx + 1] - 1) * serv + col_sum_v
            total[:, dx + 1] = acc
            for x in range(dx + 2, w):
                serv = a + C[Port.XMINUS][:, x - 1] * serv
                acc = acc + (C[Port.XMINUS][:, x] - 1) * serv
                total[:, x] = acc

        hops = (np.abs(xs[None, :] - dx) + np.abs(ys[:, None] - dy) + 1).astype(object)
        base = total + self._rl * hops + self._ll * (hops - 1)
        base[dy, dx] = 0
        self._base_cache[destination] = base
        return base

    def wctt_grid_to(self, destination: Coord, *, packet_flits: Optional[int] = None):
        """Packet WCTT of every source towards ``destination`` (object ints)."""
        own = (
            packet_flits if packet_flits is not None else self.config.max_packet_flits
        )
        if own < 1:
            raise ValueError("packet_flits must be >= 1")
        grid = self.base_grid_to(destination) + own * self._fc
        grid[destination.y, destination.x] = 0
        return grid


# ----------------------------------------------------------------------
# Front-end mirroring the paper's analysis backends
# ----------------------------------------------------------------------
VectorAnalysisType = Union[VectorWaWWaPAnalysis, VectorRegularAnalysis]


def make_vector_analysis(config: NoCConfig) -> VectorAnalysisType:
    """Vector counterpart of ``make_analysis_backend(None).analysis(config)``.

    Refuses what the paper's backends refuse (weighted arbitration without
    WaP), with the registry's reason.
    """
    make_analysis_backend(None).require(config)
    if config.is_waw_wap:
        return VectorWaWWaPAnalysis(config)
    contender = config.min_packet_flits if config.is_wap else None
    return VectorRegularAnalysis(config, contender_packet_flits=contender)


def _grid_values(grid, mesh: Mesh, destination: Coord) -> List[int]:
    """``grid``'s python ints in (row-major) :meth:`Mesh.nodes` order, less ``destination``."""
    values = grid.ravel().tolist()
    del values[destination.y * mesh.width + destination.x]
    return values


def vector_wctt_map(
    analysis: VectorAnalysisType, destination: Coord, *, packet_flits: int = 1
) -> Dict[Coord, int]:
    """Vector counterpart of :func:`repro.core.wctt.wctt_map`."""
    grid = analysis.wctt_grid_to(destination, packet_flits=packet_flits)
    sources = (c for c in analysis.mesh.nodes() if c != destination)
    return dict(zip(sources, _grid_values(grid, analysis.mesh, destination)))


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
    values = _grid_values(grid, analysis.mesh, destination)
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

