"""Numpy-vectorized batch evaluation of the analytical models.

The scalar WCTT analyses (:mod:`repro.core.wctt_regular`,
:mod:`repro.core.wctt_weighted`) walk every flow's route hop by hop in pure
python, so a ``sweep()`` grid of design points pays
``O(flows x route length)`` python-loop iterations per point.  This module
evaluates the same closed forms as array operations over the whole node
grid at once:

* per-port weight/contender count matrices come straight from the closed
  forms (:func:`closed_form_count_arrays`) or from an existing
  :class:`~repro.core.weights.WeightTable` (:func:`weight_count_arrays`);
* all XY routes towards one destination ``d = (dx, dy)`` share their
  column suffix at ``x = dx``, so the per-source WCTT map decomposes into
  one O(height) column chain plus row-wise prefix sums -- a handful of
  cumulative sums instead of a route walk per flow;
* WaW+WaP message bounds follow by broadcast arithmetic (first slice plus
  ``(k - 1)`` bottleneck rounds via cumulative maxima); the regular packet
  bound is affine in the packet's own flit count.

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
single gatekeeper that :mod:`repro.experiments.scenario_wctt` and
:class:`repro.core.ubd.UBDTable` consult.
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
from ..core.weights import WeightTable
from .backends import make_analysis_backend

__all__ = [
    "HAS_NUMPY",
    "closed_form_count_arrays",
    "weight_count_arrays",
    "vector_supported",
    "VectorWaWWaPAnalysis",
    "VectorRegularAnalysis",
    "make_vector_analysis",
    "vector_wctt_map",
    "vector_wctt_summary",
    "vector_ubd_entries",
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


def closed_form_count_arrays(
    mesh: Mesh, *, as_printed: bool = False
) -> Tuple[Dict[Port, Any], Dict[Port, Any]]:
    """Per-port flow-count matrices from the paper's closed forms.

    Vectorized counterpart of
    :func:`repro.core.weights.source_port_counts` (default) /
    :func:`repro.core.weights.paper_port_counts` (``as_printed=True``),
    scaled by the topology's ``terminals_per_node`` exactly like
    :meth:`WeightTable.from_closed_form`.  Returns ``(inputs, outputs)``:
    dicts mapping each :class:`Port` to an ``(height, width)`` int64 array
    indexed ``[y, x]``.
    """
    topology = as_topology(mesh)
    n, m = mesh.width, mesh.height
    xs, ys = _coordinate_grids(n, m)
    ones = np.ones((m, n), dtype=np.int64)
    inputs = {
        Port.XPLUS: xs * ones,
        # The printed forms count one fictitious node beyond the X- edge.
        Port.XMINUS: (n - (0 if as_printed else 1) - xs) * ones,
        Port.YPLUS: n * ys * ones,
        Port.YMINUS: n * (m - 1 - ys) * ones,
        Port.LOCAL: ones.copy(),
    }
    outputs = {
        Port.XPLUS: (xs + 1) * ones,
        Port.XMINUS: (n - xs + (1 if as_printed else 0)) * ones,
        Port.YPLUS: n * (ys + 1) * ones,
        Port.YMINUS: n * (m - ys) * ones,
        Port.LOCAL: (n * m - 1) * ones,
    }
    scale = topology.terminals_per_node
    if scale != 1:
        inputs = {p: a * scale for p, a in inputs.items()}
        outputs = {p: a * scale for p, a in outputs.items()}
    return inputs, outputs


def weight_count_arrays(
    table: WeightTable,
) -> Tuple[Dict[Port, Any], Dict[Port, Any]]:
    """Extract a :class:`WeightTable`'s counts as ``(height, width)`` arrays.

    Works for any construction path (closed form, flow-derived memory
    traffic, explicit counts); missing ports read as 0, exactly like
    :meth:`PortCounts.input_count` / ``output_count``.
    """
    mesh = table.mesh
    inputs = {p: np.zeros((mesh.height, mesh.width), dtype=np.int64) for p in Port}
    outputs = {p: np.zeros((mesh.height, mesh.width), dtype=np.int64) for p in Port}
    for router in mesh.nodes():
        counts = table.counts(router)
        for port in Port:
            inputs[port][router.y, router.x] = counts.input_count(port)
            outputs[port][router.y, router.x] = counts.output_count(port)
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
        # Conservative per-hop ceiling: every port round is at most the
        # all-to-all total times the concentration, every input may owe a
        # full buffer of backlog rounds.
        timing = config.timing
        round_ceiling = max(
            1, config.mesh.num_nodes * topology.terminals_per_node
        )
        hop_ceiling = (
            timing.routing_latency
            + config.buffer_depth
            * round_ceiling
            * config.min_packet_flits
            * timing.flit_cycle
            + timing.link_latency
        )
        hops = config.mesh.width + config.mesh.height + 2
        if hops * hop_ceiling > _INT64_SAFE:
            return "bounds could overflow the int64 kernel; use the scalar path"
    return None


# ----------------------------------------------------------------------
# Route-window helpers (shared by both kernels)
# ----------------------------------------------------------------------
def _suffix_sums(arr):
    """``out[..., j] = sum(arr[..., j:])`` along the last axis."""
    return np.flip(np.cumsum(np.flip(arr, axis=-1), axis=-1), axis=-1)


def _suffix_max(arr):
    """``out[..., j] = max(arr[..., j:])`` along the last axis."""
    return np.flip(np.maximum.accumulate(np.flip(arr, axis=-1), axis=-1), axis=-1)


class VectorWaWWaPAnalysis:
    """Vectorized WaW+WaP bounds (int64 kernel).

    Mirrors :class:`~repro.core.wctt_weighted.WaWWaPWCTTAnalysis`
    bit-for-bit: same weight defaults (closed-form source counts), same
    ``max(1, .)`` clamps, same regulated/bursty round accounting, same
    message slicing.  ``wctt_grid_to(d)`` returns the packet bound of every
    source towards ``d`` in one shot; ``message_grid_to`` /
    ``message_grid_from`` add the WaP slice pipeline for whole messages.
    """

    def __init__(
        self,
        config: NoCConfig,
        weight_table: Optional[WeightTable] = None,
        *,
        regulated_contenders: bool = True,
    ):
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
        self.regulated_contenders = regulated_contenders
        if weight_table is None:
            counts_in, counts_out = closed_form_count_arrays(config.mesh)
        else:
            counts_in, counts_out = weight_count_arrays(weight_table.require_topology(self.topology))

        timing = config.timing
        m = config.min_packet_flits
        # Flits served by one full arbitration round of each output port.
        self._round_flits = {p: np.maximum(1, counts_out[p]) for p in Port}
        # Arbitration rounds a packet arriving on each input port waits.
        if regulated_contenders:
            rounds = {p: np.ones_like(counts_in[p]) for p in Port}
        else:
            backlog = config.buffer_depth
            rounds = {}
            for p in Port:
                credits = np.maximum(1, counts_in[p])
                extra = np.maximum(0, -(-backlog // credits) - 1)
                rounds[p] = 1 + extra
        self._rounds = rounds
        #: Cycles one arbitration round of each output port occupies.
        self._round_cycles = {
            p: self._round_flits[p] * (m * timing.flit_cycle) for p in Port
        }
        self._rl = timing.routing_latency
        self._ll = timing.link_latency
        self._delay_cache: Dict[Tuple[Port, Port], Any] = {}

    # -- per-hop delay matrices ---------------------------------------
    def _delay(self, in_port: Port, out_port: Port):
        """``hop_delay(router, in_port, out_port)`` for every router at once."""
        key = (in_port, out_port)
        cached = self._delay_cache.get(key)
        if cached is None:
            link = 0 if out_port is Port.LOCAL else self._ll
            cached = (
                self._rl
                + self._rounds[in_port] * self._round_cycles[out_port]
                + link
            )
            self._delay_cache[key] = cached
        return cached

    def _column_out(self, sys_col, dy: int, in_port: Port, dx: int):
        """Delay of the hop at ``(dx, y)`` entering on ``in_port`` and
        leaving towards row ``dy`` (``LOCAL`` at ``y == dy``)."""
        return np.where(
            sys_col < dy,
            self._delay(in_port, Port.YPLUS)[:, dx],
            np.where(
                sys_col > dy,
                self._delay(in_port, Port.YMINUS)[:, dx],
                self._delay(in_port, Port.LOCAL)[:, dx],
            ),
        )

    def _validate_packet(self, packet_flits: Optional[int]) -> None:
        if packet_flits is not None and packet_flits > self.config.min_packet_flits:
            raise ValueError(
                "WaP never injects packets larger than the minimum size "
                f"({self.config.min_packet_flits} flits); got {packet_flits}"
            )

    # -- to-destination kernels ---------------------------------------
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

        # Column suffix (shared by every source of a row): the hops at
        # (dx, y) strictly between sy and dy plus the ejection hop.
        up = self._delay(Port.YPLUS, Port.YPLUS)[:, dx]
        dn = self._delay(Port.YMINUS, Port.YMINUS)[:, dx]
        cs_up = np.concatenate(([0], np.cumsum(up)))
        cs_dn = np.concatenate(([0], np.cumsum(dn)))
        col_path = np.where(
            ys < dy,
            cs_up[dy] - cs_up[np.minimum(ys + 1, dy)]
            + self._delay(Port.YPLUS, Port.LOCAL)[dy, dx],
            np.where(
                ys > dy,
                cs_dn[np.maximum(ys, dy + 1)] - cs_dn[dy + 1]
                + self._delay(Port.YMINUS, Port.LOCAL)[dy, dx],
                0,
            ),
        )

        grid = np.zeros((h, w), dtype=np.int64)

        # Sources in the destination column inject straight onto it.
        src_col = self._column_out(ys, dy, Port.LOCAL, dx)
        grid[:, dx] = np.where(ys != dy, src_col + col_path, 0)

        # Sources left of the destination travel X+ then turn at (dx, sy).
        if dx > 0:
            xp = self._delay(Port.XPLUS, Port.XPLUS)
            between = np.concatenate(
                (_suffix_sums(xp[:, 1:dx]), np.zeros((h, 1), dtype=np.int64)),
                axis=1,
            )  # between[:, sx] = sum of hops at sx+1 .. dx-1
            turn = self._column_out(ys, dy, Port.XPLUS, dx)
            left = (
                self._delay(Port.LOCAL, Port.XPLUS)[:, :dx]
                + between
                + (turn + col_path)[:, None]
            )
            grid[:, :dx] = left

        # Sources right of the destination travel X- then turn.
        if dx < w - 1:
            xm = self._delay(Port.XMINUS, Port.XMINUS)
            between = np.concatenate(
                (
                    np.zeros((h, 1), dtype=np.int64),
                    np.cumsum(xm[:, dx + 1 : w - 1], axis=1),
                ),
                axis=1,
            )  # between[:, sx - dx - 1] = sum of hops at dx+1 .. sx-1
            turn = self._column_out(ys, dy, Port.XMINUS, dx)
            right = (
                self._delay(Port.LOCAL, Port.XMINUS)[:, dx + 1 :]
                + between
                + (turn + col_path)[:, None]
            )
            grid[:, dx + 1 :] = right
        return grid

    def bottleneck_grid_to(self, destination: Coord):
        """Largest arbitration round (cycles) along every source's route."""
        self.mesh.require(destination)
        h, w = self.mesh.height, self.mesh.width
        dx, dy = destination.x, destination.y
        ys = np.arange(h, dtype=np.int64)

        # Output-port rounds along the column portion, including the turn
        # hop's output at (dx, sy) and the ejection round at (dx, dy).
        col_round = np.where(
            ys < dy,
            self._round_cycles[Port.YPLUS][:, dx],
            np.where(
                ys > dy,
                self._round_cycles[Port.YMINUS][:, dx],
                self._round_cycles[Port.LOCAL][dy, dx],
            ),
        )
        eject = self._round_cycles[Port.LOCAL][dy, dx]
        if dy > 0:
            up = np.flip(np.maximum.accumulate(np.flip(col_round[:dy])))
        if dy < h - 1:
            dn = np.maximum.accumulate(col_round[dy + 1 :])
        col_max = np.empty(h, dtype=np.int64)
        col_max[dy] = eject
        if dy > 0:
            col_max[:dy] = np.maximum(up, eject)
        if dy < h - 1:
            col_max[dy + 1 :] = np.maximum(dn, eject)

        grid = np.empty((h, w), dtype=np.int64)
        grid[:, dx] = col_max
        if dx > 0:
            row = _suffix_max(self._round_cycles[Port.XPLUS][:, :dx])
            grid[:, :dx] = np.maximum(row, col_max[:, None])
        if dx < w - 1:
            row = np.maximum.accumulate(
                self._round_cycles[Port.XMINUS][:, dx + 1 :], axis=1
            )
            grid[:, dx + 1 :] = np.maximum(row, col_max[:, None])
        grid[dy, dx] = 0
        return grid

    def message_grid_to(self, destination: Coord, *, payload_flits: int):
        """Whole-message WCTT of every source towards ``destination``."""
        slices = self.config.messages.wap_slices(payload_flits)
        first = self.wctt_grid_to(destination)
        if slices == 1:
            return first
        return first + (slices - 1) * self.bottleneck_grid_to(destination)

    # -- from-source kernels (UBD reply legs) -------------------------
    def wctt_grid_from(self, source: Coord):
        """Packet WCTT from ``source`` to every destination (cell = dest)."""
        self.mesh.require(source)
        h, w = self.mesh.height, self.mesh.width
        sx, sy = source.x, source.y
        xs = np.arange(w, dtype=np.int64)
        ys = np.arange(h, dtype=np.int64)

        # Row prefix: source hop plus the X hops strictly before the turn
        # column, as a function of the destination column dx.
        row_pre = np.zeros(w, dtype=np.int64)
        if sx < w - 1:
            xp = self._delay(Port.XPLUS, Port.XPLUS)[sy]
            cs = np.concatenate(([0], np.cumsum(xp)))
            # hops at sx+1 .. dx-1 for dx > sx
            row_pre[sx + 1 :] = (
                self._delay(Port.LOCAL, Port.XPLUS)[sy, sx]
                + cs[np.maximum(xs[sx + 1 :], sx + 1)]
                - cs[sx + 1]
            )
        if sx > 0:
            xm = self._delay(Port.XMINUS, Port.XMINUS)[sy]
            cs = np.concatenate(([0], np.cumsum(xm)))
            # hops at dx+1 .. sx-1 for dx < sx
            row_pre[:sx] = (
                self._delay(Port.LOCAL, Port.XMINUS)[sy, sx]
                + cs[sx]
                - cs[xs[:sx] + 1]
            )

        # Turn hop at (dx, sy): input port depends on the travel direction,
        # output on where the destination row lies.
        turn = np.zeros((h, w), dtype=np.int64)
        for in_port, cols in (
            (Port.XPLUS, slice(sx + 1, w)),
            (Port.XMINUS, slice(0, sx)),
            (Port.LOCAL, slice(sx, sx + 1)),
        ):
            turn[:, cols] = np.where(
                (ys < sy)[:, None],
                self._delay(in_port, Port.YMINUS)[sy, cols][None, :],
                np.where(
                    (ys > sy)[:, None],
                    self._delay(in_port, Port.YPLUS)[sy, cols][None, :],
                    self._delay(in_port, Port.LOCAL)[sy, cols][None, :],
                ),
            )

        # Column tail: hops strictly between sy and dy plus the ejection
        # hop, per destination column.
        col_tail = np.zeros((h, w), dtype=np.int64)
        if sy < h - 1:
            yp = self._delay(Port.YPLUS, Port.YPLUS)
            cs = np.concatenate(
                (np.zeros((1, w), dtype=np.int64), np.cumsum(yp, axis=0))
            )
            rows = ys[sy + 1 :]
            col_tail[sy + 1 :, :] = (
                cs[np.maximum(rows, sy + 1)] - cs[sy + 1]
                + self._delay(Port.YPLUS, Port.LOCAL)[sy + 1 :, :]
            )
        if sy > 0:
            ym = self._delay(Port.YMINUS, Port.YMINUS)
            cs = np.concatenate(
                (np.zeros((1, w), dtype=np.int64), np.cumsum(ym, axis=0))
            )
            rows = ys[:sy]
            col_tail[:sy, :] = (
                cs[sy] - cs[rows + 1]
                + self._delay(Port.YMINUS, Port.LOCAL)[:sy, :]
            )

        grid = row_pre[None, :] + turn + col_tail
        grid[sy, sx] = 0
        return grid

    def bottleneck_grid_from(self, source: Coord):
        """Largest arbitration round along the route to every destination."""
        self.mesh.require(source)
        h, w = self.mesh.height, self.mesh.width
        sx, sy = source.x, source.y
        ys = np.arange(h, dtype=np.int64)

        # Rounds of the X+ / X- outputs crossed before the turn column.
        row_max = np.zeros(w, dtype=np.int64)
        if sx < w - 1:
            row_max[sx + 1 :] = np.maximum.accumulate(
                self._round_cycles[Port.XPLUS][sy, sx : w - 1]
            )
        if sx > 0:
            row_max[:sx] = np.flip(
                np.maximum.accumulate(
                    np.flip(self._round_cycles[Port.XMINUS][sy, 1 : sx + 1])
                )
            )

        # Rounds of the column outputs from the turn hop (inclusive) to the
        # ejection round at the destination.
        col_max = np.zeros((h, w), dtype=np.int64)
        eject = self._round_cycles[Port.LOCAL]
        if sy < h - 1:
            yp = np.maximum.accumulate(
                self._round_cycles[Port.YPLUS][sy : h - 1, :], axis=0
            )
            col_max[sy + 1 :, :] = np.maximum(yp, eject[sy + 1 :, :])
        if sy > 0:
            ym = np.flip(
                np.maximum.accumulate(
                    np.flip(self._round_cycles[Port.YMINUS][1 : sy + 1, :], axis=0),
                    axis=0,
                ),
                axis=0,
            )
            col_max[:sy, :] = np.maximum(ym, eject[:sy, :])
        col_max[sy, :] = eject[sy, :]

        grid = np.maximum(row_max[None, :], col_max)
        grid[sy, sx] = 0
        return grid

    def message_grid_from(self, source: Coord, *, payload_flits: int):
        """Whole-message WCTT from ``source`` to every destination."""
        slices = self.config.messages.wap_slices(payload_flits)
        first = self.wctt_grid_from(source)
        if slices == 1:
            return first
        return first + (slices - 1) * self.bottleneck_grid_from(source)


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


def vector_ubd_entries(
    config: NoCConfig,
    *,
    weight_table: Optional[WeightTable] = None,
    regulated_contenders: bool = True,
    service_latency: int = 30,
) -> Dict[Coord, Any]:
    """Per-core UBD entries from the vectorized WaW+WaP kernels.

    Vector counterpart of :meth:`repro.core.ubd.UBDTable._build` for
    WaW+WaP design points: four message grids (request/reply towards and
    from the memory controller) replace the per-core route walks.  Returns
    ``{core: UBDEntry}`` in mesh iteration order, bit-identical to the
    scalar table.
    """
    from ..core.ubd import UBDEntry

    analysis = VectorWaWWaPAnalysis(
        config, weight_table, regulated_contenders=regulated_contenders
    )
    mc = config.memory_controller
    msgs = config.messages
    request = analysis.message_grid_to(mc, payload_flits=msgs.request_flits)
    eviction = analysis.message_grid_to(mc, payload_flits=msgs.eviction_flits)
    reply = analysis.message_grid_from(mc, payload_flits=msgs.reply_flits)
    eviction_ack = analysis.message_grid_from(
        mc, payload_flits=msgs.eviction_ack_flits
    )
    entries: Dict[Coord, Any] = {}
    for core in config.mesh.nodes():
        if core == mc:
            continue
        req = int(request[core.y, core.x])
        rep = int(reply[core.y, core.x])
        evi = int(eviction[core.y, core.x])
        ack = int(eviction_ack[core.y, core.x])
        entries[core] = UBDEntry(
            core=core,
            load_ubd=req + service_latency + rep,
            eviction_ubd=evi + service_latency + ack,
            request_wctt=req,
            reply_wctt=rep,
            eviction_wctt=evi,
            eviction_ack_wctt=ack,
        )
    return entries
