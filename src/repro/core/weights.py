"""WaW arbitration weights (paper Section III).

WaW performs weighted round-robin arbitration at every router output port.
The weight of an (input port, output port) pair is

    W(I_dir_i, O_dir_o) = I_dir_i / O_dir_o                       (paper Eq. 1)

where ``I_dir_i`` is the number of communication flows that can enter the
router through input ``dir_i`` and ``O_dir_o`` the number of flows that can
leave through output ``dir_o``.  With XY routing both numbers only depend on
the router coordinates, so the weights can be computed statically and wired
into the arbiters.

This module provides three ways to obtain those counts:

* :func:`paper_port_counts` -- the closed-form expressions exactly as printed
  in the paper (with their ``X-`` off-by-one quirk, see below);
* :func:`source_port_counts` -- the counts of *upstream source nodes* that
  can cross each port under XY routing, derived from first principles.  This
  is the counting that reproduces the paper's Table I example;
* :class:`WeightTable` built from an arbitrary :class:`~repro.core.flows.FlowSet`
  (e.g. all-to-one traffic towards the memory controller), which is what the
  WCTT analysis and the simulator of the evaluated manycore use.

Discrepancy note (also surfaced by the ``table1`` experiment's report): the
printed closed forms
give ``I_X- = N - x`` and ``O_X- = N - x + 1`` whereas the worked example of
Table I (router R(1,1) of a 2x2 mesh, ``W(PME, X-) = 1``) requires
``O_X- = N - x``; the printed forms count one fictitious node beyond the
mesh edge.  :func:`source_port_counts` uses the self-consistent counting,
:func:`paper_port_counts` reproduces the printed text verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..geometry import Coord, Mesh, Port
from ..topology.base import XY, Topology, as_topology
from .flows import FlowSet

__all__ = [
    "PortCounts",
    "paper_port_counts",
    "source_port_counts",
    "WeightTable",
    "waw_weight",
]


@dataclass(frozen=True)
class PortCounts:
    """Flow counts entering (``inputs``) and leaving (``outputs``) a router."""

    router: Coord
    inputs: Mapping[Port, int]
    outputs: Mapping[Port, int]

    def input_count(self, port: Port) -> int:
        return self.inputs.get(port, 0)

    def output_count(self, port: Port) -> int:
        return self.outputs.get(port, 0)


def paper_port_counts(mesh: Mesh, router: Coord) -> PortCounts:
    """Per-port flow counts using the closed forms exactly as printed.

    ``N`` is the horizontal dimension (mesh width), ``M`` the vertical one
    (mesh height), ``x``/``y`` the router coordinates -- the same notation as
    the paper.
    """
    mesh.require(router)
    n, m = mesh.width, mesh.height
    x, y = router.x, router.y
    inputs = {
        Port.XPLUS: x,
        Port.XMINUS: n - x,
        Port.YPLUS: n * y,
        Port.YMINUS: n * (m - y - 1),
        Port.LOCAL: 1,
    }
    outputs = {
        Port.XPLUS: x + 1,
        Port.XMINUS: n - x + 1,
        Port.YPLUS: n * (y + 1),
        Port.YMINUS: n * (m - y),
        Port.LOCAL: n * m - 1,
    }
    return PortCounts(router, inputs, outputs)


def source_port_counts(mesh: Mesh, router: Coord) -> PortCounts:
    """Per-port counts of source nodes whose traffic can cross each port.

    Derived from XY routing over all-to-all traffic, counting distinct
    *sources* (the granularity at which WaW balances bandwidth):

    * ``X+`` input: traffic moving in +x is still in its X phase, so it can
      only come from the ``x`` preceding nodes of the same row.
    * ``Y+`` input: traffic moving in +y already completed its X phase in
      this column, so it can come from any of the ``N * y`` nodes of the
      preceding rows.
    * ``X+`` output: the upstream sources of the ``X+`` input plus the local
      node itself.
    * ``PME`` (LOCAL) output: any of the other ``N*M - 1`` nodes can eject
      here; the LOCAL input always counts exactly one source (the node).
    """
    mesh.require(router)
    n, m = mesh.width, mesh.height
    x, y = router.x, router.y
    inputs = {
        Port.XPLUS: x,
        Port.XMINUS: n - 1 - x,
        Port.YPLUS: n * y,
        Port.YMINUS: n * (m - 1 - y),
        Port.LOCAL: 1,
    }
    outputs = {
        Port.XPLUS: x + 1,
        Port.XMINUS: n - x,
        Port.YPLUS: n * (y + 1),
        Port.YMINUS: n * (m - y),
        Port.LOCAL: n * m - 1,
    }
    return PortCounts(router, inputs, outputs)


def _scaled(counts: PortCounts, scale: int) -> PortCounts:
    """Multiply every port count by ``scale`` (terminals per router)."""
    if scale == 1:
        return counts
    return PortCounts(
        counts.router,
        {port: scale * value for port, value in counts.inputs.items()},
        {port: scale * value for port, value in counts.outputs.items()},
    )


def waw_weight(counts: PortCounts, in_port: Port, out_port: Port) -> Fraction:
    """Paper Eq. 1: ``W = I / O`` as an exact fraction.

    Returns 0 when the output port serves no flow (the pair is never
    arbitrated).
    """
    out_count = counts.output_count(out_port)
    if out_count == 0:
        return Fraction(0)
    return Fraction(counts.input_count(in_port), out_count)


class WeightTable:
    """Statically computed WaW weights for every router of a mesh.

    A weight table maps ``(router, input port, output port)`` to the integer
    number of flit credits the input port receives in one arbitration round
    of that output port.  The weighted-round-robin arbiter of the paper is
    expressed in flit counts ("input port weight is measured as the number of
    flits it can transmit to an output port"), so integer credits equal to
    the flow counts implement exactly ``W = I / O``: in one full round the
    output port serves ``O`` flits of which ``I`` come from the input.
    """

    def __init__(
        self,
        mesh: Mesh,
        counts_by_router: Mapping[Coord, PortCounts],
        *,
        origin: str = "explicit per-router counts",
    ):
        self.mesh = mesh
        self._counts: Dict[Coord, PortCounts] = dict(counts_by_router)
        #: Human-readable construction path, quoted by lookup errors.
        self.origin = origin

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_closed_form(cls, mesh: Mesh, *, as_printed: bool = False) -> "WeightTable":
        """Build the all-to-all weights for any topology.

        For the plain XY mesh the paper's closed forms apply directly
        (``as_printed=True`` uses the formulas verbatim from the paper,
        otherwise the self-consistent source counting is used).  For every
        other topology -- wrap-around links or YX routing invalidate the
        closed forms -- the same quantities are derived exactly from the
        all-to-all flow set routed through the topology.  A concentrated
        mesh scales every count by its ``concentration`` so that one
        arbitration round serves each *terminal* its guaranteed slot.
        """
        topology = as_topology(mesh)
        if topology.has_wraparound or topology.routing is not XY:
            if as_printed:
                raise ValueError(
                    "the paper's printed closed forms only describe the XY mesh; "
                    f"cannot apply them to a {topology.describe_short()}"
                )
            return cls.from_flow_set(FlowSet.all_to_all(mesh))
        counts_fn = paper_port_counts if as_printed else source_port_counts
        scale = topology.terminals_per_node
        return cls(
            mesh,
            {
                router: _scaled(counts_fn(mesh, router), scale)
                for router in mesh.nodes()
            },
            origin=(
                "closed form (paper's printed expressions)"
                if as_printed
                else "closed form (source counting)"
            ),
        )

    @classmethod
    def from_flow_set(
        cls, flow_set: FlowSet, *, granularity: str = "source"
    ) -> "WeightTable":
        """Build from an explicit flow set (e.g. all-to-one memory traffic).

        ``granularity`` selects whether ports are weighted by the number of
        distinct source nodes (``"source"``, the paper's counting) or by the
        number of individual flows (``"flow"``).
        """
        if granularity not in ("source", "flow"):
            raise ValueError("granularity must be 'source' or 'flow'")
        mesh = flow_set.mesh
        count = (
            flow_set.port_source_count
            if granularity == "source"
            else flow_set.port_flow_count
        )
        # On a concentrated mesh each coordinate-level flow aggregates the
        # traffic of a whole cluster, so every count scales by the number of
        # terminals behind a router.
        scale = as_topology(mesh).terminals_per_node
        counts_by_router: Dict[Coord, PortCounts] = {}
        for router in mesh.nodes():
            inputs = {port: scale * count(router, port, "in") for port in mesh.input_ports(router)}
            outputs = {
                port: scale * count(router, port, "out") for port in mesh.output_ports(router)
            }
            counts_by_router[router] = PortCounts(router, inputs, outputs)
        return cls(
            mesh,
            counts_by_router,
            origin=f"flow set ({len(flow_set)} flows, {granularity} granularity)",
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def require_topology(self, topology: Topology) -> "WeightTable":
        """This table, if it was built for ``topology``; a ``ValueError``
        naming both topologies otherwise."""
        own = as_topology(self.mesh)
        if own != topology:
            built, wanted = (
                f"{t.describe_short()} ({t.routing.name.upper()} routing)" for t in (own, topology)
            )
            raise ValueError(f"weight table built for a {built} cannot configure a {wanted}")
        return self

    def counts(self, router: Coord) -> PortCounts:
        self.mesh.require(router)
        try:
            return self._counts[router]
        except KeyError:
            raise KeyError(
                f"router {router} is inside the mesh but has no entry in this "
                f"WeightTable built from {self.origin} "
                f"(covers {len(self._counts)} of {len(list(self.mesh.nodes()))} routers)"
            ) from None

    def input_credits(self, router: Coord, in_port: Port) -> int:
        """Flit credits of ``in_port`` in one arbitration round (the weight)."""
        return self.counts(router).input_count(in_port)

    def output_round_flits(self, router: Coord, out_port: Port) -> int:
        """Total flits served by ``out_port`` in one full arbitration round."""
        return self.counts(router).output_count(out_port)

    def weight(self, router: Coord, in_port: Port, out_port: Port) -> Fraction:
        """Paper Eq. 1 weight ``W(I, O)`` for the pair, as an exact fraction."""
        return waw_weight(self.counts(router), in_port, out_port)

    def arbitration_weights(self, router: Coord, out_port: Port) -> Dict[Port, int]:
        """Integer credits of every legal contender of ``out_port``.

        Ports with zero upstream flows are included with weight 0 so that the
        arbiter still grants them when they are the only requester (work
        conservation; see :mod:`repro.core.arbitration`).
        """
        counts = self.counts(router)
        legal = as_topology(self.mesh).legal_inputs_for_output(router, out_port)
        return {port: counts.input_count(port) for port in legal}

    def table_rows(self, router: Coord) -> Iterable[Tuple[Port, Port, Fraction]]:
        """All (input, output, weight) triples of a router with W > 0.

        Used to reproduce the paper's Table I.
        """
        counts = self.counts(router)
        topology = as_topology(self.mesh)
        for out_port in self.mesh.output_ports(router):
            if counts.output_count(out_port) == 0:
                continue
            for in_port in topology.legal_inputs_for_output(router, out_port):
                weight = waw_weight(counts, in_port, out_port)
                if weight > 0:
                    yield in_port, out_port, weight

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightTable({self.mesh})"


def round_robin_weight(
    mesh: Mesh, router: Coord, in_port: Port, out_port: Port, flow_set: Optional[FlowSet] = None
) -> Fraction:
    """Bandwidth fraction a plain round-robin arbiter gives to an input port.

    Round-robin splits the output bandwidth evenly among the input ports that
    carry at least one flow towards the output (or among all legal inputs if
    no flow information is given).  Used to reproduce the "Regular Mesh"
    column of the paper's Table I.
    """
    legal = as_topology(mesh).legal_inputs_for_output(router, out_port)
    if flow_set is not None:
        # One lookup per call: membership tests against a set instead of
        # re-deriving the output's flow tuple for every flow of every input.
        through_output = set(flow_set.flows_through_output(router, out_port))
        active = [
            p
            for p in legal
            if not through_output.isdisjoint(flow_set.flows_through_input(router, p))
        ]
    else:
        active = list(legal)
    if in_port not in active or not active:
        return Fraction(0)
    return Fraction(1, len(active))
