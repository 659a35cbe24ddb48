"""Experiment E2 -- paper Table II: WCTT scaling with mesh size (1-flit packets).

For mesh sizes 2x2 .. 8x8, every node sends 1-flit packets to the memory
controller at R(0,0); the experiment reports the maximum, mean and minimum
time-composable WCTT over all flows for

* the regular wNoC (round-robin arbitration, analysis of
  :class:`~repro.core.wctt_regular.RegularMeshWCTTAnalysis`), and
* the WaW+WaP wNoC (weighted arbitration + minimum-size packets, analysis of
  :class:`~repro.core.wctt_weighted.WaWWaPWCTTAnalysis`).

The paper's qualitative findings reproduced here:

* the regular-mesh maximum (and mean) WCTT grows by roughly an order of
  magnitude per mesh-size step -- 4 orders of magnitude above the proposal at
  64 nodes -- while its minimum stays flat (the nodes adjacent to the
  destination);
* the WaW+WaP bounds grow polynomially and stay within a small factor of each
  other across all flows (uniform guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.backends import make_analysis_backend
from ..analysis.reporting import format_table, format_title
from ..api import Scenario, experiment, unwrap
from ..core.flows import FlowSet
from ..core.wctt import WCTTSummary, wctt_summary
from ..core.wctt_weighted import WaWWaPWCTTAnalysis
from ..geometry import Coord

__all__ = ["Table2Row", "run", "report"]

#: Values printed in the paper, shown next to the measured rows by report().
PAPER_TABLE2 = {
    2: {"regular": (14, 10.0, 6), "waw_wap": (11, 9.0, 8)},
    3: {"regular": (123, 39.16, 9), "waw_wap": (32, 24.0, 17)},
    4: {"regular": (1071, 145.68, 9), "waw_wap": (64, 45.0, 31)},
    5: {"regular": (8895, 568.14, 9), "waw_wap": (108, 72.0, 49)},
    6: {"regular": (72447, 2375.85, 9), "waw_wap": (163, 105.0, 71)},
    7: {"regular": (584703, 10632.53, 9), "waw_wap": (230, 144.0, 97)},
    8: {"regular": (4698111, 50516.79, 9), "waw_wap": (310, 189.0, 127)},
}


@dataclass(frozen=True)
class Table2Row:
    """One mesh size of Table II: both designs side by side."""

    mesh: str
    regular: WCTTSummary
    waw_wap: WCTTSummary

    def as_dict(self) -> Dict[str, object]:
        return {
            "NxM": self.mesh,
            "regular max": self.regular.maximum,
            "regular mean": round(self.regular.average, 2),
            "regular min": self.regular.minimum,
            "WaW+WaP max": self.waw_wap.maximum,
            "WaW+WaP mean": round(self.waw_wap.average, 2),
            "WaW+WaP min": self.waw_wap.minimum,
        }

    @property
    def improvement_at_max(self) -> float:
        """How much the proposal lowers the worst WCTT for this mesh size."""
        return self.regular.maximum / self.waw_wap.maximum


@experiment(
    "table2",
    description="Table II -- WCTT scaling with mesh size, regular vs WaW+WaP",
    paper_reference="Table II",
    quick_params={"sizes": (2, 3, 4)},
    sweep_axes={
        "size": lambda v: {"sizes": (v,)},
        "packet_flits": lambda v: {"packet_flits": v},
        "topology": lambda v: {"topology": v},
    },
)
def run(
    *,
    sizes: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    packet_flits: int = 1,
    destination: Optional[Coord] = None,
    topology: str = "mesh",
) -> List[Table2Row]:
    """Compute the Table II rows for the requested mesh sizes.

    ``topology`` extends the table beyond the paper: any registered topology
    kind (``mesh``, ``torus``, ``ring``, ``cmesh``) runs the same analysis,
    e.g. ``BatchEngine.sweep("table2", topology=("mesh", "torus"))``.  A
    ring interprets each requested size as its node count.
    """
    dst = destination if destination is not None else Coord(0, 0)
    rows: List[Table2Row] = []
    for size in sizes:
        base = Scenario.mesh(size, 1 if topology == "ring" else None)
        if topology != "mesh":
            base = base.topology(topology)
        regular_cfg = base.regular().max_packet_flits(packet_flits).build()
        waw_cfg = base.waw_wap().max_packet_flits(packet_flits).build()
        flows = FlowSet.all_to_one(regular_cfg.mesh, dst)

        regular_analysis = make_analysis_backend("regular").analysis(regular_cfg)
        waw_analysis = WaWWaPWCTTAnalysis.for_memory_traffic(waw_cfg, include_replies=False)

        rows.append(
            Table2Row(
                mesh=regular_cfg.topology.short_label(),
                regular=wctt_summary(
                    regular_analysis, flows, packet_flits=packet_flits, design_label="regular"
                ),
                waw_wap=wctt_summary(
                    waw_analysis, flows, packet_flits=packet_flits, design_label="WaW+WaP"
                ),
            )
        )
    return rows


def report(rows: Optional[List[Table2Row]] = None, *, include_paper: bool = True) -> str:
    """Render the Table II reproduction, optionally next to the paper's values."""
    rows = unwrap(rows) if rows is not None else unwrap(run())
    title = format_title("Table II -- WCTT (cycles) for different mesh sizes, 1-flit packets")
    body = format_table([r.as_dict() for r in rows])
    sections = [title, body]
    if include_paper:
        paper_rows = []
        for size, values in PAPER_TABLE2.items():
            paper_rows.append(
                {
                    "NxM": f"{size}x{size}",
                    "regular max": values["regular"][0],
                    "regular mean": values["regular"][1],
                    "regular min": values["regular"][2],
                    "WaW+WaP max": values["waw_wap"][0],
                    "WaW+WaP mean": values["waw_wap"][1],
                    "WaW+WaP min": values["waw_wap"][2],
                }
            )
        sections.append(format_title("Paper values (for reference)", underline="-"))
        sections.append(format_table(paper_rows))
    return "\n".join(sections)


def main() -> None:  # pragma: no cover - thin CLI wrapper
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
