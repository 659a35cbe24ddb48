"""Experiment E12 -- competing analysis backends vs adversarial simulation.

Every registered analytical lens (the paper's ``regular`` / ``weighted``
bounds and the flow-aware ``holistic`` / ``trajectory`` analyses) is
evaluated over the same topology x workload x packet-size grid, and every
bound is cross-checked against the worst probe traversal the cycle-accurate
simulator observes under the most adversarial congestion it can express for
that design point (:func:`repro.analysis.validation.check_bounds`, the
soundness check experiment E9 shares).

Two disciplines shape the run:

* **blind analysis** (the STAR isobar methodology, arXiv:1911.00596): a
  *held-out* third of the grid, picked by the campaigns' content-ID rule so
  that reordering the grid axes cannot steer it, is simulated first and
  every backend's bound must be sound on it -- an unsound backend raises
  :class:`~repro.campaign.HoldoutViolation` before the full comparison is
  even computed, so tightness numbers can never be read off a broken bound;
* **tightness scoring**: per (design point, flow) the *winning* backend is
  the sound bound closest to the observation (ties share the win), and the
  report aggregates per-backend wins, mean tightness and soundness verdicts.

The ``workload`` axis is what separates the competitors: on the ``full``
all-to-one workload the flow-aware analyses provably collapse onto the
paper's bounds (every legal input is active), while on the ``sparse``
workload (a checkerboard subset of sources, simulated by restricting the
adversary's ``background_sources``) they charge only the inputs that can
actually request -- the regime where knowing the flow set pays.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.reporting import format_table, format_title
from ..analysis.validation import check_bounds
from ..api import Scenario, experiment, unwrap
from ..api.engine import map_jobs
from ..campaign import HoldoutViolation
from ..campaign.sharding import holdout_ids
from ..geometry import Coord

__all__ = ["ComparisonRow", "run", "report"]

#: Backends compared per design.
DESIGN_BACKENDS: Dict[str, Tuple[str, ...]] = {
    "regular": ("regular", "holistic", "trajectory"),
    "waw_wap": ("weighted", "holistic", "trajectory"),
}

#: Grid axes accepted by :func:`run`.
WORKLOADS = ("full", "sparse")
TOPOLOGIES = ("mesh", "cmesh")


@dataclass(frozen=True)
class ComparisonRow:
    """One backend's bound vs the shared observation of one (point, flow)."""

    phase: str
    point: str
    design: str
    topology: str
    workload: str
    payload_flits: int
    flow: str
    backend: str
    bound: int
    observed: int
    probes: int
    safe: bool
    slack: int
    tightness: float
    winner: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "point": self.point,
            "design": self.design,
            "topology": self.topology,
            "workload": self.workload,
            "payload flits": self.payload_flits,
            "flow": self.flow,
            "backend": self.backend,
            "bound": self.bound,
            "observed worst": self.observed,
            "probes": self.probes,
            "safe": self.safe,
            "slack": self.slack,
            "observed/bound": round(self.tightness, 3),
            "winner": self.winner,
        }


# ----------------------------------------------------------------------
# Grid construction
# ----------------------------------------------------------------------
def _point_scenario(size: int, topology: str, design: str) -> Scenario:
    scenario = Scenario.mesh(size).design(design)
    if topology == "cmesh":
        scenario = scenario.topology("cmesh", concentration=2)
    elif topology != "mesh":
        raise ValueError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")
    return scenario


def _victims(width: int, height: int, dst: Coord) -> List[Coord]:
    """Far corner and a near node -- the two bound regimes, like validation."""
    far = Coord(width - 1, height - 1)
    near = Coord(1, 0) if dst == Coord(0, 0) else Coord(max(0, dst.x - 1), dst.y)
    return [v for v in (near, far) if v != dst]


def _sparse_sources(nodes: Sequence[Coord], dst: Coord, victim: Coord) -> List[Coord]:
    """Checkerboard subset of sources (victim always included)."""
    return [n for n in nodes if n != dst and ((n.x + n.y) % 2 == 0 or n == victim)]


def _grid_jobs(
    mesh_sizes: Sequence[int],
    topologies: Sequence[str],
    designs: Sequence[str],
    workloads: Sequence[str],
    payload_sizes: Sequence[int],
    congestion_cycles: int,
) -> List[Dict[str, Any]]:
    jobs: List[Dict[str, Any]] = []
    for size in mesh_sizes:
        for topology in topologies:
            for design in designs:
                if design not in DESIGN_BACKENDS:
                    known = ", ".join(sorted(DESIGN_BACKENDS))
                    raise ValueError(
                        f"unknown design {design!r}; known designs: {known}"
                    )
                scenario = _point_scenario(size, topology, design)
                config = scenario.build()
                dst = config.memory_controller
                for workload in workloads:
                    if workload not in WORKLOADS:
                        raise ValueError(
                            f"workload must be one of {WORKLOADS}, got {workload!r}"
                        )
                    for payload in payload_sizes:
                        for victim in _victims(
                            config.mesh.width, config.mesh.height, dst
                        ):
                            jobs.append(
                                {
                                    "size": size,
                                    "topology": topology,
                                    "design": design,
                                    "workload": workload,
                                    "payload": payload,
                                    "victim": [victim.x, victim.y],
                                    "cycles": congestion_cycles,
                                }
                            )
    return jobs


def _spec_id(spec: Dict[str, Any]) -> str:
    """SHA-256 of a job spec's canonical JSON (unlike ``config_hash``, it
    does not fold in the package version, so releases keep the holdout)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Per-job evaluation (top-level: must pickle into the map_jobs pool)
# ----------------------------------------------------------------------
def _evaluate_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one (design point, flow) once; bound it with every backend."""
    config = _point_scenario(job["size"], job["topology"], job["design"]).build()
    dst = config.memory_controller
    victim = Coord(*job["victim"])
    sources = None
    if job["workload"] == "sparse":
        sources = _sparse_sources(list(config.mesh.nodes()), dst, victim)
    check = check_bounds(
        config,
        victim,
        dst,
        DESIGN_BACKENDS[job["design"]],
        payload_flits=job["payload"],
        congestion_cycles=job["cycles"],
        background_sources=sources,
    )
    return {
        **job,
        "dst": [dst.x, dst.y],
        "observed": check.observed_worst,
        "probes": check.probes,
        "bounds": check.bounds,
    }


def _to_rows(outcome: Dict[str, Any], phase: str) -> List[ComparisonRow]:
    observed = outcome["observed"]
    bounds: Dict[str, int] = outcome["bounds"]
    sound = [b for b, v in bounds.items() if v >= observed]
    best = min((bounds[b] for b in sound), default=None)
    victim = Coord(*outcome["victim"])
    dst = Coord(*outcome["dst"])
    point = "-".join(
        [
            outcome["design"],
            f"{outcome['size']}x{outcome['size']}",
            outcome["topology"],
            outcome["workload"],
            f"p{outcome['payload']}",
        ]
    )
    rows = []
    for backend, bound in bounds.items():
        rows.append(
            ComparisonRow(
                phase=phase,
                point=point,
                design=outcome["design"],
                topology=outcome["topology"],
                workload=outcome["workload"],
                payload_flits=outcome["payload"],
                flow=f"{victim}->{dst}",
                backend=backend,
                bound=bound,
                observed=observed,
                probes=outcome["probes"],
                safe=bound >= observed,
                slack=bound - observed,
                tightness=observed / bound if bound else 0.0,
                winner=bound >= observed and bound == best,
            )
        )
    return rows


@experiment(
    "bound_comparison",
    description="Competing analysis backends: tightness vs adversarial simulation",
    paper_reference="extension (analysis backends)",
    quick_params={
        "mesh_sizes": (3,),
        "payload_sizes": (1,),
        "congestion_cycles": 600,
    },
    sweep_axes={
        "size": lambda v: {"mesh_sizes": (v,)},
        "workload": lambda v: {"workloads": (v,)},
        "payload_flits": lambda v: {"payload_sizes": (v,)},
    },
)
def run(
    *,
    mesh_sizes: Sequence[int] = (3, 4),
    topologies: Sequence[str] = TOPOLOGIES,
    designs: Sequence[str] = ("regular", "waw_wap"),
    workloads: Sequence[str] = WORKLOADS,
    payload_sizes: Sequence[int] = (1, 4),
    congestion_cycles: int = 1_200,
    jobs: int = 1,
) -> List[ComparisonRow]:
    """Compare every applicable analysis backend over the grid.

    Each (design point, flow) is simulated exactly once under adversarial
    congestion and the observation is shared by all backends' rows.
    ``jobs`` fans the simulations onto the ``map_jobs`` worker pool.

    Following the blind-analysis discipline, a held-out third of the grid
    (the ceil(n/3) job specs with the smallest content IDs, the campaigns'
    rule) is simulated *first* and every backend must be sound on it; a
    violation raises :class:`~repro.campaign.HoldoutViolation` and the rest
    of the grid is never evaluated.
    """
    specs = _grid_jobs(
        mesh_sizes, topologies, designs, workloads, payload_sizes, congestion_cycles
    )
    ids = [_spec_id(spec) for spec in specs]
    held_out = holdout_ids(ids, math.ceil(len(specs) / 3))
    holdout = [spec for spec, spec_id in zip(specs, ids) if spec_id in held_out]
    rest = [spec for spec, spec_id in zip(specs, ids) if spec_id not in held_out]

    holdout_outcomes = map_jobs(_evaluate_job, holdout, jobs=jobs)
    violations = []
    for outcome in holdout_outcomes:
        for backend, bound in outcome["bounds"].items():
            if bound < outcome["observed"]:
                violations.append(
                    f"{backend}: bound {bound} < observed {outcome['observed']} "
                    f"on {outcome['design']}-{outcome['size']}x{outcome['size']}-"
                    f"{outcome['topology']}-{outcome['workload']} "
                    f"flow {tuple(outcome['victim'])}"
                )
    if violations:
        raise HoldoutViolation("bound_comparison", violations)

    rest_outcomes = map_jobs(_evaluate_job, rest, jobs=jobs)
    rows: List[ComparisonRow] = []
    for outcome in holdout_outcomes:
        rows.extend(_to_rows(outcome, "holdout"))
    for outcome in rest_outcomes:
        rows.extend(_to_rows(outcome, "full"))
    return rows


def _aggregate(rows: List[ComparisonRow]) -> List[Dict[str, Any]]:
    """Per-backend tightness/soundness summary for the report."""
    by_backend: Dict[str, List[ComparisonRow]] = {}
    for row in rows:
        by_backend.setdefault(row.backend, []).append(row)
    summary = []
    for backend in sorted(by_backend):
        entries = by_backend[backend]
        summary.append(
            {
                "backend": backend,
                "rows": len(entries),
                "wins": sum(1 for r in entries if r.winner),
                "mean observed/bound": round(
                    sum(r.tightness for r in entries) / len(entries), 3
                ),
                "sound": "yes" if all(r.safe for r in entries) else "NO",
            }
        )
    return summary


def report(rows: Optional[List[ComparisonRow]] = None) -> str:
    rows = unwrap(rows) if rows is not None else unwrap(run())
    title = format_title("Analysis backend comparison -- bounds vs adversarial simulation")
    table = format_table([r.as_dict() for r in rows])
    summary = format_table(_aggregate(rows))
    all_safe = all(r.safe for r in rows)
    note = (
        "\nEvery backend's bound is sound on every evaluated point."
        if all_safe
        else "\nWARNING: at least one bound was exceeded by an observation!"
    )
    return f"{title}\n{table}\n\nPer-backend summary:\n{summary}{note}"


def main() -> None:  # pragma: no cover - thin CLI wrapper
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
