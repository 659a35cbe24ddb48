"""Experiment E11 -- WCTT bound summary of a single :class:`Scenario`.

The service-era complement to the table experiments: where ``table2`` walks
a fixed family of design points, this driver evaluates the analytical WCTT
bound for *one arbitrary scenario* described by its JSON-safe dict form
(:meth:`Scenario.to_dict`).  That makes any ``sweep()`` grid submittable to
the batch engine or to a running analysis daemon one design point at a
time -- each point hashing (and therefore caching and deduplicating)
independently::

    from repro.api import Scenario, sweep
    from repro.service import ServiceClient

    grid = sweep(Scenario.mesh(4), design=("regular", "waw_wap"))
    ServiceClient(port=8537).submit_scenarios(grid)

The evaluation is the paper's all-to-one memory-traffic pattern: every node
sends to the scenario's memory controller, and the packet WCTT bound of the
scenario's design (regular or WaW+WaP analysis, chosen by
``make_analysis_backend(None)``) is summarised over all flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Union

from ..analysis import vector
from ..analysis.backends import make_analysis_backend
from ..analysis.reporting import format_table, format_title
from ..api.registry import experiment
from ..api.results import unwrap
from ..api.scenario import Scenario

__all__ = ["ScenarioWCTTPoint", "run", "report"]


@dataclass(frozen=True)
class ScenarioWCTTPoint:
    """The WCTT bound summary of one evaluated design point."""

    label: str
    design: str
    topology: str
    nodes: int
    packet_flits: int
    wctt_max: int
    wctt_mean: float
    wctt_min: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.label,
            "design": self.design,
            "topology": self.topology,
            "nodes": self.nodes,
            "packet flits": self.packet_flits,
            "WCTT max": self.wctt_max,
            "WCTT mean": self.wctt_mean,
            "WCTT min": self.wctt_min,
        }


#: Accepted values for the ``engine`` parameter of :func:`run`.
ENGINES = ("auto", "scalar")


@experiment(
    "scenario_wctt",
    description="WCTT bound summary of one arbitrary Scenario design point",
    paper_reference="Section III (analysis)",
    sweep_axes={
        "packet_flits": lambda v: {"packet_flits": v},
        "scenario": lambda v: {"scenario": v.to_dict() if isinstance(v, Scenario) else v},
        "engine": lambda v: {"engine": v},
        "analysis": lambda v: {"analysis": v},
    },
)
def run(
    *,
    scenario: Optional[Union[Scenario, Mapping[str, Any]]] = None,
    packet_flits: int = 1,
    engine: str = "auto",
    analysis: Optional[str] = None,
) -> List[ScenarioWCTTPoint]:
    """Evaluate the WCTT bound summary for ``scenario``.

    ``scenario`` is a :class:`Scenario` or its :meth:`Scenario.to_dict`
    form (the shape a daemon submission travels in); the default is the
    4x4 WaW+WaP mesh.  ``packet_flits`` is the analysed packet length.

    The default path evaluates the paper's bound with the closed-form grids
    of :mod:`repro.analysis.vector` wherever
    :func:`~repro.analysis.vector.vector_supported` allows and with the
    scalar analysis everywhere else; both give bit-identical summaries
    (``tests/test_differential_analysis.py``).  ``engine="scalar"`` forces
    the per-flow scalar path; the benchmark's held-back reference check
    uses it.

    ``analysis`` selects a registered :class:`~repro.analysis.AnalysisBackend`
    (``regular``, ``weighted``, ``holistic``, ``trajectory``) instead of the
    paper's default dispatch; the scenario's own ``Scenario.analysis(...)``
    selection is honoured when the parameter is left ``None``.  Unlike
    ``engine`` this *changes numbers* -- backends are competing bounds -- so
    an explicit backend takes precedence over the engine flag.  A design the
    backend does not bound (for the paper's, weighted arbitration without
    WaP) raises the registry's ``ValueError``.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if scenario is None:
        scenario = Scenario.mesh(4).waw_wap()
    elif isinstance(scenario, Mapping):
        scenario = Scenario.from_dict(scenario)
    elif not isinstance(scenario, Scenario):
        raise TypeError(
            f"scenario must be a Scenario or its dict form, got {type(scenario).__name__}"
        )
    config = scenario.build()

    effective_analysis = analysis if analysis is not None else scenario.settings.get("analysis")
    label = scenario.label()
    backend = make_analysis_backend(effective_analysis)
    summary = None
    if effective_analysis is None and engine == "auto":
        # The summary checks the design once (the paper backend's require,
        # then vector_supported) and raises NotVectorizable where the grids
        # do not apply.  It and vector_supported are read from the module at
        # call time, where perfbench's tracer patches them.
        try:
            summary = vector.vector_wctt_summary(config, packet_flits=packet_flits)
        except vector.NotVectorizable:
            pass
    if summary is None:
        summary = backend.wctt_summary(config, packet_flits=packet_flits)
    if effective_analysis is not None and "analysis" not in scenario.settings:
        label = f"{label}-{backend.name}"
    return [
        ScenarioWCTTPoint(
            label=label,
            design=summary.design,
            topology=config.topology.short_label(),
            nodes=config.mesh.num_nodes,
            packet_flits=packet_flits,
            wctt_max=summary.maximum,
            wctt_mean=round(summary.average, 2),
            wctt_min=summary.minimum,
        )
    ]


def report(
    points: Optional[List[ScenarioWCTTPoint]] = None,
    *,
    scenario: Optional[Union[Scenario, Mapping[str, Any]]] = None,
    packet_flits: int = 1,
    engine: str = "auto",
    analysis: Optional[str] = None,
) -> str:
    points = (
        unwrap(points)
        if points is not None
        else unwrap(
            run(
                scenario=scenario,
                packet_flits=packet_flits,
                engine=engine,
                analysis=analysis,
            )
        )
    )
    title = format_title("WCTT bound summary (all-to-one memory traffic)")
    table = format_table([p.as_dict() for p in points])
    return f"{title}\n{table}"


def main() -> None:  # pragma: no cover - thin CLI wrapper
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
