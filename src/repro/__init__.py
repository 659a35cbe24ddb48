"""Reproduction of *Improving Performance Guarantees in Wormhole Mesh NoC
Designs* (Panic et al., DATE 2016).

The package is organised in seven layers:

* :mod:`repro.geometry` -- coordinates and ports, shared by everything else;
* :mod:`repro.topology` -- the pluggable network structure: the
  :class:`Topology` interface with mesh / torus / ring / concentrated-mesh
  implementations and XY/YX dimension-ordered routing strategies;
* :mod:`repro.core` -- the paper's contribution: WaP packetization, WaW
  weighted arbitration, the time-composable WCTT analyses, per-core upper
  bound delays and the router area model;
* :mod:`repro.noc` -- a cycle-accurate flit-level wormhole mesh simulator
  (the reproduction's substitute for SoCLib + gNoCSim);
* :mod:`repro.sim` -- pluggable simulation backends: the cycle-accurate
  reference and a bit-identical event-driven fast backend that skips idle
  cycles;
* :mod:`repro.manycore` / :mod:`repro.workloads` -- the evaluated platform
  (cores, caches, memory controller, placements) and its workloads
  (EEMBC-like profiles, the 3D path-planning avionics application, synthetic
  traffic);
* :mod:`repro.experiments` -- one registered driver per table/figure of the
  paper;
* :mod:`repro.api` -- the public surface: the fluent :class:`Scenario`
  builder and :func:`sweep` grid expansion, the uniform
  :class:`ExperimentResult` return type, the decorator-based experiment
  registry and the cache-aware parallel :class:`BatchEngine`;
* :mod:`repro.service` -- analysis as a service: a persistent daemon
  (``repro-experiments serve``) with an async job queue, request
  coalescing/dedup and the durable content-addressed :class:`ResultStore`
  shared with the batch engine;
* :mod:`repro.campaign` -- sharded, resumable sweep campaigns: a
  :class:`Campaign` chunks a job grid into content-addressed shards,
  checkpoints each one to the shared store (interrupt and resume with zero
  recomputation), blind-validates a held-out shard subset before unblinding
  the full result set, and emits a versioned structured
  :class:`CampaignReport`.

Quick start::

    from repro import Scenario, get_experiment, make_wctt_analysis
    from repro.geometry import Coord

    regular = Scenario.mesh(8).regular().max_packet_flits(4).build()
    print(make_wctt_analysis(regular).wctt_packet(Coord(7, 7), Coord(0, 0), packet_flits=1))

    result = get_experiment("table2").run(quick=True)
    print(result.to_json())

See README.md for installation, the experiment index and the full tour.
"""

from .geometry import Coord, Mesh, Port
from .topology import (
    ConcentratedMesh,
    Hop,
    Mesh2D,
    Ring,
    RoutingStrategy,
    Topology,
    Torus2D,
    as_topology,
    make_topology,
)
from .api import (
    BatchEngine,
    BatchJob,
    BatchResult,
    ExperimentResult,
    ExperimentSpec,
    Scenario,
    ScenarioError,
    UnknownExperimentError,
    experiment,
    get_experiment,
    list_experiments,
    sweep,
    sweep_jobs,
)
from .core import (
    ArbitrationPolicy,
    Flow,
    FlowSet,
    MessageConfig,
    MemoryTiming,
    NoCConfig,
    PacketizationPolicy,
    RegularMeshWCTTAnalysis,
    RouterTiming,
    UBDTable,
    WaWWaPWCTTAnalysis,
    WeightTable,
    make_wctt_analysis,
    regular_mesh_config,
    waw_wap_config,
    wctt_map,
    wctt_summary,
)
from .sim import (
    CycleAccurateBackend,
    EventDrivenBackend,
    SimulationBackend,
    SimulationStallError,
    available_backends,
    make_backend,
)
from .noc import Network
from .manycore import ManycoreSystem, Placement, standard_placements
from .faults import (
    FaultModel,
    GilbertElliottFaults,
    IndependentFaults,
    MessageDeliveryError,
    ReliabilityConfig,
    make_fault_model,
)

from .service import ResultStore, StoreError, default_store_dir
from .campaign import Campaign, CampaignError, CampaignReport, HoldoutViolation
from .analysis import (
    AnalysisBackend,
    HolisticAnalysis,
    TrajectoryAnalysis,
    available_analysis_backends,
    evaluate_grid,
    make_analysis_backend,
    make_vector_analysis,
    vector_supported,
    vector_wctt_map,
    vector_wctt_summary,
)

__version__ = "1.8.0"

#: Service entry points resolved lazily (they pull in asyncio machinery
#: that most library users never touch).
_LAZY_SERVICE = ("ReproService", "ServiceClient", "ServiceError", "start_service_thread")


def __getattr__(name):
    if name in _LAZY_SERVICE:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_LAZY_SERVICE))


__all__ = [
    "Coord",
    "Mesh",
    "Port",
    "Topology",
    "RoutingStrategy",
    "Mesh2D",
    "Torus2D",
    "Ring",
    "ConcentratedMesh",
    "as_topology",
    "make_topology",
    "Hop",
    "ArbitrationPolicy",
    "Flow",
    "FlowSet",
    "MessageConfig",
    "MemoryTiming",
    "NoCConfig",
    "PacketizationPolicy",
    "RegularMeshWCTTAnalysis",
    "RouterTiming",
    "UBDTable",
    "WaWWaPWCTTAnalysis",
    "WeightTable",
    "make_wctt_analysis",
    "regular_mesh_config",
    "waw_wap_config",
    "wctt_map",
    "wctt_summary",
    "SimulationBackend",
    "SimulationStallError",
    "CycleAccurateBackend",
    "EventDrivenBackend",
    "available_backends",
    "make_backend",
    "Network",
    "ManycoreSystem",
    "Placement",
    "standard_placements",
    "FaultModel",
    "IndependentFaults",
    "GilbertElliottFaults",
    "ReliabilityConfig",
    "MessageDeliveryError",
    "make_fault_model",
    "BatchEngine",
    "BatchJob",
    "BatchResult",
    "ExperimentResult",
    "ExperimentSpec",
    "Scenario",
    "ScenarioError",
    "UnknownExperimentError",
    "experiment",
    "get_experiment",
    "list_experiments",
    "sweep",
    "sweep_jobs",
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "HoldoutViolation",
    "AnalysisBackend",
    "HolisticAnalysis",
    "TrajectoryAnalysis",
    "available_analysis_backends",
    "make_analysis_backend",
    "ResultStore",
    "StoreError",
    "default_store_dir",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "start_service_thread",
    "__version__",
]
