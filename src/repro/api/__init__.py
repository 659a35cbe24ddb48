"""Public experiment API: scenarios, results, registry and batch engine.

This package is the front door for running the reproduction
programmatically:

* :class:`Scenario` / :func:`sweep` -- fluent, validated construction of NoC
  design points and parameter-grid expansion;
* :class:`ExperimentResult` -- the uniform, exportable return type of every
  experiment ``run()`` (JSON/CSV views, paper reference, parameters);
* :func:`experiment` / :func:`get_experiment` / :func:`list_experiments` --
  the decorator-based registry that drives discovery, the CLI and the
  engine;
* :class:`BatchEngine` -- batch execution with multiprocessing fan-out,
  caching in a :class:`~repro.service.ResultStore` and JSON/CSV export.

Quick start::

    from repro.api import BatchEngine, BatchJob, Scenario, get_experiment
    from repro.service import ResultStore

    config = Scenario.mesh(8).waw_wap().max_packet_flits(1).build()
    result = get_experiment("table2").run(quick=True)
    print(result.to_json())

    engine = BatchEngine(jobs=4, store=ResultStore(".repro-cache"))
    results = engine.sweep("table2", size=(2, 3, 4))
"""

from .engine import BatchEngine, BatchJob, BatchResult, config_hash
from .registry import (
    ExperimentSpec,
    UnknownExperimentError,
    discover,
    experiment,
    get_experiment,
    list_experiments,
)
from .results import ExperimentResult, ResultEncoder, unwrap
from .scenario import Scenario, ScenarioError, sweep, sweep_jobs

__all__ = [
    "BatchEngine",
    "BatchJob",
    "BatchResult",
    "config_hash",
    "ExperimentSpec",
    "UnknownExperimentError",
    "discover",
    "experiment",
    "get_experiment",
    "list_experiments",
    "ExperimentResult",
    "ResultEncoder",
    "unwrap",
    "Scenario",
    "ScenarioError",
    "sweep",
    "sweep_jobs",
]
