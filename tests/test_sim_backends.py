"""Unit tests for the ``repro.sim`` backend subsystem and its wiring.

The deep bit-for-bit equivalence of the backends lives in
``tests/test_differential.py``; this module covers the plumbing around it:
the registry, the ``Scenario``/``NoCConfig``/CLI selection paths, the
descriptive stall errors and the batch engine's cache behaviour when the
backend switches.
"""

from __future__ import annotations

import pytest

from repro.api import BatchEngine, BatchJob, Scenario, ScenarioError, config_hash
from repro.api import registry as registry_module
from repro.api.registry import experiment
from repro.core.config import regular_mesh_config
from repro.geometry import Coord
from repro.manycore.core import Core
from repro.manycore.system import ManycoreSystem
from repro.noc.network import Network
from repro.service import ResultStore
from repro.sim import (
    CycleAccurateBackend,
    EventDrivenBackend,
    SimulationBackend,
    SimulationStallError,
    available_backends,
    make_backend,
)
from repro.workloads.trace import MemoryOperation


def operations(count, gap=5):
    return iter([MemoryOperation(compute_cycles=gap) for _ in range(count)])


# ----------------------------------------------------------------------
# Registry / factory
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_canonical_names(self):
        assert available_backends() == ["cycle", "event"]

    def test_make_backend_by_name_and_alias(self):
        assert isinstance(make_backend("cycle"), CycleAccurateBackend)
        assert isinstance(make_backend("event"), EventDrivenBackend)
        assert isinstance(make_backend("cycle-accurate"), CycleAccurateBackend)
        assert isinstance(make_backend("event-driven"), EventDrivenBackend)
        assert isinstance(make_backend(None), CycleAccurateBackend)

    def test_backends_are_stateless_singletons(self):
        assert make_backend("event") is make_backend("event-driven")

    def test_instance_passthrough(self):
        backend = EventDrivenBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(ValueError, match="cycle.*event"):
            make_backend("warp-speed")

    def test_non_string_spec_rejected(self):
        with pytest.raises(TypeError):
            make_backend(42)


# ----------------------------------------------------------------------
# Selection paths: NoCConfig, Network/ManycoreSystem, Scenario
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_config_default_is_cycle_accurate(self):
        config = regular_mesh_config(2)
        assert config.sim_backend == "cycle"
        assert isinstance(Network(config).backend, CycleAccurateBackend)

    def test_config_backend_flows_into_network_and_system(self):
        config = regular_mesh_config(2).with_backend("event")
        assert isinstance(Network(config).backend, EventDrivenBackend)
        assert isinstance(ManycoreSystem(config).backend, EventDrivenBackend)

    def test_explicit_backend_overrides_config(self):
        config = regular_mesh_config(2).with_backend("event")
        assert isinstance(Network(config, backend="cycle").backend, CycleAccurateBackend)

    def test_invalid_config_backend_rejected(self):
        with pytest.raises(ValueError):
            regular_mesh_config(2).with_backend("")
        with pytest.raises(ValueError):
            Network(regular_mesh_config(2).with_backend("nope"))

    def test_scenario_backend_axis(self):
        config = Scenario.mesh(3).waw_wap().backend("event").build()
        assert config.sim_backend == "event"
        assert Scenario.mesh(3).backend("event-driven").build().sim_backend == "event"

    def test_scenario_backend_in_label_and_settings(self):
        scenario = Scenario.mesh(3).backend("event")
        assert scenario.label().endswith("-event")
        assert scenario.settings["backend"] == "event"
        # The default backend keeps labels byte-identical to the seed's.
        assert Scenario.mesh(3).label() == "regular-3x3"

    def test_scenario_rejects_unknown_backend(self):
        with pytest.raises(ScenarioError, match="known backends"):
            Scenario.mesh(3).backend("warp-speed")

    def test_sweep_backend_axis(self):
        from repro.api import sweep

        points = sweep(Scenario.mesh(2), backend=("cycle", "event"))
        assert [p.build().sim_backend for p in points] == ["cycle", "event"]

    def test_custom_backend_instance_accepted(self):
        class Recording(SimulationBackend):
            name = "recording"

            def __init__(self):
                self.calls = 0

            def run_until_idle(self, network, *, max_cycles=1_000_000):
                self.calls += 1
                return make_backend("cycle").run_until_idle(network, max_cycles=max_cycles)

        backend = Recording()
        network = Network(regular_mesh_config(2), backend=backend)
        network.send(Coord(1, 1), Coord(0, 0), 1)
        network.run_until_idle()
        assert backend.calls == 1


# ----------------------------------------------------------------------
# Descriptive stall errors (satellite: no more bare timeout messages)
# ----------------------------------------------------------------------
class TestStallErrors:
    @pytest.mark.parametrize("backend", ("cycle", "event"))
    def test_network_drain_timeout_is_descriptive(self, backend):
        network = Network(regular_mesh_config(3), backend=backend)
        network.send(Coord(2, 2), Coord(0, 0), 4)
        network.send(Coord(1, 2), Coord(0, 0), 4)
        with pytest.raises(SimulationStallError) as excinfo:
            network.run_until_idle(max_cycles=6)
        message = str(excinfo.value)
        assert "did not drain within 6 cycles" in message
        # The error carries the buffered-flit total and per-node occupancy.
        assert "flit(s) buffered in routers" in message
        assert "queued for injection" in message
        assert "(2,2)" in message or "(1,2)" in message

    def test_network_stall_error_is_a_runtime_error(self):
        # Backwards compatibility: callers catching RuntimeError keep working.
        assert issubclass(SimulationStallError, RuntimeError)

    @pytest.mark.parametrize("backend", ("cycle", "event"))
    def test_system_completion_timeout_names_unfinished_cores(self, backend):
        system = ManycoreSystem(regular_mesh_config(3), backend=backend)
        system.add_core(Coord(1, 1), operations(50), name="busy-core")
        with pytest.raises(SimulationStallError) as excinfo:
            system.run_to_completion(max_cycles=3)
        message = str(excinfo.value)
        assert "did not complete within 3 cycles" in message
        assert "busy-core" in message
        assert "memory controller" in message

    def test_both_backends_stall_at_the_same_cycle(self):
        results = {}
        for backend in ("cycle", "event"):
            network = Network(regular_mesh_config(3), backend=backend)
            network.send(Coord(2, 2), Coord(0, 0), 4)
            with pytest.raises(SimulationStallError):
                network.run_until_idle(max_cycles=7)
            results[backend] = network.cycle
        assert results["event"] == results["cycle"]

    def test_a_system_no_component_can_wake_stalls_alike(self, monkeypatch):
        """A core whose loads go to a node without a memory controller waits
        for a reply that never comes.  Nothing can act once its load has
        arrived, so the event backend jumps to the end of the budget: it
        raises on the same cycle, with the same message and core counters,
        as the cycle-accurate loop (stepping every cycle up to the budget
        makes 486 event-backend steps here, not 6)."""
        steps = [0]
        step_active = ManycoreSystem.step_active

        def counted(system):
            steps[0] += 1
            step_active(system)

        monkeypatch.setattr(ManycoreSystem, "step_active", counted)
        results = {}
        for backend in ("cycle", "event"):
            system = ManycoreSystem(regular_mesh_config(3), backend=backend)
            node = Coord(2, 2)
            system.cores[node] = Core(
                node, system.network, operations(2), memory_controller=Coord(1, 0), name="orphan"
            )
            with pytest.raises(SimulationStallError) as excinfo:
                system.run_to_completion(max_cycles=500)
            core = system.cores[node]
            results[backend] = (system.cycle, str(excinfo.value), core.stall_cycles)
        assert results["event"] == results["cycle"]
        assert results["cycle"][0] == 501
        assert "orphan" in results["cycle"][1]
        assert steps[0] == 6


# ----------------------------------------------------------------------
# BatchEngine cache behaviour under backend switching (satellite)
# ----------------------------------------------------------------------
class TestEngineCacheBackendSwitching:
    @pytest.fixture
    def counting_experiment(self):
        calls = []

        @experiment(
            "_sim_cache_probe",
            description="throwaway backend-sensitive experiment",
        )
        def run(*, backend: str = "cycle"):
            calls.append(backend)
            return [{"backend": backend, "invocation": len(calls)}]

        try:
            yield calls
        finally:
            registry_module._REGISTRY.pop("_sim_cache_probe", None)

    def test_backend_switch_is_a_cache_miss(self, counting_experiment):
        """Same scenario under a different backend must recompute, never
        serve the other backend's result (here: a duplicate in the batch)."""
        cycle_job = BatchJob("_sim_cache_probe", params={"backend": "cycle"})
        event_job = BatchJob("_sim_cache_probe", params={"backend": "event"})

        first, second, third = BatchEngine().run_many([cycle_job, cycle_job, event_job])

        assert not first.cached and second.cached and not third.cached
        assert counting_experiment == ["cycle", "event"]
        assert config_hash(cycle_job) != config_hash(event_job)
        assert third.result.rows()[0]["backend"] == "event"

    def test_backend_switch_misses_disk_cache_too(self, counting_experiment, tmp_path):
        engine = BatchEngine(store=ResultStore(str(tmp_path)))
        engine.run(BatchJob("_sim_cache_probe", params={"backend": "cycle"}))
        # A fresh engine over the same disk cache: cycle hits, event misses.
        fresh = BatchEngine(store=ResultStore(str(tmp_path)))
        hit = fresh.run(BatchJob("_sim_cache_probe", params={"backend": "cycle"}))
        miss = fresh.run(BatchJob("_sim_cache_probe", params={"backend": "event"}))
        assert hit.cached and not miss.cached
        assert counting_experiment == ["cycle", "event"]

    def test_scenario_configs_hash_differently_per_backend(self):
        cycle_cfg = Scenario.mesh(3).waw_wap().backend("cycle").build()
        event_cfg = Scenario.mesh(3).waw_wap().backend("event").build()
        assert config_hash(
            BatchJob("avgperf", params={"regular_config": cycle_cfg})
        ) != config_hash(BatchJob("avgperf", params={"regular_config": event_cfg}))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLIBackendOption:
    def test_run_forwards_backend_to_simulating_experiments(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "avgperf", "--quick", "--backend", "event", "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert '"backend": "event"' in out

    def test_backend_ignored_for_analytical_experiments_with_note(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "table1", "--backend", "event", "--json", "-"]) == 0
        captured = capsys.readouterr()
        assert '"backend"' not in captured.out
        assert "does not simulate" in captured.err

    def test_sweep_with_backend(self, capsys):
        from repro.experiments.runner import main

        code = main(
            ["sweep", "--experiment", "validation", "--sizes", "2",
             "--quick", "--backend", "event", "--json", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"backend": "event"' in out
