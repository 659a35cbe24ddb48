"""The AnalysisBackend registry and the competing flow-aware analyses."""

from __future__ import annotations

import pytest

from repro.analysis import vector
from repro.analysis.backends import (
    AnalysisBackend,
    HolisticAnalysisBackend,
    PaperAnalysisBackend,
    available_analysis_backends,
    make_analysis_backend,
    normalize_analysis_backend_name,
    register_analysis_backend,
)
from repro.analysis.flowaware import (
    FlowAwareWCTTAnalysis,
    HolisticAnalysis,
    TrajectoryAnalysis,
)
from repro.api.engine import BatchEngine
from repro.api.results import unwrap
from repro.api.scenario import Scenario, ScenarioError, sweep
from repro.core import (
    FlowSet,
    UBDTable,
    WeightTable,
    regular_mesh_config,
    waw_wap_config,
)
from repro.core.wctt import zero_load_latency
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.experiments import scenario_wctt
from repro.experiments.runner import main
from repro.geometry import Coord


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_canonical_names(self):
        assert available_analysis_backends() == [
            "holistic",
            "regular",
            "trajectory",
            "weighted",
        ]

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("regular-mesh", "regular"),
            ("waw_wap", "weighted"),
            ("waw-wap", "weighted"),
            ("holistic", "holistic"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert normalize_analysis_backend_name(alias) == canonical

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(ValueError, match="holistic.*trajectory"):
            normalize_analysis_backend_name("bogus")

    def test_vector_names_fail_loudly(self, capsys):
        # The closed-form grids are not a backend: the paths that can use
        # them do so on their own, so neither old name may resolve anywhere.
        known = "known backends: holistic, regular, trajectory, weighted"
        for name in ("vector", "numpy"):
            with pytest.raises(ValueError, match=known):
                make_analysis_backend(name)
        with pytest.raises(ScenarioError, match=known):
            Scenario.mesh(3).analysis("vector")
        with pytest.raises(ValueError, match=known):
            UBDTable(waw_wap_config(3, 3), backend="vector")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "scenario_wctt", "--analysis", "vector"])
        assert exit_info.value.code == 2
        assert known in capsys.readouterr().err

    def test_make_is_singleton_per_name(self):
        assert make_analysis_backend("holistic") is make_analysis_backend("holistic")
        assert isinstance(make_analysis_backend("holistic"), HolisticAnalysisBackend)

    def test_make_passes_instances_through(self):
        backend = HolisticAnalysisBackend()
        assert make_analysis_backend(backend) is backend

    def test_make_rejects_non_names(self):
        with pytest.raises(TypeError, match="AnalysisBackend"):
            make_analysis_backend(42)

    def test_none_resolves_to_paper_dispatch(self):
        backend = make_analysis_backend(None)
        assert isinstance(backend, PaperAnalysisBackend)
        waw = waw_wap_config(3, 3)
        regular = regular_mesh_config(3, 3)
        assert isinstance(backend.analysis(waw), WaWWaPWCTTAnalysis)
        assert backend.wctt_summary(waw) == make_analysis_backend(
            "weighted"
        ).wctt_summary(waw)
        assert backend.wctt_summary(regular) == make_analysis_backend(
            "regular"
        ).wctt_summary(regular)

    def test_register_rejects_abstract_name(self):
        class Nameless(AnalysisBackend):
            pass

        with pytest.raises(ValueError, match="concrete name"):
            register_analysis_backend(Nameless)


# ----------------------------------------------------------------------
# Applicability
# ----------------------------------------------------------------------
class TestSupports:
    def test_regular_refuses_weighted_arbitration(self):
        backend = make_analysis_backend("regular")
        assert backend.supports(regular_mesh_config(3, 3)) is None
        reason = backend.supports(waw_wap_config(3, 3))
        assert reason is not None and "round-robin" in reason

    def test_weighted_requires_waw_wap(self):
        backend = make_analysis_backend("weighted")
        assert backend.supports(waw_wap_config(3, 3)) is None
        assert backend.supports(regular_mesh_config(3, 3)) is not None

    @pytest.mark.parametrize("name", ["holistic", "trajectory"])
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    @pytest.mark.parametrize("topology", ["mesh", "torus", "cmesh"])
    def test_flow_aware_backends_are_generic(self, name, design, topology):
        config = Scenario.mesh(3).design(design).topology(topology).build()
        assert make_analysis_backend(name).supports(config) is None

    def test_require_raises_with_backend_name_and_reason(self):
        with pytest.raises(ValueError, match="'regular' does not apply"):
            make_analysis_backend("regular").require(waw_wap_config(3, 3))

    def test_direct_analysis_calls_also_require(self):
        with pytest.raises(ValueError, match="does not apply"):
            make_analysis_backend("regular").analysis(waw_wap_config(3, 3))

    def test_vector_gate_gives_reasons(self):
        # The paths that use the closed-form grids ask vector_supported
        # first; it refuses what the grids do not model and says why.
        torus = Scenario.mesh(3).waw_wap().topology("torus").build()
        reason = vector.vector_supported(torus)
        assert reason is not None and "wrap-around" in reason
        assert vector.vector_supported(waw_wap_config(3, 3)) is None


WAW_ONLY = Scenario.mesh(3).waw_only()

#: Every path that serves a paper bound without naming a backend.
PAPER_BOUND_PATHS = {
    "paper-analysis": lambda: make_analysis_backend(None).analysis(WAW_ONLY.build()),
    "paper-summary": lambda: make_analysis_backend(None).wctt_summary(WAW_ONLY.build()),
    "scenario_wctt-auto": lambda: scenario_wctt.run(scenario=WAW_ONLY, engine="auto"),
    "scenario_wctt-scalar": lambda: scenario_wctt.run(scenario=WAW_ONLY, engine="scalar"),
    "ubd-table": lambda: UBDTable(WAW_ONLY.build()),
    "vector-summary": lambda: vector.vector_wctt_summary(WAW_ONLY.build()),
}


class TestWaWOnlyRefused:
    """No paper bound covers weighted arbitration without WaP: the regular
    bound assumes round-robin arbitration, and a simulated latency exceeds
    it (tests/regressions/test_waw_only.py).  Every path refuses with the
    registry's reason."""

    @pytest.mark.parametrize("path", PAPER_BOUND_PATHS.values(), ids=PAPER_BOUND_PATHS)
    def test_every_paper_bound_path_refuses(self, path):
        with pytest.raises(ValueError, match="assumes round-robin arbitration"):
            path()

    def test_batch_engine_fails_only_the_waw_only_point(self):
        jobs = [WAW_ONLY.as_job("scenario_wctt"), WAW_ONLY.waw_wap().as_job("scenario_wctt")]
        refused, served = BatchEngine().run_many(jobs)
        assert not refused.ok and "assumes round-robin arbitration" in refused.error
        assert served.ok and served.result.rows()[0]["design"] == "WaW+WaP"


# ----------------------------------------------------------------------
# The competing flow-aware analyses
# ----------------------------------------------------------------------
class TestFlowAwareAnalyses:
    def _sparse_flows(self, config, dst):
        mesh = config.mesh
        sources = [
            node
            for node in mesh.nodes()
            if node != dst and (node.x + node.y) % 2 == 0
        ]
        return FlowSet.from_pairs(mesh, [(src, dst) for src in sources])

    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_sparser_flow_sets_never_raise_the_bound(self, design):
        config = Scenario.mesh(4).design(design).build()
        dst = config.memory_controller
        full = FlowSet.all_to_one(config.mesh, dst)
        sparse = self._sparse_flows(config, dst)
        victim = Coord(2, 2)
        assert Coord(2, 2) in [f.source for f in sparse]
        for cls in (HolisticAnalysis, TrajectoryAnalysis):
            weights = (
                WeightTable.from_flow_set(full) if config.is_waw else None
            )
            dense_bound = cls(config, full, weight_table=weights).wctt_packet(
                victim, dst
            )
            sparse_bound = cls(config, sparse, weight_table=weights).wctt_packet(
                victim, dst
            )
            assert sparse_bound <= dense_bound, cls.__name__

    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_trajectory_dominates_holistic(self, design):
        config = Scenario.mesh(4).design(design).build()
        dst = config.memory_controller
        for flows in (
            FlowSet.all_to_one(config.mesh, dst),
            self._sparse_flows(config, dst),
        ):
            holistic = HolisticAnalysis(config, flows)
            trajectory = TrajectoryAnalysis(config, flows)
            for flow in flows:
                assert trajectory.wctt_packet(
                    flow.source, flow.destination
                ) >= holistic.wctt_packet(flow.source, flow.destination)

    def test_holistic_full_workload_matches_unregulated_weighted(self):
        # On the full all-to-one workload every input is active with its full
        # credit share, so the flow-aware round equals the weighted bound's
        # round and the local models coincide exactly.
        config = waw_wap_config(4, 4)
        dst = config.memory_controller
        flows = FlowSet.all_to_one(config.mesh, dst)
        weights = WeightTable.from_flow_set(flows)
        holistic = HolisticAnalysis(config, flows, weight_table=weights)
        weighted = WaWWaPWCTTAnalysis(config, weights, regulated_contenders=False)
        for flow in flows:
            assert holistic.wctt_packet(flow.source, dst) == weighted.wctt_packet(
                flow.source, dst
            )

    def test_bounds_exceed_zero_load_latency(self):
        for design in ("regular", "waw_wap"):
            config = Scenario.mesh(3).design(design).build()
            dst = config.memory_controller
            for cls in (HolisticAnalysis, TrajectoryAnalysis):
                analysis = cls(config)
                for node in config.mesh.nodes():
                    if node == dst:
                        continue
                    assert analysis.wctt_packet(node, dst) >= zero_load_latency(
                        config, node, dst
                    )

    def test_topology_generic_on_torus_and_cmesh(self):
        for topology in ("torus", "cmesh"):
            config = Scenario.mesh(3).regular().topology(topology).build()
            analysis = HolisticAnalysis(config)
            dst = config.memory_controller
            victim = Coord(2, 2)
            assert analysis.wctt_packet(victim, dst) >= zero_load_latency(
                config, victim, dst
            )

    def test_flows_outside_the_set_are_refused(self):
        config = regular_mesh_config(3, 3)
        dst = config.memory_controller
        analysis = HolisticAnalysis(config, self._sparse_flows(config, dst))
        with pytest.raises(ValueError, match="not part of the interfering"):
            analysis.wctt_packet(Coord(1, 0), dst)  # (1+0) % 2 != 0

    def test_empty_flow_set_is_refused(self):
        config = regular_mesh_config(3, 3)
        with pytest.raises(ValueError, match="non-empty"):
            HolisticAnalysis(config, FlowSet.from_pairs(config.mesh, []))

    def test_message_bound_is_slices_times_packet_bound(self):
        config = waw_wap_config(3, 3)
        analysis = HolisticAnalysis(config)
        dst = config.memory_controller
        victim = Coord(2, 2)
        packet = analysis.wctt_packet(victim, dst)
        assert analysis.wctt_message(victim, dst, payload_flits=1) == packet
        slices = config.messages.wap_packets_for_payload_bits(
            4 * config.messages.link_width_bits - config.messages.control_bits
        )
        assert analysis.wctt_message(victim, dst, payload_flits=4) == slices * packet


# ----------------------------------------------------------------------
# Wiring: Scenario / scenario_wctt / UBDTable
# ----------------------------------------------------------------------
class TestWiring:
    def test_scenario_analysis_round_trip(self):
        scenario = Scenario.mesh(3).waw_wap().analysis("holistic")
        assert scenario.settings["analysis"] == "holistic"
        assert scenario.label().endswith("-holistic")
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt.settings == scenario.settings

    def test_scenario_analysis_resolves_aliases_and_rejects_unknowns(self):
        assert Scenario.mesh(3).analysis("waw-wap").settings["analysis"] == "weighted"
        assert "analysis" not in Scenario.mesh(3).analysis(None).settings
        with pytest.raises(ScenarioError, match="known backends"):
            Scenario.mesh(3).analysis("bogus")

    def test_sweep_axis_spans_backends(self):
        grid = sweep(Scenario.mesh(3).waw_wap(), analysis=("holistic", "trajectory"))
        assert [s.settings["analysis"] for s in grid] == ["holistic", "trajectory"]

    def test_scenario_wctt_run_uses_the_backend(self):
        scenario = Scenario.mesh(3).waw_wap()
        rows = unwrap(scenario_wctt.run(scenario=scenario, analysis="holistic"))
        assert len(rows) == 1
        row = rows[0]
        assert row.label.endswith("-holistic")
        summary = make_analysis_backend("holistic").wctt_summary(scenario.build())
        assert row.wctt_max == summary.maximum

    def test_scenario_wctt_default_path_is_unchanged(self):
        scenario = Scenario.mesh(3).waw_wap()
        default = unwrap(scenario_wctt.run(scenario=scenario))
        weighted = unwrap(scenario_wctt.run(scenario=scenario, analysis="weighted"))
        assert default[0].wctt_max == weighted[0].wctt_max
        assert not default[0].label.endswith("-weighted")

    def test_scenario_wctt_rejects_inapplicable_backend(self):
        with pytest.raises(ValueError, match="does not apply"):
            scenario_wctt.run(scenario=Scenario.mesh(3).regular(), analysis="weighted")

    def test_ubd_table_backend_selection(self):
        config = waw_wap_config(3, 3)
        default = UBDTable(config)
        assert UBDTable(config, backend="weighted").as_dict() == default.as_dict()
        # The flow-aware backends fill the same cores; their burst-safe
        # bounds need not match the paper's regulated headline numbers, but
        # the holistic bound never exceeds the trajectory bound.
        holistic = UBDTable(config, backend="holistic")
        trajectory = UBDTable(config, backend="trajectory")
        assert set(holistic.cores()) == set(default.cores())
        for core in holistic.cores():
            assert 0 < holistic.load_ubd(core) <= trajectory.load_ubd(core)

    def test_ubd_table_rejects_backend_and_analysis_together(self):
        config = waw_wap_config(3, 3)
        with pytest.raises(ValueError, match="not both"):
            UBDTable(
                config,
                backend="holistic",
                analysis=make_analysis_backend(None).analysis(config),
            )
