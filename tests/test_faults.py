"""Tests of the fault models and the NIC-level HARQ reliability protocol."""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioError, sweep
from repro.faults import (
    FaultModel,
    GilbertElliottFaults,
    IndependentFaults,
    MessageDeliveryError,
    ReliabilityConfig,
    make_fault_model,
)
from repro.faults.models import CORRUPT, LOST, _link_stream
from repro.geometry import Coord, Port
from repro.noc.network import Network
from repro.sim import SimulationStallError


# ----------------------------------------------------------------------
# Specification layer
# ----------------------------------------------------------------------
class TestSpecs:
    def test_independent_rates_validated(self):
        with pytest.raises(ValueError):
            IndependentFaults(corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            IndependentFaults(loss_rate=1.5)
        with pytest.raises(ValueError):
            IndependentFaults(corrupt_rate=0.6, loss_rate=0.6)

    def test_gilbert_rates_validated(self):
        with pytest.raises(ValueError):
            GilbertElliottFaults(bad_corrupt_rate=0.7, bad_loss_rate=0.7)
        with pytest.raises(ValueError):
            GilbertElliottFaults(good_to_bad=2.0)

    def test_null_detection(self):
        assert IndependentFaults().is_null
        assert not IndependentFaults(corrupt_rate=0.01).is_null
        assert not IndependentFaults(loss_rate=0.01).is_null
        # The bad state is unreachable when good_to_bad is 0.
        assert GilbertElliottFaults(good_to_bad=0.0).is_null
        assert not GilbertElliottFaults().is_null
        assert GilbertElliottFaults(bad_corrupt_rate=0.0, bad_loss_rate=0.0).is_null

    def test_reliability_config_validated(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(ack_timeout=0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)

    def test_retry_timeout_backs_off_exponentially(self):
        reliability = ReliabilityConfig(ack_timeout=100, backoff=2.0, max_retries=3)
        assert [reliability.retry_timeout(a) for a in (1, 2, 3, 4)] == [100, 200, 400, 800]
        assert reliability.worst_case_wait() == 1500
        assert reliability.max_attempts == 4

    def test_with_seed_preserves_everything_else(self):
        spec = IndependentFaults(corrupt_rate=0.1, seed=1)
        reseeded = spec.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.corrupt_rate == 0.1


class TestFactory:
    def test_none_passthrough(self):
        assert make_fault_model(None) is None
        with pytest.raises(ValueError):
            make_fault_model(None, corrupt_rate=0.1)

    def test_instance_passthrough(self):
        spec = IndependentFaults(loss_rate=0.2)
        assert make_fault_model(spec) is spec
        with pytest.raises(ValueError):
            make_fault_model(spec, seed=3)

    def test_kind_name_with_parameters(self):
        spec = make_fault_model("independent", corrupt_rate=0.1, seed=9)
        assert isinstance(spec, IndependentFaults)
        assert spec.corrupt_rate == 0.1 and spec.seed == 9

    def test_mapping_form(self):
        spec = make_fault_model({"kind": "gilbert", "bad_loss_rate": 0.2})
        assert isinstance(spec, GilbertElliottFaults)
        assert spec.bad_loss_rate == 0.2

    def test_flat_reliability_keywords_fold_into_config(self):
        spec = make_fault_model("independent", loss_rate=0.1, ack_timeout=64,
                                backoff=3.0, max_retries=2)
        assert spec.reliability == ReliabilityConfig(ack_timeout=64, backoff=3.0,
                                                     max_retries=2)

    def test_unknown_kind_and_parameter_rejected(self):
        with pytest.raises(ValueError, match="known kinds"):
            make_fault_model("cosmic-rays")
        with pytest.raises(ValueError, match="known parameters"):
            make_fault_model("independent", burst_length=5)
        with pytest.raises(ValueError, match="'kind' entry"):
            make_fault_model({"loss_rate": 0.1})


# ----------------------------------------------------------------------
# Per-link streams
# ----------------------------------------------------------------------
class TestInjectorStreams:
    def _draws(self, spec: FaultModel, coord: Coord, port: Port, n: int):
        state = spec._make_link_state(
            _link_stream(spec.seed, f"{coord.x},{coord.y}:{port.value}")
        )
        return [state.draw() for _ in range(n)]

    def test_same_seed_same_link_reproduces(self):
        spec = IndependentFaults(corrupt_rate=0.2, loss_rate=0.2, seed=3)
        a = self._draws(spec, Coord(1, 2), Port.XPLUS, 200)
        b = self._draws(spec, Coord(1, 2), Port.XPLUS, 200)
        assert a == b
        assert CORRUPT in a and LOST in a

    def test_different_links_are_independent_streams(self):
        spec = IndependentFaults(corrupt_rate=0.3, loss_rate=0.3, seed=3)
        east = self._draws(spec, Coord(1, 2), Port.XPLUS, 200)
        west = self._draws(spec, Coord(1, 2), Port.XMINUS, 200)
        other = self._draws(spec, Coord(2, 2), Port.XPLUS, 200)
        assert east != west and east != other

    def test_different_seeds_differ(self):
        a = self._draws(IndependentFaults(corrupt_rate=0.3, seed=1), Coord(0, 0), Port.XPLUS, 100)
        b = self._draws(IndependentFaults(corrupt_rate=0.3, seed=2), Coord(0, 0), Port.XPLUS, 100)
        assert a != b

    def test_gilbert_bursts_cluster(self):
        """In a pure burst model every fault lies inside a bad-state run."""
        spec = GilbertElliottFaults(
            good_corrupt_rate=0.0, good_loss_rate=0.0,
            bad_corrupt_rate=0.9, bad_loss_rate=0.05,
            good_to_bad=0.05, bad_to_good=0.2, seed=7,
        )
        draws = self._draws(spec, Coord(0, 0), Port.XPLUS, 2000)
        faults = [i for i, d in enumerate(draws) if d is not None]
        assert faults, "expected some faults in 2000 draws"
        # Consecutive faults must be much closer together than the ~1/0.05
        # spacing independent faults at the same average rate would show.
        gaps = [b - a for a, b in zip(faults, faults[1:])]
        assert min(gaps) == 1, "burst model never produced back-to-back faults"


# ----------------------------------------------------------------------
# End-to-end protocol behaviour
# ----------------------------------------------------------------------
def _faulty_network(backend="cycle", **model_params) -> Network:
    defaults = {"corrupt_rate": 0.02, "loss_rate": 0.01, "seed": 7, "ack_timeout": 64}
    defaults.update(model_params)
    config = (
        Scenario.mesh(3)
        .waw_wap()
        .fault_model("independent", **defaults)
        .backend(backend)
        .build()
    )
    return Network(config)


class TestProtocol:
    def test_exactly_once_delivery_despite_retransmissions(self):
        network = _faulty_network()
        sent = []
        for _ in range(10):
            sent.append(network.send(Coord(2, 2), Coord(0, 0), 4, kind="data"))
            sent.append(network.send(Coord(1, 2), Coord(0, 0), 4, kind="data"))
        network.run_until_idle(max_cycles=500_000)
        assert network.stats.completed_messages == len(sent)
        assert network.total_retransmissions() > 0, "fault rates too low to exercise HARQ"
        delivered = [m.message_id for m in network.stats.messages]
        assert len(delivered) == len(set(delivered)), "a message was delivered twice"
        for message in sent:
            assert message.completion_cycle is not None
            assert message.sequence is not None

    def test_sequence_numbers_are_per_nic_and_consecutive(self):
        network = _faulty_network()
        a = [network.send(Coord(2, 2), Coord(0, 0), 1) for _ in range(3)]
        b = [network.send(Coord(0, 2), Coord(2, 0), 1) for _ in range(2)]
        assert [m.sequence for m in a] == [0, 1, 2]
        assert [m.sequence for m in b] == [0, 1]

    def test_control_traffic_invisible_to_listeners_and_stats(self):
        network = _faulty_network()
        seen = []
        network.add_listener(Coord(2, 2), lambda message, cycle: seen.append(message))
        network.send(Coord(2, 2), Coord(0, 0), 4, kind="data")
        network.run_until_idle(max_cycles=500_000)
        # The ACK arrived at (2,2)'s NIC but never surfaced as a message.
        assert seen == []
        assert all(m.kind == "data" for m in network.stats.messages)
        assert sum(n.control_messages_sent for n in network.nics.values()) > 0

    def test_max_retry_exhaustion_raises_descriptive_error(self):
        network = _faulty_network(loss_rate=1.0, corrupt_rate=0.0, max_retries=2,
                                  ack_timeout=32)
        message = network.send(Coord(2, 2), Coord(0, 0), 4, kind="data")
        with pytest.raises(MessageDeliveryError) as excinfo:
            network.run_until_idle(max_cycles=500_000)
        text = str(excinfo.value)
        assert f"message {message.message_id}" in text
        assert "seq 0" in text
        assert "(2,2)" in text and "(0,0)" in text
        assert "3 attempts" in text and "2 retransmissions" in text

    def test_reliable_network_has_no_harq_state(self):
        config = Scenario.mesh(3).waw_wap().build()
        network = Network(config)
        message = network.send(Coord(2, 2), Coord(0, 0), 4)
        network.run_until_idle()
        assert message.sequence is None
        assert network.total_retransmissions() == 0
        assert network.fault_counts() == {"transmitted": 0, "corrupted": 0, "lost": 0}


# ----------------------------------------------------------------------
# Stall diagnostics and drain-budget validation (satellite 2)
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_stall_error_reports_pending_retransmit_state(self):
        # A NIC with an unacknowledged message in flight: the drain-budget
        # validation guarantees a bounded run ends in MessageDeliveryError
        # rather than a stall, so exercise the diagnostic builder directly
        # on a network frozen mid-protocol.
        from repro.sim.backend import network_stall_error

        network = _faulty_network(loss_rate=1.0, corrupt_rate=0.0,
                                  ack_timeout=64, max_retries=8)
        network.send(Coord(2, 2), Coord(0, 0), 4, kind="data")
        for _ in range(100):
            network.step()
        error = network_stall_error(network, 100)
        text = str(error)
        assert "retransmit state" in text
        assert "1 message(s) awaiting ACK" in text
        assert "(2,2): 1 pending ACK(s)" in text
        assert "next retransmit at cycle" in text

    def test_stall_error_without_faults_has_no_reliability_note(self):
        # A ring saturated by staggered all-to-all waves genuinely
        # deadlocks (see test_differential); reuse a simpler guaranteed
        # stall: an undersized budget on a healthy run.
        config = Scenario.mesh(3).waw_wap().build()
        network = Network(config)
        network.send(Coord(2, 2), Coord(0, 0), 4)
        with pytest.raises(SimulationStallError) as excinfo:
            network.run_until_idle(max_cycles=3)
        assert "retransmit state" not in str(excinfo.value)

    def test_drain_budget_must_exceed_retransmission_window(self):
        reliability = ReliabilityConfig(ack_timeout=256, backoff=2.0, max_retries=8)
        window = reliability.worst_case_wait()
        network = _faulty_network(ack_timeout=256, max_retries=8)
        network.send(Coord(2, 2), Coord(0, 0), 4)
        with pytest.raises(ValueError, match="drain timeout"):
            network.run_until_idle(max_cycles=window)
        # One cycle beyond the window is accepted.
        network.run_until_idle(max_cycles=window + 1)

    def test_system_run_validates_drain_budget(self):
        from repro.manycore.system import ManycoreSystem
        from repro.workloads.eembc import autobench_profile

        config = (
            Scenario.mesh(3)
            .waw_wap()
            .fault_model("independent", loss_rate=0.01, ack_timeout=1000,
                         max_retries=10)
            .build()
        )
        system = ManycoreSystem(config)
        system.add_profile_core(Coord(2, 2), autobench_profile("matrix").scaled(0.001))
        with pytest.raises(ValueError, match="retransmission window"):
            system.run_to_completion(max_cycles=100_000)


# ----------------------------------------------------------------------
# Scenario / config integration
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    def test_fault_model_in_label_and_build(self):
        scenario = Scenario.mesh(3).waw_wap().fault_model("independent",
                                                          loss_rate=0.1, seed=4)
        assert "faults-independent-s4" in scenario.label()
        config = scenario.build()
        assert isinstance(config.fault_model, IndependentFaults)
        assert config.fault_model.loss_rate == 0.1

    def test_fault_model_none_removes_it(self):
        scenario = Scenario.mesh(3).fault_model("gilbert").fault_model(None)
        assert scenario.build().fault_model is None
        assert "faults" not in scenario.label()

    def test_invalid_model_is_a_scenario_error(self):
        with pytest.raises(ScenarioError):
            Scenario.mesh(3).fault_model("bit-rot")
        with pytest.raises(ScenarioError):
            Scenario.mesh(3).fault_model("independent", loss_rate=2.0)

    def test_fault_model_sweep_axis(self):
        points = sweep(
            Scenario.mesh(3),
            fault_model=(None, {"kind": "independent", "loss_rate": 0.01}, "gilbert"),
        )
        models = [p.build().fault_model for p in points]
        assert models[0] is None
        assert isinstance(models[1], IndependentFaults)
        assert isinstance(models[2], GilbertElliottFaults)

    def test_config_rejects_non_spec_fault_model(self):
        from repro.core.config import regular_mesh_config
        import dataclasses

        config = regular_mesh_config(3)
        with pytest.raises(ValueError, match="fault_model"):
            dataclasses.replace(config, fault_model="independent")

    def test_with_fault_model_round_trip(self):
        from repro.core.config import waw_wap_config

        config = waw_wap_config(3).with_fault_model("independent", loss_rate=0.05)
        assert config.fault_model.loss_rate == 0.05
        assert config.with_fault_model(None).fault_model is None
