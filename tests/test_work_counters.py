"""Deterministic work counters of fixed simulations, pinned exactly.

Wall-clock ratios cannot run in tier-1, but the work a simulation does can:
each scenario here is small, seeded and fully deterministic, so a change to
allocation order, event jumps or active-set stepping moves at least one
count.  A pinned value may change only with a deliberate change to the
simulated timing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

from repro.api import Scenario
from repro.geometry import Coord
from repro.manycore.system import ManycoreSystem
from repro.noc.network import Network
from repro.noc.router import Router
from repro.workloads.eembc import autobench_suite
from repro.workloads.synthetic import UniformRandomTraffic


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that every call is counted; returns the counter."""
    calls = [0]
    original = owner.__dict__[name]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _faulty_trial() -> Network:
    """4x4 WaW+WaP mesh, event backend, lossy links and HARQ, uniform traffic."""
    config = (
        Scenario.mesh(4)
        .waw_wap()
        .backend("event")
        .fault_model(
            "independent", corrupt_rate=0.0025, loss_rate=0.0025, ack_timeout=128, seed=7
        )
        .build()
    )
    network = Network(config)
    traffic = UniformRandomTraffic(config.mesh, injection_rate=0.1, payload_flits=4, seed=11)
    traffic.drive(network, 200)
    network.run_until_idle()
    return network


class TestFaultyTrialPin:
    def test_trial_statistics_are_pinned(self):
        """Contention, fault draws and retransmissions all feed back into
        the timing, so any change in allocation order shows here."""
        network = _faulty_trial()
        latencies = network.stats.latencies()
        digest = hashlib.sha256(json.dumps(sorted(latencies)).encode()).hexdigest()
        assert network.cycle == 466
        assert network.total_retransmissions() == 76
        assert network.fault_counts() == {"transmitted": 6493, "corrupted": 10, "lost": 16}
        assert sum(r.forwarded_flits for r in network.routers.values()) == 8909
        assert len(latencies) == 329
        assert digest == "6ab3440bf4683623703ad7c05d746e8f5fd415014d4f3d9ba867296503763803"

    def test_finished_network_is_freed_by_reference_counting(self):
        """No reference cycle keeps a drained network alive until a full
        collection."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            network = _faulty_trial()
            ref = weakref.ref(network)
            del network
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestEventBackendWork:
    def test_eembc_suite_work_counts(self, monkeypatch):
        """The 16 Autobench kernels at scale 0.005, each alone at (7,7) of
        the 8x8 WaW+WaP mesh on the event backend (the workload of
        benchmarks/bench_sim_backends.py).

        Stepping every cycle (no event jumps) raises the ``step_active``
        count to the cycle count; stepping idle routers raises the
        ``Router.step`` count.
        """
        config = Scenario.mesh(8).waw_wap().backend("event").build()
        system_steps = _count_calls(monkeypatch, ManycoreSystem, "step_active")
        router_steps = _count_calls(monkeypatch, Router, "step")
        cycles = forwarded = 0
        for profile in autobench_suite():
            system = ManycoreSystem(config)
            system.add_profile_core(Coord(7, 7), profile.scaled(0.005))
            system.run_to_completion()
            cycles += system.cycle
            forwarded += sum(r.forwarded_flits for r in system.network.routers.values())
        assert cycles == 77_721
        assert system_steps[0] == 22_733
        assert router_steps[0] == 43_035
        assert forwarded == 25_740
