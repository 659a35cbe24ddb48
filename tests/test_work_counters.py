"""Deterministic work counters of fixed simulations and analyses, pinned.

Wall-clock ratios cannot run in tier-1, but the work a simulation does can:
each scenario here is small, seeded and fully deterministic, so a change to
allocation order, event jumps or active-set stepping moves at least one
count.  A pinned value may change only with a deliberate change to the
simulated timing.  The same holds for the WCTT analysis: which path a design
point takes shows in call counts, not in its (bit-identical) bounds, and
the result store's reads and writes show in its counters and its files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

import pytest

from repro.analysis import vector
from repro.analysis.backends import AnalysisBackend
from repro.api import BatchEngine, Scenario, sweep, sweep_jobs
from repro.core.arbitration import Arbiter, WeightedRoundRobinArbiter
from repro.core.wctt_regular import RegularMeshWCTTAnalysis
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.experiments import scenario_wctt
from repro.faults.models import LinkFaultInjector
from repro.geometry import Coord, Mesh
from repro.manycore.system import ManycoreSystem
from repro.noc.network import Network
from repro.noc.nic import NIC
from repro.noc.router import Router
from repro.service import ResultStore
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

    def test_timer_scans_and_link_traversals(self, monkeypatch):
        """A NIC rescans its ACK timers only once the earliest deadline can
        have passed (scanning on every step with a pending message makes
        6318 scans here).  Each link traversal is one ``transmit`` call,
        which is how the traced benchmark counts fault draws."""
        scans = _count_calls(monkeypatch, NIC, "_service_timers")
        transmits = _count_calls(monkeypatch, LinkFaultInjector, "transmit")
        network = _faulty_trial()
        assert scans[0] == 141
        assert transmits[0] == network.fault_counts()["transmitted"] == 6493

    def test_arbiters_work_only_where_state_changes(self, monkeypatch):
        """A lone WaW requester wins without a ``pick`` call (its flit count
        stays unaltered), so every call arbitrates between two or more heads
        (calling it for every grant makes 8909 calls here).  A quiet router
        refills only the WaW arbiters whose counters differ from their
        weights (409 ``idle_cycles`` calls when it refills every arbiter)."""
        pick = WeightedRoundRobinArbiter.pick
        requesters = []

        def counted(self, positions):
            requesters.append(len(positions))
            return pick(self, positions)

        monkeypatch.setattr(WeightedRoundRobinArbiter, "pick", counted)
        refills = _count_calls(monkeypatch, WeightedRoundRobinArbiter, "idle_cycles")
        _faulty_trial()
        assert len(requesters) == 1922
        assert min(requesters) >= 2
        assert refills[0] == 4

    def test_busy_routers_are_pruned_by_their_flit_count(self, monkeypatch):
        """The end of a cycle prunes the busy routers that stepped by reading
        their flit count, on the traffic loop's ``step`` and on the drain's
        ``step_active`` alike, and the drain asks ``is_idle`` once, when no
        activity is left (pruning through ``has_work`` and asking ``is_idle``
        on every drain iteration makes 7,008 ``has_work`` calls here)."""
        has_work = _count_calls(monkeypatch, Router, "has_work")
        _faulty_trial()
        assert has_work[0] == 0

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
        the 8x8 WaW+WaP mesh on the event backend (perfbench's
        ``eembc_sim`` workload).

        Stepping every cycle (no event jumps) raises the ``step_active``
        count to the cycle count; stepping idle routers raises the
        ``Router.step`` count.  A lone kernel never contends, so no WaW
        arbiter is picked (one call per grant makes 25,740) or leaves its
        weights, and none is refilled (refilling every arbiter of a router
        that goes quiet makes 49,417 ``idle_cycles`` calls).  The loop asks
        ``is_complete`` once per run, when the activity probe finds nothing
        left (asking it on every iteration makes 27,544 calls), and the busy
        routers are pruned by their flit count (asking each one
        ``has_work`` after every stepped cycle makes 52,828 calls).
        """
        config = Scenario.mesh(8).waw_wap().backend("event").build()
        system_steps = _count_calls(monkeypatch, ManycoreSystem, "step_active")
        completion_checks = _count_calls(monkeypatch, ManycoreSystem, "is_complete")
        router_steps = _count_calls(monkeypatch, Router, "step")
        has_work = _count_calls(monkeypatch, Router, "has_work")
        picks = _count_calls(monkeypatch, WeightedRoundRobinArbiter, "pick")
        refills = _count_calls(monkeypatch, WeightedRoundRobinArbiter, "idle_cycles")
        cycles = forwarded = 0
        for profile in autobench_suite():
            system = ManycoreSystem(config)
            system.add_profile_core(Coord(7, 7), profile.scaled(0.005))
            system.run_to_completion()
            cycles += system.cycle
            forwarded += sum(r.forwarded_flits for r in system.network.routers.values())
        assert cycles == 77_721
        assert system_steps[0] == 22_733
        assert completion_checks[0] == 16
        assert router_steps[0] == 43_035
        assert has_work[0] == 0
        assert forwarded == 25_740
        assert (picks[0], refills[0]) == (0, 0)


class TestNetworkBuildWork:
    @pytest.mark.parametrize("design", ["waw_wap", "regular"])
    def test_repeated_build_does_not_query_the_topology(self, monkeypatch, design):
        """A second ``Network`` of a configuration takes its ports,
        contenders, wiring and default weights from per-topology tables, so
        it asks the topology for no link (re-deriving them costs 320
        ``downstream`` and 1472 ``upstream`` calls on the 8x8 WaW+WaP mesh,
        320 and 320 on the regular one)."""
        config = getattr(Scenario.mesh(8), design)().build()
        Network(config)
        downstream = _count_calls(monkeypatch, Mesh, "downstream")
        upstream = _count_calls(monkeypatch, Mesh, "upstream")
        Network(config)
        assert (downstream[0], upstream[0]) == (0, 0)

    def test_build_makes_no_arbiter_until_a_flit_arrives(self, monkeypatch):
        """A router builds its arbiters when its first flit arrives, so a
        fresh 8x8 WaW+WaP network builds none (288 when built up front) and
        a lone message builds only those of the 15 routers on its path."""
        config = Scenario.mesh(8).waw_wap().backend("event").build()
        arbiters = _count_calls(monkeypatch, Arbiter, "__init__")
        network = Network(config)
        assert arbiters[0] == 0
        network.send(Coord(7, 7), Coord(0, 0), 4)
        network.run_until_idle()
        built = [router for router in network.routers.values() if router._plan is not None]
        assert len(built) == 15
        assert arbiters[0] == sum(len(router.arbiters) for router in built)


#: The benchmark's 1176-point design grid (``SWEEP_GRID`` in perfbench/workloads.py).
SWEEP_GRID = dict(
    mesh=[(w, h) for w in range(6, 13) for h in range(6, 13)],
    design=("regular", "waw_wap"),
    buffer_depth=(1, 2, 4),
    max_packet_flits=(2, 4),
    memory_controller=[(0, 0), (1, 1)],
)


class TestDefaultPathVectorizes:
    """Both analysis paths give bit-identical bounds, so no golden can see a
    design point fall back to the scalar path (~140x slower on this grid);
    the calls it makes show it."""

    def _points(self):
        grid = sweep(Scenario.mesh(4), **SWEEP_GRID)
        assert len(grid) == 1176
        # 49 is coprime with the 24 combinations of the last four axes, so
        # the slice holds each combination once, on 24 different meshes.
        return grid[::49]

    def _scalar_calls(self, monkeypatch):
        return [
            _count_calls(monkeypatch, analysis, "wctt_packet")
            for analysis in (RegularMeshWCTTAnalysis, WaWWaPWCTTAnalysis)
        ]

    def test_scenario_wctt_runs_one_vector_summary_per_point(self, monkeypatch):
        points = self._points()
        scalar = self._scalar_calls(monkeypatch)
        summaries = _count_calls(monkeypatch, vector, "vector_wctt_summary")
        for scenario in points:
            scenario_wctt.run(scenario=scenario)
        assert [calls[0] for calls in scalar] == [0, 0]
        assert summaries[0] == len(points)

    def test_each_point_is_checked_once(self, monkeypatch):
        points = self._points()
        required = _count_calls(monkeypatch, AnalysisBackend, "require")
        supported = _count_calls(monkeypatch, vector, "vector_supported")
        for scenario in points:
            scenario_wctt.run(scenario=scenario)
        assert (required[0], supported[0]) == (len(points), len(points))


class TestStoreWork:
    """A design point is one row of the store's database: a cold grid run
    writes one per point into a fixed set of files, a warm one reads them."""

    def test_cold_then_warm_grid(self, tmp_path):
        jobs = sweep_jobs(Scenario.mesh(4), **SWEEP_GRID)[::49]
        assert len(jobs) == 24
        one = ResultStore(str(tmp_path / "one"))
        BatchEngine(store=one).run_many(jobs[:1])
        cold = ResultStore(str(tmp_path / "grid"))
        BatchEngine(store=cold).run_many(jobs)
        assert (cold.writes, cold.misses, cold.hits) == (24, 24, 0)
        files = sorted(path.name for path in (tmp_path / "grid").iterdir())
        assert files == sorted(path.name for path in (tmp_path / "one").iterdir())

        warm = ResultStore(cold.root)
        BatchEngine(store=warm).run_many(jobs)
        assert (warm.writes, warm.misses, warm.hits) == (0, 0, 24)
