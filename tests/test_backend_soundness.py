"""Soundness of every registered analysis backend against simulation.

Hypothesis draws random design points, victim flows and (possibly sparse)
interfering workloads; for each one the cycle-accurate simulator runs the
most adversarial congestion it can express and every backend that declares
itself applicable must bound the worst observed probe traversal.

The second half checks the blind-analysis discipline of the
``bound_comparison`` experiment (the STAR isobar methodology,
arXiv:1911.00596): the held-out subset -- the campaigns' smallest-content-ID
rule -- is simulated *before* the full grid, an unsound backend aborts the
run with ``HoldoutViolation`` without the comparison numbers ever being
computed, and reordering the grid axes does not change what is held out.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.analysis.backends import (
    AnalysisBackend,
    available_analysis_backends,
    make_analysis_backend,
)
from repro.campaign import HoldoutViolation
from repro.core import FlowSet, WeightTable, regular_mesh_config, waw_wap_config
from repro.experiments import bound_comparison
from repro.geometry import Coord
from repro.noc.network import Network
from repro.workloads.synthetic import AdversarialCongestionTraffic

CONFIG_FNS = {"regular": regular_mesh_config, "waw_wap": waw_wap_config}


@st.composite
def design_points(draw):
    """(config, victim, background sources or None) of one random scenario."""
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=2, max_value=4))
    design = draw(st.sampled_from(sorted(CONFIG_FNS)))
    config = CONFIG_FNS[design](width, height)
    dst = config.memory_controller
    sources = [n for n in config.mesh.nodes() if n != dst]
    victim = draw(st.sampled_from(sources))
    if draw(st.booleans()):
        background = None  # full adversarial workload
    else:
        picked = draw(st.sets(st.sampled_from(sources), max_size=len(sources)))
        background = sorted(picked | {victim})
    return config, victim, background


def _observed_worst(config, victim, background, *, weights, cycles=400):
    network = Network(config, weight_table=weights)
    traffic = AdversarialCongestionTraffic(
        mesh=config.mesh,
        victim_source=victim,
        victim_destination=config.memory_controller,
        background_sources=background,
    )
    return traffic.worst_probe_latency(network, cycles)


class TestRandomizedSoundness:
    @settings(max_examples=12, deadline=None)
    @given(point=design_points())
    def test_every_applicable_backend_bounds_the_simulation(self, point):
        config, victim, background = point
        dst = config.memory_controller
        weights = (
            WeightTable.from_flow_set(FlowSet.all_to_one(config.mesh, dst))
            if config.is_waw
            else None
        )
        observed = _observed_worst(config, victim, background, weights=weights)
        checked = 0
        for name in available_analysis_backends():
            backend = make_analysis_backend(name)
            if backend.supports(config) is not None:
                continue
            bound = backend.validation_bound(
                config, victim, dst, weight_table=weights
            )
            assert bound >= observed, (
                f"backend {name!r} bound {bound} < observed {observed} for "
                f"{config.describe()}, flow {victim}->{dst}, "
                f"background {background}"
            )
            checked += 1
        assert checked >= 2  # paper bound + both flow-aware lenses at least


class _UnsoundBackend(AnalysisBackend):
    """Deliberately broken: bounds everything by one cycle."""

    name = "unsound-test-backend"
    description = "test double"

    def validation_analysis(self, config, **kwargs):
        class _One:
            @staticmethod
            def wctt_packet(source, destination, *, packet_flits=None):
                return 1

            @staticmethod
            def wctt_message(source, destination, *, payload_flits):
                return 1

        return _One()


def _expected_holdout(specs):
    """The held-out specs: the ceil(n/3) smallest SHA-256 digests of each
    spec's canonical JSON (version-independent), kept in grid order."""
    ids = [
        hashlib.sha256(
            json.dumps(spec, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        for spec in specs
    ]
    held_out = set(sorted(ids)[: math.ceil(len(specs) / 3)])
    return [spec for spec, spec_id in zip(specs, ids) if spec_id in held_out]


class TestBlindAnalysisDiscipline:
    def test_holdout_is_simulated_before_the_full_grid(self, monkeypatch):
        evaluated = []
        real = bound_comparison._evaluate_job

        def tracking(job):
            evaluated.append(job)
            return real(job)

        monkeypatch.setattr(bound_comparison, "_evaluate_job", tracking)
        bound_comparison.run(
            mesh_sizes=(2,),
            topologies=("mesh",),
            designs=("regular",),
            workloads=("full",),
            payload_sizes=(1,),
            congestion_cycles=300,
        )
        specs = bound_comparison._grid_jobs(
            (2,), ("mesh",), ("regular",), ("full",), (1,), 300
        )
        holdout = _expected_holdout(specs)
        assert len(holdout) == math.ceil(len(specs) / 3)
        assert evaluated[: len(holdout)] == holdout
        assert sorted(map(repr, evaluated)) == sorted(map(repr, specs))

    def test_unsound_backend_aborts_before_the_comparison(self, monkeypatch):
        from repro.analysis import backends as backends_module

        monkeypatch.setitem(
            backends_module._REGISTRY, _UnsoundBackend.name, _UnsoundBackend
        )
        monkeypatch.setitem(
            bound_comparison.DESIGN_BACKENDS,
            "regular",
            ("regular", _UnsoundBackend.name),
        )
        evaluated = []
        real = bound_comparison._evaluate_job

        def tracking(job):
            evaluated.append(job)
            return real(job)

        monkeypatch.setattr(bound_comparison, "_evaluate_job", tracking)
        try:
            with pytest.raises(
                HoldoutViolation,
                match="^bound_comparison: held-out validation failed, refusing "
                "to unblind the full result set: unsound-test-backend: bound 1 <",
            ):
                bound_comparison.run(
                    mesh_sizes=(3,),
                    topologies=("mesh",),
                    designs=("regular",),
                    workloads=("full",),
                    payload_sizes=(1,),
                    congestion_cycles=300,
                )
        finally:
            backends_module._INSTANCES.pop(_UnsoundBackend.name, None)
        specs = bound_comparison._grid_jobs(
            (3,), ("mesh",), ("regular",), ("full",), (1,), 300
        )
        # The full grid never ran: only the ceil(n/3) held-out specs did.
        assert evaluated == _expected_holdout(specs)
        assert len(evaluated) == math.ceil(len(specs) / 3)

    def test_reordering_the_grid_axes_cannot_steer_the_holdout(self):
        def held_out(mesh_sizes, designs):
            rows = bound_comparison.run(
                mesh_sizes=mesh_sizes,
                topologies=("mesh",),
                designs=designs,
                workloads=("full",),
                payload_sizes=(1,),
                congestion_cycles=200,
            )
            order = [(r.point, r.flow) for r in rows]
            return order, {(r.point, r.flow) for r in rows if r.phase == "holdout"}

        order, holdout = held_out((2, 3), ("regular", "waw_wap"))
        reversed_order, reversed_holdout = held_out((3, 2), ("waw_wap", "regular"))
        assert set(order) == set(reversed_order)
        assert len(set(order)) == 8
        assert len(holdout) == math.ceil(8 / 3)
        assert holdout == reversed_holdout
