"""Tests of the top-level public API (:mod:`repro`)."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.8.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_subpackages_importable(self):
        for module in (
            "repro.core",
            "repro.noc",
            "repro.manycore",
            "repro.workloads",
            "repro.analysis",
            "repro.experiments",
        ):
            assert importlib.import_module(module) is not None

    def test_core_all_names_resolve(self):
        core = importlib.import_module("repro.core")
        for name in core.__all__:
            assert hasattr(core, name)

    def test_quickstart_snippet_from_docstring(self):
        """The snippet shown in the package docstring must actually work."""
        from repro import make_wctt_analysis, regular_mesh_config
        from repro.geometry import Coord

        analysis = make_wctt_analysis(regular_mesh_config(8, max_packet_flits=4))
        bound = analysis.wctt_packet(Coord(7, 7), Coord(0, 0), packet_flits=1)
        assert bound > 0


class TestDesignPointRoundTrip:
    def test_full_stack_smoke(self):
        """A miniature end-to-end use of the library through the public API."""
        from repro import (
            Coord,
            ManycoreSystem,
            UBDTable,
            regular_mesh_config,
            waw_wap_config,
            wctt_map,
            make_wctt_analysis,
        )

        regular = regular_mesh_config(4, max_packet_flits=4)
        waw = waw_wap_config(4, max_packet_flits=4)

        # Analytical side.
        bounds_regular = wctt_map(make_wctt_analysis(regular), Coord(0, 0))
        bounds_waw = wctt_map(make_wctt_analysis(waw), Coord(0, 0))
        far = Coord(3, 3)
        assert bounds_waw[far] < bounds_regular[far]
        assert UBDTable(waw).load_ubd(far) < UBDTable(regular).load_ubd(far)

        # Simulation side.
        system = ManycoreSystem(waw)
        from repro.workloads import TaskProfile

        system.add_profile_core(Coord(1, 0), TaskProfile(name="t", instructions=500))
        system.run_to_completion(max_cycles=100_000)
        assert system.makespan() > 0

    def test_console_script_entry_point_is_declared(self):
        import importlib.metadata as metadata

        try:
            entry_points = metadata.entry_points()
        except Exception:  # pragma: no cover - very old importlib.metadata
            pytest.skip("importlib.metadata not available")
        names = {ep.name for ep in entry_points.select(group="console_scripts")}
        # The entry point is declared in pyproject; it may be absent when the
        # package is used straight from the source tree without installation.
        if "repro-experiments" not in names:
            pytest.skip("package not installed with console scripts")
        assert "repro-experiments" in names
