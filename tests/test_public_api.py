"""Tests of the top-level public API (:mod:`repro`)."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.12.0"

    @staticmethod
    def _loaded_by_import(package):
        """The modules of ``package`` that importing repro and every
        experiment loads, in a fresh interpreter."""
        code = (
            "import sys, repro, repro.api.registry\n"
            "repro.api.registry.discover()\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return result.stdout.strip()

    def test_import_loads_no_numpy(self):
        """Importing the package and every experiment loads no numpy, whose
        import would cost each process its start-up time and memory."""
        assert self._loaded_by_import("numpy") == "[]"

    def test_import_loads_no_sqlite3(self):
        """Only opening a result store loads sqlite3: a simulation that
        never opens one does not pay its import time and memory."""
        assert self._loaded_by_import("sqlite3") == "[]"

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
        from repro import Scenario, make_analysis_backend
        from repro.geometry import Coord

        regular = Scenario.mesh(8).regular().max_packet_flits(4).build()
        paper = make_analysis_backend(None).analysis(regular)
        bound = paper.wctt_packet(Coord(7, 7), Coord(0, 0), packet_flits=1)
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
            make_analysis_backend,
        )

        regular = regular_mesh_config(4, max_packet_flits=4)
        waw = waw_wap_config(4, max_packet_flits=4)

        # Analytical side.
        paper = make_analysis_backend(None)
        bounds_regular = wctt_map(paper.analysis(regular), Coord(0, 0))
        bounds_waw = wctt_map(paper.analysis(waw), Coord(0, 0))
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
