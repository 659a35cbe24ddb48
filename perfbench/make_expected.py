#!/usr/bin/env python3
"""Regenerate the benchmark's pinned outputs in ``expected/``.

Usage (from the repository root)::

    python3 perfbench/make_expected.py [sweep] [eembc_sim] [faulty_mc]

The pins come from the reference paths, not from the paths the benchmark
times: the sweep grid from the scalar per-flow analysis, the EEMBC
makespans and the faulty trials from the cycle-accurate backend.  A change
that only makes the program faster must leave every pin as it is; only a
change that is meant to alter simulated or analysed numbers regenerates
them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from repro.api import get_experiment  # noqa: E402
from repro.manycore.system import ManycoreSystem  # noqa: E402


def make_sweep() -> dict:
    spec = get_experiment("scenario_wctt")
    points = []
    for job in workloads.grid_jobs():
        rows = spec.run(engine="scalar", **dict(job.params)).rows()
        points.append([workloads.point_key(job)] + workloads.wctt_answer(rows))
    return {"grid": "workloads.SWEEP_GRID", "engine": "scalar", "points": points}


def make_eembc_sim() -> dict:
    config = workloads.eembc_config("cycle")
    makespans = {}
    for profile in workloads.eembc_profiles():
        system = ManycoreSystem(config)
        system.add_profile_core(workloads.EEMBC_CORE, profile)
        system.run_to_completion()
        makespans[profile.name] = system.makespan()
    return {"scale": workloads.EEMBC_SCALE, "backend": "cycle", "makespans": makespans}


def make_faulty_mc() -> dict:
    config = workloads.faulty_config("cycle")
    units = []
    for index in range(workloads.PINNED_UNITS):
        seeds = workloads.trial_seeds(workloads.DEFAULT_SEED, index)
        summary = workloads.trial_summary(workloads.run_trial(config, seeds))
        units.append({"seeds": seeds, "summary": summary})
    return {"seed": workloads.DEFAULT_SEED, "backend": "cycle", "units": units}


MAKERS = {"sweep": make_sweep, "eembc_sim": make_eembc_sim, "faulty_mc": make_faulty_mc}

#: A JSON list that holds no list or object, with its line breaks.
_FLAT_LIST = re.compile(r"\[\s+([^\[\]{}]*?)\s+\]")


def write_expected(path: Path, data: dict) -> None:
    """Indented JSON with each flat list (one pinned row) on one line."""
    text = _FLAT_LIST.sub(lambda m: "[" + " ".join(m.group(1).split()) + "]", json.dumps(data, indent=1))
    path.write_text(text + "\n", encoding="utf-8")


def main(names) -> None:
    for name in names or MAKERS:
        path = workloads.EXPECTED_DIR / f"{name}.json"
        write_expected(path, MAKERS[name]())
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
