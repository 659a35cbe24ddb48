"""The benchmark's three workloads: ``sweep``, ``eembc_sim`` and ``faulty_mc``.

Each workload is a closed loop in one process.  :meth:`setup` builds the
inputs from the seed; :meth:`unit` runs one unit of work and returns its
timings and raw outputs; :meth:`check` compares those outputs with the pins
in ``expected/`` (or, where the pins depend on the seed, with invariants).
Checks run outside every timed region and outside tracing.

Why these three (see README.md for the layer map):

* ``sweep`` -- the design-space user: the 1176-point ``scenario_wctt`` grid
  computed cold into a fresh store, then served warm by a fresh daemon, one
  single-point submit at a time.  api/experiments/analysis/service work;
  sim/noc/faults do nothing.
* ``eembc_sim`` -- Table III simulated: each Autobench-like kernel alone at
  the far corner of the 8x8 WaW+WaP mesh on the event-driven backend.  Long
  compute gaps, so event jumps and the manycore layer carry the run.
* ``faulty_mc`` -- one Monte-Carlo trial of uniform traffic on the faulty
  8x8 mesh per unit.  Contention, one fault draw per link traversal and
  HARQ retransmits: noc, faults and the drain loop do the work.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro.faults.montecarlo as montecarlo
from repro.api import BatchEngine, Scenario, get_experiment, registry, sweep_jobs
from repro.geometry import Coord
from repro.manycore.system import ManycoreSystem
from repro.service import ResultStore, ServiceClient, ServiceError, start_service_thread
from repro.sim import SimulationStallError
from repro.workloads.eembc import autobench_suite
from repro.workloads.synthetic import UniformRandomTraffic

_clock = time.perf_counter

#: The seed whose outputs are pinned exactly; other seeds check invariants.
DEFAULT_SEED = 1
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def host_loop_ms(repeats: int = 3) -> float:
    """Median time of one fixed pure-Python loop, to tell host drift apart."""
    samples = []
    for _ in range(repeats):
        start = _clock()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(_clock() - start)
    return statistics.median(samples) * 1000.0


@dataclass
class UnitResult:
    """Timings and outputs of one unit of work."""

    #: Work items completed in ``seconds`` (design points, simulated
    #: cycles or trials), for the work_per_s metric.
    work: float
    seconds: float
    #: Host seconds of each user-visible operation, for op_p50_ms.
    op_seconds: List[float]
    attempted: int
    failed: int
    #: Wall time of the whole unit (the tracing overhead's base).
    wall: float
    #: host_loop_ms() just before and after the timed work, averaged.
    loop_ms: float
    outputs: Dict[str, Any] = field(default_factory=dict)


def load_expected(name: str) -> Dict[str, Any]:
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
#: The ROADMAP's 1176-point structural grid.
SWEEP_GRID = dict(
    mesh=[(w, h) for w in range(6, 13) for h in range(6, 13)],
    design=("regular", "waw_wap"),
    buffer_depth=(1, 2, 4),
    max_packet_flits=(2, 4),
    memory_controller=[(0, 0), (1, 1)],
)
#: Size of the seed-chosen sample re-run on the scalar reference path.
HELD_BACK = 24


def grid_jobs():
    return sweep_jobs(Scenario.mesh(4), **SWEEP_GRID)


def point_key(job) -> str:
    s = job.params["scenario"]
    x, y = s["memory_controller"]
    return (
        f"{s['mesh_width']}x{s['mesh_height']}/{s['design']}"
        f"/b{s['buffer_depth']}/L{s['max_packet_flits']}/mc{x},{y}"
    )


def wctt_answer(rows: List[Dict[str, Any]]) -> List[Any]:
    """The (max, mean, min) WCTT bound of one scenario_wctt result."""
    row = rows[0]
    return [row["WCTT max"], row["WCTT mean"], row["WCTT min"]]


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        # The engine imports every experiment module on its first job.
        registry.discover()
        self.jobs = grid_jobs()
        self.expected = load_expected("sweep")["points"]
        rng = random.Random(f"sweep:{self.seed}")
        self.order = list(range(len(self.jobs)))
        rng.shuffle(self.order)
        self.held_back = sorted(rng.sample(range(len(self.jobs)), HELD_BACK))
        # A user's set-up includes bringing a daemon up.
        handle = start_service_thread(jobs=1, store=ResultStore(self._fresh_dir()))
        handle.stop()

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.workdir)

    def unit(self, index: int, tracer=None) -> UnitResult:
        store_dir = self._fresh_dir()
        store = ResultStore(store_dir)
        if tracer is not None:
            tracer.watch_store(store)
        loop_before = host_loop_ms()
        unit_start = _clock()
        results = BatchEngine(store=store).run_many(self.jobs)
        cold = _clock() - unit_start
        loop_ms = (loop_before + host_loop_ms()) / 2
        failed = sum(1 for r in results if r.error is not None)
        cold_answers = [wctt_answer(r.result.rows()) if r.ok else None for r in results]

        warm_answers: Dict[int, List[Any]] = {}
        latencies: List[float] = []
        handle = start_service_thread(jobs=1, store=store)
        try:
            client = ServiceClient(port=handle.port)
            for i in self.order:
                if tracer is not None:
                    tracer.begin(i)
                start = _clock()
                try:
                    response = client.submit([self.jobs[i]])
                except ServiceError:
                    failed += 1
                    continue
                latencies.append(_clock() - start)
                result = response["results"][0]
                if response["tickets"][0].get("source") != "store" or result is None:
                    failed += 1
                    continue
                warm_answers[i] = wctt_answer(result["rows"])
            wall = _clock() - unit_start
            if tracer is not None:
                tracer.count("service.computed", handle.service.stats()["jobs"]["computed"])
        finally:
            handle.stop()
        shutil.rmtree(store_dir, ignore_errors=True)
        return UnitResult(
            work=len(self.jobs),
            seconds=cold,
            op_seconds=latencies,
            attempted=2 * len(self.jobs),
            failed=failed,
            wall=wall,
            loop_ms=loop_ms,
            outputs={"cold": cold_answers, "warm": warm_answers},
        )

    def check(self, index: int, outputs: Dict[str, Any]) -> List[str]:
        errors = []
        cold, warm = outputs["cold"], outputs["warm"]
        for i, (job, pin) in enumerate(zip(self.jobs, self.expected)):
            key = point_key(job)
            if pin[0] != key:
                errors.append(f"grid point {i} is {key}, pinned {pin[0]}")
            elif cold[i] != pin[1:]:
                errors.append(f"{key}: cold answer {cold[i]} != pinned {pin[1:]}")
            if i in warm and warm[i] != cold[i]:
                errors.append(f"{key}: warm answer {warm[i]} != cold {cold[i]}")
        if len(self.jobs) != len(self.expected):
            errors.append(f"grid has {len(self.jobs)} points, pinned {len(self.expected)}")
        return errors

    def final_check(self) -> List[str]:
        """Re-run the held-back sample on the scalar reference path."""
        spec = get_experiment("scenario_wctt")
        errors = []
        for i in self.held_back:
            params = dict(self.jobs[i].params)
            answer = wctt_answer(spec.run(engine="scalar", **params).rows())
            if answer != self.expected[i][1:]:
                errors.append(f"{point_key(self.jobs[i])}: scalar {answer} != pinned {self.expected[i][1:]}")
        return errors


# ----------------------------------------------------------------------
# eembc_sim
# ----------------------------------------------------------------------
#: Profile scale of the Autobench-like kernels: about 78k simulated
#: cycles per pass of 16 kernels, the scale of
#: benchmarks/bench_sim_backends.py.
EEMBC_SCALE = 0.005
EEMBC_MESH = 8
EEMBC_CORE = Coord(EEMBC_MESH - 1, EEMBC_MESH - 1)


def eembc_config(backend: str):
    return Scenario.mesh(EEMBC_MESH).waw_wap().backend(backend).build()


def eembc_profiles():
    return [profile.scaled(EEMBC_SCALE) for profile in autobench_suite()]


class EembcSim:
    name = "eembc_sim"

    def __init__(self, seed: int, workdir: Path) -> None:
        # No random input: the seed is recorded, the work is fixed.
        self.seed = seed

    def setup(self) -> None:
        self.config = eembc_config("event")
        self.profiles = eembc_profiles()
        self.expected = load_expected("eembc_sim")

    def unit(self, index: int, tracer=None) -> UnitResult:
        makespans: Dict[str, int] = {}
        durations: List[float] = []
        cycles = failed = 0
        loop_before = host_loop_ms()
        unit_start = _clock()
        for profile in self.profiles:
            if tracer is not None:
                tracer.begin(profile.name)
            start = _clock()
            try:
                system = ManycoreSystem(self.config)
                system.add_profile_core(EEMBC_CORE, profile)
                system.run_to_completion()
            except SimulationStallError:
                failed += 1
                continue
            durations.append(_clock() - start)
            cycles += system.cycle
            makespans[profile.name] = system.makespan()
        seconds = _clock() - unit_start
        return UnitResult(
            work=cycles,
            seconds=seconds,
            op_seconds=durations,
            attempted=len(self.profiles),
            failed=failed,
            wall=seconds,
            loop_ms=(loop_before + host_loop_ms()) / 2,
            outputs={"makespans": makespans},
        )

    def check(self, index: int, outputs: Dict[str, Any]) -> List[str]:
        pinned = self.expected["makespans"]
        actual = outputs["makespans"]
        return [
            f"{name}: makespan {actual.get(name)} != pinned {pinned[name]}"
            for name in pinned
            if actual.get(name) != pinned[name]
        ]

    def final_check(self) -> List[str]:
        return []


# ----------------------------------------------------------------------
# faulty_mc
# ----------------------------------------------------------------------
FAULT_RATE = 0.005
INJECTION_RATE = 0.05
TRAFFIC_CYCLES = 300
PAYLOAD_FLITS = 4
ACK_TIMEOUT = 128
#: Units cycle through this many (fault seed, traffic seed) pairs; the
#: default seed's pairs are all pinned.
PINNED_UNITS = 16


def faulty_config(backend: str):
    return (
        Scenario.mesh(8)
        .waw_wap()
        .backend(backend)
        .fault_model(
            "independent",
            corrupt_rate=FAULT_RATE / 2,
            loss_rate=FAULT_RATE / 2,
            ack_timeout=ACK_TIMEOUT,
        )
        .build()
    )


def trial_seeds(seed: int, index: int) -> Dict[str, int]:
    rng = random.Random(f"faulty_mc:{seed}:{index % PINNED_UNITS}")
    return {"base_seed": rng.randrange(1, 2**31), "traffic_seed": rng.randrange(1, 2**31)}


def run_trial(config, seeds: Dict[str, int]):
    return montecarlo.run_trials(
        config,
        trials=1,
        base_seed=seeds["base_seed"],
        workload="uniform",
        jobs=1,
        injection_rate=INJECTION_RATE,
        cycles=TRAFFIC_CYCLES,
        payload_flits=PAYLOAD_FLITS,
        traffic_seed=seeds["traffic_seed"],
    )


def trial_summary(result) -> Dict[str, Any]:
    """The simulated statistics of one run_trials(trials=1) call."""
    outcome = result.outcomes[0]
    # Sorted: messages completing in the same cycle may be recorded in a
    # different order by the two backends; the distribution is the same.
    digest = hashlib.sha256(json.dumps(sorted(outcome.latencies)).encode()).hexdigest()
    return {
        "failed_trials": result.failed_trials,
        "latency": result.distribution.as_dict() if result.distribution else None,
        "latencies_sha256": digest,
        "samples": len(outcome.latencies),
        "delivered": outcome.delivered_messages,
        "makespan": outcome.makespan,
        "retransmissions": result.total_retransmissions,
        "fault_counts": dict(result.fault_counts),
    }


class _SendCounter:
    """Network stand-in that only counts what the traffic generator sends."""

    def send(self, *args: Any, **kwargs: Any) -> None:
        return None

    def step(self) -> None:
        return None


def messages_sent(config, traffic_seed: int) -> int:
    traffic = UniformRandomTraffic(
        config.mesh,
        injection_rate=INJECTION_RATE,
        payload_flits=PAYLOAD_FLITS,
        seed=traffic_seed,
    )
    return len(traffic.drive(_SendCounter(), TRAFFIC_CYCLES))


class FaultyMC:
    name = "faulty_mc"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.config = faulty_config("event")
        self.expected: Optional[List[Dict[str, Any]]] = (
            load_expected("faulty_mc")["units"] if self.seed == DEFAULT_SEED else None
        )

    def unit(self, index: int, tracer=None) -> UnitResult:
        seeds = trial_seeds(self.seed, index)
        if tracer is not None:
            tracer.begin(f"trial:{seeds['base_seed']}")
        loop_before = host_loop_ms()
        start = _clock()
        result = run_trial(self.config, seeds)
        seconds = _clock() - start
        return UnitResult(
            work=result.trials,
            seconds=seconds,
            op_seconds=[seconds],
            attempted=result.trials,
            failed=result.failed_trials,
            wall=seconds,
            loop_ms=(loop_before + host_loop_ms()) / 2,
            outputs={"seeds": seeds, "summary": trial_summary(result)},
        )

    def check(self, index: int, outputs: Dict[str, Any]) -> List[str]:
        seeds, summary = outputs["seeds"], outputs["summary"]
        errors = []
        if self.expected is not None:
            pinned = self.expected[index % PINNED_UNITS]
            if pinned["seeds"] != seeds or pinned["summary"] != summary:
                errors.append(f"trial {seeds}: {summary} != pinned {pinned}")
        sent = messages_sent(self.config, seeds["traffic_seed"])
        if summary["failed_trials"]:
            errors.append(f"trial {seeds}: {summary['failed_trials']} failed trial(s)")
        elif not sent == summary["delivered"] == summary["samples"]:
            errors.append(
                f"trial {seeds}: sent {sent}, delivered {summary['delivered']}, "
                f"latency samples {summary['samples']}"
            )
        return errors

    def final_check(self) -> List[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (Sweep, EembcSim, FaultyMC)}
