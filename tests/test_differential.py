"""Differential testing: the event-driven backend vs the cycle-accurate one.

The event-driven backend promises *bit-identical* results: per-message
latencies, flit counts and makespans must match the cycle-accurate reference
exactly, never approximately.  This suite enforces the promise over a grid
of (topology x routing x design x packet size x workload) scenarios at the
network level and over manycore workloads (EEMBC-like profiles, parallel
kernels, cached traces) at the system level, plus the two simulating
experiments end to end.

Every comparison goes through a *snapshot*: an exhaustive, order-insensitive
summary of everything a simulation run produced (message timing records,
per-router forwarded-flit counters, per-NIC injected/ejected counters,
per-core execution counters, final cycle).  Two runs are considered equal
only when their snapshots are equal.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.geometry import Coord
from repro.manycore.placement import Placement
from repro.manycore.system import ManycoreSystem
from repro.noc.network import Network
from repro.workloads.eembc import autobench_profile, autobench_suite
from repro.workloads.parallel import ParallelWorkload, Phase, ThreadPhaseWork
from repro.workloads.synthetic import UniformRandomTraffic

BACKENDS = ("cycle", "event")


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def network_snapshot(network: Network) -> dict:
    """Everything observable about a finished network run, order-insensitive."""
    messages = sorted(
        (
            message.source.x,
            message.source.y,
            message.destination.x,
            message.destination.y,
            message.kind,
            message.payload_flits,
            message.created_cycle,
            message.injection_cycle,
            message.completion_cycle,
        )
        for message in network.stats.messages
    )
    return {
        "final_cycle": network.cycle,
        "sent": network.stats.sent_messages,
        "completed": network.stats.completed_messages,
        "messages": messages,
        "injected_flits": network.total_injected_flits(),
        "ejected_flits": network.total_ejected_flits(),
        "per_router_forwarded": {
            str(coord): router.forwarded_flits for coord, router in network.routers.items()
        },
        "per_nic_flits": {
            str(coord): (nic.injected_flits, nic.ejected_flits)
            for coord, nic in network.nics.items()
        },
    }


def system_snapshot(system: ManycoreSystem, cycles: int) -> dict:
    """Everything observable about a finished manycore run."""
    return {
        "cycles": cycles,
        "makespan": system.makespan(),
        "per_core": {
            str(node): (
                core.issued_loads,
                core.issued_evictions,
                core.completed_loads,
                core.stall_cycles,
                core.compute_cycles,
                core.start_cycle,
                core.finish_cycle,
            )
            for node, core in system.cores.items()
        },
        "served": (
            system.memory_controller.served_loads,
            system.memory_controller.served_evictions,
        ),
        "network": network_snapshot(system.network),
    }


# ----------------------------------------------------------------------
# Network-level scenario grid: topology x routing x design x packet size
# ----------------------------------------------------------------------
def _scenario(topology: str, routing: str, design: str, max_packet: int) -> Scenario:
    if topology == "ring":
        base = Scenario.mesh(8, 1).topology("ring")
    elif topology == "cmesh":
        base = Scenario.mesh(4).topology("cmesh", concentration=2)
    else:
        base = Scenario.mesh(4).topology(topology, routing=routing)
    return base.design(design).max_packet_flits(max_packet)


def hotspot_burst(network: Network) -> None:
    """Every node fires a bounded burst towards the (0, 0) hotspot."""
    hotspot = Coord(0, 0)
    for repeat in range(2):
        for src in network.config.mesh.nodes():
            if src != hotspot:
                network.send(src, hotspot, 1 + repeat, kind="load")


def mirrored_pairs(network: Network) -> None:
    """Permutation traffic: every node messages its point-mirrored partner."""
    mesh = network.config.mesh
    for src in mesh.nodes():
        dst = Coord(mesh.width - 1 - src.x, mesh.height - 1 - src.y)
        if dst != src:
            network.send(src, dst, 4, kind="data")


def staggered_waves(network: Network) -> None:
    """Three injection waves separated by driver-controlled stepping."""
    mesh = network.config.mesh
    nodes = list(mesh.nodes())
    for wave, payload in enumerate((1, 4, 2)):
        for index, src in enumerate(nodes):
            dst = nodes[(index + 2 * wave + 1) % len(nodes)]
            if dst != src:
                network.send(src, dst, payload, kind=f"wave{wave}")
        network.run(15)


WORKLOADS = {
    "hotspot": hotspot_burst,
    "mirror": mirrored_pairs,
    "staggered": staggered_waves,
}

NETWORK_GRID = [
    pytest.param(topology, routing, design, max_packet, workload,
                 id=f"{topology}-{routing}-{design}-L{max_packet}-{workload}")
    for topology, routing in (
        ("mesh", "xy"),
        ("mesh", "yx"),
        ("torus", "xy"),
        ("ring", "xy"),
        ("cmesh", "xy"),
    )
    for design in ("regular", "waw_wap")
    for max_packet in (1, 4)
    for workload in ("hotspot", "mirror", "staggered")
    if not (design == "regular" and max_packet == 1)  # regular L1 == waw L1 traffic shape
    # The staggered all-to-all waves overload the ring's wrapped channel
    # cycle into a genuine wormhole deadlock (no virtual channels -- see the
    # Network.run_until_idle docstring); both backends stall identically,
    # but there is no drained run to compare.
    if not (topology == "ring" and workload == "staggered")
]


@pytest.mark.parametrize("topology,routing,design,max_packet,workload", NETWORK_GRID)
def test_network_backends_bit_identical(topology, routing, design, max_packet, workload):
    scenario = _scenario(topology, routing, design, max_packet)
    snapshots = {}
    for backend in BACKENDS:
        network = Network(scenario.backend(backend).build())
        WORKLOADS[workload](network)
        network.run_until_idle(max_cycles=300_000)
        snapshots[backend] = network_snapshot(network)
    assert snapshots["event"] == snapshots["cycle"]


def test_network_custom_timing_bit_identical():
    """Non-default pipeline/link latencies change the ready-cycle pattern."""
    scenario = (
        Scenario.mesh(4)
        .waw_wap()
        .timing(routing_latency=5, link_latency=2, flit_cycle=1)
        .buffer_depth(2)
    )
    snapshots = {}
    for backend in BACKENDS:
        network = Network(scenario.backend(backend).build())
        mirrored_pairs(network)
        network.run_until_idle(max_cycles=300_000)
        snapshots[backend] = network_snapshot(network)
    assert snapshots["event"] == snapshots["cycle"]


def test_network_random_traffic_bit_identical():
    """Seeded uniform-random injection, then an event-driven drain."""
    snapshots = {}
    for backend in BACKENDS:
        config = Scenario.mesh(4).waw_wap().backend(backend).build()
        network = Network(config)
        traffic = UniformRandomTraffic(config.mesh, injection_rate=0.05, payload_flits=2, seed=7)
        traffic.drive(network, cycles=200)
        network.run_until_idle(max_cycles=300_000)
        snapshots[backend] = network_snapshot(network)
    assert snapshots["event"] == snapshots["cycle"]


# ----------------------------------------------------------------------
# Fault injection: null models are invisible, faulty runs are
# backend-identical
# ----------------------------------------------------------------------
ZERO_RATE_MODEL = {"kind": "independent", "corrupt_rate": 0.0, "loss_rate": 0.0}


@pytest.mark.parametrize("topology,routing,design,max_packet,workload", NETWORK_GRID)
@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_rate_fault_model_bit_identical_to_no_model(
    topology, routing, design, max_packet, workload, backend
):
    """A fault model whose rates are all zero must not change a single bit.

    The whole reliability machinery (injector, HARQ state, sequence
    numbers, control traffic) must stay structurally disabled, so the
    zero-rate run reproduces the no-fault-model run exactly -- latencies,
    flit counts and makespans -- on both backends across the grid.
    """
    scenario = _scenario(topology, routing, design, max_packet).backend(backend)
    snapshots = {}
    for label, sc in (("plain", scenario), ("zero", scenario.fault_model(ZERO_RATE_MODEL))):
        network = Network(sc.build())
        WORKLOADS[workload](network)
        network.run_until_idle(max_cycles=300_000)
        snapshots[label] = network_snapshot(network)
    assert snapshots["zero"] == snapshots["plain"]


FAULTY_MODELS = [
    pytest.param(
        {"kind": "independent", "corrupt_rate": 0.01, "loss_rate": 0.005,
         "seed": 11, "ack_timeout": 128},
        id="independent",
    ),
    pytest.param(
        {"kind": "gilbert", "bad_corrupt_rate": 0.05, "bad_loss_rate": 0.05,
         "good_to_bad": 0.01, "bad_to_good": 0.1, "seed": 11, "ack_timeout": 128},
        id="gilbert",
    ),
]


def _faulty_network_snapshot(network: Network) -> dict:
    snapshot = network_snapshot(network)
    snapshot["retransmissions"] = network.total_retransmissions()
    snapshot["fault_counts"] = network.fault_counts()
    snapshot["control_messages"] = sum(
        nic.control_messages_sent for nic in network.nics.values()
    )
    return snapshot


@pytest.mark.parametrize("model", FAULTY_MODELS)
def test_faulty_network_backends_bit_identical(model):
    """Under real faults + HARQ recovery the backends must still agree."""
    snapshots = {}
    for backend in BACKENDS:
        network = Network(
            Scenario.mesh(4).waw_wap().fault_model(model).backend(backend).build()
        )
        mirrored_pairs(network)
        hotspot_burst(network)
        network.run_until_idle(max_cycles=300_000)
        snapshots[backend] = _faulty_network_snapshot(network)
    assert snapshots["event"] == snapshots["cycle"]
    assert snapshots["cycle"]["completed"] == snapshots["cycle"]["sent"]


def test_faulty_8x8_hotspot_backends_bit_identical():
    """Every node of the 8x8 WaW+WaP mesh sends one 4-flit load to (0,0) over
    lossy links: a long, contended drain with NACKs and ACK timeouts, in
    which the event backend's busy sets must keep every NIC that still
    waits on an acknowledgement."""
    hotspot = Coord(0, 0)
    snapshots = {}
    for backend in BACKENDS:
        config = (
            Scenario.mesh(8)
            .waw_wap()
            .fault_model("independent", corrupt_rate=0.0025, loss_rate=0.0025,
                         seed=7, ack_timeout=128)
            .backend(backend)
            .build()
        )
        network = Network(config)
        for src in config.mesh.nodes():
            if src != hotspot:
                network.send(src, hotspot, 4, kind="load")
        network.run_until_idle(max_cycles=1_000_000)
        snapshots[backend] = _faulty_network_snapshot(network)
    assert snapshots["event"] == snapshots["cycle"]
    assert snapshots["cycle"]["completed"] == snapshots["cycle"]["sent"] == 63
    assert snapshots["cycle"]["retransmissions"] > 0


def test_lone_faulty_message_jumps_to_its_retransmit_timers(monkeypatch):
    """A lone 4-flit message (2,2)->(0,0) on a 3x3 WaW+WaP mesh loses two
    flits.  While it waits for its ACK timeouts nothing is buffered, so the
    event backend jumps straight to each timer: 167 of 245 cycles skipped
    (17 if the NIC timers are ignored) with every bit unchanged (a timer
    served one cycle late makes the latency 227)."""
    skipped = [0]
    skip_idle_cycles = Network.skip_idle_cycles

    def counted(network, cycles):
        skipped[0] += cycles
        skip_idle_cycles(network, cycles)

    monkeypatch.setattr(Network, "skip_idle_cycles", counted)
    snapshots, skips = {}, {}
    for backend in BACKENDS:
        config = (
            Scenario.mesh(3)
            .waw_wap()
            .fault_model("independent", loss_rate=0.05, seed=1, ack_timeout=64)
            .backend(backend)
            .build()
        )
        network = Network(config)
        message = network.send(Coord(2, 2), Coord(0, 0), 4)
        skipped[0] = 0
        network.run_until_idle()
        skips[backend] = skipped[0]
        snapshots[backend] = _faulty_network_snapshot(network)
        snapshots[backend]["latency"] = message.network_latency
    assert snapshots["event"] == snapshots["cycle"]
    assert skips == {"cycle": 0, "event": 167}
    cycle = snapshots["cycle"]
    assert (cycle["final_cycle"], cycle["latency"], cycle["retransmissions"]) == (245, 225, 2)


def test_faulty_system_backends_bit_identical():
    """Manycore run under faults: cores + MC + HARQ agree across backends."""
    snapshots = {}
    for backend in BACKENDS:
        config = (
            Scenario.mesh(3)
            .waw_wap()
            .fault_model("independent", corrupt_rate=0.005, loss_rate=0.005,
                         seed=5, ack_timeout=128)
            .backend(backend)
            .build()
        )
        system = ManycoreSystem(config)
        suite = autobench_suite()
        nodes = [c for c in config.mesh.nodes() if c != config.memory_controller]
        for index, node in enumerate(nodes):
            system.add_profile_core(node, suite[index % len(suite)].scaled(0.002))
        cycles = system.run_to_completion(max_cycles=2_000_000)
        snapshot = system_snapshot(system, cycles)
        snapshot["network"]["retransmissions"] = system.network.total_retransmissions()
        snapshot["network"]["fault_counts"] = system.network.fault_counts()
        snapshots[backend] = snapshot
    assert snapshots["event"] == snapshots["cycle"]


def test_zero_rate_fault_model_system_bit_identical_to_no_model():
    """System-level zero-rate check on top of the network-level grid."""
    plain = _run_multiprogrammed("waw_wap", "event")
    config = (
        Scenario.mesh(3)
        .waw_wap()
        .fault_model(ZERO_RATE_MODEL)
        .backend("event")
        .build()
    )
    system = ManycoreSystem(config)
    suite = autobench_suite()
    nodes = [c for c in config.mesh.nodes() if c != config.memory_controller]
    for index, node in enumerate(nodes):
        system.add_profile_core(node, suite[index % len(suite)].scaled(0.002))
    cycles = system.run_to_completion(max_cycles=2_000_000)
    assert system_snapshot(system, cycles) == plain


# ----------------------------------------------------------------------
# System-level scenarios: cores + caches + memory controller on the NoC
# ----------------------------------------------------------------------
def _run_multiprogrammed(design: str, backend: str) -> dict:
    config = Scenario.mesh(3).design(design).backend(backend).build()
    system = ManycoreSystem(config)
    suite = autobench_suite()
    nodes = [c for c in config.mesh.nodes() if c != config.memory_controller]
    for index, node in enumerate(nodes):
        system.add_profile_core(node, suite[index % len(suite)].scaled(0.002))
    cycles = system.run_to_completion(max_cycles=2_000_000)
    return system_snapshot(system, cycles)


@pytest.mark.parametrize("design", ("regular", "waw_wap"))
def test_multiprogrammed_eembc_bit_identical(design):
    assert _run_multiprogrammed(design, "event") == _run_multiprogrammed(design, "cycle")


@pytest.mark.parametrize("bench_name", ("a2time", "cacheb"))
def test_single_core_eembc_bit_identical(bench_name):
    """The table3-style setup: one benchmark at the far corner of the mesh.

    This is the regime where the event-driven backend skips the most (whole
    compute gaps between NoC round trips) -- and where a skipping bug would
    distort latencies the most.
    """
    snapshots = {}
    for backend in BACKENDS:
        config = Scenario.mesh(4).waw_wap().backend(backend).build()
        system = ManycoreSystem(config)
        system.add_profile_core(Coord(3, 3), autobench_profile(bench_name).scaled(0.01))
        cycles = system.run_to_completion(max_cycles=2_000_000)
        snapshots[backend] = system_snapshot(system, cycles)
    assert snapshots["event"] == snapshots["cycle"]


def test_parallel_workload_bit_identical():
    workload = ParallelWorkload.balanced(
        "diff-kernel",
        num_threads=4,
        phases=3,
        compute_cycles_per_phase=500,
        loads_per_phase=12,
        evictions_per_phase=2,
    )
    snapshots = {}
    for backend in BACKENDS:
        config = Scenario.mesh(3).regular().backend(backend).build()
        system = ManycoreSystem(config)
        mc = config.memory_controller
        nodes = sorted(
            (c for c in config.mesh.nodes() if c != mc),
            key=lambda c: (c.manhattan(mc), c.y, c.x),
        )
        placement = Placement("diff")
        for thread_id in range(workload.num_threads):
            placement.assign(thread_id, nodes[thread_id])
        system.add_parallel_workload(workload, placement)
        cycles = system.run_to_completion(max_cycles=2_000_000)
        snapshots[backend] = system_snapshot(system, cycles)
    assert snapshots["event"] == snapshots["cycle"]


@pytest.mark.parametrize("beside_a_working_core", (False, True), ids=("alone", "beside"))
def test_empty_stream_core_starts_and_finishes_on_its_first_step(beside_a_working_core):
    """A thread without work in a barrier-synchronised workload gets a core
    whose operation stream is empty: it starts and finishes on its first
    step (elapsed 0) on both backends, alone or while another core keeps
    the system running."""
    idle = Coord(2, 2)
    nodes = [Coord(1, 1), idle] if beside_a_working_core else [idle]
    phase = Phase("only")
    if beside_a_working_core:
        phase.add(ThreadPhaseWork(0, compute_cycles=50, loads=3))
    workload = ParallelWorkload("idle-thread", num_threads=len(nodes), phases=[phase])
    placement = Placement("idle-thread")
    for thread_id, node in enumerate(nodes):
        placement.assign(thread_id, node)
    snapshots = {}
    for backend in BACKENDS:
        system = ManycoreSystem(Scenario.mesh(3).waw_wap().backend(backend).build())
        system.add_parallel_workload(workload, placement)
        cycles = system.run_to_completion(max_cycles=10_000)
        snapshots[backend] = system_snapshot(system, cycles)
        assert system.per_core_cycles()[idle] == 0
    assert snapshots["event"] == snapshots["cycle"]
    start, finish = snapshots["cycle"]["per_core"][str(idle)][-2:]
    assert start == finish == 0
    assert snapshots["cycle"]["cycles"] == (225 if beside_a_working_core else 1)


# ----------------------------------------------------------------------
# Experiment-level: the registered simulating experiments end to end
# ----------------------------------------------------------------------
def test_avgperf_experiment_backend_agnostic():
    from repro.experiments import avg_performance

    by_backend = {
        backend: [p.as_dict() for p in avg_performance.run(
            mesh_size=3, profile_scale=0.001, parallel_threads=4, backend=backend
        )]
        for backend in BACKENDS
    }
    assert by_backend["event"] == by_backend["cycle"]


def test_validation_experiment_backend_agnostic():
    from repro.experiments import bound_validation

    by_backend = {
        backend: [r.as_dict() for r in bound_validation.run(
            mesh_sizes=(3,), congestion_cycles=400, backend=backend
        )]
        for backend in BACKENDS
    }
    assert by_backend["event"] == by_backend["cycle"]
