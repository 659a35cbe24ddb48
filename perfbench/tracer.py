"""Outside-in span and counter recorder for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces public entry points of the ``repro`` layers with thin wrappers
that record a span per call, and :meth:`Tracer.uninstall` puts the
originals back, so the measured (untraced) runs execute the program
unmodified.

A span is ``[name, start, end, parent, request]``.  Spans stay in memory
and are written out when the run ends.  The workloads are closed loops, so
a span opened on another thread with nothing open on that thread (the
analysis daemon answering a submit) belongs to the one outstanding request
and is parented on the main thread's open root span.

Counters come from the program's own public counters (router, NIC, fault
injector, result store, daemon ``stats()``), read after each unit of work
from the objects the wrappers saw being created.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter

#: Per-layer metrics of the traced run: name -> unit.  The order is the
#: order BENCHMARK.json lists them in.
LAYER_METRICS: Dict[str, str] = {
    "api.scenario_build_calls": "count",
    "api.scenario_build_s": "s",
    "api.config_hash_calls": "count",
    "api.config_hash_s": "s",
    "api.engine_self_s": "s",
    "experiments.scenario_wctt_calls": "count",
    "experiments.scenario_wctt_self_s": "s",
    "analysis.vector_calls": "count",
    "analysis.vector_s": "s",
    "analysis.scalar_fallbacks": "count",
    "core.weight_table_builds": "count",
    "core.weight_table_s": "s",
    "core.scalar_wctt_calls": "count",
    "service.store_writes": "count",
    "service.store_write_s": "s",
    "service.store_bytes_written": "B",
    "service.store_reads": "count",
    "service.store_read_s": "s",
    "service.store_hits": "count",
    "service.store_misses": "count",
    "service.requests": "count",
    "service.encode_s": "s",
    "service.decode_s": "s",
    "service.wire_bytes": "B",
    "service.round_trip_self_s": "s",
    "service.computed": "count",
    "sim.cycles": "cycles",
    "sim.cycles_stepped": "cycles",
    "sim.cycles_skipped": "cycles",
    "sim.stepped_ratio": "ratio",
    "sim.activity_probes": "count",
    "sim.activity_probe_s": "s",
    "sim.skip_s": "s",
    "noc.network_builds": "count",
    "noc.network_build_s": "s",
    "noc.router_steps": "count",
    "noc.router_step_s": "s",
    "noc.routers_per_stepped_cycle": "ratio",
    "noc.nic_steps": "count",
    "noc.nic_step_s": "s",
    "noc.flits_forwarded": "count",
    "noc.messages_delivered": "count",
    "manycore.core_steps": "count",
    "manycore.core_step_s": "s",
    "manycore.mc_served": "count",
    "manycore.stall_cycles": "cycles",
    "faults.transmits": "count",
    "faults.transmit_s": "s",
    "faults.corrupted": "count",
    "faults.lost": "count",
    "faults.retransmissions": "count",
    "faults.control_messages": "count",
    "faults.delivered_per_attempt": "ratio",
    "faults.mc_trials": "count",
    "faults.mc_failed_trials": "count",
    "faults.mc_aggregate_s": "s",
    "workloads.traffic_drive_self_s": "s",
    "workloads.messages_generated": "count",
    "bench.trace_overhead": "x",
    "bench.host_loop_ms": "ms",
}

#: Layer invariants of the traced run: (workload, metric, relation, value,
#: why).  ``==`` pins a bypassed layer at zero work; ``>`` proves the
#: workload really stresses the layer it was chosen for.
LAYER_ASSERTIONS = [
    ("sweep", "faults.transmits", "==", 0, "no fault model on the grid"),
    ("sweep", "sim.cycles", "==", 0, "analysis only, nothing simulated"),
    ("sweep", "noc.router_steps", "==", 0, "analysis only, nothing simulated"),
    ("sweep", "analysis.scalar_fallbacks", "==", 0, "every grid point vectorizes"),
    ("sweep", "core.scalar_wctt_calls", "==", 0, "every grid point vectorizes"),
    ("sweep", "service.computed", "==", 0, "the warm phase is served from the store"),
    ("sweep", "analysis.vector_calls", ">", 0, "the cold phase runs the vector engine"),
    ("sweep", "service.store_writes", ">", 0, "the cold phase writes the store"),
    ("sweep", "service.store_hits", ">", 0, "the warm phase reads the store"),
    ("eembc_sim", "faults.transmits", "==", 0, "reliable links"),
    ("eembc_sim", "service.store_writes", "==", 0, "no store involved"),
    ("eembc_sim", "sim.cycles_skipped", ">", 0, "the event backend jumps compute gaps"),
    ("eembc_sim", "manycore.core_steps", ">", 0, "cores drive the run"),
    ("faulty_mc", "service.store_writes", "==", 0, "no store involved"),
    ("faulty_mc", "manycore.core_steps", "==", 0, "bare network, no cores"),
    ("faulty_mc", "faults.transmits", ">", 0, "one fault draw per link traversal"),
    ("faulty_mc", "faults.retransmissions", ">", 0, "HARQ retransmits"),
]


class Tracer:
    """Spans and counters of one traced unit of work."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Program objects seen being built; their public counters are
        #: read by :meth:`layer_metrics`.
        self.networks: List[Any] = []
        self.systems: List[Any] = []
        self._stores: List[tuple] = []
        #: The closed loop's outstanding request (design point, kernel run
        #: or trial), set by the workload before it issues the request.
        self.request: Any = None
        self._root: Optional[list] = None
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, request: Any) -> None:
        """Start the next closed-loop request."""
        self.request = request

    def count(self, name: str, amount: float = 1) -> None:
        # Hooks run on the main and the daemon thread alike.
        with self._lock:
            self.counters[name] += amount

    def watch_store(self, store: Any) -> None:
        """Report ``store``'s hit/miss/write counters for this unit."""
        self._stores.append((store, store.hits, store.misses, store.writes))

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable]) -> Callable:
        tracer = self
        spans = self.spans
        local = self._local
        main = self._main

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif threading.get_ident() == main:
                parent = None
            else:
                parent = tracer._root
            span = [name, 0.0, 0.0, parent, parent[4] if parent is not None else tracer.request]
            if parent is None:
                tracer._root = span
            stack.append(span)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
                spans.append(span)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a module function, method or classmethod)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, name, after))
        else:
            wrapped = self._wrap(raw, name, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap the layer entry points the per-layer metrics are made of."""
        import repro.analysis.vector as vector
        import repro.api.engine as engine
        import repro.faults.montecarlo as montecarlo
        import repro.service.client as client
        import repro.service.server as server
        from repro.api.registry import ExperimentSpec
        from repro.api.scenario import Scenario
        from repro.core.wctt_regular import RegularMeshWCTTAnalysis
        from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
        from repro.core.weights import WeightTable
        from repro.faults.models import LinkFaultInjector
        from repro.manycore.core import Core
        from repro.manycore.system import ManycoreSystem
        from repro.noc.network import Network
        from repro.noc.nic import NIC
        from repro.noc.router import Router
        from repro.service.client import ServiceClient
        from repro.service.store import ResultStore
        from repro.sim.event import EventDrivenBackend
        from repro.workloads.synthetic import UniformRandomTraffic

        patch = self.patch
        # api / experiments / analysis / core (design-space evaluation)
        patch(Scenario, "build", "api.scenario_build")
        patch(engine, "config_hash", "api.config_hash")
        patch(server, "config_hash", "api.config_hash")
        patch(engine.BatchEngine, "run_many", "api.engine")
        # scenario_wctt is the only registered experiment the workloads run.
        patch(ExperimentSpec, "run", "experiments.scenario_wctt")
        patch(vector, "vector_wctt_summary", "analysis.vector")
        patch(vector, "vector_supported", "analysis.vector_supported", _count_fallback)
        patch(WeightTable, "from_closed_form", "core.weight_table")
        patch(WeightTable, "from_flow_set", "core.weight_table")
        for analysis in (RegularMeshWCTTAnalysis, WaWWaPWCTTAnalysis):
            patch(analysis, "wctt_packet", "core.scalar_wctt")
            patch(analysis, "wctt_message", "core.scalar_wctt")
        # service: store, protocol, daemon round trips
        patch(ResultStore, "put", "service.store_write", _count_store_bytes)
        patch(ResultStore, "get", "service.store_read")
        for module in (client, server):
            patch(module, "encode", "service.encode", _count_wire_bytes)
            patch(module, "decode", "service.decode")
        patch(ServiceClient, "submit", "service.round_trip")
        # sim / noc / manycore / faults / workloads (simulation)
        patch(EventDrivenBackend, "run_until_idle", "sim.run")
        patch(EventDrivenBackend, "run_to_completion", "sim.run")
        patch(Network, "next_activity_cycle", "sim.activity_probe")
        patch(ManycoreSystem, "next_activity_cycle", "sim.activity_probe")
        patch(Network, "skip_idle_cycles", "sim.skip", _count_skipped)
        patch(ManycoreSystem, "skip_cycles", "sim.skip")
        patch(Network, "__init__", "noc.network_build", _keep_network)
        patch(Network, "step", "noc.network_step")
        patch(Network, "step_active", "noc.network_step")
        # Sends are the network's work, not the traffic generator's.
        patch(Network, "send", "noc.send")
        patch(Router, "step", "noc.router_step")
        patch(NIC, "step", "noc.nic_step")
        patch(ManycoreSystem, "__init__", "manycore.system_build", _keep_system)
        patch(Core, "step", "manycore.core_step")
        patch(LinkFaultInjector, "transmit", "faults.transmit")
        patch(montecarlo, "run_trials", "faults.run_trials", _count_trials)
        patch(UniformRandomTraffic, "drive", "workloads.traffic_drive", _count_generated)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost calls, their inclusive time, self time.

        A span nested in a span of the same name (a system-level activity
        probe calling the network-level one) is not a separate call.  Self
        time is a span's duration minus the part its child spans cover,
        children on the daemon thread included.
        """
        children: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            entry = totals[name]
            ancestor = span[3]
            while ancestor is not None and ancestor[0] != name:
                ancestor = ancestor[3]
            if ancestor is None:
                entry["calls"] += 1
                entry["incl_s"] += end - start
            covered = 0.0
            reach = start
            for child in sorted(children.get(id(span), ()), key=lambda c: c[1]):
                lo, hi = max(child[1], reach), min(child[2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry["self_s"] += (end - start) - covered
        return totals

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric of this unit (except the two bench.* ones)."""
        totals = self.span_totals()
        counters = self.counters

        def calls(name: str) -> int:
            return int(totals[name]["calls"]) if name in totals else 0

        def incl(name: str) -> float:
            return totals[name]["incl_s"] if name in totals else 0.0

        def own(name: str) -> float:
            return totals[name]["self_s"] if name in totals else 0.0

        hits = misses = writes = 0
        for store, hits0, misses0, writes0 in self._stores:
            hits += store.hits - hits0
            misses += store.misses - misses0
            writes += store.writes - writes0

        forwarded = delivered = retransmissions = control = 0
        corrupted = lost = 0
        for network in self.networks:
            forwarded += sum(r.forwarded_flits for r in network.routers.values())
            delivered += network.stats.completed_messages
            for nic in network.nics.values():
                retransmissions += nic.retransmissions
                control += nic.acks_sent + nic.nacks_sent
            faults = network.fault_counts()
            corrupted += faults["corrupted"]
            lost += faults["lost"]
        served = stalls = 0
        for system in self.systems:
            served += system.memory_controller.served_loads
            served += system.memory_controller.served_evictions
            stalls += sum(core.stall_cycles for core in system.cores.values())

        stepped = calls("noc.network_step")
        skipped = int(counters["sim.cycles_skipped"])
        simulated = stepped + skipped
        router_steps = calls("noc.router_step")
        return {
            "api.scenario_build_calls": calls("api.scenario_build"),
            "api.scenario_build_s": incl("api.scenario_build"),
            "api.config_hash_calls": calls("api.config_hash"),
            "api.config_hash_s": incl("api.config_hash"),
            "api.engine_self_s": own("api.engine"),
            "experiments.scenario_wctt_calls": calls("experiments.scenario_wctt"),
            "experiments.scenario_wctt_self_s": own("experiments.scenario_wctt"),
            "analysis.vector_calls": calls("analysis.vector"),
            "analysis.vector_s": incl("analysis.vector"),
            "analysis.scalar_fallbacks": int(counters["analysis.scalar_fallbacks"]),
            "core.weight_table_builds": calls("core.weight_table"),
            "core.weight_table_s": incl("core.weight_table"),
            "core.scalar_wctt_calls": calls("core.scalar_wctt"),
            "service.store_writes": writes,
            "service.store_write_s": incl("service.store_write"),
            "service.store_bytes_written": int(counters["service.store_bytes_written"]),
            "service.store_reads": calls("service.store_read"),
            "service.store_read_s": incl("service.store_read"),
            "service.store_hits": hits,
            "service.store_misses": misses,
            "service.requests": calls("service.round_trip"),
            "service.encode_s": incl("service.encode"),
            "service.decode_s": incl("service.decode"),
            "service.wire_bytes": int(counters["service.wire_bytes"]),
            "service.round_trip_self_s": own("service.round_trip"),
            "service.computed": int(counters["service.computed"]),
            "sim.cycles": simulated,
            "sim.cycles_stepped": stepped,
            "sim.cycles_skipped": skipped,
            "sim.stepped_ratio": stepped / simulated if simulated else 0.0,
            "sim.activity_probes": calls("sim.activity_probe"),
            "sim.activity_probe_s": incl("sim.activity_probe"),
            "sim.skip_s": incl("sim.skip"),
            "noc.network_builds": calls("noc.network_build"),
            "noc.network_build_s": incl("noc.network_build"),
            "noc.router_steps": router_steps,
            "noc.router_step_s": incl("noc.router_step"),
            "noc.routers_per_stepped_cycle": router_steps / stepped if stepped else 0.0,
            "noc.nic_steps": calls("noc.nic_step"),
            "noc.nic_step_s": incl("noc.nic_step"),
            "noc.flits_forwarded": forwarded,
            "noc.messages_delivered": delivered,
            "manycore.core_steps": calls("manycore.core_step"),
            "manycore.core_step_s": incl("manycore.core_step"),
            "manycore.mc_served": served,
            "manycore.stall_cycles": stalls,
            "faults.transmits": calls("faults.transmit"),
            "faults.transmit_s": incl("faults.transmit"),
            "faults.corrupted": corrupted,
            "faults.lost": lost,
            "faults.retransmissions": retransmissions,
            "faults.control_messages": control,
            "faults.delivered_per_attempt": (
                delivered / (delivered + retransmissions) if delivered else 0.0
            ),
            "faults.mc_trials": int(counters["faults.mc_trials"]),
            "faults.mc_failed_trials": int(counters["faults.mc_failed_trials"]),
            "faults.mc_aggregate_s": own("faults.run_trials"),
            "workloads.traffic_drive_self_s": own("workloads.traffic_drive"),
            "workloads.messages_generated": int(counters["workloads.messages_generated"]),
        }

    def consistency_errors(self, metrics: Dict[str, float]) -> List[str]:
        """Cross-checks between spans and the program's own counters.

        They prove the wrappers saw every call: a missed entry point (say,
        a new stepping path) shows up as a mismatch here.
        """
        errors = []
        final_cycles = sum(network.cycle for network in self.networks)
        if metrics["sim.cycles"] != final_cycles:
            errors.append(
                f"traced cycles {metrics['sim.cycles']} != simulated cycles {final_cycles}"
            )
        transmitted = sum(n.fault_counts()["transmitted"] for n in self.networks)
        if metrics["faults.transmits"] != transmitted:
            errors.append(
                f"traced transmits {metrics['faults.transmits']} != injector count {transmitted}"
            )
        lookups = metrics["service.store_hits"] + metrics["service.store_misses"]
        if metrics["service.store_reads"] != lookups:
            errors.append(
                f"traced store reads {metrics['service.store_reads']} != hits+misses {lookups}"
            )
        return errors

    def export(self, names: Dict[str, int], rows: List[list]) -> None:
        """Append this unit's spans to ``rows`` as index-linked records."""
        index = {id(span): len(rows) + i for i, span in enumerate(self.spans)}
        for span in self.spans:
            parent = index[id(span[3])] if span[3] is not None else -1
            name = names.setdefault(span[0], len(names))
            rows.append([name, round(span[1], 9), round(span[2], 9), parent, span[4]])


def check_assertions(workload: str, metrics: Dict[str, float]) -> List[str]:
    """The layer invariants of ``workload`` that ``metrics`` breaks."""
    errors = []
    for name, metric, relation, value, why in LAYER_ASSERTIONS:
        if name != workload:
            continue
        actual = metrics[metric]
        held = actual == value if relation == "==" else actual > value
        if not held:
            errors.append(f"layer assertion {metric} {relation} {value} ({why}) failed: {actual}")
    return errors


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over traced units (counts repeat exactly)."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ----------------------------------------------------------------------
# Counter hooks (run after the wrapped call returned, outside its span)
# ----------------------------------------------------------------------
def _count_fallback(tracer: Tracer, args: tuple, reason: Any) -> None:
    if reason is not None:
        tracer.count("analysis.scalar_fallbacks")


def _count_store_bytes(tracer: Tracer, args: tuple, path: str) -> None:
    tracer.count("service.store_bytes_written", os.path.getsize(path))


def _count_wire_bytes(tracer: Tracer, args: tuple, blob: bytes) -> None:
    tracer.count("service.wire_bytes", len(blob))


def _count_skipped(tracer: Tracer, args: tuple, result: Any) -> None:
    cycles = args[1]
    if cycles > 0:
        tracer.count("sim.cycles_skipped", cycles)


def _keep_network(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.networks.append(args[0])


def _keep_system(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.systems.append(args[0])


def _count_trials(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("faults.mc_trials", result.trials)
    tracer.count("faults.mc_failed_trials", result.failed_trials)


def _count_generated(tracer: Tracer, args: tuple, sent: list) -> None:
    tracer.count("workloads.messages_generated", len(sent))
