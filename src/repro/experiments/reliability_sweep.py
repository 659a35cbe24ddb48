"""Experiment (extension) -- latency under link faults vs the WCTT bound.

The paper's WCTT analysis bounds the worst-case traversal time on perfectly
reliable links.  This experiment asks the complementary, probabilistic
question: when links corrupt or drop flits and the NICs retransmit
(HARQ-style, :mod:`repro.faults`), what latency does the bounded flow
*actually* see -- and at which fault rate do its tail percentiles cross the
analytical reliable-link bound?

For every (topology, fault-rate) cell the Monte-Carlo engine
(:func:`repro.faults.montecarlo.run_trials`) replays the multiprogrammed
EEMBC-like workload across seeded trials: the node farthest from the memory
controller runs a memory-bound profile (the *victim*, the flow whose WCTT
the paper bounds) amid background cores.  The pooled reply-latency samples
yield mean / p50 / p99 / p999 with a 95 % confidence interval, reported
next to the analytical WCTT bound of the victim's reply flow.  A fault rate
of 0 runs a single trial (the simulation is deterministic there) and must
sit below the bound; nonzero rates show the tail latencies growing past it
as retransmissions pile up -- the regime the deterministic analysis cannot
see, and the reason a reliability argument needs both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.backends import make_analysis_backend
from ..analysis.reporting import format_table, format_title
from ..api import Scenario, experiment, unwrap
from ..faults.montecarlo import run_trials

__all__ = ["ReliabilityRow", "run", "report"]


@dataclass(frozen=True)
class ReliabilityRow:
    """One (topology, fault rate) cell of the sweep."""

    topology: str
    mesh: str
    fault_rate: float
    trials: int
    failed_trials: int
    delivered: int
    retransmissions: int
    mean_latency: float
    p50: float
    p99: float
    p999: float
    ci95: float
    wctt_bound: int

    @property
    def p99_over_bound(self) -> float:
        """The p99 latency as a fraction of the analytical WCTT bound."""
        return self.p99 / self.wctt_bound

    def as_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "mesh": self.mesh,
            "fault rate": self.fault_rate,
            "trials": self.trials,
            "failed trials": self.failed_trials,
            "delivered": self.delivered,
            "retransmissions": self.retransmissions,
            "mean": round(self.mean_latency, 2),
            "p50": self.p50,
            "p99": self.p99,
            "p99.9": self.p999,
            "ci95": round(self.ci95, 2),
            "WCTT bound": self.wctt_bound,
            "p99/bound": round(self.p99_over_bound, 3),
        }


@experiment(
    "reliability_sweep",
    description="Monte-Carlo latency under link faults vs the analytical WCTT bound",
    paper_reference="extension (reliability; HARQ feedback after arXiv:1601.04131)",
    quick_params={
        "mesh_size": 3,
        "fault_rates": (0.0, 0.01),
        "trials": 3,
        "scale": 0.004,
        "background": 2,
    },
    sweep_axes={
        "size": lambda v: {"mesh_size": v},
        "fault_rate": lambda v: {"fault_rates": (v,)},
        "trials": lambda v: {"trials": v},
        "backend": lambda v: {"backend": v},
    },
)
def run(
    *,
    mesh_size: int = 4,
    topologies: Sequence[str] = ("mesh",),
    fault_rates: Sequence[float] = (0.0, 0.005, 0.02),
    trials: int = 10,
    base_seed: int = 1,
    scale: float = 0.01,
    background: int = 3,
    ack_timeout: int = 256,
    max_retries: int = 8,
    backend: str = "event",
    jobs: int = 1,
) -> List[ReliabilityRow]:
    """Sweep fault rates (and optionally topologies) on the WaW+WaP design.

    ``fault_rates`` are total per-link per-flit fault probabilities, split
    evenly between corruption and loss; rate 0 runs one deterministic trial,
    nonzero rates run ``trials`` seeded Monte-Carlo trials each.  ``scale``
    and ``background`` size the EEMBC-like workload (see
    ``repro.faults.montecarlo``); ``jobs`` fans trials out over worker
    processes.  The analytical bound column is the reliable-link WCTT of
    the victim's memory-reply flow on the corresponding topology.
    """
    rows: List[ReliabilityRow] = []
    for topology in topologies:
        scenario = (
            Scenario.mesh(mesh_size)
            .topology(topology)
            .waw_wap()
            .backend(backend)
        )
        base_config = scenario.build()
        mc = base_config.memory_controller
        victim = sorted(
            (c for c in base_config.mesh.nodes() if c != mc),
            key=lambda c: (c.manhattan(mc), c.y, c.x),
        )[-1]
        bound = make_analysis_backend(None).analysis(base_config).wctt_message(
            mc, victim, payload_flits=base_config.messages.reply_flits
        )
        for rate in fault_rates:
            config = scenario.fault_model(
                "independent",
                corrupt_rate=rate / 2.0,
                loss_rate=rate / 2.0,
                seed=base_seed,
                ack_timeout=ack_timeout,
                max_retries=max_retries,
            ).build()
            cell_trials = 1 if rate == 0.0 else trials
            result = run_trials(
                config,
                trials=cell_trials,
                base_seed=base_seed,
                workload="eembc",
                jobs=jobs,
                profile="matrix",
                scale=scale,
                background=background,
            )
            dist = result.distribution
            if dist is None:
                raise RuntimeError(
                    f"no latency samples at fault rate {rate} "
                    f"({result.failed_trials}/{cell_trials} trials failed); "
                    "raise max_retries or lower the fault rate"
                )
            rows.append(
                ReliabilityRow(
                    topology=topology,
                    mesh=f"{mesh_size}x{mesh_size}",
                    fault_rate=rate,
                    trials=cell_trials,
                    failed_trials=result.failed_trials,
                    delivered=sum(o.delivered_messages for o in result.outcomes),
                    retransmissions=result.total_retransmissions,
                    mean_latency=dist.mean,
                    p50=dist.p50,
                    p99=dist.p99,
                    p999=dist.p999,
                    ci95=dist.ci95,
                    wctt_bound=bound,
                )
            )
    return rows


def report(rows: Optional[List[ReliabilityRow]] = None) -> str:
    rows = unwrap(rows) if rows is not None else unwrap(run())
    title = format_title(
        "Reliability sweep -- Monte-Carlo latency under link faults vs WCTT bound"
    )
    table = format_table([r.as_dict() for r in rows])
    crossed = [r for r in rows if r.fault_rate > 0 and r.p99_over_bound > 1.0]
    note = (
        "\nTail latencies exceed the reliable-link WCTT bound at fault rate(s): "
        + ", ".join(f"{r.fault_rate:g} ({r.topology})" for r in crossed)
        if crossed
        else "\nAll observed tail latencies stay below the reliable-link WCTT bound."
    )
    return f"{title}\n{table}{note}"


def main() -> None:  # pragma: no cover - thin CLI wrapper
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
