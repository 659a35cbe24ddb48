"""The event-driven backend: skip cycles in which nothing can happen.

The cycle-accurate model is *quiescent* between activity points: once every
buffered head-of-line flit has a ``ready_cycle`` in the future, no NIC holds
both queued flits and injection credits, every core is mid-compute-gap or
stalled on a reply and no memory-controller reply is due, then stepping the
clock changes nothing except

* the WaW arbiters of requester-less output ports, whose per-port credit
  counters gain one unit per idle cycle saturating at the port weight
  (:meth:`~repro.core.arbitration.Arbiter.idle_cycles` applies ``k`` of
  those in closed form), and
* per-core ``stall_cycles`` / ``compute_cycles`` bookkeeping, which is
  linear in the number of skipped cycles.

This backend therefore asks, once per iteration, for the next cycle at which
*any* component can act (``next_activity_cycle``), replays the skipped
stretch's state effects in closed form (``skip_idle_cycles`` /
``skip_cycles``) and performs an ordinary step at the activity point.  That
step is ``step_active``: it evaluates only the busy routers and NICs, runs
the same per-component steps and event application as the reference
backend's ``step`` and prunes the busy sets the same way, which is what
makes the results bit-identical.  Only a finished simulation has no next
activity, so completion (``is_idle`` / ``is_complete``) is asked only when
the probe finds none.  The speedup comes from never iterating routers, NICs
and cores over the dead cycles between activity points: compute gaps of
EEMBC-like profiles, memory service latencies and link/pipeline delays.

The activity estimate is deliberately *conservative* (a lower bound on the
next interesting cycle): a head flit that is ready but blocked on credits
pins the estimate to "now", in which case the backend degrades gracefully
to plain cycle-accurate stepping -- never to a wrong result.
"""

from __future__ import annotations

from .backend import (
    SimulationBackend,
    network_stall_error,
    register_backend,
    system_stall_error,
)

__all__ = ["EventDrivenBackend"]


@register_backend
class EventDrivenBackend(SimulationBackend):
    """Advance the clock in jumps between activity points."""

    name = "event"

    def run_until_idle(self, network, *, max_cycles: int = 1_000_000) -> int:
        _walk(network, network.is_idle, network.skip_idle_cycles, max_cycles, network_stall_error)
        return network.cycle

    def run_to_completion(self, system, *, max_cycles: int = 5_000_000) -> int:
        start = system.cycle
        _walk(system, system.is_complete, system.skip_cycles, max_cycles, system_stall_error)
        return system.cycle - start


def _walk(sim, finished, skip, max_cycles: int, stall_error) -> None:
    """Step or jump ``sim`` (a network or a system) until ``finished()``.

    Each iteration asks the activity probe once.  A finished simulation has
    no next activity, so ``finished()`` is asked only when the probe returns
    ``None``; if it is not finished then, nothing will ever act again and
    only the cycle budget ends the run.  Jumps are clamped to the first
    cycle past the budget, so the stall error fires on exactly the cycle
    the cycle-accurate loop raises it.
    """
    probe = sim.next_activity_cycle
    step = sim.step_active
    budget_end = sim.cycle + max_cycles
    while True:
        target = probe()
        if target is None:
            if finished():
                return
            target = budget_end + 1
        now = sim.cycle
        if now > budget_end:
            raise stall_error(sim, max_cycles)
        if target > now:
            skip(min(target, budget_end + 1) - now)
        else:
            step()
