"""Output-port arbiters: round-robin and the WaW weighted round-robin.

These classes are the behavioural model of the arbitration hardware and are
used directly by the cycle-accurate router model (:mod:`repro.noc.router`).
They are deliberately free of any simulator dependency so that they can also
be unit- and property-tested in isolation (fairness, work conservation,
bandwidth shares).

The WaW arbiter implements the scheme described verbatim in the paper
(Section III, "WaW implementation"):

* each input port has a *flit count* initialised to its weight (the number of
  flits it may transmit to the output port in one round);
* when several input ports contend, the one with the **largest flit count**
  wins and its count is decremented by one;
* ties are broken with a conventional round-robin policy;
* when an input port is the **unique** candidate its flit count is unaltered
  (work conservation does not consume guaranteed bandwidth);
* when **no** input port demands the output port, every flit count is
  incremented, saturating at the port weight.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..geometry import Port

__all__ = ["Arbiter", "RoundRobinArbiter", "WeightedRoundRobinArbiter"]


class Arbiter:
    """Interface of a single output-port arbiter.

    The router drives an arbiter through :meth:`pick`, by *position* in
    ``candidates``, and the per-cycle state (the round-robin pointer, the
    WaW flit counters) is indexed by position, so arbitration never hashes
    a :class:`Port`.  The ``Port``-level methods (:meth:`grant`, and the
    WaW ``credit_of``/``weights``) translate at the boundary.
    """

    def __init__(self, candidates: Sequence[Port]):
        if not candidates:
            raise ValueError("an arbiter needs at least one candidate input port")
        if len(set(candidates)) != len(candidates):
            raise ValueError("duplicate candidate input ports")
        self.candidates: Tuple[Port, ...] = tuple(candidates)
        #: Round-robin pointer: the position in ``candidates`` with the
        #: highest priority (WaW uses it to break ties between equal counters).
        self._next_priority = 0

    def grant(self, requesters: Iterable[Port]) -> Optional[Port]:
        """Select one of ``requesters`` (must be candidates); ``None`` if empty.

        Calling ``grant`` advances the arbiter state exactly as one
        arbitration cycle of the hardware would; an empty request set is an
        idle cycle.
        """
        reqs = list(requesters)
        unknown = [r for r in reqs if r not in self.candidates]
        if unknown:
            raise ValueError(f"unknown requester port(s): {unknown}")
        if not reqs:
            self.idle_cycle()
            return None
        return self.candidates[self.pick(sorted(self.candidates.index(r) for r in reqs))]

    def pick(self, positions: List[int]) -> int:
        """Position-level :meth:`grant`: choose among the requesting
        ``positions`` in ``candidates`` (ascending, non-empty), advance the
        arbiter state and return the winner's position."""
        raise NotImplementedError

    def idle_cycle(self) -> None:
        """Notify the arbiter that the output port had no requester this cycle."""
        # Plain round-robin keeps no idle-cycle state; WaW refills credits.
        return None

    def idle_cycles(self, cycles: int) -> None:
        """Apply ``cycles`` consecutive requester-less cycles in one call.

        Must leave the arbiter in exactly the state that ``cycles`` calls to
        :meth:`idle_cycle` would; the event-driven simulation backend relies
        on this when it skips over stretches of cycles in which no port can
        move a flit.  Subclasses whose ``idle_cycle`` keeps state must
        override this with a closed-form equivalent.
        """
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        # The base arbiter (round-robin) keeps no idle-cycle state.
        return None

    def _rotate(self, positions: List[int]) -> int:
        """Round-robin choice: the first of ``positions`` (ascending) at or
        after the pointer, wrapping around; the winner gets the lowest
        priority next time."""
        winner = positions[0]
        for position in positions:
            if position >= self._next_priority:
                winner = position
                break
        self._next_priority = (winner + 1) % len(self.candidates)
        return winner


class RoundRobinArbiter(Arbiter):
    """Classic rotating-priority round-robin arbiter.

    The port granted most recently gets the lowest priority in the next
    arbitration, which guarantees that between two consecutive grants to the
    same port every other requesting port is served at most once -- the
    property the regular-mesh WCTT analysis relies on.
    """

    def pick(self, positions: List[int]) -> int:
        return self._rotate(positions)

    def priority_order(self) -> List[Port]:
        """Current priority order, highest first (exposed for tests)."""
        n = len(self.candidates)
        return [self.candidates[(self._next_priority + i) % n] for i in range(n)]


class WeightedRoundRobinArbiter(Arbiter):
    """The WaW arbiter: per-input flit counters with largest-counter-first.

    ``weights`` maps each candidate input port to the number of flits it may
    transmit in one arbitration round (the integer WaW weight, i.e. the
    number of flows reaching the output through that input).  A port with
    weight zero can still be granted when it is the only requester or when
    every contender has exhausted its credits -- the arbiter is work
    conserving -- but it never takes bandwidth away from weighted ports under
    contention.
    """

    def __init__(self, candidates: Sequence[Port], weights: Mapping[Port, int]):
        super().__init__(candidates)
        missing = [p for p in candidates if p not in weights]
        if missing:
            raise ValueError(f"missing weights for ports: {missing}")
        negative = {p: w for p, w in weights.items() if w < 0}
        if negative:
            raise ValueError(f"weights must be non-negative: {negative}")
        #: Weight of each candidate, by position.
        self._weights: List[int] = [int(weights[p]) for p in self.candidates]
        #: Current flit credits, by position; start a round with full credits.
        self._credits: List[int] = list(self._weights)

    @property
    def weights(self) -> Dict[Port, int]:
        """The weight of each candidate port."""
        return dict(zip(self.candidates, self._weights))

    # ------------------------------------------------------------------
    def pick(self, positions: List[int]) -> int:
        if len(positions) == 1:
            # "When an input port is the unique candidate to access an output
            # port, its flit count is unaltered."
            return positions[0]

        credits = self._credits
        best_credit = max(credits[p] for p in positions)
        tied = [p for p in positions if credits[p] == best_credit]
        if len(tied) == 1:
            winner = tied[0]
        else:
            # "If more than one contender has the largest flit count, a
            # conventional round robin policy is used to arbitrate."
            winner = self._rotate(tied)
        if credits[winner] > 0:
            credits[winner] -= 1
        else:
            # Every contender is exhausted; serving one anyway keeps the
            # output busy (work conservation) and the subsequent refill on
            # idle cycles restores the guaranteed shares.
            self._refill_all()
            if credits[winner] > 0:
                credits[winner] -= 1
        return winner

    def idle_cycle(self) -> None:
        """No requester this cycle: refill every counter up to its weight."""
        credits = self._credits
        if credits == self._weights:
            return
        for position, weight in enumerate(self._weights):
            if credits[position] < weight:
                credits[position] += 1

    def idle_cycles(self, cycles: int) -> None:
        """Closed form of ``cycles`` consecutive :meth:`idle_cycle` calls.

        Each idle cycle increments every counter by one, saturating at the
        port weight, so ``cycles`` of them add ``cycles`` with the same cap.
        """
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        if cycles == 0:
            return
        credits = self._credits
        for position, weight in enumerate(self._weights):
            if credits[position] < weight:
                credits[position] = min(weight, credits[position] + cycles)

    # ------------------------------------------------------------------
    def _refill_all(self) -> None:
        self._credits[:] = self._weights

    def credit_of(self, port: Port) -> int:
        """Current flit credit of ``port`` (exposed for tests/diagnostics)."""
        return self._credits[self.candidates.index(port)]

    def guaranteed_share(self, port: Port) -> float:
        """Long-run bandwidth fraction guaranteed to ``port`` under saturation."""
        total = sum(self._weights)
        if total == 0:
            return 1.0 / len(self.candidates)
        return self._weights[self.candidates.index(port)] / total


def make_arbiter(
    candidates: Sequence[Port],
    *,
    weighted: bool,
    weights: Optional[Mapping[Port, int]] = None,
) -> Arbiter:
    """Factory used by the router model.

    ``weights`` is required when ``weighted`` is true; candidates missing
    from the mapping default to weight zero (ports that no flow can use).
    """
    if not weighted:
        return RoundRobinArbiter(candidates)
    weights = dict(weights or {})
    for port in candidates:
        weights.setdefault(port, 0)
    return WeightedRoundRobinArbiter(candidates, weights)
