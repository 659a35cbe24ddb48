"""Tests for the arbiters (:mod:`repro.core.arbitration`).

The round-robin arbiter must be fair (no requester starves, at most one grant
to every other port between two grants to the same port); the WaW arbiter
must implement the paper's flit-counter scheme and deliver the configured
bandwidth shares under saturation.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbitration import (
    RoundRobinArbiter,
    WeightedRoundRobinArbiter,
    make_arbiter,
)
from repro.geometry import Port

PORTS = [Port.XPLUS, Port.XMINUS, Port.YPLUS, Port.LOCAL]


class TestRoundRobinArbiter:
    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter([Port.LOCAL, Port.LOCAL])

    def test_empty_request_set_returns_none(self):
        arb = RoundRobinArbiter(PORTS)
        assert arb.grant([]) is None

    def test_unknown_requester_rejected(self):
        arb = RoundRobinArbiter([Port.LOCAL, Port.XPLUS])
        with pytest.raises(ValueError):
            arb.grant([Port.YMINUS])

    def test_single_requester_always_wins(self):
        arb = RoundRobinArbiter(PORTS)
        for _ in range(5):
            assert arb.grant([Port.YPLUS]) is Port.YPLUS

    def test_round_robin_rotation_under_full_contention(self):
        arb = RoundRobinArbiter(PORTS)
        grants = [arb.grant(PORTS) for _ in range(len(PORTS) * 3)]
        counts = Counter(grants)
        # Perfectly fair: every requester granted the same number of times.
        assert set(counts.values()) == {3}

    def test_no_port_waits_more_than_one_full_round(self):
        arb = RoundRobinArbiter(PORTS)
        last_grant = {p: -1 for p in PORTS}
        for i in range(40):
            winner = arb.grant(PORTS)
            for p in PORTS:
                if p is winner:
                    last_grant[p] = i
                else:
                    # Under full contention nobody waits longer than a round.
                    assert i - last_grant[p] <= len(PORTS)

    def test_priority_order_rotates_after_grant(self):
        arb = RoundRobinArbiter(PORTS)
        winner = arb.grant(PORTS)
        assert arb.priority_order()[-1] is winner

    @given(st.lists(st.sampled_from(PORTS), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_grant_is_always_a_requester(self, requests):
        arb = RoundRobinArbiter(PORTS)
        for _ in requests:
            reqs = list(set(requests))
            winner = arb.grant(reqs)
            assert winner in reqs


class TestWeightedRoundRobinArbiter:
    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter([Port.LOCAL, Port.XPLUS], {Port.LOCAL: 1})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter([Port.LOCAL], {Port.LOCAL: -1})

    def test_weights_by_position(self):
        """The router passes each candidate's weight by position."""
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], [3, 1])
        assert arb.weights == {Port.XPLUS: 3, Port.YPLUS: 1}
        assert arb.grant([Port.XPLUS, Port.YPLUS]) is Port.XPLUS

    @pytest.mark.parametrize("weights", [[1], [1, 2, 3], [1, -1]])
    def test_bad_weights_by_position_rejected(self, weights):
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], weights)

    def test_unique_requester_does_not_consume_credit(self):
        """Paper: 'When an input port is the unique candidate ... unaltered'."""
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], {Port.XPLUS: 3, Port.YPLUS: 1})
        before = arb.credit_of(Port.XPLUS)
        assert arb.grant([Port.XPLUS]) is Port.XPLUS
        assert arb.credit_of(Port.XPLUS) == before

    def test_contended_grant_decrements_winner_credit(self):
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], {Port.XPLUS: 3, Port.YPLUS: 1})
        winner = arb.grant([Port.XPLUS, Port.YPLUS])
        assert winner is Port.XPLUS  # larger flit count wins
        assert arb.credit_of(Port.XPLUS) == 2

    def test_largest_counter_wins(self):
        arb = WeightedRoundRobinArbiter(
            [Port.XPLUS, Port.YPLUS, Port.LOCAL],
            {Port.XPLUS: 5, Port.YPLUS: 2, Port.LOCAL: 1},
        )
        assert arb.grant([Port.YPLUS, Port.LOCAL]) is Port.YPLUS

    def test_idle_cycle_refills_up_to_weight(self):
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], {Port.XPLUS: 2, Port.YPLUS: 2})
        arb.grant([Port.XPLUS, Port.YPLUS])
        arb.grant([Port.XPLUS, Port.YPLUS])
        drained = arb.credit_of(Port.XPLUS) + arb.credit_of(Port.YPLUS)
        arb.idle_cycle()
        refilled = arb.credit_of(Port.XPLUS) + arb.credit_of(Port.YPLUS)
        assert refilled == drained + 2
        for _ in range(10):
            arb.idle_cycle()
        assert arb.credit_of(Port.XPLUS) == 2  # saturates at the weight
        assert arb.credit_of(Port.YPLUS) == 2

    def test_bandwidth_shares_under_saturation(self):
        """Under permanent contention the grants follow the 1/3 vs 2/3 split."""
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], {Port.XPLUS: 1, Port.YPLUS: 2})
        rounds = 3_000
        counts = Counter(arb.grant([Port.XPLUS, Port.YPLUS]) for _ in range(rounds))
        share_y = counts[Port.YPLUS] / rounds
        assert abs(share_y - 2 / 3) < 0.05
        assert abs(counts[Port.XPLUS] / rounds - 1 / 3) < 0.05

    def test_guaranteed_share_helper(self):
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], {Port.XPLUS: 1, Port.YPLUS: 2})
        assert arb.guaranteed_share(Port.YPLUS) == pytest.approx(2 / 3)

    def test_zero_weight_port_is_still_served_when_alone(self):
        """Work conservation: a weight-0 port gets the port if nobody else wants it."""
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.LOCAL], {Port.XPLUS: 4, Port.LOCAL: 0})
        assert arb.grant([Port.LOCAL]) is Port.LOCAL

    def test_all_exhausted_still_grants_someone(self):
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], {Port.XPLUS: 1, Port.YPLUS: 1})
        for _ in range(10):
            assert arb.grant([Port.XPLUS, Port.YPLUS]) in (Port.XPLUS, Port.YPLUS)

    def test_tie_break_uses_round_robin(self):
        arb = WeightedRoundRobinArbiter([Port.XPLUS, Port.YPLUS], {Port.XPLUS: 4, Port.YPLUS: 4})
        first = arb.grant([Port.XPLUS, Port.YPLUS])
        # Refill so both are tied again; the other port must win now.
        arb.idle_cycle()
        second = arb.grant([Port.XPLUS, Port.YPLUS])
        assert {first, second} == {Port.XPLUS, Port.YPLUS}

    @given(
        weights=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        pattern=st.lists(st.integers(0, 6), min_size=1, max_size=80),
    )
    @settings(max_examples=40)
    def test_grants_are_always_requesters_and_credits_bounded(self, weights, pattern):
        ports = [Port.XPLUS, Port.YPLUS, Port.LOCAL]
        arb = WeightedRoundRobinArbiter(ports, dict(zip(ports, weights)))
        for step in pattern:
            reqs = [p for i, p in enumerate(ports) if step & (1 << i)]
            winner = arb.grant(reqs)
            if reqs:
                assert winner in reqs
            else:
                assert winner is None
            for port in ports:
                assert 0 <= arb.credit_of(port) <= max(arb.weights[port], 0) + 1


@pytest.mark.parametrize(
    "make",
    [lambda: RoundRobinArbiter(PORTS), lambda: WeightedRoundRobinArbiter(PORTS, [3, 0, 1, 2])],
    ids=["round_robin", "waw"],
)
def test_lone_grant_keeps_state_says_what_pick_does(make):
    """The router grants a lone requester without ``pick`` exactly where the
    arbiter's ``lone_grant_keeps_state`` holds, so the flag must match
    ``pick``: a one-requester pick returns it and, where the flag is set,
    changes nothing."""
    arbiter = make()
    arbiter.pick([0, 1, 2, 3])  # leave the initial state
    changed = False
    for position in range(len(PORTS)):
        before = copy.deepcopy(vars(arbiter))
        assert arbiter.pick([position]) == position
        changed |= vars(arbiter) != before
    assert changed is not arbiter.lone_grant_keeps_state


class TestMakeArbiter:
    def test_unweighted(self):
        arb = make_arbiter(PORTS, weighted=False)
        assert isinstance(arb, RoundRobinArbiter)

    def test_weighted_with_defaults_for_missing_ports(self):
        arb = make_arbiter(PORTS, weighted=True, weights={Port.LOCAL: 3})
        assert isinstance(arb, WeightedRoundRobinArbiter)
        assert arb.weights[Port.XPLUS] == 0
        assert arb.weights[Port.LOCAL] == 3
