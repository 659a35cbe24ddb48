"""Tests of the Monte-Carlo reliability engine and its statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.faults.montecarlo import (
    LatencyDistribution,
    MonteCarloResult,
    TrialOutcome,
    available_workloads,
    percentile,
    run_trials,
)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank_on_known_data(self):
        data = list(range(1, 101))  # 1..100
        assert percentile(data, 50) == 50
        assert percentile(data, 90) == 90
        assert percentile(data, 99) == 99
        assert percentile(data, 99.9) == 100
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100

    def test_always_returns_an_observed_value(self):
        data = [3, 1, 4, 1, 5, 9, 2, 6]
        for q in (0, 10, 33.3, 50, 75, 99, 100):
            assert percentile(data, q) in data

    def test_single_sample(self):
        assert percentile([7], 99.9) == 7

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50),
           st.floats(0, 100, allow_nan=False))
    def test_monotone_in_q(self, data, q):
        assert percentile(data, q) <= percentile(data, 100)
        assert percentile(data, 0) <= percentile(data, q)


# ----------------------------------------------------------------------
# Distribution statistics
# ----------------------------------------------------------------------
class TestLatencyDistribution:
    def test_summary_of_known_samples(self):
        dist = LatencyDistribution.from_samples([10, 20, 30, 40])
        assert dist.count == 4
        assert dist.mean == pytest.approx(25.0)
        assert dist.minimum == 10 and dist.maximum == 40
        assert dist.p50 == 20
        assert dist.ci95 == pytest.approx(1.96 * dist.std / 2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LatencyDistribution.from_samples([])

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(1, 10_000), min_size=2, max_size=40).filter(
            lambda xs: len(set(xs)) > 1
        ),
        st.integers(2, 6),
    )
    def test_ci_width_shrinks_as_one_over_sqrt_n(self, samples, k):
        """Duplicating the sample set k times shrinks ci95 by exactly sqrt(k).

        ``ci95`` uses the *population* standard deviation, which is invariant
        under duplication, so the k-fold sample gives ci95 / sqrt(k) exactly
        -- the 1/sqrt(N) convergence a Monte-Carlo mean estimate must show.
        """
        base = LatencyDistribution.from_samples(samples)
        bigger = LatencyDistribution.from_samples(samples * k)
        assert bigger.std == pytest.approx(base.std)
        assert bigger.ci95 == pytest.approx(base.ci95 / math.sqrt(k))


# ----------------------------------------------------------------------
# Trial engine
# ----------------------------------------------------------------------
def _faulty_config(**overrides):
    model = {
        "kind": "independent",
        "corrupt_rate": 0.01,
        "loss_rate": 0.005,
        "ack_timeout": 128,
    }
    model.update(overrides)
    return Scenario.mesh(3).waw_wap().fault_model(model).build()


class TestRunTrials:
    def test_workload_registry(self):
        assert available_workloads() == ["eembc", "uniform"]
        with pytest.raises(ValueError, match="unknown Monte-Carlo workload"):
            run_trials(_faulty_config(), trials=1, workload="bogus")
        with pytest.raises(ValueError, match="trials"):
            run_trials(_faulty_config(), trials=0)

    def test_same_base_seed_reproduces_exactly(self):
        kwargs = dict(trials=3, base_seed=5, workload="uniform",
                      injection_rate=0.05, cycles=120)
        first = run_trials(_faulty_config(), **kwargs)
        second = run_trials(_faulty_config(), **kwargs)
        assert first.outcomes == second.outcomes
        assert first.distribution == second.distribution
        assert first.fault_counts == second.fault_counts

    def test_different_base_seed_gives_different_faults(self):
        kwargs = dict(trials=2, workload="uniform", injection_rate=0.05, cycles=120)
        a = run_trials(_faulty_config(), base_seed=1, **kwargs)
        b = run_trials(_faulty_config(), base_seed=100, **kwargs)
        assert a.fault_counts != b.fault_counts or a.distribution != b.distribution

    def test_trials_use_distinct_seeds(self):
        result = run_trials(_faulty_config(), trials=4, base_seed=9,
                            workload="uniform", cycles=80)
        assert [o.seed for o in result.outcomes] == [9, 10, 11, 12]

    def test_parallel_equals_serial(self):
        kwargs = dict(trials=4, base_seed=2, workload="uniform",
                      injection_rate=0.05, cycles=100)
        serial = run_trials(_faulty_config(), jobs=1, **kwargs)
        parallel = run_trials(_faulty_config(), jobs=4, **kwargs)
        assert serial.outcomes == parallel.outcomes
        assert serial.distribution == parallel.distribution

    def test_null_model_trials_are_identical(self):
        config = Scenario.mesh(3).waw_wap().build()
        result = run_trials(config, trials=3, workload="uniform", cycles=80)
        assert result.failed_trials == 0
        assert result.total_retransmissions == 0
        assert len(set(result.makespans)) == 1
        latencies = {o.latencies for o in result.outcomes}
        assert len(latencies) == 1

    def test_exhausted_retries_captured_as_failed_trial(self):
        config = _faulty_config(loss_rate=1.0, corrupt_rate=0.0,
                                ack_timeout=16, max_retries=1)
        result = run_trials(config, trials=2, workload="uniform",
                            injection_rate=0.05, cycles=40)
        assert result.failed_trials == 2
        assert result.failure_rate == 1.0
        assert result.distribution is None
        for outcome in result.outcomes:
            assert outcome.failed
            assert "abandoned after 2 attempts" in outcome.failure
            assert "message" in outcome.failure and "seq" in outcome.failure
        # A failed study still serialises cleanly.
        assert result.as_dict()["failure_rate"] == 1.0

    def test_uniform_8x8_trial_delivers_every_message(self):
        """HARQ recovers every message of a uniform-traffic trial on the 8x8
        WaW+WaP mesh at a 0.005 total flit-fault rate."""
        config = (
            Scenario.mesh(8)
            .waw_wap()
            .fault_model("independent", corrupt_rate=0.0025, loss_rate=0.0025, ack_timeout=128)
            .build()
        )
        result = run_trials(config, trials=1, workload="uniform", injection_rate=0.05, cycles=300)
        assert result.failed_trials == 0
        assert result.total_retransmissions > 0
        assert result.distribution.count == result.outcomes[0].delivered_messages > 0

    def test_eembc_workload_produces_reply_samples(self):
        result = run_trials(_faulty_config(), trials=2, workload="eembc",
                            scale=0.002, background=2)
        assert result.failed_trials == 0
        assert result.distribution is not None
        assert result.distribution.count > 0
        assert result.fault_counts["transmitted"] > 0
        assert all(o.delivered_messages > 0 for o in result.outcomes)


# ----------------------------------------------------------------------
# The registered experiment
# ----------------------------------------------------------------------
class TestReliabilitySweepExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments import reliability_sweep

        return reliability_sweep.run(
            mesh_size=3, fault_rates=(0.0, 0.02), trials=3,
            scale=0.004, background=2,
        )

    def test_row_per_fault_rate(self, rows):
        assert [r.fault_rate for r in rows] == [0.0, 0.02]
        assert all(r.topology == "mesh" and r.mesh == "3x3" for r in rows)

    def test_zero_rate_tail_within_analytical_bound(self, rows):
        clean = rows[0]
        assert clean.trials == 1
        assert clean.retransmissions == 0
        assert clean.p99 <= clean.wctt_bound
        assert clean.p99_over_bound <= 1.0

    def test_faulty_rate_degrades_the_tail(self, rows):
        clean, faulty = rows
        assert faulty.retransmissions > 0
        assert faulty.p999 >= clean.p999
        assert faulty.ci95 >= 0.0

    def test_rows_serialise_for_experiment_result(self, rows):
        data = rows[1].as_dict()
        assert data["fault rate"] == 0.02
        assert "p99/bound" in data and "WCTT bound" in data

    def test_report_mentions_bound_crossings(self, rows):
        from repro.experiments import reliability_sweep

        text = reliability_sweep.report(rows)
        assert "WCTT" in text


class TestAsDictRounding:
    def test_every_statistic_is_a_rounded_float(self):
        """One rounding policy: three digits, always a float (int samples
        used to leak through min/max/percentiles unrounded)."""
        dist = LatencyDistribution.from_samples([10, 20, 30, 41])
        data = dist.as_dict()
        assert data["count"] == 4
        for key, value in data.items():
            if key == "count":
                continue
            assert isinstance(value, float), key
            assert value == round(value, 3), key
        assert data["min"] == 10.0
        assert data["max"] == 41.0
        assert data["mean"] == 25.25

    def test_irrational_statistics_round_to_three_digits(self):
        dist = LatencyDistribution.from_samples([1, 2, 4])
        data = dist.as_dict()
        assert data["mean"] == round(7 / 3, 3)
        assert data["std"] == round(dist.std, 3)
        assert data["ci95"] == round(dist.ci95, 3)
