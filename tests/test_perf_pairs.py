"""The summary ``tools/perf_pairs.py`` prints, on fixed numbers.

The tool itself runs perfbench for minutes, so tier-1 covers what it
concludes from the runs: quartiles, pair wins, the gain against the
parent's interquartile range and the regression bound.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_pairs = _load_tool()

#: Ten pairs of work_per_s, parent and change, aligned by pair; the change
#: loses pair 4 and ties pair 7.
PARENT = [300.0, 310.0, 290.0, 360.0, 305.0, 295.0, 330.0, 300.0, 315.0, 285.0]
CHANGE = [350.0, 355.0, 340.0, 345.0, 360.0, 350.0, 330.0, 352.0, 348.0, 346.0]


class TestSummary:
    def test_higher_is_better(self):
        summary = perf_pairs.summarize(PARENT, CHANGE, better="higher", bound=0.25)
        assert summary.parent == (302.5, 296.25, 313.75)
        assert summary.change == (349.0, 345.25, 351.5)
        assert (summary.wins, summary.pairs) == (8, 10)
        assert summary.ratio == pytest.approx(349.0 / 302.5)
        # A gain of 46.5 against the parent's IQR of 17.5.
        assert summary.beyond_iqr
        assert not summary.worse_than_bound

    def test_lower_is_better_reverses_every_verdict(self):
        summary = perf_pairs.summarize(PARENT, CHANGE, better="lower", bound=0.1)
        assert (summary.wins, summary.pairs) == (1, 10)
        assert not summary.beyond_iqr
        # 349 is 15 % above 302.5: past a 10 % bound, inside a 25 % one.
        assert summary.worse_than_bound
        relaxed = perf_pairs.summarize(PARENT, CHANGE, better="lower", bound=0.25)
        assert not relaxed.worse_than_bound

    def test_gain_within_the_parents_spread_is_not_beyond_iqr(self):
        parent = [100.0, 90.0, 110.0, 95.0, 105.0]
        change = [104.0, 94.0, 114.0, 99.0, 109.0]
        summary = perf_pairs.summarize(parent, change, better="higher", bound=0.25)
        assert (summary.wins, summary.pairs) == (5, 5)
        # Every pair won, but a 4.0 gain does not clear the IQR of 10.0.
        assert summary.change[0] - summary.parent[0] == 4.0
        assert not summary.beyond_iqr

    def test_single_pair_and_zero_median(self):
        summary = perf_pairs.summarize([0.0], [1.0], better="higher", bound=0.01)
        assert summary.parent == (0.0, 0.0, 0.0)
        assert summary.wins == 1 and summary.beyond_iqr
        assert math.isnan(summary.ratio)

    def test_rejects_unaligned_or_unknown_input(self):
        with pytest.raises(ValueError, match="same"):
            perf_pairs.summarize([1.0, 2.0], [1.0], better="higher", bound=0.1)
        with pytest.raises(ValueError, match="same"):
            perf_pairs.summarize([], [], better="higher", bound=0.1)
        with pytest.raises(ValueError, match="higher"):
            perf_pairs.summarize([1.0], [1.0], better="faster", bound=0.1)


class TestResultLine:
    def test_reads_the_last_line(self):
        result = {"correct": True, "attempted": 16, "failed": 0, "metrics": {}}
        stdout = "perfbench eembc_sim: seed=1\n  lines for people\n" + json.dumps(result) + "\n"
        assert perf_pairs.result_line(stdout) == result

    def test_empty_output_is_an_error(self):
        with pytest.raises(ValueError, match="nothing"):
            perf_pairs.result_line("\n")

    def test_every_benchmark_metric_has_a_direction_and_bound(self):
        metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        for metric in metrics:
            assert metric["better"] in ("higher", "lower")
            assert metric["bound"] >= 0
