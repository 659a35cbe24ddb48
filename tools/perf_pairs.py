#!/usr/bin/env python3
"""Compare two revisions on one perfbench workload in alternating pairs.

Usage (from anywhere inside the repository)::

    python tools/perf_pairs.py PARENT_REV CHANGE_REV --workload eembc_sim \\
        --pairs 10 --seconds 30 [--seed 1]

Both revisions are exported with ``git archive`` into one temporary
directory, and ``perfbench/run.py --trace 0`` runs in each export in turn,
under ``PYTHONDONTWRITEBYTECODE=1`` so that no run finds bytecode another
one compiled.  Pair ``i`` runs the parent first when ``i`` is odd and the
change first when it is even, so drift of the host's speed does not favour
one side.  Every run's end-to-end metrics are printed as it ends; then, per
metric, each side's median and quartiles, the pairs the change won (ties
count for neither side), whether the change's median beats the parent's by
more than the parent's interquartile range, and whether it is worse than
the parent's median by more than the metric's bound in ``BENCHMARK.json``.
The last line says whether every run ended ``"correct": true``; the exit
status is 0 only then.  The temporary directory is deleted at the end, and
nothing is written in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class MetricSummary(NamedTuple):
    """One end-to-end metric over the pairs, parent against change."""

    #: Median, first and third quartile of each side's runs.
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    #: Pairs in which the change read better (ties count for neither).
    wins: int
    pairs: int
    #: The change's median over the parent's.
    ratio: float
    #: The change's median is better than the parent's by more than the
    #: parent's interquartile range.
    beyond_iqr: bool
    #: The change's median is worse than the parent's by more than ``bound``
    #: (a fraction of the parent's median).
    worse_than_bound: bool


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """Median, first and third quartile of ``values``."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(
    parent: Sequence[float], change: Sequence[float], *, better: str, bound: float
) -> MetricSummary:
    """Compare pair-aligned runs of one metric; ``better`` is ``higher`` or ``lower``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1 if better == "higher" else -1
    ours, theirs = spread(change), spread(parent)
    gain = sign * (ours[0] - theirs[0])
    return MetricSummary(
        parent=theirs,
        change=ours,
        wins=sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        pairs=len(parent),
        ratio=ours[0] / theirs[0] if theirs[0] else float("nan"),
        beyond_iqr=gain > theirs[2] - theirs[1],
        worse_than_bound=-gain > bound * abs(theirs[0]),
    )


def result_line(stdout: str) -> Dict:
    """The JSON object perfbench prints as its last line of output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, args: argparse.Namespace) -> Dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", "0"],
        cwd=str(tree), env=env, capture_output=True, text=True,
    )
    try:
        return result_line(proc.stdout)
    except ValueError as error:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf_pairs: no result from {tree.name}: {error}")


def _format(values: Tuple[float, float, float]) -> str:
    median, q1, q3 = values
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}

    runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
    workdir = Path(tempfile.mkdtemp(prefix="perf-pairs-"))
    try:
        trees = {side: workdir / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent_rev, args.change_rev)):
            export(rev, trees[side])
        print(f"perf_pairs: {args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
              f"seed {args.seed}: parent {args.parent_rev}, change {args.change_rev}")
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], args)
                runs[side].append(result)
                values = "  ".join(
                    f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
                )
                print(f"pair {pair:2d} {side:6s}  {values}  correct={result['correct']}",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{'metric':12s} {'parent median [q1, q3]':32s} {'change median [q1, q3]':32s}"
          f" {'ratio':>7s} {'wins':>6s}  gain>IQR  worse>bound")
    for name, spec in metrics.items():
        summary = summarize(
            [run["metrics"][name]["value"] for run in runs["parent"]],
            [run["metrics"][name]["value"] for run in runs["change"]],
            better=spec["better"],
            bound=spec["bound"],
        )
        print(f"{name:12s} {_format(summary.parent):32s} {_format(summary.change):32s}"
              f" {summary.ratio:6.3f}x {summary.wins:2d}/{summary.pairs:<3d}"
              f"  {'yes' if summary.beyond_iqr else 'no':8s}"
              f"  {'yes' if summary.worse_than_bound else 'no'}")
    correct = all(run["correct"] for side in SIDES for run in runs[side])
    print(f"every run correct: {'yes' if correct else 'NO'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
