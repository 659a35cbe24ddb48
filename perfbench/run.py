#!/usr/bin/env python3
"""Repository benchmark: measured and traced runs of three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

``--trace 0`` measures the end-to-end metrics with the program unmodified;
``--trace 1`` alternates untraced and traced units of work and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.  Run records and the
traced spans are written under ``.perfbench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

import tracer

_clock = time.perf_counter
_PROCESS_START = _clock()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sweep", "eembc_sim", "faulty_mc")

#: End-to-end metrics: name -> unit.  Each workload reports every one.
END_TO_END = {
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

#: How work_per_s and the per-operation latency read on each workload.
LABELS = {
    "sweep": ("points_per_s", "design points/s, cold phase incl. store write",
              "warm", "store-served submit round trip"),
    "eembc_sim": ("sim_cycles_per_s", "simulated cycles per host second",
                  "kernel", "one kernel run"),
    "faulty_mc": ("trials_per_s", "Monte-Carlo trials/s",
                  "trial", "one trial"),
}

#: Host speed work_per_s is scaled to: the fixed loop of host_loop_ms()
#: takes this long on it.  Co-located load moves this host's speed by up
#: to half between runs (the loop and the workloads slow down together),
#: so each unit's time is scaled by the loop timed around it; the raw
#: figures are printed and recorded next to them.  Set-up (imports,
#: process start) does not follow the loop and is reported raw.
REFERENCE_LOOP_MS = 12.0

#: Peak resident memory is read after this many units of work: the
#: program leaves cyclic garbage that only a full collection frees, so the
#: process peak keeps growing with every unit, and a host-speed-dependent
#: unit count would make it unsteady.
RSS_UNITS = 4

#: Extra set-up samples taken in child processes (import cannot repeat
#: in-process); with the run's own set-up they give five samples.
SETUP_PROBES = 4


def p99(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else samples[0]


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter: import, inputs, daemon start."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args: argparse.Namespace) -> int:
    import workloads  # imports repro: part of the set-up being timed
    from workloads import host_loop_ms

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_samples = [_clock() - _PROCESS_START]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        setup_loops = [host_loop_ms()]
        setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        setup_loops.append(host_loop_ms())
        if args.trace:
            record = traced_run(workload, args)
        else:
            record = measured_run(workload, args)
        record["errors"] += workload.final_check()
        host_after = host_loop_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_samples_s=setup_samples,
        host_loop_ms=[setup_loops[0], setup_loops[1], host_after],
    )
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        record["layers"]["bench.host_loop_ms"] = statistics.median(record["host_loop_ms"])
        for name, unit in tracer.LAYER_METRICS.items():
            metrics[name] = {"value": record["layers"][name], "unit": unit}
    else:
        values = record["values"]
        values["setup_s"] = statistics.median(setup_samples)
        values["ok_ratio"] = (record["attempted"] - record["failed"]) / record["attempted"]
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    correct = not record["errors"]
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print_report(record, args)
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def measured_run(workload, args: argparse.Namespace) -> Dict[str, Any]:
    """Units of work until the budget is spent; medians over units."""
    rates: List[float] = []
    ops: List[tuple] = []
    loops: List[float] = []
    walls: List[float] = []
    attempted = failed = 0
    errors: List[str] = []
    start = _clock()
    index = 0
    while True:
        unit = workload.unit(index)
        loops.append(unit.loop_ms)
        errors += workload.check(index, unit.outputs)
        rates.append(unit.work / unit.seconds)
        ops += [(x, loops[-1]) for x in unit.op_seconds]
        walls.append(unit.wall)
        attempted += unit.attempted
        failed += unit.failed
        index += 1
        if index <= RSS_UNITS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if _clock() - start + statistics.median(walls) > args.seconds:
            break
    scaled_rates = [rate * loop / REFERENCE_LOOP_MS for rate, loop in zip(rates, loops)]
    raw_ops = [x * 1000.0 for x, _ in ops]
    scaled_ops = [x * 1000.0 * REFERENCE_LOOP_MS / loop for x, loop in ops]
    return {
        "units": index,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "values": {"work_per_s": statistics.median(scaled_rates), "peak_rss_mb": peak_rss_mb},
        "raw": {"work_per_s": statistics.median(rates)},
        "op_ms": {
            "samples": len(ops),
            "p50": statistics.median(scaled_ops),
            "p99": p99(scaled_ops),
            "raw_p50": statistics.median(raw_ops),
            "raw_p99": p99(raw_ops),
        },
        "unit_rates": rates,
        "unit_loops_ms": loops,
    }


def traced_run(workload, args: argparse.Namespace) -> Dict[str, Any]:
    """Untraced/traced pairs of unit 0 until the budget is spent."""
    samples: List[Dict[str, float]] = []
    overheads: List[float] = []
    names: Dict[str, int] = {}
    rows: List[list] = []
    attempted = failed = 0
    errors: List[str] = []
    start = _clock()
    while True:
        plain = workload.unit(0)
        errors += workload.check(0, plain.outputs)
        recorder = tracer.Tracer()
        recorder.install()
        try:
            traced = workload.unit(0, recorder)
        finally:
            recorder.uninstall()
        errors += workload.check(0, traced.outputs)
        layers = recorder.layer_metrics()
        errors += recorder.consistency_errors(layers)
        errors += tracer.check_assertions(workload.name, layers)
        # Each wall time scaled by the host loop timed around its work.
        overheads.append((traced.wall / traced.loop_ms) / (plain.wall / plain.loop_ms))
        layers["bench.trace_overhead"] = overheads[-1]
        samples.append(layers)
        if len(samples) == 1:
            # Later traced units repeat the same work; one span set is kept.
            recorder.export(names, rows)
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        pair = plain.wall + traced.wall
        if _clock() - start + pair > args.seconds:
            break
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "names": sorted(names, key=names.get),
            "spans": rows,
        }, fh, separators=(",", ":"))
    return {
        "units": 2 * len(samples),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layers": tracer.median_metrics(samples),
        "overheads": overheads,
        "spans": len(rows),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def print_report(record: Dict[str, Any], args: argparse.Namespace) -> None:
    name = args.workload
    print(f"perfbench {name}: seed={args.seed} seconds={args.seconds} trace={args.trace}")
    host = record["host_loop_ms"]
    print(f"  host_loop_ms         {host[0]:.3f} / {host[1]:.3f} / {host[2]:.3f} around set-up and at the end"
          f" (fixed pure-Python loop; {REFERENCE_LOOP_MS} at reference host speed)")
    if args.trace:
        layers = record["layers"]
        print(f"  tracing overhead     {layers['bench.trace_overhead']:.2f}x traced/untraced unit wall time"
              f" (n={len(record['overheads'])} pairs), {record['spans']} spans in {record['spans_file']}")
        for metric, value in layers.items():
            print(f"  {metric:34s} {value:.6g}")
    else:
        values, raw, op = record["values"], record["raw"], record["op_ms"]
        work_name, work_desc, op_name, op_desc = LABELS[name]
        print(f"  {work_name:20s} {values['work_per_s']:.6g} at reference host speed, "
              f"{raw['work_per_s']:.6g} raw ({work_desc}; work_per_s; median of n={record['units']} units)")
        print(f"  {op_name + '_p50_ms':20s} {op['p50']:.6g} at reference host speed, "
              f"{op['raw_p50']:.6g} raw ({op_desc}; n={op['samples']}; not bounded)")
        if op["samples"] >= 1000:
            print(f"  {op_name + '_p99_ms':20s} {op['p99']:.6g} at reference host speed, "
                  f"{op['raw_p99']:.6g} raw (n={op['samples']}; not bounded)")
        print(f"  setup_s              {values['setup_s']:.6g} s (median of n={len(record['setup_samples_s'])})")
        print(f"  peak_rss_mb          {values['peak_rss_mb']:.6g} MiB (after set-up and"
              f" {min(record['units'], RSS_UNITS)} units)")
        fail_ratio = record["failed"] / record["attempted"]
        print(f"  fail_ratio           {fail_ratio:.6g} ({record['failed']} of {record['attempted']} ops;"
              f" ok_ratio {values['ok_ratio']:.6g})")
    if record["errors"]:
        print(f"  INCORRECT: {len(record['errors'])} check(s) failed")
        for error in record["errors"][:10]:
            print(f"    {error}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
