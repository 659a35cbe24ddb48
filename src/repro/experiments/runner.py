"""Command-line front-end of the reproduction (``repro-experiments``).

The CLI is a thin layer over :mod:`repro.api`: experiments are discovered
through the decorator registry and executed through the cache-aware batch
engine.  Subcommands::

    repro-experiments run [NAMES...] [--quick] [--backend event] [--jobs N]
                          [--json -] [--csv F]
    repro-experiments list [--json]
    repro-experiments sweep --sizes 2,3,4 [--experiment table2] [--jobs N]
    repro-experiments export --cache-dir DIR [--json F] [--csv F] [NAMES...]

plus the analysis-service surface (:mod:`repro.service`)::

    repro-experiments serve [--port P] [--jobs N] [--store-dir DIR]
    repro-experiments submit [NAMES... | --experiment NAME --sizes 2,3]
                             [--quick] [--no-wait] [--json F] [--csv F]
    repro-experiments status HASH [HASH...]
    repro-experiments fetch [HASH...] [--json F] [--csv F]
    repro-experiments cache stats|clear [--store-dir DIR]

and the campaign surface (:mod:`repro.campaign` -- sharded, resumable,
blind-validated sweeps)::

    repro-experiments campaign run [NAMES... | --experiment NAME --sizes ...]
                          [--name TEXT] [--shard-size N] [--holdout N]
                          [--jobs N] [--store-dir DIR] [--fresh] [--json F]
    repro-experiments campaign resume ID [--jobs N] [--store-dir DIR] [--json F]
    repro-experiments campaign report ID [--store-dir DIR] [--json F]

``sweep``, ``submit`` and ``campaign run`` share one set of grid options
(``--experiment``, ``--sizes``, ``--packet-flits``, ``--fault-rates``,
``--trials``, ``--quick``), expand them into the same jobs and report the
outcome the same way: failed design points on stderr and exit status 1.

``--backend`` selects the simulation backend (``cycle`` or ``event``) for
the experiments that drive the cycle-accurate simulator; both backends
produce identical results, ``event`` skips idle cycles and is much faster.
``--analysis`` selects the analysis backend (``regular``, ``weighted``,
``holistic``, ``trajectory``, ``vector``) for the experiments that accept
one (currently ``scenario_wctt``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..analysis.backends import (
    available_analysis_backends,
    normalize_analysis_backend_name,
)
from ..analysis.reporting import format_key_values, format_table
from ..api import (
    BatchEngine,
    BatchJob,
    BatchResult,
    ExperimentResult,
    UnknownExperimentError,
    get_experiment,
    list_experiments,
)
from ..api.engine import axis_jobs
from ..sim import available_backends, normalize_backend_name

__all__ = ["main"]


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _csv_ints(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _csv_floats(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _name_type(normalize: Callable[[str], str]) -> Callable[[str], str]:
    """argparse type: resolve names and aliases with ``normalize``, reject unknowns."""

    def parse(text: str) -> str:
        try:
            return normalize(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error))

    return parse


def _add_design_options(parser: argparse.ArgumentParser) -> None:
    """``--backend`` and ``--analysis`` (forwarded by :func:`_cli_params`)."""
    parser.add_argument(
        "--backend", default=None, type=_name_type(normalize_backend_name),
        metavar="NAME",
        help=(
            "simulation backend for the simulating experiments "
            f"({', '.join(available_backends())}); results are identical, "
            "'event' skips idle cycles and is much faster"
        ),
    )
    parser.add_argument(
        "--analysis", default=None,
        type=_name_type(normalize_analysis_backend_name), metavar="NAME",
        help=(
            "analysis backend for the experiments that accept one "
            f"({', '.join(available_analysis_backends())})"
        ),
    )


#: Forwarded option -> why an experiment whose run() lacks it ignores it.
_FORWARDED = (("backend", "does not simulate"), ("analysis", "has a fixed analysis"))


def _cli_params(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """The run() params carrying ``--backend``/``--analysis`` to ``name``."""
    params: Dict[str, Any] = {}
    for option, reason in _FORWARDED:
        value = getattr(args, option)
        if value is None:
            continue
        if get_experiment(name).supports_param(option):
            params[option] = value
        else:
            print(
                f"note: {name} {reason}; --{option} {value} is ignored for it",
                file=sys.stderr,
            )
    return params


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    # main() rejects values below 1 for every command, before it runs.
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes computing design points (default: 1)",
    )


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """The design-grid options of ``sweep``, ``submit`` and ``campaign run``."""
    parser.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="experiment to sweep over the axis options (default: table2)",
    )
    parser.add_argument(
        "--sizes", type=_csv_ints, default=None, metavar="N,N,...",
        help="mesh sizes to sweep, e.g. 2,3,4",
    )
    parser.add_argument(
        "--packet-flits", type=_csv_ints, default=None, metavar="N,N,...",
        help="maximum packet sizes to sweep, e.g. 1,4,8",
    )
    parser.add_argument(
        "--fault-rates", type=_csv_floats, default=None, metavar="R,R,...",
        help=(
            "per-link fault rates to sweep (reliability_sweep), "
            "e.g. 0,0.005,0.02"
        ),
    )
    parser.add_argument(
        "--trials", type=int, default=None, metavar="N",
        help="Monte-Carlo trials per design point (reliability_sweep)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="apply each experiment's quick parameters to every design point",
    )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    _add_jobs_option(parser)
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist results as JSON keyed by config hash in DIR",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every design point even if cached",
    )


def _add_export_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write results as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write results as CSV to PATH ('-' for stdout)",
    )


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="daemon address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="daemon port (default: 8537)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-request timeout (default: 300)",
    )


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="durable result store directory (default: ~/.cache/repro)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the wormhole-mesh NoC paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run experiments and print their reports / export their data"
    )
    run_parser.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="experiments to run (default: all); see 'list'",
    )
    run_parser.add_argument(
        "--quick", action="store_true",
        help="use smaller meshes / shorter simulations",
    )
    _add_design_options(run_parser)
    _add_engine_options(run_parser)
    _add_export_options(run_parser)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.add_argument(
        "--json", action="store_true", help="machine-readable listing"
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run one experiment over a parameter grid"
    )
    # sweep always sweeps one experiment: it takes no experiment NAMEs.
    sweep_parser.set_defaults(experiments=None)
    _add_grid_options(sweep_parser)
    _add_design_options(sweep_parser)
    _add_engine_options(sweep_parser)
    _add_export_options(sweep_parser)

    export_parser = subparsers.add_parser(
        "export", help="re-export previously cached results as JSON/CSV"
    )
    export_parser.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="restrict the export to these experiments (default: all cached)",
    )
    export_parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="cache directory written by 'run'/'sweep' --cache-dir",
    )
    _add_export_options(export_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="run the persistent analysis daemon (repro.service)"
    )
    serve_parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="address to bind (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="port to bind (default: 8537; 0 binds an ephemeral port)",
    )
    _add_jobs_option(serve_parser)
    serve_parser.add_argument(
        "--batch-size", type=int, default=8, metavar="N",
        help="queued jobs fanned onto the worker pool at once (default: 8)",
    )
    _add_store_option(serve_parser)
    serve_parser.add_argument(
        "--no-store", action="store_true",
        help="serve fully in-memory (results die with the daemon)",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit experiments or a sweep to a running daemon"
    )
    submit_parser.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="experiments to submit (or use --experiment with sweep axes)",
    )
    _add_grid_options(submit_parser)
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="return tickets immediately instead of waiting for results",
    )
    _add_design_options(submit_parser)
    _add_service_options(submit_parser)
    _add_export_options(submit_parser)

    status_parser = subparsers.add_parser(
        "status", help="query job states on a running daemon"
    )
    status_parser.add_argument(
        "hashes", nargs="+", metavar="HASH",
        help="config hashes from submission tickets",
    )
    status_parser.add_argument(
        "--json", action="store_true", help="machine-readable states"
    )
    _add_service_options(status_parser)

    fetch_parser = subparsers.add_parser(
        "fetch", help="fetch completed results from a running daemon"
    )
    fetch_parser.add_argument(
        "hashes", nargs="*", metavar="HASH",
        help="config hashes to fetch (default: everything the daemon has)",
    )
    _add_service_options(fetch_parser)
    _add_export_options(fetch_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the durable result store"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "clear"),
        help="'stats' summarises the store, 'clear' deletes entries",
    )
    _add_store_option(cache_parser)
    cache_parser.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="restrict 'clear' to one experiment's entries",
    )
    cache_parser.add_argument(
        "--json", action="store_true", help="machine-readable stats"
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="sharded, resumable, blind-validated sweeps (repro.campaign)",
    )
    campaign_sub = campaign_parser.add_subparsers(dest="action", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="start (or resume) a campaign over experiments or a sweep"
    )
    campaign_run.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="experiments to campaign over (or use --experiment with axes)",
    )
    _add_grid_options(campaign_run)
    campaign_run.add_argument(
        "--name", default="campaign", metavar="TEXT",
        help="campaign name folded into the campaign ID (default: campaign)",
    )
    campaign_run.add_argument(
        "--shard-size", type=int, default=4, metavar="N",
        help="maximum design points per shard (default: 4)",
    )
    campaign_run.add_argument(
        "--holdout", type=int, default=1, metavar="N",
        help="held-out shards blind-validated before unblinding (default: 1)",
    )
    _add_jobs_option(campaign_run)
    campaign_run.add_argument(
        "--fresh", action="store_true",
        help="ignore existing checkpoints and recompute every shard",
    )
    _add_design_options(campaign_run)
    _add_store_option(campaign_run)
    campaign_run.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full campaign report as JSON to PATH ('-' for stdout)",
    )

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume an interrupted campaign from its checkpoints"
    )
    campaign_resume.add_argument(
        "id", metavar="ID", help="campaign ID printed by 'campaign run'"
    )
    _add_jobs_option(campaign_resume)
    _add_store_option(campaign_resume)
    campaign_resume.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full campaign report as JSON to PATH ('-' for stdout)",
    )

    campaign_report = campaign_sub.add_parser(
        "report", help="report a campaign's checkpoint state without executing"
    )
    campaign_report.add_argument(
        "id", metavar="ID", help="campaign ID printed by 'campaign run'"
    )
    _add_store_option(campaign_report)
    campaign_report.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full campaign report as JSON to PATH ('-' for stdout)",
    )

    return parser


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------
def _write_exports(results: Sequence[BatchResult], args: argparse.Namespace) -> None:
    for path, render in ((args.json, BatchEngine.to_json), (args.csv, BatchEngine.to_csv)):
        if path is None:
            continue
        payload = render(results)
        if path == "-":
            print(payload)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"wrote {len(results)} result(s) to {path}", file=sys.stderr)


def _exports_use_stdout(args: argparse.Namespace) -> bool:
    return args.json == "-" or args.csv == "-"


def _print_report(result: BatchResult) -> None:
    if not result.ok:
        # A captured worker failure: there is no payload to render.
        print(
            f"{result.job.experiment} [{result.config_hash}] failed: "
            f"{result.error}\n",
            file=sys.stderr,
        )
        return
    if result.result.from_cache:
        # Rebuilt from the JSON cache: the native payload (and with it the
        # exact paper-style rendering) is gone, render the rows directly.
        print(f"{result.job.experiment} [cached {result.config_hash}]")
        rows = result.result.rows()
        print(format_table(rows) if rows else "(no rows)")
        print()
        return
    spec = get_experiment(result.job.experiment)
    print(spec.report(result.result))
    source = "cache" if result.cached else f"{result.duration_seconds:.1f}s"
    print(f"\n[{result.job.experiment} completed in {source}]\n")


def _report_grid(results: Sequence[BatchResult], args: argparse.Namespace) -> int:
    """Report the results of a grid command; returns its exit status.

    Failed design points go to stderr and make the status 1; the completed
    ones form the table (unless an export owns stdout) and the exports.
    """
    completed = [result for result in results if result.ok]
    for result in results:
        if not result.ok:
            print(
                f"{result.job.experiment} [{result.config_hash}] failed: "
                f"{result.error}",
                file=sys.stderr,
            )
    if not _exports_use_stdout(args):
        print(
            format_table(
                [
                    {
                        "experiment": result.job.experiment,
                        "params": ", ".join(
                            f"{k}={v}" for k, v in sorted(result.job.params.items())
                        ),
                        "config hash": result.config_hash,
                        "cached": result.cached,
                        "rows": len(result.result.rows()),
                        "seconds": round(result.duration_seconds, 2),
                    }
                    for result in completed
                ]
            )
        )
    _write_exports(completed, args)
    return 0 if len(completed) == len(results) else 1


def _wire_result(data: Mapping[str, Any], job: Optional[BatchJob] = None) -> BatchResult:
    """Rebuild a daemon wire dict (the ``BatchResult.to_dict`` shape)."""
    return BatchResult(
        job=job if job is not None else BatchJob(experiment=str(data.get("experiment", ""))),
        result=ExperimentResult.from_dict(data),
        config_hash=str(data.get("config_hash", "")),
        cached=bool(data.get("cached", False)),
        duration_seconds=float(data.get("duration_seconds", 0.0)),
        error=data.get("error"),
    )


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
_AXIS_OPTIONS = "(--sizes, --packet-flits, --fault-rates and/or --trials)"


def _named_jobs(names: Sequence[str], args: argparse.Namespace) -> Optional[List[BatchJob]]:
    """One job per experiment NAME (default: every experiment).

    Unknown names print near-miss errors and return None.
    """
    resolved = list(names) if names else [spec.name for spec in list_experiments()]
    failed = False
    for name in resolved:
        try:
            get_experiment(name)
        except UnknownExperimentError as error:
            print(str(error), file=sys.stderr)
            failed = True
    if failed:
        print("use 'repro-experiments list' to see the available experiments", file=sys.stderr)
        return None
    return [
        BatchJob(experiment=name, params=_cli_params(name, args), quick=args.quick)
        for name in resolved
    ]


def _grid_jobs(args: argparse.Namespace) -> Optional[List[BatchJob]]:
    """The jobs of ``sweep``, ``submit`` and ``campaign run``.

    Experiment NAMEs give one job each; otherwise ``--experiment`` (default:
    table2) is expanded over the axis options by
    :func:`~repro.api.engine.axis_jobs`.  Usage errors print to stderr and
    return None.
    """
    axes: Dict[str, List[Any]] = {
        axis: values
        for axis, values in (
            ("size", args.sizes),
            ("packet_flits", args.packet_flits),
            ("fault_rate", args.fault_rates),
            ("trials", None if args.trials is None else [args.trials]),
        )
        if values
    }
    if not axes and args.experiments is not None:
        if args.experiment is not None:
            print(
                f"--experiment needs at least one sweep axis {_AXIS_OPTIONS}",
                file=sys.stderr,
            )
            return None
        return _named_jobs(args.experiments, args)
    if args.experiments:
        print(
            f"{args.command} takes either experiment NAMEs or sweep axes, not both",
            file=sys.stderr,
        )
        return None
    name = args.experiment or "table2"
    try:
        get_experiment(name)
    except UnknownExperimentError as error:
        print(str(error), file=sys.stderr)
        return None
    if not axes:
        print(f"sweep needs at least one axis {_AXIS_OPTIONS}", file=sys.stderr)
        return None
    try:
        return axis_jobs(
            name, quick=args.quick, base_params=_cli_params(name, args), **axes
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _make_engine(args: argparse.Namespace) -> BatchEngine:
    return BatchEngine(jobs=args.jobs, cache_dir=args.cache_dir, use_cache=not args.no_cache)


def _cmd_run(args: argparse.Namespace) -> int:
    jobs = _named_jobs(args.experiments, args)
    if jobs is None:
        return 2
    results = _make_engine(args).run_many(jobs)
    if not _exports_use_stdout(args):
        for result in results:
            _print_report(result)
    _write_exports(results, args)
    return 1 if any(not result.ok for result in results) else 0


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_experiments()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": spec.name,
                        "description": spec.description,
                        "paper_reference": spec.paper_reference,
                        "sweep_axes": sorted(spec.sweep_axes),
                    }
                    for spec in specs
                ],
                indent=2,
            )
        )
        return 0
    for spec in specs:
        print(f"{spec.name:12s} {spec.description}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    jobs = _grid_jobs(args)
    if jobs is None:
        return 2
    return _report_grid(_make_engine(args).run_many(jobs), args)


def _cmd_export(args: argparse.Namespace) -> int:
    engine = BatchEngine(cache_dir=args.cache_dir)
    results = engine.cached_results()
    if args.experiments:
        wanted = set(args.experiments)
        results = [r for r in results if r.job.experiment in wanted]
    if not results:
        print("no cached results matched", file=sys.stderr)
        return 1
    if args.json is None and args.csv is None:
        args.json = "-"
    _write_exports(results, args)
    return 0


# ----------------------------------------------------------------------
# Service subcommands (repro.service)
# ----------------------------------------------------------------------
def _make_client(args: argparse.Namespace):
    from ..service import DEFAULT_HOST, DEFAULT_PORT, ServiceClient

    return ServiceClient(
        host=args.host or DEFAULT_HOST,
        port=DEFAULT_PORT if args.port is None else args.port,
        timeout=args.timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service import DEFAULT_HOST, DEFAULT_PORT, ReproService

    try:
        service = ReproService(
            host=args.host or DEFAULT_HOST,
            port=DEFAULT_PORT if args.port is None else args.port,
            jobs=args.jobs,
            batch_size=args.batch_size,
            store_dir=args.store_dir,
            use_store=not args.no_store,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    def _announce(svc) -> None:
        host, port = svc.address
        print(f"repro.service listening on {host}:{port}", flush=True)
        if svc.store is not None:
            print(f"durable result store: {svc.store.root}", flush=True)

    try:
        service.run(announce=_announce)
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"cannot start repro.service: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    jobs = _grid_jobs(args)
    if jobs is None:
        return 2
    client = _make_client(args)

    def _progress(event: Dict[str, Any]) -> None:
        print(
            f"[{event['completed']}/{event['total']}] "
            f"{event['hash']} {event['state']}",
            file=sys.stderr,
        )

    try:
        response = client.submit(
            jobs,
            wait=not args.no_wait,
            on_progress=None if args.no_wait else _progress,
        )
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    tickets = response["tickets"]
    if args.no_wait:
        print(
            format_table(
                [
                    {
                        "hash": t["hash"],
                        "experiment": t["experiment"],
                        "state": t["state"],
                        "source": t["source"],
                    }
                    for t in tickets
                ]
            )
        )
        print(
            "poll with 'repro-experiments status HASH...' and collect with "
            "'repro-experiments fetch'",
            file=sys.stderr,
        )
        return 0
    results = []
    for job, ticket, data in zip(jobs, tickets, response["results"]):
        if data is None:  # a failed design point: its ticket carries the error
            data = {"config_hash": ticket["hash"], "error": ticket.get("error", "unknown error")}
        results.append(_wire_result(data, job))
    return _report_grid(results, args)


def _cmd_status(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    client = _make_client(args)
    try:
        states = client.status(args.hashes)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(states, indent=2))
    else:
        print(
            format_table(
                [
                    {
                        "hash": state["hash"],
                        "state": state["state"],
                        "detail": state.get("error") or state.get("source") or "",
                    }
                    for state in states
                ]
            )
        )
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    client = _make_client(args)
    try:
        fetched = client.fetch(args.hashes or None, all=not args.hashes)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    for digest in fetched["missing"]:
        print(f"missing: {digest}", file=sys.stderr)
    results = [_wire_result(data) for data in fetched["results"]]
    if not results:
        print("no results fetched", file=sys.stderr)
        return 1 if fetched["missing"] else 0
    if args.json is None and args.csv is None:
        args.json = "-"
    _write_exports(results, args)
    return 1 if fetched["missing"] else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from ..service import ResultStore, StoreError

    try:
        store = ResultStore(args.store_dir)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.action == "clear":
        removed = store.clear(experiment=args.experiment)
        scope = f" for {args.experiment}" if args.experiment else ""
        print(f"removed {removed} cached result(s){scope} from {store.root}")
        return 0
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    by_experiment = stats.pop("by_experiment", {})
    stats.pop("hits", None)
    stats.pop("misses", None)
    stats.pop("hit_rate", None)
    print(format_key_values(stats))
    if by_experiment:
        print()
        print(
            format_table(
                [
                    {"experiment": name, "entries": count}
                    for name, count in sorted(by_experiment.items())
                ]
            )
        )
    return 0


# ----------------------------------------------------------------------
# Campaign subcommands (repro.campaign)
# ----------------------------------------------------------------------
def _emit_campaign_report(report, args: argparse.Namespace) -> None:
    if args.json is not None:
        payload = report.to_json()
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote campaign report to {args.json}", file=sys.stderr)
    if args.json != "-":
        print(report.render())


def _execute_campaign(campaign, args: argparse.Namespace, *, resume: bool) -> int:
    from ..campaign import CampaignError, HoldoutViolation

    def _progress(shard, record) -> None:
        source = "resumed from store" if record.get("resumed") else "computed"
        print(f"{shard.describe()}: {source}", file=sys.stderr)

    try:
        report = campaign.run(resume=resume, progress=_progress)
    except HoldoutViolation as error:
        print(str(error), file=sys.stderr)
        print(
            "no blind shard was computed; fix the held-out failures and "
            "rerun with 'campaign resume'",
            file=sys.stderr,
        )
        return 3
    except CampaignError as error:
        print(str(error), file=sys.stderr)
        return 2
    _emit_campaign_report(report, args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from ..campaign import Campaign, CampaignError
    from ..service import ResultStore, StoreError

    try:
        store = ResultStore(args.store_dir)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.action == "run":
        jobs = _grid_jobs(args)
        if jobs is None:
            return 2
        try:
            campaign = Campaign(
                jobs,
                name=args.name,
                shard_size=args.shard_size,
                holdout=args.holdout,
                store=store,
                engine_jobs=args.jobs,
            )
        except CampaignError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(campaign.describe(), file=sys.stderr)
        return _execute_campaign(campaign, args, resume=not args.fresh)

    try:
        campaign = Campaign.load(
            args.id, store=store, engine_jobs=getattr(args, "jobs", 1)
        )
    except CampaignError as error:
        print(str(error), file=sys.stderr)
        saved = Campaign.saved_campaigns(store)
        if saved:
            print(f"saved campaigns: {', '.join(saved)}", file=sys.stderr)
        return 2
    if args.action == "report":
        _emit_campaign_report(campaign.collect(), args)
        return 0
    return _execute_campaign(campaign, args, resume=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("jobs must be >= 1", file=sys.stderr)
        return 2
    handlers: Dict[str, Callable[[argparse.Namespace], int]] = {
        "run": _cmd_run,
        "list": _cmd_list,
        "sweep": _cmd_sweep,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "cache": _cmd_cache,
        "campaign": _cmd_campaign,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
