"""Command-line interface: the GUI workflow for terminals.

Subcommands mirror the E2C GUI surface:

* ``e2c-sim run`` — load a scenario (JSON, or EET+workload CSVs), pick a
  policy, run, print/save reports; ``--animate`` streams the live Fig-1 view.
* ``e2c-sim generate`` — the workload component: synthesise a workload CSV
  for an EET at a chosen intensity.
* ``e2c-sim schedulers`` — the policy drop-down: list registered policies.
* ``e2c-sim scenarios`` — list registered scenario presets.
* ``e2c-sim sweep`` — run an experiment campaign (scenario grid x scheduler
  list x seed list) over worker processes and print the comparison table.
* ``e2c-sim serve`` — run the campaign service over a spool directory:
  watch ``inbox/`` for submitted specs, execute unique work once on the
  persistent worker pool, serve repeats from the canonical-hash result
  cache, and publish receipts/status/results as JSON files.
* ``e2c-sim submit`` — drop a scenario/campaign spec (or preset name) into
  a service directory; optionally wait for and print the result
  (``--status``/``--result`` query existing jobs).
* ``e2c-sim trace`` — the cluster-trace ingestion layer: ``inspect`` a raw
  Google/Azure-style CSV export, ``convert`` it into the canonical workload
  format against an EET, or ``replay`` a trace-driven scenario.
* ``e2c-sim assignment`` — regenerate the class-assignment figures (5/6/7).
* ``e2c-sim table1`` — the positioning table.
* ``e2c-sim quiz`` — print a quiz sheet (and, with ``--key``, its answers).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .core.config import Scenario
from .core.errors import ConfigurationError, E2CError
from .machines.eet import EETMatrix
from .scheduling.base import SchedulingMode
from .scheduling.registry import available_schedulers, scheduler_class
from .tasks.generator import WorkloadGenerator
from .tasks.trace_io import write_workload_csv

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2c-sim",
        description=(
            "E2C-Repro: discrete-event simulation of heterogeneous "
            "computing systems (reproduction of Mokhtari et al., IPDPSW'23)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation scenario")
    run.add_argument(
        "--scenario",
        help="scenario JSON file, or a registered preset name "
        "(see 'scenarios')",
    )
    run.add_argument("--eet", type=Path, help="EET CSV (with --workload)")
    run.add_argument("--workload", type=Path, help="workload trace CSV")
    run.add_argument(
        "--scheduler", "--policy", dest="scheduler", default=None,
        help="local policy name (see 'schedulers'); overrides the scenario's",
    )
    run.add_argument(
        "--gateway", default=None,
        help="inter-cluster offloading policy for federated presets "
        "(see 'schedulers' for the registry, e.g. ADAPTIVE, EET_AWARE_REMOTE)",
    )
    run.add_argument(
        "--migration", default=None, metavar="POLICY",
        help="enable mid-queue migration on a federated scenario with this "
        "eviction policy (LONGEST_WAIT, DEADLINE_SLACK, EET_GAIN); "
        "'off' disables a preset's migration spec",
    )
    run.add_argument(
        "--migration-interval", type=float, default=None, metavar="SECONDS",
        help="with --migration: simulated seconds between rebalance passes",
    )
    run.add_argument(
        "--queue-size",
        type=int,
        default=None,
        help="machine queue capacity for batch policies (default unbounded)",
    )
    run.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default relative deadline for workload rows lacking one",
    )
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--report",
        choices=["full", "task", "machine", "summary"],
        default="summary",
        help="which report to print",
    )
    run.add_argument(
        "--save-reports", type=Path, default=None, metavar="DIR",
        help="write all four reports as CSVs into DIR",
    )
    run.add_argument(
        "--tree", action="store_true",
        help="for hierarchical federations: print the per-level rollup "
        "table (routed / completed / missed / WAN counters at every tree "
        "node) after the run",
    )
    run.add_argument(
        "--animate", action="store_true",
        help="stream the live system view while running",
    )
    run.add_argument(
        "--frame-every", type=int, default=10,
        help="with --animate: render every N-th event",
    )

    gen = sub.add_parser("generate", help="generate a workload CSV for an EET")
    gen.add_argument("--eet", type=Path, required=True, help="EET CSV")
    gen.add_argument("--out", type=Path, required=True, help="output workload CSV")
    gen.add_argument(
        "--intensity", default="medium",
        help="low / medium / high or an oversubscription ratio",
    )
    gen.add_argument("--duration", type=float, default=600.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument(
        "--machines-per-type", type=int, default=1,
        help="capacity calibration: machines per EET column",
    )

    sched = sub.add_parser("schedulers", help="list available policies")
    sched.add_argument(
        "--mode", choices=["immediate", "batch"], default=None
    )

    sub.add_parser(
        "scenarios", help="list registered scenario presets (for 'sweep')"
    )

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment campaign across scenarios, policies and seeds",
        description=(
            "Expand a campaign grid (scenarios x schedulers x seeds), run "
            "every cell over worker processes, and print a per-scenario "
            "cross-policy comparison. The grid comes from a JSON spec file "
            "(--spec) or inline flags; the same campaign seed always "
            "reproduces the identical result table."
        ),
    )
    sweep.add_argument(
        "--spec", type=Path, default=None,
        help="campaign spec JSON (as written by --save-spec)",
    )
    sweep.add_argument(
        "--scenarios", default=None, metavar="NAME[,NAME...]",
        help="comma-separated registered scenario names (see 'scenarios')",
    )
    sweep.add_argument(
        "--schedulers", default=None, metavar="POLICY[,POLICY...]",
        help="comma-separated policy names (see 'schedulers')",
    )
    sweep.add_argument(
        "--seeds", default=None, metavar="INT[,INT...]",
        help="comma-separated grid seeds; each gives every policy a fresh "
        "shared workload (default: 0)",
    )
    sweep.add_argument(
        "--seed", type=int, default=None,
        help="campaign master seed all per-run seeds derive from (default 0)",
    )
    sweep.add_argument(
        "--metrics", default=None, metavar="M[,M...]",
        help="summary metrics to report (default: completion_rate, "
        "mean_response_time, total_energy)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU, capped at grid size)",
    )
    sweep.add_argument(
        "--serial", action="store_true",
        help="run in-process without worker processes (same table, slower)",
    )
    sweep.add_argument(
        "--save-table", type=Path, default=None, metavar="CSV",
        help="write the tidy per-run table (one row per run) to CSV",
    )
    sweep.add_argument(
        "--save-spec", type=Path, default=None, metavar="JSON",
        help="write the expanded campaign spec to JSON (reload with --spec)",
    )

    tournament = sub.add_parser(
        "tournament",
        help="rank every gateway x eviction policy pair on a preset grid",
        description=(
            "Run the federation policy tournament: every gateway routing "
            "policy paired with every mid-queue eviction policy, across a "
            "grid of federated presets and repetition seeds, fanned out "
            "over worker processes. Prints the ranked leaderboard; the "
            "JSON written by --out is byte-identical for the same spec "
            "whatever the worker count."
        ),
    )
    tournament.add_argument(
        "--presets", default=None, metavar="NAME[,NAME...]",
        help="comma-separated federated preset names "
        "(default: fed_rebalance,fed_adaptive)",
    )
    tournament.add_argument(
        "--gateways", default=None, metavar="NAME[,NAME...]",
        help="gateway policies to enter (default: all registered)",
    )
    tournament.add_argument(
        "--evictions", default=None, metavar="NAME[,NAME...]",
        help="eviction policies to enter (default: all registered)",
    )
    tournament.add_argument(
        "--scheduler", default="MM",
        help="local scheduling policy inside every cluster (default MM)",
    )
    tournament.add_argument(
        "--repetitions", type=int, default=1,
        help="grid seeds per pairing; each gives every pairing a fresh "
        "shared workload (default 1)",
    )
    tournament.add_argument(
        "--seed", type=int, default=0,
        help="tournament master seed all per-run seeds derive from "
        "(default 0)",
    )
    tournament.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU, capped at grid size)",
    )
    tournament.add_argument(
        "--serial", action="store_true",
        help="run in-process without worker processes (same leaderboard, "
        "slower)",
    )
    tournament.add_argument(
        "--out", type=Path, default=None, metavar="JSON",
        help="write the canonical leaderboard JSON to FILE",
    )
    tournament.add_argument(
        "--save-table", type=Path, default=None, metavar="CSV",
        help="write the tidy per-run campaign table to CSV",
    )

    serve = sub.add_parser(
        "serve",
        help="run the campaign service (job queue + result cache) over a "
        "spool directory",
        description=(
            "Run a long-lived simulation service. Specs dropped into "
            "DIR/inbox (by 'e2c-sim submit') are keyed by their canonical "
            "content hash, executed once each on a pool of persistent "
            "worker processes (with job states, bounded crash retries and "
            "a progress journal), and answered through DIR/receipts and "
            "DIR/jobs; identical submissions are served from the result "
            "cache without re-simulating."
        ),
    )
    serve.add_argument(
        "--dir", type=Path, required=True, metavar="DIR",
        help="service directory (inbox/, receipts/, jobs/, cache/, state/)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="persistent worker processes (default 2)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="executions allowed per job before a crashing job fails "
        "(default 3)",
    )
    serve.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="inbox poll interval (default 0.2s)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after N submissions of this session reach a terminal "
        "state (smoke tests / CI)",
    )
    serve.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit once the inbox has been empty and no job live for this "
        "long (default: serve forever)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a spec to (or query) a campaign-service directory",
        description=(
            "Drop a scenario JSON file, campaign spec, JSON literal, or "
            "registered preset name into a service directory's inbox for a "
            "running 'e2c-sim serve' to pick up. --wait polls until the "
            "job finishes and prints the result; --status/--result query "
            "a previously submitted job."
        ),
    )
    submit.add_argument(
        "--dir", type=Path, required=True, metavar="DIR",
        help="service directory shared with 'e2c-sim serve'",
    )
    submit.add_argument(
        "spec", nargs="?", default=None,
        help="scenario/campaign JSON file, JSON literal, or a registered "
        "preset name (see 'scenarios')",
    )
    submit.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="wait up to SECONDS for the job to finish and print its result",
    )
    submit.add_argument(
        "--status", default=None, metavar="JOB_ID",
        help="print the status record of an existing job and exit",
    )
    submit.add_argument(
        "--result", dest="result_job", default=None, metavar="JOB_ID",
        help="print the result of a finished job and exit",
    )

    trace = sub.add_parser(
        "trace",
        help="inspect, convert or replay cluster-trace CSVs",
        description=(
            "Work with raw cluster-trace exports (Google/Azure-style "
            "CSVs). 'inspect' summarises a file before you commit to an "
            "import recipe; 'convert' runs the full TraceSpec pipeline "
            "against an EET and writes a canonical workload CSV; 'replay' "
            "runs a trace-driven scenario (a preset such as trace_replay, "
            "or a scenario JSON with a \"trace\" section) end to end."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "trace", metavar="TRACE",
            help="trace CSV path, or data:NAME for a bundled sample "
            "(e.g. data:google_cluster_sample.csv)",
        )
        p.add_argument(
            "--columns", default=None, metavar="ROLE=COL[,ROLE=COL...]",
            help="map canonical roles (task_id, task_type, arrival_time, "
            "deadline) to source column names, e.g. "
            "arrival_time=submit_time_us,task_id=job_id",
        )
        p.add_argument(
            "--time-unit", type=float, default=1.0, metavar="SECONDS",
            help="seconds per source time unit (1e-6 for microsecond "
            "timestamps; default 1)",
        )
        p.add_argument(
            "--time-offset", type=float, default=None, metavar="SECONDS",
            help="rebase: subtract this many rescaled seconds "
            "(default: earliest arrival)",
        )
        p.add_argument(
            "--window", default=None, metavar="START:END",
            help="keep arrivals in [START, END) rebased seconds and "
            "re-shift to 0",
        )
        p.add_argument(
            "--time-scale", type=float, default=1.0, metavar="FACTOR",
            help="compress (<1) or stretch (>1) the kept arrival span",
        )
        p.add_argument(
            "--bin-column", default=None, metavar="COL",
            help="numeric source column to quantile-bin into EET task "
            "types when the trace has no task-type column",
        )
        p.add_argument(
            "--slack-factor", type=float, default=1.0,
            help="deadline synthesis: deadline = arrival + slack * "
            "relative_deadline (default 1)",
        )
        p.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="default relative deadline for task types lacking one",
        )
        p.add_argument(
            "--sample", type=float, default=1.0, metavar="FRACTION",
            help="keep each row with this probability (deterministic "
            "under --seed; default 1)",
        )
        p.add_argument(
            "--max-tasks", type=int, default=None, metavar="N",
            help="truncate to the first N kept tasks",
        )

    t_inspect = trace_sub.add_parser(
        "inspect", help="summarise a raw trace CSV (rows, columns, spans)"
    )
    _add_spec_args(t_inspect)

    t_convert = trace_sub.add_parser(
        "convert",
        help="import a trace into a canonical workload CSV against an EET",
    )
    _add_spec_args(t_convert)
    t_convert.add_argument(
        "--eet", type=Path, required=True,
        help="EET CSV giving the task-type universe",
    )
    t_convert.add_argument(
        "--out", type=Path, required=True, help="output workload CSV"
    )
    t_convert.add_argument(
        "--seed", type=int, default=None,
        help="seed for deterministic down-sampling (--sample)",
    )

    t_replay = trace_sub.add_parser(
        "replay",
        help="run a trace-driven scenario and print its summary",
    )
    t_replay.add_argument(
        "--scenario", default="trace_replay",
        help="trace-driven preset name or scenario JSON file "
        "(default: trace_replay)",
    )
    t_replay.add_argument(
        "--scheduler", default=None,
        help="override the scenario's scheduling policy",
    )
    t_replay.add_argument("--seed", type=int, default=None)
    t_replay.add_argument(
        "--report",
        choices=["full", "task", "machine", "summary"],
        default="summary",
        help="which report to print",
    )

    assign = sub.add_parser(
        "assignment", help="regenerate the class-assignment figures (5/6/7)"
    )
    assign.add_argument(
        "--figure", choices=["5", "6", "7", "all"], default="all"
    )
    assign.add_argument("--replications", type=int, default=3)
    assign.add_argument("--duration", type=float, default=400.0)
    assign.add_argument("--seed", type=int, default=2023)

    sub.add_parser("table1", help="print the simulator positioning table")

    quiz = sub.add_parser("quiz", help="print a scheduling quiz sheet")
    quiz.add_argument("--seed", type=int, default=None)
    quiz.add_argument(
        "--key", action="store_true", help="also print the answer key"
    )

    return parser


def _resolve_run_scenario(args: argparse.Namespace) -> Scenario:
    """--scenario is a JSON path or a registered preset name."""
    from dataclasses import replace

    source = Path(args.scenario)
    if source.exists() or source.suffix == ".json":
        scenario = Scenario.from_json(source)
        if args.scheduler is not None:
            scenario = replace(
                scenario, scheduler=args.scheduler, scheduler_params={}
            )
        if args.gateway is not None:
            scenario = scenario.with_gateway(args.gateway)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        return scenario
    from .scenarios import build_scenario

    overrides: dict = {}
    if args.scheduler is not None:
        overrides["scheduler"] = args.scheduler
    if args.gateway is not None:
        overrides["gateway"] = args.gateway
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        return build_scenario(str(args.scenario), **overrides)
    except TypeError as exc:
        raise ConfigurationError(
            f"scenario preset {args.scenario!r} does not accept these "
            f"options: {exc}"
        ) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        scenario = _resolve_run_scenario(args)
    elif args.eet is not None and args.workload is not None:
        extra = {}
        if args.queue_size is not None:
            extra["queue_capacity"] = args.queue_size
        scenario = Scenario.from_csv_files(
            args.eet,
            args.workload,
            args.scheduler if args.scheduler is not None else "MECT",
            default_relative_deadline=args.deadline,
            seed=args.seed,
            **extra,
        )
    else:
        print(
            "error: provide --scenario (JSON file or preset name) or both "
            "--eet and --workload CSVs",
            file=sys.stderr,
        )
        return 2

    if args.migration is not None:
        if args.migration.lower() in ("off", "none"):
            if args.migration_interval is not None:
                print(
                    "error: --migration-interval conflicts with "
                    "--migration off",
                    file=sys.stderr,
                )
                return 2
            scenario = scenario.with_migration(None)
        else:
            options = {}
            if args.migration_interval is not None:
                options["interval"] = args.migration_interval
            scenario = scenario.with_migration(args.migration, **options)
    elif args.migration_interval is not None:
        print(
            "error: --migration-interval requires --migration POLICY",
            file=sys.stderr,
        )
        return 2

    if args.tree and (
        scenario.federation is None or scenario.federation.children is None
    ):
        kind = (
            "a flat federation"
            if scenario.federation is not None
            else "single-cluster"
        )
        print(
            f"error: --tree prints the hierarchical rollup, but scenario "
            f"{scenario.name!r} is {kind}; pick a preset with nested "
            "'children' (e.g. --scenario hier_3region).",
            file=sys.stderr,
        )
        return 2

    if args.animate:
        if scenario.federation is not None:
            n = len(scenario.federation.clusters)
            shape = (
                f"this hierarchical federation has {n} leaf cluster "
                "shards under a multi-level tree"
                if scenario.federation.children is not None
                else f"this federation has {n} cluster shards"
            )
            print(
                f"error: --animate cannot render scenario "
                f"{scenario.name!r}: the terminal renderer draws one "
                f"cluster's machine panel, and {shape} (a per-shard "
                "panel layout — flat and hierarchical — is an open "
                "ROADMAP item, 'Renderer support for federations').\n"
                "Instead you can:\n"
                "  - drop --animate to run it headless; the per-cluster "
                "summary table, routing matrix and WAN link report are "
                "printed at the end (add --tree on a hierarchical "
                "scenario for the per-level rollup), or\n"
                "  - animate a single-cluster preset (e.g. --scenario "
                "satellite_imaging; see 'e2c-sim scenarios').",
                file=sys.stderr,
            )
            return 2
        from .viz.animation import Animator

        animator = Animator(
            scenario.build_simulator,
            stream=sys.stdout,
            frame_every=args.frame_every,
        )
        animator.play()
        result = animator.simulator.result()
    else:
        result = scenario.run()

    bundle = result.reports
    # Save before printing: stdout may be a pager/head that closes early,
    # and a BrokenPipeError must not cost the user their report CSVs.
    paths = bundle.save_all(args.save_reports) if args.save_reports else None
    if hasattr(result, "per_cluster"):
        # Federated run: per-cluster + global summaries and the offload
        # matrix, then any non-summary report the user asked for.
        print(result.to_text())
        if args.tree:
            tree = getattr(result, "tree", None)
            assert tree is not None  # guarded before the run
            print()
            print("per-level rollup")
            print(tree.to_text())
        if args.report != "summary":
            print()
            print(bundle.by_name(args.report).to_text())
    else:
        print(bundle.by_name(args.report).to_text())
    if paths is not None:
        print(f"\nsaved: {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    eet = EETMatrix.read_csv(args.eet)
    generator = WorkloadGenerator(
        eet, machine_counts=[args.machines_per_type] * eet.n_machine_types
    )
    try:
        intensity: str | float = float(args.intensity)
    except ValueError:
        intensity = args.intensity
    workload = generator.generate(
        args.duration, intensity=intensity, seed=args.seed
    )
    write_workload_csv(workload, args.out)
    print(f"wrote {len(workload)} tasks to {args.out}")
    return 0


def _policy_params(klass: type) -> str:
    """Constructor-kwarg suffix for a policy listing row.

    Renders ``(threshold=2.0, seed=0)`` from the class ``__init__``
    signature so the listing doubles as the reference for what
    ``--gateway-params`` / ``scheduler_params`` / ``policy_params`` accept.
    Empty string for parameterless policies.
    """
    import inspect

    try:
        signature = inspect.signature(klass.__init__)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return ""
    parts = []
    for parameter in signature.parameters.values():
        if parameter.name == "self" or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            parts.append(parameter.name)
        else:
            parts.append(f"{parameter.name}={parameter.default!r}")
    return f" ({', '.join(parts)})" if parts else ""


def _cmd_schedulers(args: argparse.Namespace) -> int:
    mode = SchedulingMode(args.mode) if args.mode else None
    for name in available_schedulers(mode):
        klass = scheduler_class(name)
        print(
            f"{name:<10} [{klass.mode.value}] {klass.description}"
            f"{_policy_params(klass)}"
        )
    if mode is None:
        from .scheduling.federation import (
            available_evictions,
            available_gateways,
            eviction_class,
            gateway_class,
        )

        print()
        print("gateway policies (federated scenarios, --gateway):")
        for name in available_gateways():
            gateway = gateway_class(name)
            print(
                f"{name:<18} [gateway] {gateway.description}"
                f"{_policy_params(gateway)}"
            )
        print()
        print("eviction policies (mid-queue migration, --migration):")
        for name in available_evictions():
            eviction = eviction_class(name)
            print(
                f"{name:<18} [eviction] {eviction.description}"
                f"{_policy_params(eviction)}"
            )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import scenario_summaries

    for name, summary in scenario_summaries():
        print(f"{name:<24} {summary}")
    return 0


def _split_csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import CampaignSpec, run_campaign

    if args.spec is not None:
        if (
            args.scenarios
            or args.schedulers
            or args.seeds is not None
            or args.seed is not None
        ):
            print(
                "error: --spec and the inline grid flags "
                "(--scenarios/--schedulers/--seeds/--seed) are mutually "
                "exclusive; edit the spec file instead",
                file=sys.stderr,
            )
            return 2
        spec = CampaignSpec.from_json(args.spec)
    elif args.scenarios and args.schedulers:
        try:
            seeds = [int(s) for s in _split_csv(args.seeds or "0")]
        except ValueError:
            print(
                f"error: --seeds must be comma-separated integers, "
                f"got {args.seeds!r}",
                file=sys.stderr,
            )
            return 2
        extra = {}
        if args.metrics:
            extra["metrics"] = _split_csv(args.metrics)
        spec = CampaignSpec(
            scenarios=_split_csv(args.scenarios),
            schedulers=_split_csv(args.schedulers),
            seeds=seeds,
            seed=args.seed if args.seed is not None else 0,
            **extra,
        )
    else:
        print(
            "error: provide --spec JSON or both --scenarios and --schedulers",
            file=sys.stderr,
        )
        return 2

    result = run_campaign(
        spec, parallel=not args.serial, workers=args.workers
    )
    # Save before printing: stdout may be a pager/head that closes early,
    # and a BrokenPipeError must not cost the user their artifacts.
    if args.save_table is not None:
        result.to_csv(args.save_table)
    if args.save_spec is not None:
        spec.to_json(args.save_spec)
    metrics = _split_csv(args.metrics) if args.metrics else None
    print(result.to_text(metrics))
    if args.save_table is not None:
        print(f"\nsaved table: {args.save_table}")
    if args.save_spec is not None:
        print(f"saved spec: {args.save_spec}")
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    from .experiments import TournamentSpec, run_tournament

    kwargs: dict = {}
    if args.presets:
        kwargs["presets"] = tuple(_split_csv(args.presets))
    if args.gateways:
        kwargs["gateways"] = tuple(_split_csv(args.gateways))
    if args.evictions:
        kwargs["evictions"] = tuple(_split_csv(args.evictions))
    spec = TournamentSpec(
        scheduler=args.scheduler,
        repetitions=args.repetitions,
        seed=args.seed,
        **kwargs,
    )
    result = run_tournament(
        spec, parallel=not args.serial, workers=args.workers
    )
    # Save before printing: stdout may be a pager/head that closes early,
    # and a BrokenPipeError must not cost the user their artifacts.
    if args.out is not None:
        args.out.write_text(result.to_json())
    if args.save_table is not None:
        result.campaign.to_csv(args.save_table)
    print(result.to_text())
    if args.out is not None:
        print(f"\nsaved leaderboard: {args.out}")
    if args.save_table is not None:
        print(f"saved table: {args.save_table}")
    return 0


def _spool_dirs(root: Path) -> tuple[Path, Path, Path]:
    """The spool transport's directories: inbox, receipts, job status."""
    inbox, receipts, jobs = root / "inbox", root / "receipts", root / "jobs"
    for directory in (inbox, receipts, jobs):
        directory.mkdir(parents=True, exist_ok=True)
    return inbox, receipts, jobs


def _write_json_atomic(path: Path, payload: dict) -> None:
    import json
    import os

    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    os.replace(tmp, path)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import time

    from .service import CampaignService

    inbox, receipts, jobs_dir = _spool_dirs(args.dir)
    service = CampaignService(
        args.dir, workers=args.workers, max_attempts=args.max_attempts
    )
    session_jobs: set[str] = set()
    published: dict[str, tuple] = {}
    idle_since = time.monotonic()
    print(f"serving {args.dir} (workers={args.workers}); ctrl-c to stop")
    try:
        while True:
            for path in sorted(inbox.glob("*.json")):
                receipt_path = receipts / path.name
                try:
                    receipt = service.submit(path)
                except E2CError as exc:
                    _write_json_atomic(receipt_path, {"error": str(exc)})
                    path.unlink()
                    print(f"rejected {path.stem}: {exc}", file=sys.stderr)
                    continue
                _write_json_atomic(
                    receipt_path,
                    {
                        "job_id": receipt.job_id,
                        "key": receipt.key,
                        "kind": receipt.kind,
                        "cached": receipt.cached,
                    },
                )
                path.unlink()
                session_jobs.add(receipt.job_id)
                print(
                    f"{path.stem} -> {receipt.job_id} [{receipt.kind}] "
                    + ("(cache hit)" if receipt.cached else "queued")
                )
            live = 0
            terminal = 0
            for job in service.queue.jobs():
                signature = (job.state.value, job.runs_done, job.attempts)
                if published.get(job.id) != signature:
                    body = job.as_dict()
                    if job.state.value == "done":
                        body["result"] = service.result(job.id)
                    _write_json_atomic(jobs_dir / f"{job.id}.json", body)
                    published[job.id] = signature
                    if job.state.is_terminal:
                        print(
                            f"{job.id}: {job.state.value} "
                            f"({job.runs_done}/{job.runs_total} runs, "
                            f"attempt {job.attempts})"
                        )
                if job.state.is_terminal:
                    if job.id in session_jobs:
                        terminal += 1
                else:
                    live += 1
            if args.max_jobs is not None and terminal >= args.max_jobs:
                print(f"served {terminal} job(s); exiting (--max-jobs)")
                return 0
            if live or any(inbox.glob("*.json")):
                idle_since = time.monotonic()
            elif (
                args.idle_exit is not None
                and time.monotonic() - idle_since >= args.idle_exit
            ):
                print("inbox idle; exiting (--idle-exit)")
                return 0
            time.sleep(args.poll)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print("\nstopping")
        return 0
    finally:
        service.close()


def _print_job_status(body: dict) -> None:
    import json

    view = {k: v for k, v in body.items() if k not in ("request", "result")}
    print(json.dumps(view, indent=2, sort_keys=True))


def _print_job_result(body: dict) -> int:
    result = body.get("result")
    if body.get("state") != "done" or result is None:
        print(
            f"error: job {body.get('id')} has no result "
            f"(state: {body.get('state')}"
            + (f", error: {body['error']}" if body.get("error") else "")
            + ")",
            file=sys.stderr,
        )
        return 1
    if result.get("kind") == "campaign":
        print(result["text"])
    else:
        print(f"scenario {result.get('name')!r} "
              f"[{result.get('scheduler')}] summary:")
        for metric, value in result.get("summary", {}).items():
            print(f"  {metric:<28} {value}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json
    import time
    import uuid

    inbox, receipts, jobs_dir = _spool_dirs(args.dir)

    if args.status is not None or args.result_job is not None:
        if args.spec is not None:
            print(
                "error: --status/--result query existing jobs and do not "
                "take a spec",
                file=sys.stderr,
            )
            return 2
        job_id = args.status or args.result_job
        status_path = jobs_dir / f"{job_id}.json"
        if not status_path.exists():
            print(
                f"error: no such job {job_id!r} in {args.dir}",
                file=sys.stderr,
            )
            return 1
        body = json.loads(status_path.read_text(encoding="utf-8"))
        if args.result_job is not None:
            return _print_job_result(body)
        _print_job_status(body)
        return 0

    if args.spec is None:
        print(
            "error: provide a spec (JSON file, JSON literal, or preset "
            "name), or --status/--result JOB_ID",
            file=sys.stderr,
        )
        return 2

    source = args.spec
    if not source.lstrip().startswith("{") and not Path(source).exists():
        # A bare word: treat it as a registered preset name.
        data: dict = {"preset": source}
    else:
        from .core.jsonio import load_json_source

        data = load_json_source(source, what="submission")
    submission = f"sub-{uuid.uuid4().hex[:12]}"
    _write_json_atomic(inbox / f"{submission}.json", data)
    print(f"submitted {submission} to {args.dir}")

    if args.wait is None:
        return 0
    deadline = time.monotonic() + args.wait
    receipt_path = receipts / f"{submission}.json"
    receipt = None
    while time.monotonic() < deadline:
        if receipt_path.exists():
            receipt = json.loads(receipt_path.read_text(encoding="utf-8"))
            break
        time.sleep(0.1)
    if receipt is None:
        print(
            f"error: no receipt for {submission} within {args.wait}s — "
            "is 'e2c-sim serve' running on this directory?",
            file=sys.stderr,
        )
        return 1
    if "error" in receipt:
        print(f"error: submission rejected: {receipt['error']}", file=sys.stderr)
        return 1
    job_id = receipt["job_id"]
    print(f"receipt: job {job_id} ({'cache hit' if receipt['cached'] else 'queued'})")
    status_path = jobs_dir / f"{job_id}.json"
    body = None
    while time.monotonic() < deadline:
        if status_path.exists():
            body = json.loads(status_path.read_text(encoding="utf-8"))
            if body.get("state") in ("done", "failed", "cancelled"):
                break
        time.sleep(0.1)
    if body is None or body.get("state") not in ("done", "failed", "cancelled"):
        state = "unknown" if body is None else body.get("state")
        print(
            f"error: job {job_id} not finished within {args.wait}s "
            f"(state: {state})",
            file=sys.stderr,
        )
        return 1
    return _print_job_result(body)


def _trace_spec_from_args(args: argparse.Namespace):
    from .tasks.trace_io import TraceSpec

    columns: dict[str, str] = {}
    if args.columns:
        for pair in _split_csv(args.columns):
            role, _, column = pair.partition("=")
            if not column:
                raise ConfigurationError(
                    f"--columns entries must be ROLE=COL, got {pair!r}"
                )
            columns[role.strip()] = column.strip()
    window = None
    if args.window is not None:
        start, _, end = args.window.partition(":")
        try:
            window = (float(start), float(end))
        except ValueError:
            raise ConfigurationError(
                f"--window must be START:END seconds, got {args.window!r}"
            ) from None
    return TraceSpec(
        path=args.trace,
        columns=columns,
        time_unit=args.time_unit,
        time_offset=args.time_offset,
        window=window,
        time_scale=args.time_scale,
        bin_column=args.bin_column,
        slack_factor=args.slack_factor,
        default_relative_deadline=args.deadline,
        sample=args.sample,
        max_tasks=args.max_tasks,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "inspect":
        info = _trace_spec_from_args(args).describe()
        print(f"trace    {info['path']}")
        print(f"rows     {info['rows']}")
        print(f"columns  {', '.join(info['columns'])}")
        print(
            f"arrivals {info['arrival_min']:.6g} .. {info['arrival_max']:.6g} "
            f"s (span {info['arrival_max'] - info['arrival_min']:.6g} s "
            "after --time-unit rescale)"
        )
        if "type_counts" in info:
            print("task types:")
            for name, count in info["type_counts"].items():
                print(f"  {name:<20} {count}")
        if "bin_quartiles" in info:
            quartiles = ", ".join(f"{q:.6g}" for q in info["bin_quartiles"])
            print(f"bin column {info['bin_column']!r} quartiles: {quartiles}")
        return 0

    if args.trace_command == "convert":
        eet = EETMatrix.read_csv(args.eet)
        spec = _trace_spec_from_args(args)
        workload = spec.build_workload(eet, seed=args.seed)
        write_workload_csv(workload, args.out)
        print(f"wrote {len(workload)} tasks to {args.out}")
        return 0

    # replay: run a trace-driven scenario (preset name or JSON file).
    source = Path(args.scenario)
    if source.exists() or source.suffix == ".json":
        from dataclasses import replace

        scenario = Scenario.from_json(source)
        if args.scheduler is not None:
            scenario = replace(
                scenario, scheduler=args.scheduler, scheduler_params={}
            )
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
    else:
        from .scenarios import build_scenario

        overrides: dict = {}
        if args.scheduler is not None:
            overrides["scheduler"] = args.scheduler
        if args.seed is not None:
            overrides["seed"] = args.seed
        scenario = build_scenario(args.scenario, **overrides)
    if scenario.trace is None:
        print(
            f"error: scenario {scenario.name!r} is not trace-driven "
            "(it has no \"trace\" section); use 'e2c-sim run' instead",
            file=sys.stderr,
        )
        return 2
    result = scenario.run()
    print(result.reports.by_name(args.report).to_text())
    return 0


def _cmd_assignment(args: argparse.Namespace) -> int:
    from .education.assignment import (
        AssignmentConfig,
        figure5,
        figure6,
        figure7,
    )

    config = AssignmentConfig(
        replications=args.replications,
        duration=args.duration,
        seed=args.seed,
    )
    figures = {"5": figure5, "6": figure6, "7": figure7}
    chosen = figures.keys() if args.figure == "all" else [args.figure]
    for key in chosen:
        print(figures[key](config).to_text())
        print()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .positioning import render_table

    print(render_table())
    return 0


def _cmd_quiz(args: argparse.Namespace) -> int:
    from .education.quiz import generate_quiz

    quiz = generate_quiz(seed=args.seed)
    print(quiz.to_text())
    if args.key:
        print("\nAnswer key (machine index per task):")
        for method, mapping in quiz.answer_key().items():
            pretty = ", ".join(
                f"task {tid} -> {quiz.eet.machine_type_names[mid]}"
                for tid, mid in sorted(mapping.items())
            )
            print(f"  {method:<5} {pretty}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "generate": _cmd_generate,
    "schedulers": _cmd_schedulers,
    "scenarios": _cmd_scenarios,
    "sweep": _cmd_sweep,
    "tournament": _cmd_tournament,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "trace": _cmd_trace,
    "assignment": _cmd_assignment,
    "table1": _cmd_table1,
    "quiz": _cmd_quiz,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except E2CError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
