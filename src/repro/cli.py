"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro analyze tpch_q7
    python -m repro enumerate clickstream --mode manual
    python -m repro experiment textmining --picks 10
    python -m repro experiment tpch_q7 --scale 10
    python -m repro experiment clickstream --feedback-rounds 2 --stats-store stats.json
    python -m repro experiment clickstream --feedback-rounds 2 --stats-store stats.sqlite
    python -m repro experiment tpch_q7 --search guided --top-k 3
    python -m repro experiment textmining --scale 400 --engine-jobs 4
    python -m repro experiment clickstream --midquery --switch-threshold 1.1
    python -m repro experiment clickstream --trace trace.json
    python -m repro trace summarize trace.json
    python -m repro stats migrate stats.json stats.sqlite
    python -m repro serve --port 7411 --stats-dir stats/
    python -m repro plan tpch_q7 --server 127.0.0.1:7411 --tenant acme
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import render_figure, render_table, run_experiment
from .core import AnnotationMode, body
from .core.operators import UdfOperator
from .core.plan import iter_nodes, render_tree
from .feedback.midquery import DEFAULT_SWITCH_THRESHOLD
from .optimizer import PlanContext, enumerate_flows
from .workloads import ALL_WORKLOADS


def _mode(name: str) -> AnnotationMode:
    return AnnotationMode.MANUAL if name == "manual" else AnnotationMode.SCA


def cmd_list(_args) -> int:
    rows = []
    for name, build in ALL_WORKLOADS.items():
        workload = build()
        rows.append((name, workload.description))
    print(render_table(rows, ("workload", "description")))
    return 0


def cmd_analyze(args) -> int:
    workload = ALL_WORKLOADS[args.workload](scale_factor=args.scale)
    ctx = PlanContext(workload.catalog, _mode(args.mode))
    print(f"Implemented flow for {workload.name}:")
    print(render_tree(body(workload.plan)))
    print(f"\nDerived properties ({args.mode}):")
    rows = []
    for node_ in iter_nodes(workload.plan):
        op = node_.op
        if not isinstance(op, UdfOperator):
            continue
        props = ctx.props(op)
        hi = props.emit_bounds.hi
        rows.append(
            (
                op.name,
                ", ".join(sorted(a.name for a in props.reads)) or "-",
                ", ".join(sorted(a.name for a in props.writes)) or "-",
                f"[{props.emit_bounds.lo}, {'inf' if hi is None else hi}]",
                "yes" if props.conservative else "no",
            )
        )
    print(render_table(rows, ("operator", "read set", "write set", "emits", "conservative")))
    return 0


def cmd_enumerate(args) -> int:
    workload = ALL_WORKLOADS[args.workload](scale_factor=args.scale)
    ctx = PlanContext(workload.catalog, _mode(args.mode))
    flows = enumerate_flows(body(workload.plan), ctx)
    print(f"{len(flows)} valid reordered data flows ({args.mode} properties):")
    limit = args.limit if args.limit > 0 else len(flows)
    from .core.plan import linearize

    for flow in flows[:limit]:
        print("  ", " -> ".join(linearize(flow)))
    if limit < len(flows):
        print(f"   ... and {len(flows) - limit} more")
    return 0


def cmd_experiment(args) -> int:
    workload = ALL_WORKLOADS[args.workload](scale_factor=args.scale)
    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
    outcome = run_experiment(
        workload,
        picks=args.picks,
        mode=_mode(args.mode),
        execute_all=args.all,
        feedback_rounds=args.feedback_rounds,
        stats_store=args.stats_store,
        stats_backend=args.stats_backend,
        midquery=args.midquery,
        switch_threshold=args.switch_threshold,
        engine_jobs=args.engine_jobs,
        search=args.search,
        top_k=args.top_k,
        tracer=tracer,
    )
    print(render_figure(outcome, f"Experiment — {workload.name}"))
    if outcome.feedback is not None:
        print()
        print(outcome.feedback.describe())
        if args.stats_store:
            print(f"statistics store saved to {args.stats_store}")
    if outcome.midquery is not None:
        print()
        print(outcome.midquery.describe())
    if tracer is not None:
        from .obs import write_prometheus, write_trace

        count = write_trace(tracer, args.trace, fmt=args.trace_format)
        print(f"\ntrace: {count} span(s) written to {args.trace}")
        if args.trace_metrics:
            write_prometheus(tracer, args.trace_metrics)
            print(f"metrics snapshot written to {args.trace_metrics}")
    return 0


def cmd_trace_summarize(args) -> int:
    from .obs import load_trace, render_summary

    try:
        spans = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 1
    print(render_summary(spans, top=args.top))
    return 0


def cmd_trace(args) -> int:
    return args.trace_fn(args)


def cmd_stats_migrate(args) -> int:
    from pathlib import Path

    from .core.errors import FeedbackError
    from .feedback.store import StatisticsStore

    if Path(args.dst).exists() and not args.force:
        print(
            f"destination {args.dst} already exists (use --force to merge "
            "the source into it)",
            file=sys.stderr,
        )
        return 2
    try:
        source = StatisticsStore.open(args.src, backend=args.from_backend)
        migrated = source.migrate_to(args.dst, backend=args.to_backend)
    except FeedbackError as exc:
        print(f"migration failed: {exc}", file=sys.stderr)
        return 1
    if migrated.estimator_view() != source.estimator_view():
        print(
            "migration failed verification: destination estimator view "
            "differs from the source",
            file=sys.stderr,
        )
        return 1
    print(
        f"migrated {args.src} -> {args.dst}: "
        f"{len(source.nodes)} node(s), {len(source.sources)} source(s), "
        f"{len(source.plans)} plan(s), store version {source.version} "
        "(estimator view verified identical)"
    )
    return 0


def cmd_stats(args) -> int:
    return args.stats_fn(args)


def cmd_serve(args) -> int:
    import asyncio

    from .serve import PlanningServer, ServerConfig

    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        stats_dir=args.stats_dir,
        stats_backend=args.stats_backend,
        search=args.search,
        default_top_k=args.top_k,
        max_queue=args.max_queue,
        tenant_inflight=args.tenant_inflight,
        max_tenants=args.max_tenants,
    )
    server = PlanningServer(config, tracer=tracer)

    async def run() -> None:
        await server.start()
        if server.metrics_port is not None:
            print(
                f"metrics on http://{config.host}:{server.metrics_port}/metrics",
                flush=True,
            )
        # The launcher contract: this line, last, means "port is bound".
        print(f"serving on {config.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    if tracer is not None:
        from pathlib import Path

        from .obs import write_trace

        count = write_trace(tracer, args.trace, fmt=args.trace_format)
        print(f"trace: {count} span(s) written to {args.trace}")
        if args.trace_metrics:
            # The serve.* counters live on the server's own registry
            # (always collected, tracing or not) — snapshot that, not
            # the span sink's.
            Path(args.trace_metrics).write_text(server.prometheus_text())
            print(f"metrics snapshot written to {args.trace_metrics}")
    return 0


def cmd_plan(args) -> int:
    import json

    from .serve import PlanningClient, ServeError

    host, _, port = args.server.rpartition(":")
    try:
        port_number = int(port)
    except ValueError:
        print(
            f"--server must be HOST:PORT, got {args.server!r}",
            file=sys.stderr,
        )
        return 2
    try:
        with PlanningClient(host or "127.0.0.1", port_number) as client:
            response = client.plan(
                args.workload,
                tenant=args.tenant,
                mode=args.mode,
                scale=args.scale,
                top_k=args.top_k,
            )
    except ServeError as exc:
        print(f"plan request failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.server}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    print(
        f"{response['workload']} (tenant {response['tenant']}, "
        f"{response['cache']}, stats {response['fingerprint']}): "
        f"cost {response['cost']:.6g}"
    )
    print("  " + " -> ".join(response["plan"]))
    for ranked in response["ranked"]:
        print(f"  #{ranked['rank']}: cost {ranked['cost']:.6g}")
    print(
        f"  planned in {response['planning_seconds'] * 1e3:.2f} ms, "
        f"served in {response['serve_seconds'] * 1e3:.2f} ms"
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Opening the Black Boxes in Data Flow "
        "Optimization' (PVLDB 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(fn=cmd_list)

    for name, fn, extra in (
        ("analyze", cmd_analyze, False),
        ("enumerate", cmd_enumerate, True),
        ("experiment", cmd_experiment, False),
    ):
        p = sub.add_parser(name, help=f"{name} a workload")
        p.add_argument("workload", choices=sorted(ALL_WORKLOADS))
        p.add_argument("--mode", choices=("sca", "manual"), default="sca")
        p.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="datagen scale factor (rows ~ scale x workload default)",
        )
        if extra:
            p.add_argument("--limit", type=int, default=25)
        if name == "experiment":
            p.add_argument("--picks", type=int, default=10)
            p.add_argument("--all", action="store_true", help="execute every plan")
            p.add_argument(
                "--feedback-rounds",
                type=int,
                default=0,
                metavar="N",
                help="adaptive re-optimization rounds fed by runtime "
                "observations (0 = feedback off, the plain protocol)",
            )
            p.add_argument(
                "--stats-store",
                default=None,
                metavar="PATH",
                help="persistent statistics store: loaded if present (warm "
                "start), kept current transactionally during the run; the "
                "backend is sniffed from the extension (.sqlite/.sqlite3/"
                ".db -> sqlite-WAL, anything else -> JSON)",
            )
            p.add_argument(
                "--stats-backend",
                choices=("json", "sqlite"),
                default=None,
                help="force the statistics-store backend instead of "
                "sniffing it from the --stats-store extension",
            )
            p.add_argument(
                "--engine-jobs",
                type=_positive_int,
                default=1,
                metavar="N",
                help="worker processes for partition-parallel stage "
                "execution (fork-based; records, metrics, and modeled "
                "seconds are bit-identical to --engine-jobs 1; falls "
                "back to serial with a warning where fork is "
                "unavailable)",
            )
            p.add_argument(
                "--search",
                choices=("eager", "guided"),
                default="eager",
                help="plan search strategy: 'eager' costs every enumerated "
                "alternative and ranks them all; 'guided' runs the "
                "best-first, cost-guided search that costs only frontier "
                "heads and returns the top --top-k plans (bit-identical "
                "to the eager prefix)",
            )
            p.add_argument(
                "--top-k",
                type=_positive_int,
                default=None,
                metavar="K",
                help="number of top-ranked plans to produce (guided search "
                "proves exactly this many; eager ranks everything then "
                "trims). Default: 1 under --search guided, unlimited "
                "under eager",
            )
            p.add_argument(
                "--midquery",
                action="store_true",
                help="execute the picked plan stage-by-stage, re-planning "
                "the unexecuted suffix at every pipeline-stage boundary "
                "(with feedback rounds: the deployed pick runs this way)",
            )
            p.add_argument(
                "--switch-threshold",
                type=float,
                default=DEFAULT_SWITCH_THRESHOLD,
                metavar="X",
                help="minimum estimated-cost ratio (running suffix / "
                "re-planned suffix) before mid-query abandons the running "
                "plan; 1.0 switches on any improvement, inf never switches, "
                "below 1.0 forces a switch at every boundary (diagnostic) "
                f"(default {DEFAULT_SWITCH_THRESHOLD})",
            )
            p.add_argument(
                "--trace",
                default=None,
                metavar="PATH",
                help="write a wall-clock trace of the run (optimizer, "
                "engine stages/partitions incl. fork workers, feedback) "
                "to PATH; format sniffed from the extension (.jsonl -> "
                "span log, else Chrome trace-event JSON loadable in "
                "Perfetto) unless --trace-format overrides",
            )
            p.add_argument(
                "--trace-format",
                choices=("jsonl", "chrome"),
                default=None,
                help="trace file format (default: sniff --trace extension)",
            )
            p.add_argument(
                "--trace-metrics",
                default=None,
                metavar="PATH",
                help="also write the run's deterministic counters/gauges "
                "as a Prometheus-style text snapshot (requires --trace)",
            )
        p.set_defaults(fn=fn)

    trace = sub.add_parser("trace", help="inspect recorded traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="self-time breakdown per subsystem and span of a trace "
        "written by `repro experiment --trace`",
    )
    summarize.add_argument("trace", help="trace path (.jsonl or Chrome JSON)")
    summarize.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="N",
        help="span names to show in the self-time ranking (default 20)",
    )
    summarize.set_defaults(trace_fn=cmd_trace_summarize)
    trace.set_defaults(fn=cmd_trace)

    stats = sub.add_parser(
        "stats", help="manage persistent statistics stores"
    )
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)
    migrate = stats_sub.add_parser(
        "migrate",
        help="copy a statistics store into another backend "
        "(e.g. JSON -> sqlite)",
    )
    migrate.add_argument("src", help="source store path")
    migrate.add_argument("dst", help="destination store path")
    migrate.add_argument(
        "--from-backend",
        choices=("json", "sqlite"),
        default=None,
        help="force the source backend (default: sniff the extension)",
    )
    migrate.add_argument(
        "--to-backend",
        choices=("json", "sqlite"),
        default=None,
        help="force the destination backend (default: sniff the extension)",
    )
    migrate.add_argument(
        "--force",
        action="store_true",
        help="merge into an existing destination store",
    )
    migrate.set_defaults(stats_fn=cmd_stats_migrate)
    stats.set_defaults(fn=cmd_stats)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived multi-tenant planning server "
        "(optimizer-as-a-service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7411,
        help="TCP port (0 picks a free one; the bound port is printed)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose serve.* metrics as Prometheus text over HTTP "
        "GET /metrics on this port (0 picks a free one)",
    )
    serve.add_argument(
        "--stats-dir",
        default=None,
        metavar="DIR",
        help="directory of per-tenant statistics stores (<tenant>.sqlite; "
        "shareable with ingesting `repro experiment --stats-store` "
        "processes). Default: in-memory stores, no persistence",
    )
    serve.add_argument(
        "--stats-backend",
        choices=("json", "sqlite"),
        default="sqlite",
        help="backend for per-tenant stores under --stats-dir "
        "(default sqlite)",
    )
    serve.add_argument(
        "--search",
        choices=("eager", "guided"),
        default="guided",
        help="plan search strategy served on cache misses (default guided)",
    )
    serve.add_argument(
        "--top-k",
        type=_positive_int,
        default=1,
        metavar="K",
        help="default number of ranked plans per response (requests may "
        "override)",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        metavar="N",
        help="server-wide cap on admitted requests; beyond it requests "
        "are rejected with a 429-style error (default 64)",
    )
    serve.add_argument(
        "--tenant-inflight",
        type=_positive_int,
        default=4,
        metavar="N",
        help="per-tenant in-flight request cap (default 4)",
    )
    serve.add_argument(
        "--max-tenants",
        type=_positive_int,
        default=64,
        metavar="N",
        help="warm tenants kept resident; beyond it the least-recently-"
        "used idle tenant's memos and store handle are evicted "
        "(default 64)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the merged per-request span timeline to PATH at "
        "shutdown (format sniffed like `repro experiment --trace`)",
    )
    serve.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default=None
    )
    serve.add_argument(
        "--trace-metrics",
        default=None,
        metavar="PATH",
        help="also write a Prometheus-style metrics snapshot at shutdown "
        "(requires --trace)",
    )
    serve.set_defaults(fn=cmd_serve)

    plan = sub.add_parser(
        "plan", help="request a plan from a running `repro serve`"
    )
    plan.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    plan.add_argument(
        "--server",
        default="127.0.0.1:7411",
        metavar="HOST:PORT",
        help="planning server address (default 127.0.0.1:7411)",
    )
    plan.add_argument("--tenant", default="default")
    plan.add_argument("--mode", choices=("sca", "manual"), default=None)
    plan.add_argument("--scale", type=float, default=None)
    plan.add_argument("--top-k", type=_positive_int, default=None, metavar="K")
    plan.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON response instead of the summary",
    )
    plan.set_defaults(fn=cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an
        # error.  Detach stdout so interpreter shutdown does not raise
        # again while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
