"""Command-line interface: ``python -m repro <command>``.

The configuration-interface face of the reproduction (the paper's
"easy-to-use interface" through which developers and engineers trigger
tracing, §3.1/§4), plus inspection commands for the workload library and
scheme comparisons.

Commands:

* ``workloads`` — list the Table 1 workload library;
* ``trace``     — run one EXIST session against a workload and summarize
  what was captured (optionally decode the hottest functions);
* ``compare``   — run several schemes on one workload and print the
  overhead/space comparison;
* ``cluster``   — deploy an app on a small cluster and reconcile a
  TraceTask CRD through the full control/data flow (optionally under an
  injected ``--faults`` plan, printing the degradation summary);
* ``chaos-sweep`` — run the seeded chaos scenario across fault seeds and
  aggregate the graceful-degradation accounting;
* ``profile``   — run any other repro command under cProfile and report
  the top-N cumulative hotspots (optionally as JSON), so perf PRs start
  from data;
* ``staticcheck`` — run the ``existcheck`` determinism & simulation-purity
  analyzer (EX001..EX006) over the source tree against the committed
  baseline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.reconstruct import reconstruct
from repro.analysis.tables import format_table
from repro.experiments.scenarios import SCHEME_FACTORIES, SCHEME_ORDER
from repro.program.workloads import WORKLOADS, get_workload
from repro.util.units import MIB, MSEC, fmt_bytes, fmt_time


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name, profile in sorted(WORKLOADS.items(), key=lambda kv: kv[0].lower()):
        rows.append([
            name,
            profile.kind.value,
            profile.n_threads,
            profile.provisioning.value,
            profile.description,
        ])
    print(format_table(
        rows,
        headers=["name", "kind", "threads", "provisioning", "description"],
        title="Workload library (paper Table 1)",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.exist import ExistScheme
    from repro.kernel.system import KernelSystem, SystemConfig
    from repro.util.units import SEC

    profile = get_workload(args.workload)
    system = KernelSystem(SystemConfig.small_node(args.cores, seed=args.seed))
    cpuset = list(range(min(4, args.cores)))
    target = profile.spawn(system, cpuset=cpuset, seed=args.seed)
    scheme = ExistScheme(period_ns=args.period_ms * MSEC, continuous=False)
    scheme.install(system, [target])
    if profile.kind.value == "compute":
        system.run_until_done([target], deadline_ns=30 * SEC)
    else:
        system.run_for((args.period_ms + 100) * MSEC)
    artifacts = scheme.artifacts()

    assert scheme.facility is not None and scheme.facility.completed
    session = scheme.facility.completed[0].session
    ops = scheme.facility.otc.session_msr_operations(session)
    print(f"traced {profile.name} for {fmt_time(session.period_ns)}")
    print(f"  segments:       {len(artifacts.segments)}")
    print(f"  trace volume:   {fmt_bytes(int(artifacts.space_bytes))}")
    print(f"  sched records:  {len(artifacts.sched_records)}")
    print(f"  MSR operations: {ops} "
          f"(vs {system.scheduler.total_context_switches} context switches)")

    if args.report:
        from repro.analysis.report import build_session_report

        print()
        print(build_session_report(artifacts, target))
    elif args.top:
        result = reconstruct(artifacts.segments, [target])
        histogram = result.function_histogram(target.binary)
        rows = sorted(histogram.items(), key=lambda kv: -kv[1])[: args.top]
        print(format_table(
            [[name, count] for name, count in rows],
            headers=["function", "occurrences"],
            title=f"top {args.top} functions "
                  f"({len(result.decoded)} decoded block executions)",
        ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.parallel.matrix import MatrixCell, run_matrix

    profile = get_workload(args.workload)
    cells = [
        MatrixCell(
            workload=args.workload,
            scheme=name,
            seed=args.seed,
            cpuset=(0, 1, 2, 3),
            window_s=args.window_s,
        )
        for name in args.schemes
    ]
    results = run_matrix(cells, jobs=args.jobs)
    rows = []
    baseline = None
    for name, result in zip(args.schemes, results):
        metric = result.metric
        if baseline is None:
            baseline = metric
        rows.append([
            name,
            f"{(baseline - metric) / baseline:.2%}",
            result.wrmsr_ops,
            f"{result.space_bytes / MIB:.1f} MiB",
        ])
    print(format_table(
        rows,
        headers=["scheme", "overhead", "WRMSRs", "trace space"],
        title=f"scheme comparison on {profile.name} — {profile.description}",
    ))
    return 0


def _stream_stats_line(stream: dict) -> str:
    """One-line streaming-ingest summary for CLI output."""
    line = (
        f"streaming: {stream['chunks']} chunks / {stream['uploads']} uploads, "
        f"p99 lag {fmt_time(stream['p99_lag_ns'])}, "
        f"depth<= {stream['max_queue_depth']}, "
        f"{stream['backpressure_engagements']} backpressure engagements"
    )
    if stream["dead_letters"]:
        line += (
            f", {stream['dead_letters']} dead-lettered"
            f" ({stream['dead_letters_replayed']} replayed)"
        )
    return line


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterMaster, TraceTaskSpec
    from repro.core.config import TraceReason
    from repro.faults import FaultPlan

    plan = None
    if args.faults:
        plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        if not plan:
            plan = None
    master = ClusterMaster(seed=args.seed)
    # a node builds on first use: only traced nodes build, so --nodes
    # scales to the thousands without paying per-node kernel builds
    master.add_nodes(args.nodes)
    master.deploy(args.app, replicas=args.replicas)
    task = master.submit(TraceTaskSpec(
        app=args.app,
        reason=TraceReason(args.reason),
        period_ns=args.period_ms * MSEC,
        max_repetitions=args.max_repetitions,
    ))
    if args.jobs and args.jobs > 1:
        from repro.parallel import RunPool

        with RunPool(max_workers=args.jobs) as pool:
            master.reconcile(
                task, pool=pool, faults=plan, streaming=args.streaming
            )
    else:
        master.reconcile(task, faults=plan, streaming=args.streaming)
    print(f"task {task.name}: {task.status.phase.value}")
    print(f"  repetitions traced: {task.status.sessions_completed}/{args.replicas}")
    print(f"  period:             {fmt_time(task.status.period_ns)}")
    print(f"  captured:           {fmt_bytes(int(task.status.bytes_captured))}")
    print(f"  object-store keys:  {len(task.status.trace_keys)}")
    rows = master.sessions_for(task)
    print(format_table(
        [[r["pod"], r["node"], r["records"], r["functions"]] for r in rows],
        headers=["pod", "node", "decoded records", "functions"],
        title="structured-store rows",
    ))
    report = task.status.degradation
    if report is not None and (plan is not None or report.degraded):
        print(f"degradation: {report.summary()}")
    if args.degradation_json and report is not None:
        with open(args.degradation_json, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"degradation report written to {args.degradation_json}")
    stream = task.status.stream
    if stream is not None:
        print(_stream_stats_line(stream))
    footprint = master.management_footprint()
    print(f"management pod: {footprint.cpu_cores:.1e} cores, "
          f"{footprint.memory_mb:.0f} MB")
    return 0


def _cmd_chaos_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.scenarios import chaos_sweep

    sweep = chaos_sweep(
        fault_seeds=list(range(args.seeds)),
        faults=args.faults,
        app=args.app,
        nodes=args.nodes,
        replicas=args.replicas,
        seed=args.seed,
        jobs=args.jobs,
        streaming=args.streaming,
    )
    phases = ", ".join(
        f"{phase}={count}" for phase, count in sorted(sweep["phases"].items())
    )
    print(f"chaos sweep: {args.seeds} seeds of '{sweep['faults']}'")
    print(f"  phases:         {phases}")
    print(f"  mean coverage:  {sweep['mean_coverage_fraction']:.1%}")
    print(f"  bytes dropped:  {fmt_bytes(sweep['total_bytes_dropped'])}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(sweep, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"sweep report written to {args.json}")
    return 0


def _cmd_services_campaign(args: argparse.Namespace) -> int:
    import time

    from repro.services.workloads import (
        SCENARIO_PRESETS,
        SERVICE_WORKLOADS,
        CampaignSpec,
        campaign_report_json,
        run_campaign,
    )

    spec = CampaignSpec(
        workload=args.workload,
        n_requests=args.requests,
        utilization=args.utilization,
        seed=args.seed,
        scenario=args.scenario,
        inflation=args.inflation,
        traced_service=args.traced or None,
        partition_requests=args.partition_requests,
    )
    # wall-clock timing of the simulation itself (spans/s is the
    # engine-throughput headline, not part of the simulated results)
    t0 = time.perf_counter()
    report = run_campaign(spec, jobs=args.jobs)
    elapsed = time.perf_counter() - t0

    workload = SERVICE_WORKLOADS[args.workload]
    scenario = SCENARIO_PRESETS[args.scenario]
    print(f"campaign: {spec.n_requests:,} requests of '{workload.name}' "
          f"({workload.description})")
    print(f"  scenario:   {scenario.name}  "
          f"(partitions={report['partitions']}, jobs={args.jobs}, "
          f"retries={report['retry_requests']})")
    rows = []
    for scheme, m in report["schemes"].items():
        rows.append([
            scheme,
            f"{m['throughput_rps']:,.0f}",
            f"{m['p50_ms']:.3f}",
            f"{m['p99_ms']:.3f}",
            f"{m['p999_ms']:.3f}",
            f"{m['spans']:,}",
        ])
    print(format_table(
        rows,
        headers=["scheme", "rps", "p50 ms", "p99 ms", "p99.9 ms", "spans"],
        title="merged campaign results",
    ))
    if "degradation" in report:
        deg = report["degradation"]
        print(f"degradation from {report['inflation']:.3f}x inflation on "
              f"'{report['traced_service']}': "
              + ", ".join(f"{k[:-3]} {v:+.2%}" for k, v in deg.items()))
    culprit = report["schemes"]["baseline"].get("sampled_culprit")
    if culprit:
        print(f"sampled culprit service: {culprit}")
    spans = report["spans_simulated"]
    print(f"engine: {spans:,} spans in {elapsed:.2f}s wall = "
          f"{spans / elapsed:,.0f} spans/s")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(campaign_report_json(report))
        print(f"campaign report written to {args.json}")
    return 0


def _cmd_staticcheck(args: argparse.Namespace) -> int:
    from repro.staticcheck.main import run as run_staticcheck

    return run_staticcheck(args)


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile wrapper around any other CLI invocation.

    ``repro profile -- trace Search1 --top 0`` runs the wrapped command
    under cProfile and prints (and optionally writes as JSON) the top-N
    hotspots by cumulative time — so perf work starts from measured
    hotspots instead of guesses.
    """
    import cProfile
    import io
    import json
    import pstats

    wrapped = list(args.wrapped)
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        print("profile: no wrapped command given "
              "(try: repro profile -- trace Search1)", file=sys.stderr)
        return 2
    if wrapped[0] == "profile":
        print("profile: refusing to profile itself", file=sys.stderr)
        return 2

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        exit_code = main(wrapped)
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("cumulative")
    hotspots = []
    for func, (ncalls, _primitive, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda kv: -kv[1][3]
    ):
        file_name, line, function = func
        # profiler bookkeeping frames are noise, not hotspots
        if function in ("<built-in method builtins.exec>", "enable"):
            continue
        hotspots.append({
            "function": function,
            "file": file_name,
            "line": line,
            "ncalls": ncalls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
        if len(hotspots) >= args.top:
            break

    print()
    print(format_table(
        [
            [
                h["function"][:48],
                f"{h['file'].rsplit('/', 1)[-1]}:{h['line']}",
                h["ncalls"],
                f"{h['tottime']:.4f}",
                f"{h['cumtime']:.4f}",
            ]
            for h in hotspots
        ],
        headers=["function", "where", "calls", "tottime", "cumtime"],
        title=f"top {args.top} hotspots of: repro {' '.join(wrapped)}",
    ))
    if args.json:
        report = {
            "command": wrapped,
            "exit_code": exit_code,
            "hotspots": hotspots,
        }
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"profile written to {args.json}")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EXIST reproduction — simulated intra-service tracing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload library")

    trace = sub.add_parser("trace", help="run one EXIST session")
    trace.add_argument("workload", choices=sorted(WORKLOADS))
    trace.add_argument("--period-ms", type=int, default=500)
    trace.add_argument("--cores", type=int, default=8)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--top", type=int, default=5,
                       help="decode and show the N hottest functions (0=off)")
    trace.add_argument("--report", action="store_true",
                       help="print the full markdown session report")

    compare = sub.add_parser("compare", help="compare tracing schemes")
    compare.add_argument("workload", choices=sorted(WORKLOADS))
    compare.add_argument(
        "--schemes", nargs="+", default=list(SCHEME_ORDER),
        choices=sorted(SCHEME_FACTORIES),
    )
    compare.add_argument("--window-s", type=float, default=0.2)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the scheme runs")

    cluster = sub.add_parser("cluster", help="reconcile a TraceTask CRD")
    cluster.add_argument("--app", default="Search1", choices=sorted(WORKLOADS))
    cluster.add_argument("--nodes", type=int, default=3)
    cluster.add_argument("--replicas", type=int, default=3)
    cluster.add_argument("--period-ms", type=int, default=150)
    cluster.add_argument(
        "--reason", default="anomaly", choices=["anomaly", "profiling", "user"]
    )
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument("--jobs", type=int, default=1,
                         help="worker processes; each traced node runs as one "
                              "pool task (output is identical for any width)")
    cluster.add_argument(
        "--max-repetitions", type=int, default=None,
        help="cap traced repetitions (default: RCO's spatial sampler)",
    )
    cluster.add_argument(
        "--faults", default="",
        help="fault plan: preset name ('chaos') or comma-separated "
             "kind[:magnitude][@at_fraction][/target] specs",
    )
    cluster.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the fault plan's randomness")
    cluster.add_argument(
        "--degradation-json", default="",
        help="write the task's DegradationReport JSON to this path",
    )
    cluster.add_argument(
        "--streaming", action="store_true",
        help="also report online streaming-ingest accounting (bounded "
             "queue, backpressure, dead letters); decode and "
             "end state are identical to a batch reconcile",
    )

    chaos = sub.add_parser(
        "chaos-sweep",
        help="run the seeded chaos scenario across fault seeds",
    )
    chaos.add_argument("--app", default="Search1", choices=sorted(WORKLOADS))
    chaos.add_argument("--faults", default="chaos",
                       help="fault plan (preset or spec string)")
    chaos.add_argument("--seeds", type=int, default=3,
                       help="number of fault seeds to sweep (0..N-1)")
    chaos.add_argument("--nodes", type=int, default=3)
    chaos.add_argument("--replicas", type=int, default=None,
                       help="pods of the app (default: one per node)")
    chaos.add_argument("--seed", type=int, default=11,
                       help="cluster/workload seed")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes each reconcile's traced "
                            "nodes run on")
    chaos.add_argument("--json", default="",
                       help="write the sweep report JSON to this path")
    chaos.add_argument(
        "--streaming", action="store_true",
        help="account every seeded run through the streaming-ingest "
             "pipeline (results identical to batch decode)",
    )
    campaign = sub.add_parser(
        "services-campaign",
        help="drive a sharded million-RPC campaign through the "
             "vectorized service engine",
    )
    from repro.services.workloads import SCENARIO_PRESETS, SERVICE_WORKLOADS

    campaign.add_argument("--workload", default="ecommerce",
                          choices=sorted(SERVICE_WORKLOADS))
    campaign.add_argument("--requests", type=int, default=100_000,
                          help="total requests across all partitions")
    campaign.add_argument("--utilization", type=float, default=0.7,
                          help="bottleneck utilization of the load point")
    campaign.add_argument("--scenario", default="steady",
                          choices=sorted(SCENARIO_PRESETS))
    campaign.add_argument("--inflation", type=float, default=1.0,
                          help="tracing inflation of the traced scheme "
                               "(1.0 skips the traced run)")
    campaign.add_argument("--traced", default="",
                          help="service to trace (default: the workload's)")
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes the partitions shard over "
                               "(report is identical for any jobs width)")
    campaign.add_argument("--partition-requests", type=int, default=8192,
                          help="requests per fleet-cell partition")
    campaign.add_argument("--json", default="",
                          help="write the canonical campaign report JSON")

    profile = sub.add_parser(
        "profile",
        help="run any repro command under cProfile and report hotspots",
    )
    profile.add_argument("--top", type=int, default=20,
                         help="number of hotspots to report")
    profile.add_argument("--json", default="",
                         help="write the hotspot report JSON to this path")
    profile.add_argument(
        "wrapped", nargs=argparse.REMAINDER,
        help="the repro command to profile (prefix with -- )",
    )

    staticcheck = sub.add_parser(
        "staticcheck",
        help="existcheck — determinism & simulation-purity analyzer",
    )
    from repro.staticcheck.main import add_arguments as _staticcheck_arguments

    _staticcheck_arguments(staticcheck)
    return parser


_COMMANDS = {
    "workloads": _cmd_workloads,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "cluster": _cmd_cluster,
    "chaos-sweep": _cmd_chaos_sweep,
    "services-campaign": _cmd_services_campaign,
    "profile": _cmd_profile,
    "staticcheck": _cmd_staticcheck,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
