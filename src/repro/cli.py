"""Command-line interface: run scenarios and paper experiments.

Examples
--------
::

    python -m repro run --scheme AC3 --load 200 --rvo 0.8
    python -m repro run --scheme static --guard 10 --low-mobility
    python -m repro sweep --scheme AC3 --loads 60,150,300
    python -m repro experiment table3
    python -m repro list-experiments
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.report import Table
from repro.mobility.models import TravelDirections
from repro.obs import (
    configure_logging,
    ensure_configured,
    get_logger,
    merge_snapshots,
    snapshot_to_json,
    to_prometheus,
)
from repro.simulation.runner import run_sweep
from repro.simulation.scenarios import hex_city, stationary
from repro.simulation.simulator import CellularSimulator
from repro.simulation.tracing import ConnectionTracer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Predictive and adaptive bandwidth reservation for hand-offs"
            " (Choi & Shin, SIGCOMM 1998)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run one scenario and print the per-cell report"
    )
    _add_scenario_arguments(run_parser)
    _add_spatial_arguments(run_parser)
    _add_observability_arguments(run_parser)
    run_parser.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="record the connection-lifecycle journal and write it as"
        " JSON lines (verify() violations are logged)",
    )
    run_parser.add_argument(
        "--replications", type=int, default=1, metavar="K",
        help="shard the run into K independent replications and merge"
        " the metrics with confidence intervals (default 1: one run)",
    )
    run_parser.add_argument(
        "--ci-level", type=float, default=0.95, metavar="P",
        help="confidence level of the replicated intervals"
        " (default 0.95)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool width for --replications (the merged result"
        " is identical at any worker count)",
    )
    state_group = run_parser.add_argument_group("durable state")
    state_group.add_argument(
        "--save-state", default=None, metavar="PATH",
        help="write a durable checkpoint of the final state after the"
        " run (load it later with --load-state to continue)",
    )
    state_group.add_argument(
        "--load-state", default=None, metavar="PATH",
        help="restore a checkpoint and continue it up to --duration;"
        " the continued run is bit-identical to an uninterrupted one",
    )
    state_group.add_argument(
        "--checkpoint-every", type=float, default=0.0, metavar="SECONDS",
        help="write periodic mid-run checkpoints every SECONDS of"
        " simulated time (0 disables)",
    )
    state_group.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for --checkpoint-every checkpoints"
        " (default: 'checkpoints')",
    )
    state_group.add_argument(
        "--checkpoint-keep", type=int, default=3, metavar="K",
        help="keep only the newest K periodic checkpoints (default 3)",
    )

    sweep_parser = commands.add_parser(
        "sweep", help="sweep the offered load and print P_CB / P_HD"
    )
    _add_scenario_arguments(sweep_parser)
    _add_observability_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--loads",
        default="60,100,150,200,250,300",
        help="comma-separated offered loads (BUs per cell)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run the sweep on a process pool of N workers"
        " (results are identical to the sequential run)",
    )

    experiment_parser = commands.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment_parser.add_argument("name", help="experiment id, e.g. fig8+9")
    experiment_parser.add_argument(
        "--duration", type=float, default=None,
        help="override the simulated horizon (seconds)",
    )

    commands.add_parser(
        "list-experiments", help="list the registered experiment ids"
    )

    campaign_parser = commands.add_parser(
        "campaign",
        help="run N chained simulated days, warm-starting each from the"
        " previous day's checkpoint",
    )
    _add_scenario_arguments(campaign_parser)
    _add_spatial_arguments(campaign_parser)
    _add_observability_arguments(campaign_parser)
    campaign_parser.add_argument(
        "--days", type=int, default=3, metavar="N",
        help="number of simulated days to chain (default 3)",
    )
    campaign_parser.add_argument(
        "--state-dir", default="campaign-state", metavar="DIR",
        help="directory for per-day checkpoints and campaign.jsonl",
    )
    campaign_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="per-day report path (default: <state-dir>/campaign.jsonl)",
    )
    campaign_parser.add_argument(
        "--day-seconds", type=float, default=None, metavar="SECONDS",
        help="override the simulated day length T_day (each day runs"
        " this long; --duration is ignored by campaigns)",
    )
    campaign_parser.add_argument(
        "--fresh-windows", action="store_true",
        help="reset the T_est window controllers each day instead of"
        " carrying their position across days",
    )

    dash_parser = commands.add_parser(
        "dash",
        help="live terminal dashboard tailing a --series-out JSONL stream",
    )
    dash_parser.add_argument(
        "path", help="series JSONL path ('-' reads a pipe on stdin)"
    )
    dash_parser.add_argument(
        "--refresh", type=float, default=1.0, metavar="SECONDS",
        help="redraw cadence while following (default 1.0)",
    )
    dash_parser.add_argument(
        "--once", action="store_true",
        help="render the stream's current contents once and exit",
    )
    dash_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="stop following after SECONDS of wall time",
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run the live admission-control service: wall-clock engine,"
        " async decision API, WebSocket state streaming",
    )
    _add_scenario_arguments(serve_parser)
    _add_observability_arguments(serve_parser)
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8766,
        help="WebSocket port (0 picks a free one; default 8766)",
    )
    serve_parser.add_argument(
        "--budget-ms", type=float, default=5.0, metavar="MS",
        help="per-decision latency budget; overruns count into the"
        " serve.budget_miss telemetry counter (default 5.0)",
    )
    serve_parser.add_argument(
        "--time-scale", type=float, default=1.0, metavar="X",
        help="stream seconds per wall second (default 1.0: real time)",
    )
    serve_parser.add_argument(
        "--run-for", type=float, default=None, metavar="SECONDS",
        help="serve for SECONDS of wall time then shut down cleanly"
        " (default: until interrupted)",
    )
    serve_state = serve_parser.add_argument_group("durable state")
    serve_state.add_argument(
        "--load-state", default=None, metavar="PATH",
        help="warm-start from a checkpoint: the learned hand-off"
        " history and window state seed the live estimators",
    )
    serve_state.add_argument(
        "--checkpoint-every", type=float, default=0.0, metavar="SECONDS",
        help="periodic checkpoints every SECONDS of wall time"
        " (0 disables)",
    )
    serve_state.add_argument(
        "--checkpoint-dir", default="serve-state", metavar="DIR",
        help="directory for periodic checkpoints (default 'serve-state')",
    )
    serve_state.add_argument(
        "--checkpoint-keep", type=int, default=2, metavar="K",
        help="keep only the newest K periodic checkpoints (default 2)",
    )

    serve_bench_parser = commands.add_parser(
        "serve-bench",
        help="drive the live service with the bundled load generator and"
        " report decisions/s with P50/P99 decision latency",
    )
    _add_scenario_arguments(serve_bench_parser)
    serve_bench_parser.add_argument(
        "--decisions", type=int, default=20_000, metavar="N",
        help="admission decisions to drive (default 20000)",
    )
    serve_bench_parser.add_argument(
        "--concurrency", type=int, default=32, metavar="N",
        help="concurrent load-generator workers (default 32)",
    )
    serve_bench_parser.add_argument(
        "--pipeline", type=int, default=64, metavar="K",
        help="events each worker keeps in flight (default 64)",
    )
    serve_bench_parser.add_argument(
        "--budget-ms", type=float, default=5.0, metavar="MS",
        help="per-decision latency budget (default 5.0)",
    )
    serve_bench_parser.add_argument(
        "--json", action="store_true",
        help="print the report as one JSON object instead of text",
    )

    state_parser = commands.add_parser(
        "state", help="inspect durable state checkpoints"
    )
    state_commands = state_parser.add_subparsers(
        dest="state_command", required=True
    )
    inspect_parser = state_commands.add_parser(
        "inspect",
        help="print a checkpoint's manifest and verify every file's"
        " CRC32 (non-zero exit on corruption)",
    )
    inspect_parser.add_argument("path", help="checkpoint directory")
    return parser


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", default="AC3",
                        choices=["static", "AC1", "AC2", "AC3"])
    parser.add_argument("--load", type=float, default=200.0,
                        help="offered load in BUs per cell (Eq. 7)")
    parser.add_argument("--rvo", type=float, default=1.0,
                        help="voice ratio R_vo in [0, 1]")
    parser.add_argument("--duration", type=float, default=1000.0,
                        help="simulated seconds")
    parser.add_argument("--warmup", type=float, default=0.0,
                        help="seconds excluded from the statistics")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cells", type=int, default=10)
    parser.add_argument("--guard", type=float, default=10.0,
                        help="static guard band G in BUs")
    parser.add_argument("--low-mobility", action="store_true",
                        help="speeds U[40,60] km/h instead of U[80,120]")
    parser.add_argument("--one-way", action="store_true",
                        help="all mobiles drive one direction, open road")
    parser.add_argument("--adaptive-qos", action="store_true",
                        help="degradable video + min-QoS reservation (§1)")
    parser.add_argument("--soft-handoff", type=float, default=0.0,
                        metavar="SECONDS",
                        help="CDMA soft hand-off overlap window (§7)")
    parser.add_argument("--overload", type=float, default=1.0,
                        metavar="FACTOR",
                        help="CDMA soft-capacity hand-off margin (§7)")
    parser.add_argument("--kernel", default="auto",
                        choices=["auto", "numpy", "python"],
                        help="estimation kernel: numpy-batched or pure"
                        " python; auto picks numpy when installed, both"
                        " produce bit-identical metrics")


def _add_spatial_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("spatial sharding")
    group.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="partition a hex city into N row-band shards and run one"
        " DES engine per shard (the merged metrics are bit-identical"
        " at any N); 0 keeps the single-engine 1-D road runner",
    )
    group.add_argument(
        "--hex", default="12x12", metavar="RxC", dest="hex_grid",
        help="hex grid dimensions for --shards runs, e.g. 30x30"
        " (wrapped torus; --cells is ignored; default 12x12)",
    )
    group.add_argument(
        "--epoch", type=float, default=1.0, metavar="SECONDS",
        help="barrier epoch for --shards runs; must not exceed the"
        " 1 s minimum hand-off notice (default 1.0)",
    )
    group.add_argument(
        "--inline-shards", action="store_true",
        help="run the shards sequentially in this process instead of"
        " one worker process each (same metrics, no parallelism)",
    )
    group.add_argument(
        "--hotspots", default=None, metavar="R,C,GAIN[,RADIUS];...",
        help="semicolon-separated traffic hot spots, each"
        " row,col,gain[,radius] — scales per-cell arrival rates"
        " (mean-normalised, network load unchanged); the row bands"
        " of --shards are cut to balance it",
    )


def _check_shards(args: argparse.Namespace) -> None:
    if args.shards < 0:
        raise ValueError(
            f"--shards must be >= 0 (0 runs the 1-D road), got {args.shards}"
        )


def _parse_hex(spec: str) -> tuple[int, int]:
    try:
        rows_text, _, cols_text = spec.lower().partition("x")
        rows, cols = int(rows_text), int(cols_text)
    except ValueError:
        raise ValueError(
            f"--hex wants ROWSxCOLS (e.g. 30x30), got {spec!r}"
        ) from None
    return rows, cols


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--telemetry", action="store_true",
                       help="collect run telemetry (also: REPRO_TELEMETRY=1)")
    group.add_argument("--progress", type=float, default=0.0,
                       metavar="SECONDS",
                       help="heartbeat progress lines at most this often"
                       " (0 disables)")
    group.add_argument("--log-level", default=None, metavar="SPEC",
                       help="log level, optionally per subsystem:"
                       " 'info' or 'info,des=debug,window=debug'"
                       " (also: REPRO_LOG)")
    group.add_argument("--log-json", action="store_true",
                       help="emit logs as JSON lines (also:"
                       " REPRO_LOG_JSON=1)")
    group.add_argument("--prom-out", default=None, metavar="PATH",
                       help="write the telemetry snapshot in Prometheus"
                       " text format (implies --telemetry)")
    group.add_argument("--telemetry-json", default=None, metavar="PATH",
                       help="write the telemetry snapshot as JSON"
                       " (implies --telemetry)")
    group.add_argument("--series", type=float, default=0.0,
                       metavar="SECONDS",
                       help="sample an in-run time series every SECONDS"
                       " of virtual time (0 disables)")
    group.add_argument("--series-wall", type=float, default=0.0,
                       metavar="SECONDS",
                       help="sample the time series every SECONDS of wall"
                       " time (0 disables; combinable with --series)")
    group.add_argument("--series-out", default=None, metavar="PATH",
                       help="stream samples to an append-only JSONL file"
                       " as they are taken ('repro dash PATH' tails it);"
                       " implies --series-wall 1 when no cadence is set")
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record wall-clock spans (epoch barriers,"
                       " flush ticks, checkpoint publishes) and write"
                       " them as Chrome trace JSON loadable in"
                       " https://ui.perfetto.dev (implies tracing)")


def _wants_telemetry(args: argparse.Namespace) -> bool:
    # getattr: commands without the observability group (serve-bench)
    # still build configs through the same helper.
    return bool(
        getattr(args, "telemetry", False)
        or getattr(args, "prom_out", None)
        or getattr(args, "telemetry_json", None)
    )


def _series_overrides(args: argparse.Namespace) -> dict:
    """Streaming-observability config fields from the CLI flags."""
    interval = getattr(args, "series", 0.0)
    wall = getattr(args, "series_wall", 0.0)
    series_out = getattr(args, "series_out", None)
    if series_out and interval == 0 and wall == 0:
        wall = 1.0
    return {
        "series_interval": interval,
        "series_wall_interval": wall,
        "series_path": series_out or "",
        "trace": bool(getattr(args, "trace_out", None)),
    }


def _export_streams(
    timeseries,
    trace_events,
    args: argparse.Namespace,
    lane_names: dict[int, str] | None = None,
) -> None:
    """Write the trace file and summarise the series stream."""
    from repro.obs.timeseries import series_summary
    from repro.obs.trace import span_names, write_trace

    if args.trace_out:
        write_trace(args.trace_out, trace_events or [], lane_names)
        names = sorted(span_names(trace_events))
        print(
            f"trace: {len(trace_events or [])} spans"
            f" ({', '.join(names) if names else 'none'})"
            f" -> {args.trace_out}  (load in https://ui.perfetto.dev)"
        )
    summary = series_summary(timeseries)
    if summary is not None:
        shards = summary["shards"]
        lanes = f"{len(shards)} shard lanes" if shards else "1 lane"
        print(
            f"series: {summary['samples']} samples ({lanes}),"
            f" peak {summary['peak_events_per_s']:,.0f} events/s"
        )
    if args.series_out:
        print(
            f"series stream: {args.series_out}"
            f"  (tail with: repro dash {args.series_out})"
        )


def _configure_observability(args: argparse.Namespace) -> None:
    if args.log_level is not None or args.log_json:
        configure_logging(spec=args.log_level, json_lines=args.log_json)
    else:
        ensure_configured()


def _export_telemetry(snapshot, args: argparse.Namespace) -> None:
    """Write/print the snapshot per the export flags."""
    if snapshot is None:
        return
    if args.prom_out:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(snapshot))
    if args.telemetry_json:
        with open(args.telemetry_json, "w", encoding="utf-8") as handle:
            handle.write(snapshot_to_json(snapshot))
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    events = counters.get("des.events_fired", 0)
    rate = gauges.get("des.events_per_sec", 0.0)
    vector_rows = counters.get('estimation.eq4_rows{kernel="numpy"}', 0)
    scalar_rows = counters.get('estimation.eq4_rows{kernel="python"}', 0)
    row_total = vector_rows + scalar_rows
    print()
    print(f"telemetry: run_id={snapshot.get('run_id', '')}")
    print(f"  events fired: {events:,.0f} ({rate:,.0f} events/s)")
    if row_total:
        print(f"  Eq.4 vectorized rows: {vector_rows / row_total:.1%}"
              f" ({row_total:,.0f} rows)")


def _build_config(args: argparse.Namespace, load: float | None = None):
    overrides = {
        "num_cells": args.cells,
        "static_guard": args.guard,
        "warmup": args.warmup,
        "adaptive_qos": args.adaptive_qos,
        "soft_handoff_window": args.soft_handoff,
        "handoff_overload": args.overload,
        "kernel": args.kernel,
        "telemetry": _wants_telemetry(args),
        "progress_interval": getattr(args, "progress", 0.0),
        **_series_overrides(args),
    }
    if args.one_way:
        overrides["directions"] = TravelDirections.ONE_WAY
        overrides["ring"] = False
    return stationary(
        args.scheme,
        offered_load=load if load is not None else args.load,
        voice_ratio=args.rvo,
        high_mobility=not args.low_mobility,
        duration=args.duration,
        seed=args.seed,
        **overrides,
    )


def _parse_hotspots(
    spec: str | None, grid: tuple[int, int] | None = None
) -> tuple[tuple[float, ...], ...]:
    """Parse ``row,col,gain[,radius];...`` into hotspot tuples.

    Every malformed or out-of-range segment is rejected with an error
    naming the offending segment — a hot spot silently landing outside
    the grid would just quietly not skew the load.
    """
    if not spec:
        return ()
    hotspots = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            fields = [float(value) for value in part.split(",")]
        except ValueError:
            raise ValueError(
                "--hotspots wants numeric row,col,gain[,radius]"
                f" entries; {part!r} does not parse"
            ) from None
        if len(fields) not in (3, 4):
            raise ValueError(
                "--hotspots wants row,col,gain[,radius] per entry,"
                f" got {part!r}"
            )
        row, col, gain = fields[0], fields[1], fields[2]
        if gain <= 0:
            raise ValueError(
                f"--hotspots gain must be positive in {part!r}"
            )
        if len(fields) == 4 and fields[3] <= 0:
            raise ValueError(
                f"--hotspots radius must be positive in {part!r}"
            )
        if grid is not None:
            rows, cols = grid
            if not (0 <= row < rows and 0 <= col < cols):
                raise ValueError(
                    f"--hotspots cell ({row:g},{col:g}) in {part!r} is"
                    f" outside the {rows}x{cols} grid"
                    f" (rows 0..{rows - 1}, cols 0..{cols - 1})"
                )
        hotspots.append(tuple(fields))
    return tuple(hotspots)


def _build_spatial_config(args: argparse.Namespace):
    rows, cols = _parse_hex(args.hex_grid)
    return hex_city(
        args.scheme,
        rows=rows,
        cols=cols,
        hotspots=_parse_hotspots(
            getattr(args, "hotspots", None), grid=(rows, cols)
        ),
        offered_load=args.load,
        voice_ratio=args.rvo,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        static_guard=args.guard,
        adaptive_qos=args.adaptive_qos,
        soft_handoff_window=args.soft_handoff,
        kernel=args.kernel,
        telemetry=_wants_telemetry(args),
        progress_interval=args.progress,
        **_series_overrides(args),
    )


def _command_run_spatial(args: argparse.Namespace) -> int:
    from repro.simulation.spatial import run_spatial

    if args.replications > 1:
        raise ValueError(
            "--shards partitions space; it cannot be combined with"
            " --replications (which partitions seeds)"
        )
    if args.save_state or args.load_state or args.checkpoint_every > 0.0:
        raise ValueError(
            "spatial runs checkpoint per day via"
            " 'repro campaign --shards'; drop the state flags"
        )
    if args.trace_jsonl:
        raise ValueError("--trace-jsonl is not supported with --shards")
    config = _build_spatial_config(args)
    result = run_spatial(
        config,
        args.shards,
        processes=False if args.inline_shards else None,
        epoch=args.epoch,
    )
    rate = (
        result.events_processed / result.wall_seconds
        if result.wall_seconds > 0
        else 0.0
    )
    print(f"scheme={result.scheme}  L={result.offered_load:g}"
          f"  duration={result.duration:g}s"
          f"  grid={args.hex_grid}  shards={args.shards}")
    if result.shard_events and len(result.shard_events) > 1:
        mean = sum(result.shard_events) / len(result.shard_events)
        imbalance = max(result.shard_events) / mean if mean else 1.0
        print(
            "shard events = "
            + "/".join(f"{count:,}" for count in result.shard_events)
            + f"  (imbalance {imbalance:.3f})"
        )
    print(f"P_CB = {result.blocking_probability:.4f}")
    print(f"P_HD = {result.dropping_probability:.4f}")
    print(f"avg B_r = {result.average_reservation:.2f} BUs,"
          f" avg B_u = {result.average_used:.2f} BUs,"
          f" N_calc = {result.average_calculations:.2f}")
    print(f"{result.events_processed:,} events in"
          f" {result.wall_seconds:.2f}s ({rate:,.0f} events/s)")
    cap = 20
    rows = [
        [
            status.cell_id + 1,
            status.blocking_probability,
            status.dropping_probability,
            status.t_est,
            status.reserved_target,
            status.used_bandwidth,
        ]
        for status in result.statuses[:cap]
    ]
    print()
    print(Table(["Cell", "PCB", "PHD", "Test", "Br", "Bu"], rows).render())
    if len(result.statuses) > cap:
        print(f"... ({len(result.statuses) - cap} more cells)")
    _export_telemetry(result.telemetry, args)
    _export_streams(
        result.timeseries,
        result.trace_events,
        args,
        lane_names={
            index: f"shard {index}" for index in range(args.shards)
        },
    )
    return 0


def _command_run(args: argparse.Namespace) -> int:
    _check_shards(args)
    _configure_observability(args)
    if args.shards > 0:
        return _command_run_spatial(args)
    uses_state = bool(
        args.save_state or args.load_state or args.checkpoint_every > 0.0
    )
    if args.replications > 1:
        if uses_state:
            raise ValueError(
                "--save-state/--load-state/--checkpoint-every capture one"
                " engine's state; they cannot be combined with"
                " --replications"
            )
        return _command_run_replicated(args)
    if uses_state and args.trace_jsonl:
        raise ValueError(
            "checkpoints do not capture tracer extensions; drop"
            " --trace-jsonl or the state flags"
        )
    extensions = []
    tracer = None
    if args.trace_jsonl:
        tracer = ConnectionTracer()
        extensions.append(tracer)
    config = _build_config(args)
    if args.load_state:
        from repro.state import restore_simulator

        simulator = restore_simulator(args.load_state, config)
    else:
        simulator = CellularSimulator(config, extensions=extensions)
    if args.checkpoint_every > 0.0:
        from repro.state import Checkpointer

        simulator.checkpointer = Checkpointer(
            simulator,
            args.checkpoint_dir or "checkpoints",
            every=args.checkpoint_every,
            keep=args.checkpoint_keep,
        )
    result = simulator.run()
    if args.save_state:
        from repro.state import save_checkpoint

        saved = save_checkpoint(simulator, args.save_state)
        print(f"state saved: {saved}")
        if simulator.tracer.enabled:
            # Pick up the checkpoint.publish span recorded after the
            # result harvested its events.
            result.trace_events = simulator.tracer.events()
    if tracer is not None:
        tracer.write_jsonl(args.trace_jsonl)
        log = get_logger("trace")
        violations = tracer.verify()
        for violation in violations:
            log.warning(
                "trace violation", extra={"violation": violation}
            )
        log.info(
            "trace journal written",
            extra={
                "path": args.trace_jsonl,
                "events": len(tracer.events),
                "violations": len(violations),
            },
        )
    print(f"scheme={result.scheme}  L={result.offered_load:g}"
          f"  duration={result.duration:g}s")
    print(f"P_CB = {result.blocking_probability:.4f}")
    print(f"P_HD = {result.dropping_probability:.4f}")
    print(f"avg B_r = {result.average_reservation:.2f} BUs,"
          f" avg B_u = {result.average_used:.2f} BUs,"
          f" N_calc = {result.average_calculations:.2f}")
    rows = [
        [
            status.cell_id + 1,
            status.blocking_probability,
            status.dropping_probability,
            status.t_est,
            status.reserved_target,
            status.used_bandwidth,
        ]
        for status in result.statuses
    ]
    print()
    print(Table(["Cell", "PCB", "PHD", "Test", "Br", "Bu"], rows).render())
    _export_telemetry(result.telemetry, args)
    _export_streams(result.timeseries, result.trace_events, args)
    return 0


def _command_run_replicated(args: argparse.Namespace) -> int:
    if args.trace_jsonl:
        raise ValueError(
            "--trace-jsonl records a single run's journal; it cannot be"
            " combined with --replications"
        )
    from repro.simulation.replication import run_replicated

    config = _build_config(args)
    if config.warmup <= 0.0:
        # Each shard restarts from an empty network, so without a
        # warm-up cut every shard measures the initial transient.
        print(
            "warning: --replications without --warmup measures the"
            " cold-start transient K times; pass --warmup to let each"
            " shard reach steady state",
            file=sys.stderr,
        )
    replicated = run_replicated(
        config,
        replications=args.replications,
        workers=args.workers,
        ci_level=args.ci_level,
    )
    config = replicated.config
    level = args.ci_level
    print(
        f"scheme={config.scheme}  L={config.offered_load:g}"
        f"  duration={config.duration:g}s"
        f"  K={replicated.replications}"
    )
    print(
        f"P_CB = {replicated.blocking_probability:.4f}"
        f" ± {replicated.blocking_ci.half_width:.4f}"
        f"  (Wilson {replicated.blocking.low:.4f}.."
        f"{replicated.blocking.high:.4f})"
    )
    print(
        f"P_HD = {replicated.dropping_probability:.4f}"
        f" ± {replicated.dropping_ci.half_width:.4f}"
        f"  (Wilson {replicated.dropping.low:.4f}.."
        f"{replicated.dropping.high:.4f})"
    )
    print(
        f"{level:.0%} batch-means intervals over"
        f" {replicated.replications} shards;"
        f" {replicated.events_processed:,} events in"
        f" {replicated.wall_seconds:.2f}s wall"
    )
    _export_telemetry(replicated.telemetry, args)
    _export_streams(
        replicated.timeseries,
        replicated.trace_events,
        args,
        lane_names={
            index: f"rep {index}"
            for index in range(replicated.replications)
        },
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    _configure_observability(args)
    loads = [float(piece) for piece in args.loads.split(",") if piece]
    configs = [_build_config(args, load=load) for load in loads]
    results = run_sweep(configs, workers=args.workers)
    pairs = list(zip(loads, results))
    rows = [
        [
            load,
            result.blocking_probability,
            result.dropping_probability,
            result.average_reservation,
            result.average_calculations,
        ]
        for load, result in pairs
    ]
    print(Table(["L", "PCB", "PHD", "avg Br", "Ncalc"], rows).render())
    # Each run (worker process or not) carries its own snapshot; the
    # merged view is what gets exported.
    _export_telemetry(
        merge_snapshots(result.telemetry for result in results), args
    )
    from repro.obs.timeseries import merge_series
    from repro.obs.trace import merge_traces

    _export_streams(
        merge_series(result.timeseries for result in results),
        merge_traces(
            [{**event, "pid": index} for event in result.trace_events]
            if result.trace_events
            else None
            for index, result in enumerate(results)
        ),
        args,
        lane_names={
            index: f"L={load:g}" for index, load in enumerate(loads)
        },
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.duration is not None:
        kwargs["duration"] = args.duration
    outputs = run_experiment(args.name, **kwargs)
    for output in outputs:
        print(output.render())
        print()
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    from dataclasses import replace
    from functools import partial

    from repro.state import run_campaign, spatial_day

    _check_shards(args)
    _configure_observability(args)
    run_day = None
    if args.shards > 0:
        config = _build_spatial_config(args)
        if args.day_seconds is not None:
            config = replace(config, duration=args.day_seconds)
        run_day = partial(
            spatial_day,
            shards=args.shards,
            processes=False if args.inline_shards else None,
            epoch=args.epoch,
        )
    else:
        config = _build_config(args)
        if args.day_seconds is not None:
            config = replace(config, day_seconds=args.day_seconds)
    reports = run_campaign(
        config,
        days=args.days,
        state_dir=args.state_dir,
        jsonl_path=args.jsonl,
        carry_windows=not args.fresh_windows,
        run_day=run_day,
    )
    rows = [
        [
            report.day + 1,
            report.p_cb,
            report.p_hd,
            report.mean_t_est,
            report.quadruplets,
            report.handoff_drops,
            report.events_processed,
        ]
        for report in reports
    ]
    print(
        Table(
            ["Day", "PCB", "PHD", "mean Test", "Nquad", "Drops", "Events"],
            rows,
        ).render()
    )
    jsonl = args.jsonl or f"{args.state_dir}/campaign.jsonl"
    print(f"\nper-day report: {jsonl}")
    return 0


def _command_dash(args: argparse.Namespace) -> int:
    from repro.obs.dash import run_dash

    return run_dash(
        args.path,
        refresh=args.refresh,
        follow=not args.once,
        timeout=args.timeout,
    )


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    from dataclasses import replace

    from repro.serve import AdmissionService, WallClock
    from repro.serve.driver import warm_start
    from repro.serve.ws import WebSocketGateway

    _configure_observability(args)
    config = _build_config(args)
    if args.load_state:
        config = replace(config, warm_state=warm_start(args.load_state))
    overrides = _series_overrides(args)
    # A live service streams a wall-cadence series by default so an
    # attached dashboard always has rows to render.
    series_wall = overrides["series_wall_interval"] or 1.0

    async def serve() -> dict:
        service = AdmissionService(
            config,
            clock=WallClock(time_scale=args.time_scale),
            budget_ms=args.budget_ms,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_keep=args.checkpoint_keep,
            series_interval=overrides["series_interval"],
            series_wall_interval=series_wall,
        )
        await service.start()
        gateway = WebSocketGateway(service, host=args.host, port=args.port)
        await gateway.start()
        print(f"serving {config.scheme} admission control on {gateway.url}")
        print(f"  dashboard: repro dash {gateway.url}")
        if args.load_state:
            print(f"  warm-started from: {args.load_state}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            import signal

            loop.add_signal_handler(signal.SIGINT, stop.set)
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, OSError):  # pragma: no cover
            pass
        try:
            if args.run_for is not None:
                await asyncio.wait_for(stop.wait(), timeout=args.run_for)
            else:
                await stop.wait()
        except asyncio.TimeoutError:
            pass
        await gateway.stop()
        await service.stop()
        stats = service.stats()
        result = service.driver.result()
        _export_telemetry(result.telemetry, args)
        _export_streams(result.timeseries, result.trace_events, args)
        return stats

    stats = asyncio.run(serve())
    print(
        f"served {stats['decisions']} decisions"
        f" ({stats['decisions_per_s']:,.0f}/s,"
        f" P50 {stats['p50_ms']:.2f} ms, P99 {stats['p99_ms']:.2f} ms),"
        f" {stats['checkpoints']} checkpoints"
    )
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import AdmissionService
    from repro.serve.loadgen import run_load

    config = _build_config(args)

    async def bench():
        service = AdmissionService(
            config, budget_ms=args.budget_ms, series_wall_interval=0.0
        )
        await service.start()
        report = await run_load(
            service,
            decisions=args.decisions,
            concurrency=args.concurrency,
            pipeline=args.pipeline,
            seed=args.seed,
        )
        await service.stop()
        return report

    report = asyncio.run(bench())
    if args.json:
        print(json.dumps({"scheme": config.scheme, **report.to_json()}))
        return 0
    print(
        f"scheme={config.scheme}  decisions={report.decisions}"
        f"  concurrency={args.concurrency}  pipeline={args.pipeline}"
    )
    print(
        f"{report.decisions_per_s:,.0f} decisions/s"
        f"  (P50 {report.p50_ms:.2f} ms, P99 {report.p99_ms:.2f} ms)"
    )
    print(
        f"admitted {report.admitted_fraction:.1%}"
        f" ({report.admitted} of {report.admitted + report.rejected}"
        f" queries), {report.handoffs} hand-offs,"
        f" {report.completes} completes, {report.ignored} ignored"
    )
    return 0


def _command_state(args: argparse.Namespace) -> int:
    from repro.state import inspect_state

    if args.state_command == "inspect":
        return inspect_state(args.path)
    raise ValueError(f"unknown state command {args.state_command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "sweep": _command_sweep,
        "experiment": _command_experiment,
        "list-experiments": _command_list,
        "campaign": _command_campaign,
        "dash": _command_dash,
        "serve": _command_serve,
        "serve-bench": _command_serve_bench,
        "state": _command_state,
    }
    try:
        return handlers[args.command](args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
