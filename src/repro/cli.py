"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     run a variant (seq/its/cts1/cts2/async) on a named suite
              instance or an OR-Library file.
``exact``     branch-and-bound a named instance or file (prove the optimum).
``generate``  write a pseudo-random instance to an OR-Library file.
``suite``     list the registered benchmark instances.
``info``      show instance statistics (size, tightness, LP bound, greedy).
``trace``     summarize a recorded run — a saved result JSON or a JSONL
              event stream from ``solve --record`` — without re-searching;
              ``--follow`` tails a stream that is still being written.
``serve``     run the local solver service (DESIGN.md §5.6): a warm backend
              pool behind an async job manager, spoken to over local TCP.
``submit``    submit a solve job to a running service (``--stream`` follows
              its live round events).
``status``    one job's snapshot (or ``--stream`` its remaining events).
``cancel``    request cooperative cancellation of a job.
``worker``    serve slave tasks for a ``solve --listen`` master over TCP
              until the master stops or disappears.

Examples
--------
::

    python -m repro solve GK07 --variant cts2 --slaves 8 --seconds 1.0
    python -m repro solve my_problem.txt --variant seq --evals 200000
    python -m repro solve MK3 --variant cts2 --record run.jsonl
    python -m repro trace run.jsonl
    python -m repro exact FP23
    python -m repro generate 10 250 --correlated --out hard.txt
    python -m repro info MK3
    python -m repro serve --pool 2 --slaves 8 &
    python -m repro submit GK07 --rounds 8 --evals 40000 --stream
    python -m repro status job-000001
    python -m repro cancel job-000001
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .analysis import deviation_percent
from .core.instance import MKPInstance
from .instances import (
    available,
    correlated_instance,
    get_instance,
    read_instance,
    uncorrelated_instance,
    write_instance,
)
from .master import VARIANTS

__all__ = ["main", "build_parser"]

#: ``--variant`` spellings of the master-driven rows of Table 2
_MASTER_VARIANTS = [name.lower() for name in VARIANTS]


def _load_instance(spec: str) -> MKPInstance:
    """Resolve a CLI instance spec: registry name or file path."""
    path = Path(spec)
    if path.exists():
        return read_instance(path)
    try:
        return get_instance(spec)
    except KeyError as exc:
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a known instance name "
            "(try `python -m repro suite`)"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel cooperative tabu search for the 0-1 MKP "
        "(Niar & Fréville, IPPS 1997).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a search variant on an instance")
    solve.add_argument("instance", help="registry name (GK07, FP12, MK3) or file path")
    solve.add_argument(
        "--variant",
        choices=["seq", *_MASTER_VARIANTS, "async"],
        default="cts2",
    )
    solve.add_argument("--slaves", type=int, default=8, help="parallel threads P")
    solve.add_argument("--rounds", type=int, default=8, help="master search iterations")
    solve.add_argument("--seed", type=int, default=0)
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--evals", type=int, help="per-processor evaluation budget")
    group.add_argument(
        "--seconds", type=float, help="per-processor simulated-seconds budget"
    )
    solve.add_argument(
        "--pipeline",
        choices=["sync", "async"],
        default="sync",
        help="master execution mode for its/cts1/cts2: 'sync' is the "
        "Fig. 2 barrier loop, 'async' pipelines bursts with bounded "
        "staleness (distinct from --variant async, the thread-based "
        "cooperative search)",
    )
    solve.add_argument(
        "--max-staleness",
        type=int,
        default=None,
        metavar="N",
        help="with --pipeline async: max burst lead over the slowest slave",
    )
    solve.add_argument(
        "--trace", action="store_true", help="print per-round statistics"
    )
    solve.add_argument(
        "--record",
        metavar="PATH",
        help="stream observability events (JSONL) to PATH while solving "
        "(its/cts1/cts2 only); inspect later with `repro trace PATH`",
    )
    solve.add_argument(
        "--listen",
        metavar="[HOST:]PORT",
        help="its/cts1/cts2 only: run the round farm on the elastic socket "
        "backend, listening here for `repro worker --connect` agents "
        "(port 0 binds an ephemeral port and prints it)",
    )
    solve.add_argument(
        "--min-workers",
        type=int,
        default=1,
        metavar="N",
        help="with --listen: wait for N connected workers before solving",
    )

    exact = sub.add_parser("exact", help="prove the optimum by branch and bound")
    exact.add_argument("instance")
    exact.add_argument("--node-limit", type=int, default=2_000_000)

    gen = sub.add_parser("generate", help="write a pseudo-random instance file")
    gen.add_argument("m", type=int, help="number of constraints")
    gen.add_argument("n", type=int, help="number of items")
    gen.add_argument("--correlated", action="store_true")
    gen.add_argument("--tightness", type=float, default=0.25)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output file path")

    sub.add_parser("suite", help="list registered benchmark instances")

    info = sub.add_parser("info", help="show instance statistics")
    info.add_argument("instance")

    report = sub.add_parser(
        "report", help="assemble benchmarks/results/*.txt into a markdown report"
    )
    report.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory the benches wrote their tables to",
    )
    report.add_argument("--out", help="write to this file instead of stdout")

    trace = sub.add_parser(
        "trace",
        help="summarize a recorded run (result JSON or JSONL event stream)",
    )
    trace.add_argument("file", help="a save_result JSON or a --record JSONL stream")
    trace.add_argument(
        "--validate",
        action="store_true",
        help="check a JSONL stream against the event schema and exit",
    )
    trace.add_argument(
        "--prometheus",
        action="store_true",
        help="replay a JSONL stream into Prometheus-style metrics text",
    )
    trace.add_argument(
        "--follow",
        action="store_true",
        help="tail a live JSONL stream (like tail -f), printing events as "
        "they arrive until the run ends",
    )
    trace.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="S",
        help="with --follow: give up after S seconds without new events",
    )

    def add_endpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1", help="service host")
        p.add_argument(
            "--port",
            type=int,
            default=None,
            help="service port (default 7621; 0 binds an ephemeral port and "
            "prints the one actually bound)",
        )

    serve = sub.add_parser(
        "serve", help="run the local solver service (warm pool + job manager)"
    )
    add_endpoint(serve)
    serve.add_argument("--pool", type=int, default=2, help="number of pooled backends")
    serve.add_argument("--slaves", type=int, default=8, help="slaves per backend")
    serve.add_argument(
        "--backend",
        choices=["serial", "mp"],
        default="serial",
        help="backend kind for every pool slot",
    )
    serve.add_argument(
        "--mp-context",
        default="fork",
        help="multiprocessing start method for --backend mp",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission control: reject submits beyond this backlog",
    )

    submit = sub.add_parser("submit", help="submit a solve job to a running service")
    submit.add_argument("instance", help="registry name or file path")
    add_endpoint(submit)
    submit.add_argument("--variant", choices=_MASTER_VARIANTS, default="cts2")
    submit.add_argument("--rounds", type=int, default=8)
    submit.add_argument("--seed", type=int, default=0)
    sgroup = submit.add_mutually_exclusive_group()
    sgroup.add_argument("--evals", type=int, help="per-processor evaluation budget")
    sgroup.add_argument(
        "--seconds", type=float, help="per-processor simulated-seconds budget"
    )
    submit.add_argument(
        "--stream", action="store_true", help="follow the job's live events"
    )

    status = sub.add_parser("status", help="show one service job's snapshot")
    status.add_argument("job_id")
    add_endpoint(status)
    status.add_argument(
        "--stream", action="store_true", help="follow the job's remaining events"
    )

    cancel = sub.add_parser("cancel", help="cancel a service job cooperatively")
    cancel.add_argument("job_id")
    add_endpoint(cancel)

    worker = sub.add_parser(
        "worker",
        help="serve slave tasks for a socket-backend master until it stops",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a `repro solve --listen` (or SocketBackend) master",
    )
    worker.add_argument(
        "--name", default=None, help="worker name shown in master telemetry"
    )
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds between liveness beacons to the master",
    )

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    from .variants import solve_cts_async, solve_master, solve_seq

    instance = _load_instance(args.instance)
    budget: dict[str, object] = {}
    if args.evals is not None:
        budget["max_evaluations"] = args.evals
    elif args.seconds is not None:
        budget["virtual_seconds"] = args.seconds
    else:
        budget["virtual_seconds"] = 1.0

    if args.pipeline != "async" and args.max_staleness is not None:
        raise SystemExit("error: --max-staleness needs --pipeline async")
    if args.variant not in _MASTER_VARIANTS:
        for flag, given in (
            ("--record", args.record),
            ("--pipeline async", args.pipeline == "async"),
            ("--listen", args.listen),
        ):
            if given:
                raise SystemExit(
                    f"error: {flag} needs a master-driven variant "
                    f"({'/'.join(_MASTER_VARIANTS)})"
                )

    if args.variant == "seq":
        result = solve_seq(instance, rng_seed=args.seed, **budget)
    elif args.variant == "async":
        result = solve_cts_async(
            instance, n_threads=args.slaves, rng_seed=args.seed, **budget
        )
    else:
        from .obs import RunRecorder

        backend = None
        if args.listen:
            from .parallel import SocketBackend

            listen_host, listen_port = _parse_listen(args.listen)
            backend = SocketBackend(
                args.slaves,
                host=listen_host,
                port=listen_port,
                min_workers=args.min_workers,
            )
            bound_host, bound_port = backend.listen()
            # Printed before solving so operators can point workers here.
            print(
                f"listening for workers on {bound_host}:{bound_port} "
                f"(connect with `repro worker --connect "
                f"{bound_host}:{bound_port}`)",
                flush=True,
            )
        try:
            with RunRecorder(args.record, enabled=bool(args.record)) as recorder:
                result = solve_master(
                    instance,
                    args.variant.upper(),
                    n_slaves=args.slaves,
                    n_rounds=args.rounds,
                    rng_seed=args.seed,
                    recorder=recorder,
                    pipeline=args.pipeline,
                    max_staleness=args.max_staleness,
                    backend=backend,
                    **budget,
                )
        finally:
            if backend is not None:
                backend.shutdown()
        if args.record:
            print(f"recorded {len(recorder.events)} events to {args.record}")

    print(result.summary())
    reference = instance.optimum or instance.best_known
    if reference:
        print("deviation vs reference: "
              f"{deviation_percent(result.best.value, reference):.3f}%")
    if args.trace:
        for stats in result.rounds:
            print(
                f"  round {stats.round_index}: best={stats.best_value:,.0f} "
                f"evals={stats.evaluations:,} "
                f"vtime={stats.round_virtual_seconds:.4f}s"
            )
    print(f"packed items: {result.best.items.tolist()}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    from .exact import branch_and_bound

    instance = _load_instance(args.instance)
    result = branch_and_bound(instance, node_limit=args.node_limit)
    status = "proven optimal" if result.proven else "node limit reached"
    print(f"{instance.name}: value={result.value:,.0f} ({status}, "
          f"{result.nodes:,} nodes, root bound {result.root_bound:,.1f})")
    print(f"items: {result.solution.items.tolist()}")
    return 0 if result.proven else 2


def _cmd_generate(args: argparse.Namespace) -> int:
    maker = correlated_instance if args.correlated else uncorrelated_instance
    instance = maker(args.m, args.n, tightness=args.tightness, rng=args.seed)
    write_instance(instance, args.out)
    print(f"wrote {instance.size_label} instance to {args.out}")
    return 0


def _cmd_suite(_args: argparse.Namespace) -> int:
    names = available()
    print(f"{len(names)} registered instances:")
    for start in range(0, len(names), 8):
        print("  " + "  ".join(names[start : start + 8]))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .core.construction import greedy_solution
    from .exact import solve_lp_relaxation

    instance = _load_instance(args.instance)
    lp = solve_lp_relaxation(instance)
    greedy = greedy_solution(instance)
    print(f"name:        {instance.name}")
    print(f"size (m*n):  {instance.size_label}")
    print(f"tightness:   {instance.tightness.mean():.3f} (mean b_i / sum_j a_ij)")
    print(f"LP bound:    {lp.value:,.2f}")
    print(f"greedy:      {greedy.value:,.0f} "
          f"({deviation_percent(greedy.value, lp.value):.2f}% below LP)")
    if instance.optimum is not None:
        print(f"optimum:     {instance.optimum:,.0f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import assemble_report

    report = assemble_report(args.results_dir)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(report)
    return 0


def _render_event_line(event: dict) -> str:
    """One observability event -> one compact console line.

    Shared by ``trace --follow`` and ``submit/status --stream`` so a tailed
    file and a streamed service job read identically.
    """
    kind = event.get("event", "?")
    t = event.get("t", 0.0)
    if kind == "run_start":
        detail = (
            f"{event.get('variant', '?')} on {event.get('instance') or '?'} "
            f"({event.get('instance_size', '?')}), "
            f"P={event.get('n_slaves', '?')}, rounds={event.get('n_rounds', '?')}"
        )
    elif kind == "round_end":
        detail = (
            f"round {event.get('round_index', '?')}: "
            f"best={event.get('best_value', 0):,.0f} "
            f"evals={event.get('evaluations', 0):,} "
            f"reports={event.get('n_reports', '?')}"
        )
    elif kind == "run_end":
        detail = (
            f"best={event.get('best_value', 0):,.0f} "
            f"evals={event.get('total_evaluations', 0):,} "
            f"rounds={event.get('n_rounds', '?')} "
            f"wall={event.get('wall_seconds', 0):.3f}s"
        )
    elif kind == "faults":
        detail = (
            f"round {event.get('round_index', '?')}: "
            f"failed={event.get('failed_slaves', 0)} "
            f"backoff={event.get('backoff_slaves', 0)} "
            f"dup={event.get('duplicate_reports', 0)} "
            f"stale={event.get('stale_reports', 0)}"
        )
    elif kind == "burst_telemetry":
        detail = (
            f"slave {event.get('slave_id', '?')} "
            f"burst {event.get('burst_index', '?')}: "
            f"{event.get('outcome', '?')} "
            f"depth={event.get('queue_depth', 0)} "
            f"staleness={event.get('staleness', 0)} "
            f"lat={event.get('latency_s', 0.0):.3f}s"
        )
    else:
        # Low-signal event types (telemetry, isp/sgp tallies) get a terse
        # marker; the summary at the end aggregates them anyway.
        detail = f"round {event['round_index']}" if "round_index" in event else ""
    return f"{t:9.3f}s  {kind:<15} {detail}".rstrip()


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .analysis import load_result, render_run_summary, summarize_result
    from .obs import (
        follow_stream,
        read_stream,
        replay_metrics,
        summarize_stream,
        validate_stream,
    )

    path = Path(args.file)
    if not path.exists():
        raise SystemExit(f"error: no such file: {args.file}")
    if args.follow:
        if args.validate or args.prometheus:
            raise SystemExit("error: --follow excludes --validate/--prometheus")
        events = []
        try:
            for event in follow_stream(path, idle_timeout_s=args.idle_timeout):
                events.append(event)
                print(_render_event_line(event), flush=True)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        if not events:
            raise SystemExit(f"error: {args.file} contains no events")
        print()
        if events[-1].get("event") == "run_end":
            print(render_run_summary(summarize_stream(events)))
        else:
            print(f"stream still open after {len(events)} events (no run_end)")
        return 0
    text = path.read_text(encoding="utf-8")
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    is_record = isinstance(whole, dict) and "format_version" in whole

    if is_record:
        if args.validate or args.prometheus:
            raise SystemExit(
                "error: --validate/--prometheus apply to JSONL event streams; "
                f"{args.file} is a saved result record"
            )
        print(render_run_summary(summarize_result(load_result(path))))
        return 0

    if args.validate:
        errors = validate_stream(text.splitlines())
        if errors:
            for err in errors:
                print(f"invalid: {err}")
            return 1
        n_events = sum(1 for line in text.splitlines() if line.strip())
        print(f"ok: {n_events} events conform to the schema")
        return 0

    events = read_stream(path)
    if not events:
        raise SystemExit(f"error: {args.file} contains no events")
    if args.prometheus:
        print(replay_metrics(events).render_prometheus())
        return 0
    print(render_run_summary(summarize_stream(events)))
    return 0


def _parse_listen(spec: str) -> tuple[str, int]:
    """Parse an ``[HOST:]PORT`` listen spec (bare port listens on loopback)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", spec
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(
            f"error: invalid --listen/--connect spec {spec!r} "
            "(expected [HOST:]PORT)"
        ) from None
    return host or "127.0.0.1", port


def _cmd_worker(args: argparse.Namespace) -> int:
    from .parallel import run_worker

    host, port = _parse_listen(args.connect)
    try:
        return run_worker(
            host, port, name=args.name, heartbeat_s=args.heartbeat
        )
    except ConnectionError as exc:
        raise SystemExit(
            f"error: cannot reach a socket-backend master at {host}:{port} "
            f"(is `repro solve --listen` running?): {exc}"
        ) from exc
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _endpoint(args: argparse.Namespace) -> tuple[str, int]:
    from .service import DEFAULT_PORT

    return args.host, args.port if args.port is not None else DEFAULT_PORT


def _service_request(host: str, port: int, payload: dict) -> dict:
    from .service import request

    try:
        return request(host, port, payload)
    except ConnectionError as exc:
        raise SystemExit(
            f"error: cannot reach service at {host}:{port} "
            f"(is `repro serve` running?): {exc}"
        ) from exc
    except RuntimeError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _render_status(status: dict) -> str:
    parts = [
        f"{status['job_id']}: {status['state']}",
        f"variant={status['variant']}",
        f"rounds={status['rounds_completed']}/{status['n_rounds']}",
    ]
    if status.get("instance"):
        parts.insert(2, f"instance={status['instance']}")
    if status.get("best_value") is not None:
        parts.append(f"best={status['best_value']:,.0f}")
    if status.get("cancel_requested"):
        parts.append("cancel-requested")
    if status.get("error"):
        parts.append(f"error={status['error']}")
    return "  ".join(parts)


def _stream_job(host: str, port: int, job_id: str) -> dict | None:
    """Print a job's live events, then its final status; returns the status."""
    from .service import stream_events

    final: dict | None = None
    for item in stream_events(host, port, job_id):
        if item.get("kind") == "end":
            final = item["status"]
            break
        print(_render_event_line(item), flush=True)
    if final is not None:
        print(_render_status(final))
    return final


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import JobManager, ServiceServer, SolverPool

    host, port = _endpoint(args)

    async def _serve() -> None:
        if args.backend == "mp":
            pool = SolverPool.multiprocessing(
                args.pool, args.slaves, mp_context=args.mp_context
            )
        else:
            pool = SolverPool.serial(args.pool, args.slaves)
        manager = JobManager(pool, max_pending=args.max_pending)
        server = ServiceServer(
            manager, host=host, port=port, instance_loader=_load_instance
        )
        bound_host, bound_port = await server.start()
        print(
            f"serving {args.pool} x {args.slaves}-slave {args.backend} backends "
            f"on {bound_host}:{bound_port}",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except RuntimeError as exc:
        # e.g. the requested port is taken — actionable message, no traceback
        raise SystemExit(f"error: {exc}") from exc
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    host, port = _endpoint(args)
    # Resolve the spec client-side: errors surface here, not in the server
    # log, and the job is correct even if the server runs in another cwd.
    instance = _load_instance(args.instance)
    response = _service_request(
        host,
        port,
        {
            "op": "submit",
            "instance": {
                "name": instance.name or args.instance,
                "profits": instance.profits.tolist(),
                "weights": instance.weights.tolist(),
                "capacities": instance.capacities.tolist(),
            },
            "variant": args.variant,
            "rounds": args.rounds,
            "seed": args.seed,
            "evals": args.evals,
            "seconds": args.seconds,
        },
    )
    job_id = response["job_id"]
    print(job_id)
    if args.stream:
        final = _stream_job(host, port, job_id)
        if final is not None and final["state"] == "failed":
            return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    host, port = _endpoint(args)
    if args.stream:
        final = _stream_job(host, port, args.job_id)
        return 1 if final is not None and final["state"] == "failed" else 0
    response = _service_request(host, port, {"op": "status", "job_id": args.job_id})
    print(_render_status(response["status"]))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    host, port = _endpoint(args)
    response = _service_request(host, port, {"op": "cancel", "job_id": args.job_id})
    if response["cancelled"]:
        print(f"{args.job_id}: cancellation requested")
        return 0
    print(f"{args.job_id}: already finished")
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "exact": _cmd_exact,
        "generate": _cmd_generate,
        "suite": _cmd_suite,
        "info": _cmd_info,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "cancel": _cmd_cancel,
        "worker": _cmd_worker,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
