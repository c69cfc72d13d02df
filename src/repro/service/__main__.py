"""Command-line driver for the service: ``python -m repro.service``.

``serve`` starts the asyncio front end over a worker fleet; ``loadtest``
replays the scripted session stream and writes the canonical-JSON
results artifact CI compares byte-for-byte across worker counts;
``chaos`` runs the same loadtest under a seeded service-fault storm
(the artifact must still ``cmp`` clean against the serial ground
truth); ``bench`` runs the scaling/admission/recovery sweep and writes
BENCH_service.json-shaped output.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from ..perf.measure import write_document
from .bench import run_service_bench
from .chaos import CHAOS_TEMPLATE
from .fleet import Fleet
from .frontend import Frontend
from .loadtest import (
    ROTATION, clean_sessions_verified, loadtest_json, run_loadtest, summarize,
)


def _cmd_serve(args: argparse.Namespace) -> int:
    fleet = Fleet(
        workers=args.workers,
        capacity=args.capacity,
        prewarm=[(workload, {}, None) for workload in ROTATION],
        checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries,
    )
    frontend = Frontend(fleet)

    def ready(addr) -> None:
        print(f"repro.service listening on {addr[0]}:{addr[1]}", flush=True)

    try:
        asyncio.run(frontend.serve(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        pass
    finally:
        fleet.close()
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """``loadtest``, and ``chaos``: the same loadtest under a storm."""
    chaos = args.command == "chaos"
    storm = {}
    if chaos:
        storm = {
            "chaos": {"seed": args.chaos_seed,
                      **{key: getattr(args, key) for key in CHAOS_TEMPLATE}},
            "checkpoint_every": args.checkpoint_every,
            "max_respawns": args.max_respawns,
        }
    start = time.perf_counter()
    artifact, stats = run_loadtest(
        sessions=args.sessions,
        workers=args.workers,
        capacity=args.capacity,
        slice_cycles=args.slice_cycles,
        max_cycles=args.max_cycles,
        seed=args.seed,
        fault_every=args.fault_every,
        checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries,
        serial=args.serial,
        **storm,
    )
    seconds = time.perf_counter() - start
    text = loadtest_json(artifact)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"{args.command} artifact -> {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    counts = summarize(artifact)
    report = dict(counts, seconds=round(seconds, 3), **stats)
    print(f"{args.command}: {json.dumps(report, sort_keys=True)}",
          file=sys.stderr)
    ok = clean_sessions_verified(artifact)
    if chaos and args.require_counters:
        for counter in args.require_counters.split(","):
            counter = counter.strip()
            if not stats.get(counter):
                print(f"chaos: required counter {counter!r} is zero",
                      file=sys.stderr)
                ok = False
    return 0 if ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    worker_counts = tuple(int(n) for n in args.workers.split(","))
    result = run_service_bench(
        worker_counts,
        sessions=args.sessions,
        capacity=args.capacity,
        slice_cycles=args.slice_cycles,
        seed=args.seed,
    )
    write_document(
        args.output,
        "simulation-service fleet (sessions over forked workers)",
        result,
    )
    recovery = result["recovery_overhead"]
    ok = (
        all(row["clean_verified"] for row in result["scaling"])
        and recovery["clean_verified"]
        and recovery["artifact_identical"]
        and recovery["within_ceiling"]
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="multi-tenant Dorado simulation service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="asyncio front end over a fleet")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="0 picks an ephemeral port (printed on start)")
    serve_p.add_argument("--workers", type=int, default=2)
    serve_p.add_argument("--capacity", type=int, default=8,
                         help="global live-session budget (LRU beyond it)")
    serve_p.add_argument("--checkpoint-interval", type=int, default=2000)
    serve_p.add_argument("--max-retries", type=int, default=3)
    serve_p.set_defaults(func=_cmd_serve)

    # The flags loadtest and chaos share: the scripted session stream.
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--sessions", type=int, default=60)
    stream.add_argument("--workers", type=int, default=1)
    stream.add_argument("--capacity", type=int, default=12,
                        help="kept far below --sessions to force "
                             "evictions and migrations")
    stream.add_argument("--slice-cycles", type=int, default=1200)
    stream.add_argument("--max-cycles", type=int, default=240_000)
    stream.add_argument("--seed", type=int, default=17,
                        help="loadtest script seed (not the storm seed)")
    stream.add_argument("--fault-every", type=int, default=3,
                        help="every Nth session gets a seeded fault plan "
                             "(0 disables)")
    stream.add_argument("--checkpoint-interval", type=int, default=600)
    stream.add_argument("--max-retries", type=int, default=4)
    stream.add_argument("--output", default=None,
                        help="write the canonical artifact here instead "
                             "of stdout")

    load_p = sub.add_parser(
        "loadtest", parents=[stream],
        help="scripted determinism/throughput harness",
    )
    load_p.add_argument("--serial", action="store_true",
                        help="plain in-process sessions, no fleet: the "
                             "byte-identity ground truth")
    load_p.set_defaults(func=_cmd_loadtest)

    chaos_p = sub.add_parser(
        "chaos", parents=[stream],
        help="loadtest under a seeded service-fault storm; the artifact "
             "must still match the clean serial run byte-for-byte",
    )
    chaos_p.add_argument("--chaos-seed", type=int, default=1)
    for key, default in CHAOS_TEMPLATE.items():
        chaos_p.add_argument("--" + key.replace("_", "-"), type=int,
                             default=default)
    chaos_p.add_argument("--checkpoint-every", type=int, default=8,
                         help="background-checkpoint a hot session every "
                              "N acknowledged slices (0 disables)")
    chaos_p.add_argument("--max-respawns", type=int, default=2,
                         help="per-slot crash budget before the slot "
                              "degrades to an inline host")
    chaos_p.add_argument("--require-counters", default=None,
                         help="comma-separated recovery counters that must "
                              "be nonzero (exit 1 otherwise)")
    chaos_p.set_defaults(func=_cmd_loadtest, serial=False)

    bench_p = sub.add_parser("bench", help="scaling + admission sweep")
    bench_p.add_argument("--workers", default="1,2,4",
                         help="comma-separated worker counts")
    bench_p.add_argument("--sessions", type=int, default=15)
    bench_p.add_argument("--capacity", type=int, default=5)
    bench_p.add_argument("--slice-cycles", type=int, default=1200)
    bench_p.add_argument("--seed", type=int, default=17)
    bench_p.add_argument("--output", default=None,
                         help="write JSON here instead of stdout")
    bench_p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
