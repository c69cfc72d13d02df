"""Command-line driver for the cluster: ``python -m repro.cluster``.

``run`` executes the demo relay ring and prints the cluster report;
``--save-state`` writes the final canonical-JSON cluster snapshot,
which CI compares byte-for-byte across worker counts.  ``bench`` runs
the scaling sweep and writes BENCH_cluster.json-shaped output.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..perf.measure import write_document
from .bench import run_scaling
from .programs import build_ring_cluster, ring_epoch_budget


def _cmd_run(args: argparse.Namespace) -> int:
    cluster = build_ring_cluster(
        args.nodes,
        laps=args.laps,
        payload_words=args.payload_words,
        seed=args.seed,
        epoch_cycles=args.epoch_cycles,
        hop_latency=args.hop_latency,
    )
    budget = args.max_epochs or ring_epoch_budget(args.nodes, args.laps)
    cluster.run(max_epochs=budget, workers=args.workers)
    report = cluster.report()
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.save_state:
        cluster.snapshot().save(args.save_state)
        print(f"cluster state -> {args.save_state}", file=sys.stderr)
    origin = cluster.nodes[0].program
    if not (origin.done and origin.verified):
        print(
            f"ring NOT verified: done={origin.done} verified={origin.verified} "
            f"failures={origin.failures}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    node_counts = tuple(int(n) for n in args.nodes.split(","))
    result = run_scaling(
        node_counts,
        laps=args.laps,
        payload_words=args.payload_words,
        epoch_cycles=args.epoch_cycles,
    )
    write_document(args.output, "repro.cluster ring scaling", result)
    return 0 if all(row["verified"] for row in result["scaling"]) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="deterministic multi-Dorado cluster driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the demo relay ring")
    run_p.add_argument("--nodes", type=int, default=3)
    run_p.add_argument("--laps", type=int, default=2)
    run_p.add_argument("--payload-words", type=int, default=16)
    run_p.add_argument("--seed", type=int, default=11)
    run_p.add_argument("--epoch-cycles", type=int, default=800)
    run_p.add_argument("--hop-latency", type=int, default=1)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--max-epochs", type=int, default=0,
                       help="override the computed epoch budget")
    run_p.add_argument("--save-state", default=None,
                       help="write the final canonical-JSON cluster snapshot")
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser("bench", help="scaling sweep (cycles/s vs nodes)")
    bench_p.add_argument("--nodes", default="1,2,4",
                         help="comma-separated node counts")
    bench_p.add_argument("--laps", type=int, default=2)
    bench_p.add_argument("--payload-words", type=int, default=16)
    bench_p.add_argument("--epoch-cycles", type=int, default=800)
    bench_p.add_argument("--output", default=None,
                         help="write JSON here instead of stdout")
    bench_p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
