"""Cluster scaling measurement: aggregate simulated cycles/s vs node count.

The companion to BENCH_core.json one layer up: where that file records
single-machine interpreter/plan/trace throughput, this one records how
the lockstep coordinator scales as nodes are added -- total simulated
cycles across all nodes per median second of the run (timed by
:func:`~repro.perf.measure.timed`, the ring built outside the timed
call), for the demo relay ring at N = 1, 2, 4 (by default).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from ..perf.measure import timed
from .cluster import Cluster
from .programs import build_ring_cluster, build_ring_template, ring_epoch_budget

#: Timed runs per node count; a ring run takes milliseconds.
REPEATS = 5


def _run_ring(cluster: Cluster, budget: int) -> Dict[str, Any]:
    """The timed call: run the ring; its simulated outcome is the result."""
    epochs = cluster.run(max_epochs=budget)
    origin = cluster.nodes[0].program
    return {
        "epochs": epochs,
        "total_cycles": sum(node.cpu.counters.cycles for node in cluster.nodes),
        "packets_delivered": cluster.fabric.packets_delivered,
        "verified": bool(origin.done and origin.verified),
    }


def run_scaling(
    node_counts: Sequence[int] = (1, 2, 4),
    *,
    laps: int = 2,
    payload_words: int = 16,
    seed: int = 11,
    epoch_cycles: int = 800,
) -> Dict[str, Any]:
    """Time the relay ring at each node count; returns the report sections."""
    workload = dict(laps=laps, payload_words=payload_words, seed=seed,
                    epoch_cycles=epoch_cycles)
    template = build_ring_template()
    rows = []
    for nodes in node_counts:
        budget = ring_epoch_budget(nodes, laps)
        timing = timed(
            lambda cluster: _run_ring(cluster, budget),
            repeats=REPEATS,
            setup=lambda: build_ring_cluster(nodes, template=template, **workload),
        )
        rows.append(dict(
            timing.result,
            nodes=nodes,
            seconds=timing.block(),
            cycles_per_second=round(timing.per_second(timing.result["total_cycles"])),
        ))
    return {"workload": dict(workload, repeats=REPEATS), "scaling": rows}
