"""Service throughput benchmark: BENCH_service.json.

Three measurements (DESIGN.md 5.9 and 5.10), each timed by
:func:`~repro.perf.measure.timed`; every timed loadtest run must
reproduce the same artifact:

* **scaling** -- the scripted load test at 1/2/4 workers: sessions and
  aggregate simulated cycles per median second.  Only the wall clock
  moves with the worker count; the artifact is byte-identical.
* **admission** -- what it costs to put a session on a worker: cold
  boot (build + assemble microcode + boot), warm fork (boot-cache hit),
  and warm restore (fork + checkpoint restore, the migration path).
* **recovery_overhead** -- the 2-worker loadtest clean and under the
  default chaos storm (worker kills, message loss, spool corruption):
  the overhead ratio of the medians, under a generous ceiling, and the
  proof obligation that the two artifacts are byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from ..perf.measure import Timing, timed
from .chaos import CHAOS_TEMPLATE
from .loadtest import clean_sessions_verified, loadtest_json, run_loadtest, summarize
from .session import Session, clear_boot_cache

#: The recovery bench fails if chaos costs more than this many times
#: the clean wall clock -- generous, because a respawn re-forks a
#: worker and a restore replays journal suffixes, but a regression that
#: makes recovery quadratic should trip it.
RECOVERY_OVERHEAD_CEILING = 4.0
#: Timed runs per loadtest (after the untimed warm-up).
REPEATS = 2
#: Workers of the recovery bench's loadtests; its clean run is the sweep's.
RECOVERY_WORKERS = 2


def _admission(repeats: int = 5) -> Dict[str, Any]:
    """Seconds per session admission, by path."""
    workload = "mesa_loop_sum"

    def build() -> int:
        return Session.build(workload).cpu.counters.cycles

    cold = timed(lambda _: build(), repeats=repeats, setup=clear_boot_cache)
    warm_fork = timed(build, repeats=repeats)  # the warm-up fills the cache

    donor = Session.build(workload, name="donor")
    donor.run_slice(1500)
    envelope = donor.suspend()
    warm_restore = timed(
        lambda: Session.resume(envelope).cpu.counters.cycles, repeats=repeats
    )
    return {
        "workload": workload,
        "cold_boot_seconds": cold.block(),
        "warm_fork_seconds": warm_fork.block(),
        "warm_restore_seconds": warm_restore.block(),
        "cold_over_warm_fork": round(cold.median / warm_fork.median, 2),
        "cold_over_warm_restore": round(cold.median / warm_restore.median, 2),
    }


def _timed_loadtest(**kwargs: Any) -> Tuple[Timing, Dict[str, Any]]:
    """:data:`REPEATS` timed runs of one loadtest, and its fleet stats.

    The timed call returns the artifact, so every run must reproduce
    it; the fleet stats (evictions, recovery counters) are execution
    details, kept out of that comparison and taken from the last run.
    """
    stats: Dict[str, Any] = {}

    def run() -> Dict[str, Any]:
        artifact, run_stats = run_loadtest(**kwargs)
        stats.update(run_stats)
        return artifact

    return timed(run, repeats=REPEATS), stats


def _recovery_overhead(clean: Timing, stream: Dict[str, Any]) -> Dict[str, Any]:
    """Chaos vs the *clean* timing of the same request *stream*."""
    sessions = stream["sessions"]
    storm = dict(CHAOS_TEMPLATE, seed=1)
    chaos, chaos_stats = _timed_loadtest(**stream, chaos=storm, max_respawns=1)
    overhead = chaos.median / clean.median
    return {
        "workers": stream["workers"],
        "storm": storm,
        "clean_seconds": clean.block(),
        "chaos_seconds": chaos.block(),
        "clean_sessions_per_second": round(clean.per_second(sessions), 2),
        "chaos_sessions_per_second": round(chaos.per_second(sessions), 2),
        "overhead_ratio": round(overhead, 3),
        "overhead_ceiling": RECOVERY_OVERHEAD_CEILING,
        "within_ceiling": overhead <= RECOVERY_OVERHEAD_CEILING,
        "artifact_identical": loadtest_json(chaos.result) == loadtest_json(clean.result),
        "clean_verified": clean_sessions_verified(chaos.result),
        "recovery": {
            key: chaos_stats.get(key, 0)
            for key in ("worker_crashes", "respawns", "retries",
                        "checkpoint_corruptions", "degrades", "checkpoints",
                        "chaos_fired", "chaos_pending")
        },
    }


def run_service_bench(
    worker_counts: Sequence[int] = (1, 2, 4),
    *,
    sessions: int = 15,
    capacity: int = 5,
    slice_cycles: int = 1200,
    seed: int = 17,
) -> Dict[str, Any]:
    """The BENCH_service.json sections: one timed loadtest per worker count."""
    stream = dict(sessions=sessions, capacity=capacity,
                  slice_cycles=slice_cycles, seed=seed)
    runs = {
        workers: _timed_loadtest(workers=workers, **stream)
        for workers in sorted({*worker_counts, RECOVERY_WORKERS})
    }
    scaling = []
    for workers in worker_counts:
        timing, stats = runs[workers]
        counts = summarize(timing.result)
        scaling.append({
            "workers": workers,
            "seconds": timing.block(),
            "sessions_per_second": round(timing.per_second(sessions), 2),
            "cycles_per_second": round(timing.per_second(counts["total_cycles"])),
            "total_cycles": counts["total_cycles"],
            "verified": counts["verified"],
            "clean_verified": clean_sessions_verified(timing.result),
            "recovered_faulted": counts["recovered"],
            "evictions": stats.get("evictions", 0),
            "migrations": stats.get("migrations", 0),
        })
    return {
        "loadtest": dict(stream, repeats=REPEATS),
        "scaling": scaling,
        "admission": _admission(),
        "recovery_overhead": _recovery_overhead(
            runs[RECOVERY_WORKERS][0], dict(stream, workers=RECOVERY_WORKERS)
        ),
    }
