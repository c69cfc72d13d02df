"""Service fleet throughput: sessions/s and cycles/s vs worker count.

The multi-tenant companion to ``bench_cluster.py`` -- the scripted
load test timed at 1, 2, 4 workers through
``repro.service.bench.run_service_bench``, the same sweep
``python -m repro.service bench`` records into BENCH_service.json,
plus the admission-path comparison (cold boot vs warm fork vs warm
restore) that motivates the fleet's checkpoint-eviction design.
"""

from repro.service import Session, clear_boot_cache
from repro.service import bench as service_bench
from repro.service.bench import run_service_bench

from conftest import report_rows


def test_service_scaling_sweep(benchmark, monkeypatch):
    """The recorded sweep: every worker count verifies every session."""
    # One timed run per loadtest after the warm-up keeps the smoke short.
    monkeypatch.setattr(service_bench, "REPEATS", 1)
    result = benchmark.pedantic(
        run_service_bench,
        args=((1, 2, 4),),
        kwargs={"sessions": 15, "capacity": 5},
        rounds=1,
    )
    recovery = result["recovery_overhead"]
    rows = [
        (f"W={row['workers']} sessions/s | cycles/s", "--",
         f"{row['sessions_per_second']} | {row['cycles_per_second']:,}")
        for row in result["scaling"]
    ] + [
        ("cold boot / warm restore admission", "--",
         f"{result['admission']['cold_over_warm_restore']}x"),
        ("chaos recovery overhead", "--",
         f"{recovery['overhead_ratio']}x "
         f"(ceiling {recovery['overhead_ceiling']}x)"),
    ]
    report_rows("E18 service fleet scaling", rows)
    for row in result["scaling"]:
        # 15 sessions, every third faulted: 10 clean ones must verify,
        # and the seeded plan is the known-recoverable demo one.
        assert row["verified"] == 15
        assert row["clean_verified"]
        assert row["evictions"] > 0  # capacity 5 < 15 forces churn
    admission = result["admission"]
    assert admission["cold_boot_seconds"]["median"] > 0
    assert admission["warm_restore_seconds"]["median"] > 0
    # The recovery bench is also a correctness gate: the stormy run must
    # reproduce the clean artifact byte-for-byte, inside the ceiling.
    assert recovery["artifact_identical"]
    assert recovery["within_ceiling"]
    assert recovery["clean_verified"]
    assert recovery["recovery"]["worker_crashes"] > 0


def test_warm_fork_admission_rate(benchmark):
    """Steady-state admission: one boot-cache fork per new session."""
    clear_boot_cache()
    Session.build("mesa_loop_sum", name="warmup")

    session = benchmark(Session.build, "mesa_loop_sum", name="admit")
    assert session.run() > 0
