"""Core simulator speed: the execution-plan cache and the compiled-trace
tier versus the interpretive reference (see ``repro.perf.corebench`` and
``BENCH_core.json`` for the standalone three-tier report)."""

from repro.config import INTERPRETED, PRODUCTION
from repro.perf.corebench import SCENARIOS, run_corebench
from repro.perf.measure import timed

from conftest import report_rows


def test_plan_cache_speedup():
    """The whole point of the fast tiers: same cycles, fewer seconds."""
    results = run_corebench(repeats=2)
    rows = [
        (
            name, "-",
            f"{row['speedup']:.2f}x plan, "
            f"{row.get('traced_speedup', '-')}x traced "
            f"({row['simulated_cycles']} cycles)",
        )
        for name, row in results.items()
    ]
    report_rows("Core execution-tier speedups (interp vs plan vs traced)", rows)
    # run_corebench already asserted cycle parity; require a real win on
    # the emulator loop (the acceptance gate is 2x, measured standalone
    # in corebench -- under pytest we allow scheduler noise).
    assert results["E1_mesa_loop_sum"]["speedup"] > 1.2


def test_core_fast_path_rate(benchmark):
    stage = SCENARIOS["E1_mesa_loop_sum"](PRODUCTION)
    cycles = benchmark(lambda: stage()())
    assert cycles > 0


def test_core_interpreted_rate(benchmark):
    stage = SCENARIOS["E1_mesa_loop_sum"](INTERPRETED)
    cycles = benchmark(lambda: stage()())
    assert cycles > 0


def test_timed_smoke():
    stage = SCENARIOS["E2_bitblt_copy"](PRODUCTION)
    timing = timed(lambda staged: staged(), repeats=1, setup=stage)
    assert timing.result > 0 and timing.median > 0
    assert timing.per_second(timing.result) > 0
