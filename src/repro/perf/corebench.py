"""Core simulator speed: the three execution tiers, side by side.

``python -m repro.perf.corebench`` times the cycle-stepped core on three
representative workloads -- the E1 Mesa emulator loop, the E2 BitBlt
inner loop, and the E4 fast-I/O display service -- under the
interpretive reference (``INTERPRETED``), the decoded execution-plan
path (``PLAN_ONLY``), and the compiled-trace tier that PRODUCTION
layers on top (``repro.core.tracecache``), and writes ``BENCH_core.json``.
Every timing comes from :func:`~repro.perf.measure.timed`, with only
the run phase timed: machine building is identical across tiers and
would dilute the comparison.  Simulated cycle counts are asserted
identical across the tiers, so the file doubles as a parity receipt.

The bench runs with no instrumentation-bus subscribers attached, so it
also pins the bus's zero-cost guarantee: an idle bus leaves
``Processor.trace_hook`` as ``None``.  ``--baseline`` compares the fresh
document against a previous BENCH_core.json with
:func:`~repro.perf.measure.compare_to_baseline` (absolute seconds are
host-specific; the speedup *ratio* is the portable number).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, NamedTuple, Tuple

from ..config import PRODUCTION, MachineConfig
from ..core.processor import Processor
from ..exp.configs import tier_configs
from ..asm.assembler import Assembler
from ..graphics.bitblt import BitBltFunction, build_bitblt_machine, run_bitblt
from ..graphics.bitmap import Bitmap
from ..io.display import DisplayController, display_fast_microcode
from ..types import MUNCH_WORDS
from .measure import compare_to_baseline, timed, write_document
from .workloads import mesa_loop_sum


class Staged(NamedTuple):
    """A freshly built scenario machine; calling it simulates to the end."""

    cpu: Processor
    run: Callable[[], int]  #: simulates and returns the cycle count

    def __call__(self) -> int:
        return self.run()


#: Scenario factories return a *stage* callable that builds a fresh
#: machine; only calling the :class:`Staged` it returns is timed.


def _e1_mesa_loop(config: MachineConfig) -> Callable[[], Staged]:
    """E1: the byte-code emulator's load/store/branch loop."""
    def stage() -> Staged:
        workload = mesa_loop_sum(200, config=config)
        return Staged(workload.ctx.cpu, workload.run)
    return stage


def _e2_bitblt(config: MachineConfig) -> Callable[[], Staged]:
    """E2: the BitBlt inner loop (shift-and-merge at full tilt)."""
    def stage() -> Staged:
        cpu = build_bitblt_machine(config)
        src = Bitmap(cpu.memory, 0x2000, 31, 32)
        dst = Bitmap(cpu.memory, 0x8000, 30, 32)
        src.load_pattern()
        dst.fill(0)

        def run() -> int:
            return run_bitblt(
                cpu, BitBltFunction.COPY, src_va=0x2000, dst_va=0x8000,
                words_per_row=30, rows=32, src_pitch=31, dst_pitch=30, shift=5,
            )
        return Staged(cpu, run)
    return stage


def _e4_fast_io(config: MachineConfig) -> Callable[[], Staged]:
    """E4: the display's fast-I/O munch service, tasking included."""
    def stage() -> Staged:
        asm = Assembler(config)
        asm.emit(idle=True)
        display_fast_microcode(asm)
        cpu = Processor(config)
        cpu.load_image(asm.assemble())
        cpu.memory.identity_map()
        display = DisplayController(munch_interval_cycles=8, explicit_notify=False)
        cpu.attach_device(display)
        munches = 128
        for i in range(munches * MUNCH_WORDS):
            cpu.memory.debug_write(0x4000 + i, i & 0xFFFF)
        display.begin_band(cpu, 0x4000, munches)

        def run() -> int:
            cpu.run_until(lambda m: display.done, max_cycles=200_000)
            return cpu.counters.cycles
        return Staged(cpu, run)
    return stage


SCENARIOS: Dict[str, Callable[[MachineConfig], Callable[[], Staged]]] = {
    "E1_mesa_loop_sum": _e1_mesa_loop,
    "E2_bitblt_copy": _e2_bitblt,
    "E4_display_fast_io": _e4_fast_io,
}

#: The tiers a corebench row compares, slowest first -- derived from the
#: experiment matrix's tier registry (``repro.exp.configs``) so the
#: bench and the matrix evaluators always mean the same three machines.
TIERS = tuple(tier_configs(PRODUCTION).items())

#: Scenarios with no traced column.  E4 stops on a per-cycle predicate
#: (the display finishing its band) through ``run_until``, which the
#: trace tier cannot batch: on PRODUCTION it enters no trace at all, so
#: a traced column would time the plan tier against itself.
PLAN_ONLY = frozenset({"E4_display_fast_io"})


def _simulate(staged: Staged) -> Tuple[int, int]:
    """The timed call: simulated cycles, and compiled-trace entries."""
    return staged.run(), staged.cpu._traces.stats()["entries"]


def run_corebench(repeats: int = 3) -> Dict[str, dict]:
    """Measure every scenario under each of its tiers."""
    results: Dict[str, dict] = {}
    for name, make in SCENARIOS.items():
        timings = {
            tier: timed(_simulate, repeats=repeats, setup=make(config))
            for tier, config in TIERS
            if not (tier == "traced" and name in PLAN_ONLY)
        }
        cycles = timings["interp"].result[0]
        row: Dict[str, object] = {"simulated_cycles": cycles}
        for tier, timing in timings.items():
            if timing.result[0] != cycles:
                raise AssertionError(
                    f"{name}: the {tier} tier changed the simulated cycle "
                    f"count ({cycles} != {timing.result[0]})"
                )
            row[f"{tier}_seconds"] = timing.block()
            row[f"{tier}_cycles_per_second"] = round(timing.per_second(cycles))
        row["speedup"] = round(timings["interp"].median / timings["plan"].median, 2)
        if "traced" in timings:
            row["trace_entries"] = timings["traced"].result[1]
            row["traced_speedup"] = round(
                timings["plan"].median / timings["traced"].median, 2
            )
        results[name] = row
    return results


def _e1_build_and_run() -> int:
    """Assemble, build and simulate E1 to HALT: a cold start."""
    return mesa_loop_sum(200).run()


def run_warmstart_bench(repeats: int = 3) -> dict:
    """Reaching the E1 machine's end state: full run versus restore.

    A "cold" start assembles the Mesa emulator microcode, builds the
    machine, and simulates the workload to HALT; a "warm" start restores
    a :class:`~repro.state.MachineState` checkpoint of that end state.
    The restore must land on the cold run's cycle count and verify the
    workload's result -- the restore path's correctness receipt.
    """
    cold = timed(_e1_build_and_run, repeats=repeats)
    workload = mesa_loop_sum(200)
    workload.run()
    cpu = workload.ctx.cpu
    end_state = cpu.snapshot()

    def restore() -> int:
        cpu.restore(end_state)
        return cpu.counters.cycles

    warm = timed(restore, repeats=repeats)
    if warm.result != cold.result:
        raise AssertionError(
            f"restore landed on {warm.result} cycles, the cold run on "
            f"{cold.result}"
        )
    if not workload.verify():
        raise AssertionError("restored machine failed workload verification")
    return {
        "simulated_cycles": cold.result,
        "cold_seconds": cold.block(),
        "warm_restore_seconds": warm.block(),
        "warm_speedup": round(cold.median / warm.median, 2),
    }


#: Supervision (checkpoint snapshots + sanitizer sweeps) may cost at
#: most this factor in wall-clock over the bare run.  The dominant term
#: is the checkpoint snapshot (a full storage-image copy per interval);
#: the bound is deliberately loose enough for CI noise but tight enough
#: that an accidentally-hot sanitizer (or per-cycle snapshots) fails.
SUPERVISED_OVERHEAD_LIMIT = 8.0


def run_supervised_bench(repeats: int = 3) -> dict:
    """The E1 workload, bare versus supervised: overhead with parity.

    The supervised run carries periodic checkpoints and machine-check
    sweeps but no faults, so it must simulate the *identical* cycle
    count (the supervisor's zero-perturbation guarantee), and its
    overhead factor is asserted under ``SUPERVISED_OVERHEAD_LIMIT``.
    """
    from ..supervise import Supervisor

    def supervised_run() -> int:
        workload = mesa_loop_sum(200)
        supervisor = Supervisor(
            workload.ctx.cpu, checkpoint_interval=1500, check_interval=256
        )
        cycles = supervisor.run()
        if not workload.verify():
            raise AssertionError("supervised run failed workload verification")
        return cycles

    bare = timed(_e1_build_and_run, repeats=repeats)
    supervised = timed(supervised_run, repeats=repeats)
    if supervised.result != bare.result:
        raise AssertionError(
            f"supervision perturbed the simulated cycle count "
            f"({bare.result} != {supervised.result})"
        )
    overhead = supervised.median / bare.median
    if overhead > SUPERVISED_OVERHEAD_LIMIT:
        raise AssertionError(
            f"supervision overhead {overhead:.2f}x exceeds the "
            f"{SUPERVISED_OVERHEAD_LIMIT}x budget"
        )
    return {
        "simulated_cycles": bare.result,
        "bare_seconds": bare.block(),
        "supervised_seconds": supervised.block(),
        "overhead_factor": round(overhead, 2),
        "overhead_limit": SUPERVISED_OVERHEAD_LIMIT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_core.json",
                        help="where to write the JSON report")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per measurement (the median is "
                             "reported), after one untimed warm-up run")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare against a previous BENCH_core.json; "
                             "exit nonzero on cycle mismatch or speedup regression")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="fractional speedup regression allowed vs --baseline")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    baseline = None
    if args.baseline is not None:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
        if not isinstance(baseline, dict) or "workloads" not in baseline:
            parser.error(f"baseline {args.baseline} has no workloads section")

    doc = write_document(
        args.output,
        "core simulator cycle rate across the three execution tiers "
        "(interp, plan, traced)",
        {
            "workloads": run_corebench(repeats=args.repeats),
            "warm_start": run_warmstart_bench(repeats=args.repeats),
            "supervised_overhead": run_supervised_bench(repeats=args.repeats),
        },
    )

    for name, row in doc["workloads"].items():
        rates = ", ".join(
            f"{tier} {row[tier + '_cycles_per_second']} c/s"
            for tier, _ in TIERS if tier + "_cycles_per_second" in row
        )
        traced = row.get("traced_speedup")
        print(f"{name}: {rates}; plan {row['speedup']}x over interp"
              + (f", traced {traced}x over plan" if traced else ""))
    print(f"warm start {doc['warm_start']['warm_speedup']}x over cold; "
          f"supervision {doc['supervised_overhead']['overhead_factor']}x "
          f"of a {SUPERVISED_OVERHEAD_LIMIT}x budget")
    if baseline is not None:
        # Sections a baseline predating them lacks are skipped with a
        # warning, never a KeyError -- old baselines stay usable.
        for section in ("warm_start", "supervised_overhead"):
            if section not in baseline:
                print(
                    f"baseline warning: {section} missing from "
                    f"{args.baseline}; skipping its comparison"
                )
        problems = compare_to_baseline(doc, baseline, tolerance=args.tolerance)
        if problems:
            for p in problems:
                print(f"BASELINE MISMATCH: {p}")
            return 1
        print(f"baseline {args.baseline}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
