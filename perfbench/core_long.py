"""``core_long``: the cycle-stepped simulator alone, no service layers.

Each input is built fresh (microcode assembly and boot, no boot-cache
fork, so no machine-state encoding is involved), run to completion in
``run()`` slices of ``CORE_SLICE`` cycles, and checked: the workload's
own oracle, the simulated counters recorded in ``reference.json``, and
a tier receipt -- every input here is meant for the traced tier, so an
input whose trace cache was never entered fails the run.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional

from catalog import CORE_INPUTS, CORE_SLICE
from hosttime import Pace

#: The simulated counters checked against the reference, per input.
SIM_COUNTERS = ("cycles", "instructions", "held_cycles", "task_switches",
                "cache_misses")


class CoreInput:
    """One catalog entry on a fresh machine: step, verify, read counters."""

    def __init__(self, entry: Dict[str, Any], config) -> None:
        self.entry = entry
        kind = entry["kind"]
        args = entry["args"]
        self._finished = False
        if kind == "workload":
            from repro.perf.workloads import ALL_WORKLOADS

            self._workload = ALL_WORKLOADS[entry["id"]](config=config, **args)
            self.cpu = self._workload.ctx.cpu
        elif kind == "bitblt":
            from repro.graphics.bitblt import build_bitblt_machine
            from repro.graphics.bitmap import Bitmap

            self.cpu = build_bitblt_machine(config)
            wpr, rows = args["words_per_row"], args["rows"]
            self._src = Bitmap(self.cpu.memory, 0x2000, wpr + 1, rows)
            self._dst = Bitmap(self.cpu.memory, 0x8000, wpr, rows)
            self._src.load_pattern()
            self._dst.fill(0)
        elif kind == "display":
            from repro.asm.assembler import Assembler
            from repro.core.processor import Processor
            from repro.io.display import DisplayController, display_fast_microcode
            from repro.types import MUNCH_WORDS

            asm = Assembler(config)
            asm.emit(idle=True)
            display_fast_microcode(asm)
            self.cpu = Processor(config)
            self.cpu.load_image(asm.assemble())
            self.cpu.memory.identity_map()
            self._display = DisplayController(
                munch_interval_cycles=8, explicit_notify=False
            )
            self.cpu.attach_device(self._display)
            self._words = args["munches"] * MUNCH_WORDS
            for i in range(self._words):
                self.cpu.memory.debug_write(0x4000 + i, i & 0xFFFF)
            self._display.begin_band(self.cpu, 0x4000, args["munches"])
        else:
            raise ValueError(f"unknown core input kind {kind!r}")

    def step(self) -> bool:
        """Advance one slice; True once the input has finished."""
        kind = self.entry["kind"]
        if kind == "workload":
            self._finished = self._workload.run_slice(CORE_SLICE).halted
        elif kind == "bitblt":
            from repro.graphics.bitblt import BitBltFunction, run_bitblt

            args = self.entry["args"]
            run_bitblt(
                self.cpu, BitBltFunction.COPY, src_va=0x2000, dst_va=0x8000,
                words_per_row=args["words_per_row"], rows=args["rows"],
                src_pitch=args["words_per_row"] + 1,
                dst_pitch=args["words_per_row"], shift=args["shift"],
            )
            self._finished = True
        else:
            self.cpu.run(CORE_SLICE)
            self._finished = self._display.done
        return self._finished

    def verify(self) -> bool:
        kind = self.entry["kind"]
        if not self._finished:
            return False
        if kind == "workload":
            return bool(self._workload.verify())
        if kind == "bitblt":
            from repro.graphics.bitblt import reference_shifted_row

            args = self.entry["args"]
            wpr = args["words_per_row"]
            for y in range(args["rows"]):
                src = [self._src.read_word(y, i) for i in range(wpr + 1)]
                got = [self._dst.read_word(y, i) for i in range(wpr)]
                if got != reference_shifted_row(src, args["shift"]):
                    return False
            return True
        return self._display.pixels_consumed == self._words

    def counters(self) -> Dict[str, int]:
        c = self.cpu.counters
        return {name: getattr(c, name) for name in SIM_COUNTERS}

    def trace_stats(self) -> Dict[str, int]:
        stats = self.cpu._traces.stats()
        return {k: stats[k] for k in ("entries", "compiled", "invalidations",
                                      "blacklisted")}


def setup_once() -> float:
    """Build every catalog input's machine once (cold); CPU seconds taken."""
    from repro.config import PRODUCTION

    start = time.process_time()
    for entry in CORE_INPUTS:
        CoreInput(entry, PRODUCTION)
    return time.process_time() - start


def run_pass(stream, stop, reference: Dict[str, Any], config,
             tracer=None, check_tier: bool = True) -> Dict[str, Any]:
    """Run inputs from *stream* until ``stop(inputs_done, elapsed)``.

    Returns latency samples (CPU seconds, see ``hosttime``), the
    deterministic record of every input (id and simulated counters, in
    order), and any problems.  ``elapsed`` is wall-clock time, ``busy``
    the CPU time of the whole pass less the host-pace probes timed before
    each input (``pace``).
    """
    call = tracer.call if tracer is not None else (lambda _n, fn, *a: fn(*a))
    samples: Dict[str, List[float]] = {"open": [], "round": [], "result": []}
    records: List[Dict[str, Any]] = []
    receipts: Dict[str, Dict[str, int]] = {}
    problems: List[str] = []
    pace = Pace()
    cycles = 0
    attempted = failed = verified = 0
    start = time.perf_counter()
    cpu_start = time.process_time()
    for entry in stream:
        if stop(len(records), time.perf_counter() - start):
            break
        attempted += 1
        # The previous input's machine is garbage now; collect it here,
        # untimed, rather than inside whichever build trips the collector.
        gc.collect()
        pace.measure()
        t0 = time.process_time()
        job = call("core.build", CoreInput, entry, config)
        samples["open"].append(time.process_time() - t0)
        done = False
        while not done:
            t = time.process_time()
            done = job.step()
            samples["round"].append(time.process_time() - t)
        ok = call("core.verify", job.verify)
        samples["result"].append(time.process_time() - t0)
        counts = job.counters()
        tiers = job.trace_stats()
        cycles += counts["cycles"]
        records.append({"id": entry["id"], "counters": counts})
        receipts[entry["id"]] = tiers
        expected = reference["core"][entry["id"]]["counters"]
        why: Optional[str] = None
        if not ok:
            why = "failed its workload check"
        elif counts != expected:
            why = f"simulated counters {counts} != recorded {expected}"
        elif check_tier and tiers["entries"] == 0:
            why = "never entered the trace tier"
        if why is None:
            verified += 1
        else:
            failed += 1
            problems.append(f"core input {entry['id']}: {why}")
    return {
        "start": start,
        "elapsed": time.perf_counter() - start,
        "busy": time.process_time() - cpu_start - pace.seconds,
        "samples": samples,
        "pace": pace,
        "records": records,
        "receipts": receipts,
        "cycles": cycles,
        "attempted": attempted,
        "failed": failed,
        "verified": verified,
        "problems": problems,
    }


def reference_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Run one input to completion for ``reference.json``."""
    from repro.config import PRODUCTION

    job = CoreInput(entry, PRODUCTION)
    while not job.step():
        pass
    if not job.verify():
        raise AssertionError(f"{entry['id']} failed its workload check")
    return {"counters": job.counters(), "trace": job.trace_stats()}
