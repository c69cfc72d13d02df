"""Measurement: the benchmark timing harness and opcode-class profiling.

Every host time a ``BENCH_*.json`` records is the median (with
quartiles and call count) of :func:`timed`'s calls; the documents are
written by :func:`write_document` and gated by :func:`compare_to_baseline`.

The paper's section 7 reports emulator costs per *class* of
macroinstruction ("a load or store instruction takes only one or two
microinstructions in Mesa, and five in Lisp...").  The
:class:`OpcodeProfiler` measures exactly that: it watches the IFU
dispatch stream and attributes every executed (and held) task-0 cycle to
the macroinstruction whose handler is running.

The profiler is a subscriber on the machine's instrumentation bus
(:class:`~repro.perf.instrument.InstrumentationBus`): it listens on the
``dispatch`` channel (the IFU's first-class ``dispatch_hook`` -- no
monkey-patching of ``take_dispatch``) and the ``cycle`` channel, so it
composes with a :class:`~repro.perf.tracing.PipelineTracer` or any
other subscriber in either attach order, and :meth:`uninstall` leaves
the machine exactly as found.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..emulators.isa import EmulatorContext
from ..types import EMULATOR_TASK


class Timing(NamedTuple):
    """Host seconds of :func:`timed`'s timed calls, and what they returned."""

    result: Any
    median: float
    q1: float
    q3: float
    min: float
    n: int  #: timed calls, warm-up excluded

    def per_second(self, count: float) -> float:
        """*count* (cycles, sessions, ...) per median second."""
        return count / self.median if self.median > 0 else 0.0

    def block(self) -> Dict[str, Any]:
        """The timing block a ``BENCH_*.json`` row records."""
        return {key: round(value, 6) for key, value in self._asdict().items()
                if key != "result"}


def timed(
    run: Callable[..., Any], *, repeats: int, setup: Optional[Callable[[], Any]] = None
) -> Timing:
    """Time *repeats* calls of *run* after one untimed warm-up call.

    ``gc.collect()`` runs before every call.  With *setup*, each call is
    ``run(setup())`` and only ``run`` is timed -- building a machine is
    not simulating it.  Every call must return the warm-up's result
    (simulated cycles or the equivalent), or ``AssertionError`` is
    raised: a host time for work that changed between runs means nothing.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")

    def call() -> Tuple[Any, float]:
        args = () if setup is None else (setup(),)
        gc.collect()
        start = time.perf_counter()
        result = run(*args)
        return result, time.perf_counter() - start

    expected, _ = call()
    seconds = []
    for _ in range(repeats):
        result, elapsed = call()
        if result != expected:
            raise AssertionError(f"timed runs disagree on their result "
                                 f"({repr(expected)[:80]} != {repr(result)[:80]})")
        seconds.append(elapsed)
    if repeats == 1:  # one sample is its own quartiles
        seconds *= 2
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return Timing(expected, median, q1, q3, min(seconds), repeats)


def write_document(
    path: Optional[str], benchmark: str, sections: Dict[str, Any]
) -> Dict[str, Any]:
    """Write a ``BENCH_*.json`` document: title, host, *sections* (stdout if no *path*)."""
    doc = {
        "benchmark": benchmark,
        "host": {"python": sys.version.split()[0], "platform": platform.platform()},
        **sections,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)
        print(f"wrote {path}", file=sys.stderr)
    return doc


#: Deterministic counts: a fresh document must reproduce them exactly.
EXACT_FIELDS = frozenset({"simulated_cycles", "trace_entries"})
#: Host-portable ratios: a fresh value may fall at most the tolerance
#: below the baseline's (absolute seconds are host-specific).
RATIO_FIELDS = frozenset({"speedup", "traced_speedup"})


def _fields(node: Dict[str, Any], row: str = "") -> Iterator[Tuple[str, str, Any]]:
    """(row path, field, value) of every non-dict value in a document."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _fields(value, f"{row}/{key}".lstrip("/"))
        else:
            yield row, key, value


def compare_to_baseline(
    doc: Dict[str, Any], baseline: Dict[str, Any], tolerance: float = 0.35
) -> List[str]:
    """Problems of a fresh document against a baseline (empty = clean).

    Walks every row of the baseline: an :data:`EXACT_FIELDS` count that
    changed, a :data:`RATIO_FIELDS` speedup below ``base * (1 -
    tolerance)``, or a checked field or whole row the fresh document
    lacks is a problem, as is a fresh traced row that entered no traces.
    Sections the baseline lacks are skipped, so old baselines stay usable.
    """
    fresh = {(row, key): value for row, key, value in _fields(doc)}
    rows = {row for row, _ in fresh}
    problems = [f"{row}: traced row entered no traces"
                for (row, key), value in fresh.items()
                if key == "trace_entries" and value == 0]
    for row, key, base in _fields(baseline):
        value = fresh.get((row, key))
        if key not in EXACT_FIELDS | RATIO_FIELDS:
            continue
        if value is None:  # a whole missing row is reported once
            missing = (f"{row}: {key}" if row in rows else row) + " missing from this run"
            if missing not in problems:
                problems.append(missing)
        elif key in EXACT_FIELDS and value != base:
            problems.append(f"{row}: {key} changed ({base} -> {value})")
        elif key in RATIO_FIELDS and value < base * (1.0 - tolerance):
            problems.append(f"{row}: {key} regressed ({base}x -> {value}x, "
                            f"floor {base * (1.0 - tolerance):.2f}x)")
    return problems


@dataclass
class OpcodeStats:
    """Accumulated cost of one opcode class."""

    dispatches: int = 0
    microinstructions: int = 0
    cycles: int = 0  #: includes held cycles (memory/IFU waits)

    @property
    def mean_microinstructions(self) -> float:
        return self.microinstructions / self.dispatches if self.dispatches else 0.0

    @property
    def mean_cycles(self) -> float:
        return self.cycles / self.dispatches if self.dispatches else 0.0


class OpcodeProfiler:
    """Attribute task-0 execution to macroinstruction classes.

    Constructing one attaches it (the historical behaviour benchmarks
    rely on); :meth:`uninstall` detaches it and restores the bus and
    IFU hook state exactly.  The microinstruction that *performs* the
    NextMacro is charged to the instruction it finishes.
    """

    def __init__(self, ctx: EmulatorContext) -> None:
        self.ctx = ctx
        self.stats: Dict[str, OpcodeStats] = {}
        self._current: Optional[str] = None
        self._pending_name: Optional[str] = None
        self._installed = False
        self._name: Optional[str] = None
        self.install()

    def install(self) -> "OpcodeProfiler":
        if not self._installed:
            self._name = self.ctx.cpu.instruments.install(
                cycle=self._on_cycle, dispatch=self._on_dispatch
            )
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.ctx.cpu.instruments.uninstall(self._name)
            self._installed = False
            self._name = None

    # --- bus subscribers ----------------------------------------------------

    def _on_dispatch(self, now: int, entry, address: int) -> None:
        del now, address
        self._pending_name = entry.name

    def _on_cycle(self, now: int, task: int, pc: int, inst, held: bool) -> None:
        del now, pc, inst
        name = self._current
        if name is not None and task == EMULATOR_TASK:
            stats = self.stats.setdefault(name, OpcodeStats())
            stats.cycles += 1
            if not held:
                stats.microinstructions += 1
        if self._pending_name is not None and not held:
            # The dispatch we saw during this cycle takes effect now.
            nxt = self._pending_name
            self._pending_name = None
            self._current = nxt
            self.stats.setdefault(nxt, OpcodeStats()).dispatches += 1

    # --- results ------------------------------------------------------------

    def table(self) -> Dict[str, OpcodeStats]:
        return dict(self.stats)

    def mean(self, name: str) -> OpcodeStats:
        return self.stats.get(name, OpcodeStats())

    def class_mean(self, names) -> float:
        """Mean microinstructions across several opcode classes."""
        total_u = sum(self.stats[n].microinstructions for n in names if n in self.stats)
        total_d = sum(self.stats[n].dispatches for n in names if n in self.stats)
        return total_u / total_d if total_d else 0.0

    def class_cycles(self, names) -> float:
        total_c = sum(self.stats[n].cycles for n in names if n in self.stats)
        total_d = sum(self.stats[n].dispatches for n in names if n in self.stats)
        return total_c / total_d if total_d else 0.0
