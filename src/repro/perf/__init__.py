"""Performance measurement: workloads, profilers, and the paper harness.

:mod:`workloads` builds ready-to-run byte-code scenarios per emulator;
:mod:`measure` holds the benchmark timing harness and profiles
microinstructions/cycles per macroinstruction class; :mod:`instrument` is the instrumentation bus every observer
attaches through (plus the structured metrics snapshot); :mod:`report`
regenerates every quantitative claim of the paper's section 7 (see
EXPERIMENTS.md for the paper-vs-measured record).
"""

from .instrument import InstrumentationBus, metrics_snapshot
from .measure import OpcodeProfiler
from .tracing import PipelineTracer
from .workloads import Workload

__all__ = [
    "InstrumentationBus",
    "OpcodeProfiler",
    "PipelineTracer",
    "Workload",
    "metrics_snapshot",
]
