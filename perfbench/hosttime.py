"""Host time for the end-to-end metrics: CPU time at a fixed host pace.

The benchmark runs on a few cores of a shared host.  There the wall
clock of a run also counts the time the host gives the cores to someone
else (steal time) and the time a process waits for a core, and even CPU
time drifts by +-10% from minute to minute as other tenants load the
same physical cores.  Both vary from run to run by more than a change
to the program would, so the end-to-end metrics are taken in two steps:

1. **CPU time on the critical path.**  The kernel's per-process CPU
   clocks advance only while a process runs and exclude steal time.  A
   request's time is the CPU time the benchmark process (client and
   frontend threads, the fleet's coordinator) spent during it, plus that
   of the busiest fleet worker: workers of one round run in parallel, so
   the busiest one is the part of their work the client waits for.
   With the host to itself this is close to the request's wall-clock
   latency (both are printed on stderr).  Waits that burn no CPU
   anywhere are not counted; none are deliberate in these workloads.
2. **Rescaled to a fixed pace.**  Between steps (inputs, rounds) the
   benchmark times a fixed probe on each core (:class:`Pace`).
   Every host time of a run is multiplied by ``REFERENCE_PROBE_S`` over
   the run's typical probe time, so a run on cores that are 8% slow for
   the minute reads the same as one on normal cores.  The probe is the
   benchmark's own code: a change to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from typing import Callable, Dict, Iterable, List, Tuple

#: The probe time that defines the reference pace (about what
#: :func:`_probe` takes on a 2-core x86 guest of a shared host).
REFERENCE_PROBE_S = 0.005

#: Linux's clockid for the process-wide CPU clock of *pid*
#: (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``).
_CPUCLOCK_SCHED = 2


def _process_clock(pid: int) -> int:
    return ((~pid) << 3) | _CPUCLOCK_SCHED


def _worker_seconds(pid: int) -> float:
    try:
        return time.clock_gettime(_process_clock(pid))
    except OSError:
        return 0.0  # reaped (a killed worker): its time is lost


Mark = Tuple[float, Dict[int, float]]


class CriticalPath:
    """CPU seconds of this process plus the busiest of *workers*.

    *workers* returns the pids of the current worker processes; it is
    asked on every reading, so respawned workers are followed.  A pid
    first seen after a mark started at zero CPU time (a fresh fork).
    """

    def __init__(self, workers: Callable[[], Iterable[int]] = tuple) -> None:
        self._workers = workers

    def mark(self) -> Mark:
        return time.process_time(), {
            pid: _worker_seconds(pid) for pid in self._workers()
        }

    def since(self, mark: Mark) -> Tuple[float, float]:
        """(own CPU seconds, busiest worker's CPU seconds) since *mark*."""
        own, before = mark
        now = time.process_time()
        busiest = 0.0
        for pid in self._workers():
            busiest = max(busiest, _worker_seconds(pid) - before.get(pid, 0.0))
        return now - own, busiest


_RECORDS = [[i, "w%d" % i, i * 0.5, [i & 7, i & 15]] for i in range(600)]
_BLOCK = bytearray(4 << 20)


def _probe() -> float:
    """CPU seconds of a fixed task: the core's pace now.

    An interpreter loop (the simulator's kind of work), then a JSON round
    trip, a SHA-256 and a large copy (the kind of work machine-state
    encoding, checksums and IPC do).
    """
    start = time.process_time()
    total = 0
    for i in range(20000):
        total += i * i % 7
    json.loads(json.dumps(_RECORDS, separators=(",", ":")))
    hashlib.sha256(memoryview(_BLOCK)[: 512 << 10]).digest()
    bytes(_BLOCK)
    return time.process_time() - start


class Pace:
    """The host's pace over a run, probed on every core between steps.

    The calling thread runs the probe once pinned to each core the
    process may use (the fleet's workers run on all of them), then gets
    its old affinity back.  ``factor()`` turns the run's CPU seconds into
    reference-pace seconds: ``REFERENCE_PROBE_S`` over the mean, across
    cores, of each core's median probe time.  ``seconds`` is the CPU
    time the probes took, which the caller leaves out of its totals.
    """

    def __init__(self) -> None:
        self._cpus = sorted(os.sched_getaffinity(0))
        self.samples: Dict[int, List[float]] = {cpu: [] for cpu in self._cpus}
        self.seconds = 0.0

    def measure(self) -> None:
        start = time.process_time()
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                self.samples[cpu].append(_probe())
        finally:
            os.sched_setaffinity(0, self._cpus)
        self.seconds += time.process_time() - start

    def probe_ms(self) -> float:
        """Mean across cores of the median probe time, in ms."""
        return 1000.0 * statistics.mean(
            statistics.median(times) for times in self.samples.values()
        )

    def factor(self) -> float:
        return REFERENCE_PROBE_S * 1000.0 / self.probe_ms()
