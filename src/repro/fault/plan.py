"""Deterministic fault-injection schedules.

The real Dorado survived storage and I/O errors: single-bit storage
errors were corrected by ECC, double-bit errors latched a fault for the
fault task, and disk microcode retried transfers.  The simulator
reproduces that robustness under test by *injecting* faults from a
seeded schedule -- an :class:`InjectionPlan` -- instead of waiting for
alpha particles.

Everything here is pure data.  A :class:`FaultConfig` (hashable, so it
can ride inside the frozen :class:`~repro.config.MachineConfig`)
describes *how many* faults of each kind to generate and over which
cycle window; :meth:`InjectionPlan.from_config` expands it with a
deterministic generator into a sorted schedule of :class:`FaultEvent`
objects keyed by (cycle, component).  An event fires at the first
matching operation at-or-after its cycle, which makes injection
independent of the simulator's cycle implementation: the plan-cache and
interpretive cores count cycles identically, so they consume the same
events at the same operations and produce identical fault traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterable, List, Tuple

from ..errors import ConfigError


class FaultKind(Enum):
    """What kind of hardware misbehaviour an event models."""

    ECC_CORRECTABLE = "ecc_correctable"      #: single-bit storage error
    ECC_UNCORRECTABLE = "ecc_uncorrectable"  #: double-bit storage error
    MAP = "map"                              #: spurious map (page) fault
    WRITE_PROTECT = "write_protect"          #: spurious write-protect fault
    BOUNDS = "bounds"                        #: spurious bounds violation
    DISK_TRANSFER = "disk_transfer"          #: disk word-transfer error


#: Which simulated component consumes events of each kind.
COMPONENT_OF: Dict[FaultKind, str] = {
    FaultKind.ECC_CORRECTABLE: "storage",
    FaultKind.ECC_UNCORRECTABLE: "storage",
    FaultKind.MAP: "map",
    FaultKind.WRITE_PROTECT: "map",
    FaultKind.BOUNDS: "map",
    FaultKind.DISK_TRANSFER: "disk",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``cycle`` is the earliest machine cycle at which the event may fire;
    the injector delivers it at the first matching operation at or after
    that cycle.  ``arg`` is kind-specific: for ECC events it selects the
    word within the munch and the bit(s) to flip; for disk events it is
    the number of consecutive failed transfer attempts (persistence).
    """

    cycle: int
    kind: FaultKind
    arg: int = 0

    @property
    def component(self) -> str:
        return COMPONENT_OF[self.kind]


@dataclass(frozen=True)
class FaultRecord:
    """One entry of a run's fault trace (see ``FaultInjector.trace``)."""

    cycle: int
    component: str
    kind: str
    address: int = 0
    detail: str = ""


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault-generation parameters.

    All fields are plain ints so the config stays hashable inside the
    frozen :class:`~repro.config.MachineConfig`.  Counts say how many
    events of each kind the plan contains; the generator spreads them
    deterministically over ``[first_cycle, last_cycle]``.

    Attributes:
        seed: Generator seed; identical seeds give identical plans.
        storage_correctable: Single-bit storage errors (ECC corrects
            them in flight; only a counter and a trace entry result).
        storage_uncorrectable: Double-bit storage errors (data is
            delivered corrupted and the storage fault latch is set).
        map_faults: Spurious map faults on processor references.
        write_protect_faults: Spurious write-protect faults (fire on the
            first *store* at or after their cycle).
        bounds_faults: Spurious bounds violations.
        disk_errors: Disk word-transfer errors.
        disk_error_persistence: Failed attempts per disk error; when it
            exceeds the controller's retry budget the sector goes bad
            and is remapped to a spare.
        first_cycle: Earliest cycle any event may fire.
        last_cycle: Latest cycle assigned to a generated event.
    """

    seed: int = 1
    storage_correctable: int = 0
    storage_uncorrectable: int = 0
    map_faults: int = 0
    write_protect_faults: int = 0
    bounds_faults: int = 0
    disk_errors: int = 0
    disk_error_persistence: int = 1
    first_cycle: int = 0
    last_cycle: int = 100_000

    def __post_init__(self) -> None:
        for name in (
            "storage_correctable", "storage_uncorrectable", "map_faults",
            "write_protect_faults", "bounds_faults", "disk_errors",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} cannot be negative")
        if self.disk_error_persistence < 1:
            raise ConfigError("disk_error_persistence must be at least 1")
        if self.first_cycle < 0 or self.last_cycle < self.first_cycle:
            raise ConfigError("need 0 <= first_cycle <= last_cycle")

    @property
    def total_events(self) -> int:
        return (
            self.storage_correctable + self.storage_uncorrectable
            + self.map_faults + self.write_protect_faults
            + self.bounds_faults + self.disk_errors
        )


class Lcg:
    """The repo's usual deterministic pseudo-random source."""

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x5DEECE66D) & 0xFFFFFFFF or 1

    def next(self, bound: int) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0xFFFFFFFF
        return (self.state >> 8) % bound


@dataclass(frozen=True)
class Draw:
    """``count`` events of one ``kind`` for :func:`seeded_schedule`.

    Each event's index falls in ``[first, last]``; its arg is drawn
    from ``[0, arg_bound)`` when ``arg_bound`` is nonzero, else it is
    the fixed ``arg``.
    """

    kind: Any
    count: int
    first: int
    last: int
    arg: int = 0
    arg_bound: int = 0


def seeded_schedule(seed: int, draws: Iterable[Draw]) -> List[Tuple[int, Any, int]]:
    """Expand *draws*, in order, into ``(index, kind, arg)`` triples.

    One :class:`Lcg` seeded with *seed* serves every draw: each event
    takes its index first, then (if drawn) its arg.  That order is part
    of every seeded plan -- the machine-level :class:`InjectionPlan` and
    the service-level ``ServiceFaultPlan`` -- so changing it changes
    every recorded storm.
    """
    rng = Lcg(seed)
    out: List[Tuple[int, Any, int]] = []
    for draw in draws:
        span = draw.last - draw.first + 1
        for _ in range(draw.count):
            index = draw.first + rng.next(span)
            arg = rng.next(draw.arg_bound) if draw.arg_bound else draw.arg
            out.append((index, draw.kind, arg))
    return out


class SeededPlan:
    """A realized schedule of events, sorted and grouped by channel.

    Events sort by (index, kind, arg).  Subclasses name the event
    attribute holding the index (``_index``) and the one naming the
    consuming channel (``_channel``).
    """

    _index: str
    _channel: str

    def __init__(self, events: Iterable[Any] = ()) -> None:
        self.events: Tuple[Any, ...] = tuple(sorted(
            events, key=lambda e: (getattr(e, self._index), e.kind.value, e.arg)
        ))

    @classmethod
    def empty(cls):
        return cls(())

    def schedule(self, channel: str) -> List[Any]:
        """The channel's events, earliest first."""
        return [e for e in self.events if getattr(e, self._channel) == channel]

    def __len__(self) -> int:
        return len(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events


class InjectionPlan(SeededPlan):
    """A realized schedule of fault events, grouped by component."""

    _index = "cycle"
    _channel = "component"

    @classmethod
    def from_config(cls, config: FaultConfig) -> "InjectionPlan":
        window = (config.first_cycle, config.last_cycle)
        events = seeded_schedule(config.seed, [
            Draw(FaultKind.ECC_CORRECTABLE, config.storage_correctable,
                 *window, arg_bound=1 << 12),
            Draw(FaultKind.ECC_UNCORRECTABLE, config.storage_uncorrectable,
                 *window, arg_bound=1 << 12),
            Draw(FaultKind.MAP, config.map_faults, *window),
            Draw(FaultKind.WRITE_PROTECT, config.write_protect_faults, *window),
            Draw(FaultKind.BOUNDS, config.bounds_faults, *window),
            Draw(FaultKind.DISK_TRANSFER, config.disk_errors, *window,
                 arg=config.disk_error_persistence),
        ])
        return cls(FaultEvent(*event) for event in events)
