"""Deterministic service-level fault injection (DESIGN.md 5.10).

PR 2 taught the *machine* to misbehave on a seeded schedule
(:class:`repro.fault.InjectionPlan`); this module does the same one
layer up, to the *fleet*: worker processes SIGKILLed mid-request,
host-protocol messages lost or garbled in transit, stalled workers
whose replies arrive too late to matter, and spool checkpoint files
corrupted or truncated on disk.

Everything is pure data, mirroring the machine-level design.  A
:class:`ServiceFaultConfig` says how many faults of each kind to
generate and over which operation window; :meth:`ServiceFaultPlan.
from_config` expands it deterministically into a sorted schedule of
:class:`ServiceFaultEvent` objects.  Events are indexed by *operation
count*, not wall clock: transport events fire on the fleet's Nth
dispatch to a forked worker, spool events on the Nth eviction write.
An event fires at the first matching operation at or after its index
and is consumed exactly once, so a given (seed, parameters) pair is
one reproducible storm.

The :class:`ChaosInjector` is the consuming cursor the
:class:`~repro.service.fleet.Fleet` polls.  Injection deliberately
targets only the *service* machinery -- worker processes, pipes, spool
files -- never the simulated machines, so a chaos run that recovers
correctly produces a results artifact byte-identical to a clean serial
run: that is the fleet-level analogue of PR 5's recovery-convergence
criterion, and the ``service-chaos`` CI job enforces it at workers
1/2/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from ..errors import ConfigError
from ..fault.plan import Draw, SeededPlan, seeded_schedule


class ServiceFaultKind(Enum):
    """What kind of service-level misbehaviour an event models."""

    WORKER_CRASH = "worker_crash"        #: SIGKILL a worker mid-request
    MESSAGE_DROP = "message_drop"        #: request lost before delivery
    REPLY_GARBLE = "reply_garble"        #: reply corrupted in transit
    WORKER_STALL = "worker_stall"        #: reply delayed past the timeout
    SPOOL_CORRUPT = "spool_corrupt"      #: flip a byte of a spool file
    SPOOL_TRUNCATE = "spool_truncate"    #: truncate a spool file


#: Which injection channel consumes events of each kind: ``transport``
#: events fire on dispatches to forked workers, ``spool`` events on
#: eviction checkpoint writes (which the load test is guaranteed to
#: read back, so corruption *detection* is deterministic too).
CHANNEL_OF: Dict[ServiceFaultKind, str] = {
    ServiceFaultKind.WORKER_CRASH: "transport",
    ServiceFaultKind.MESSAGE_DROP: "transport",
    ServiceFaultKind.REPLY_GARBLE: "transport",
    ServiceFaultKind.WORKER_STALL: "transport",
    ServiceFaultKind.SPOOL_CORRUPT: "spool",
    ServiceFaultKind.SPOOL_TRUNCATE: "spool",
}


@dataclass(frozen=True)
class ServiceFaultEvent:
    """One scheduled service fault.

    ``op`` is the earliest operation index (per channel, 1-based) at
    which the event may fire; the injector delivers it at the first
    matching operation at or after that index.  ``arg`` is
    kind-specific: for spool events it selects the byte to flip or the
    truncation point (modulo the file size).
    """

    op: int
    kind: ServiceFaultKind
    arg: int = 0

    @property
    def channel(self) -> str:
        return CHANNEL_OF[self.kind]


@dataclass(frozen=True)
class ServiceFaultConfig:
    """Seeded service-fault generation parameters.

    All fields are plain ints, mirroring :class:`~repro.fault.plan.
    FaultConfig`, so the config can ride through JSON and CLI flags
    unchanged.  Counts say how many events of each kind the plan
    contains; the generator spreads them deterministically over
    ``[first_op, last_op]`` (transport channel) and
    ``[first_spool, last_spool]`` (spool channel).
    """

    seed: int = 1
    worker_crashes: int = 0
    message_drops: int = 0
    reply_garbles: int = 0
    worker_stalls: int = 0
    spool_corruptions: int = 0
    spool_truncations: int = 0
    first_op: int = 1
    last_op: int = 400
    first_spool: int = 1
    last_spool: int = 40

    def __post_init__(self) -> None:
        for name in (
            "worker_crashes", "message_drops", "reply_garbles",
            "worker_stalls", "spool_corruptions", "spool_truncations",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} cannot be negative")
        if self.first_op < 1 or self.last_op < self.first_op:
            raise ConfigError("need 1 <= first_op <= last_op")
        if self.first_spool < 1 or self.last_spool < self.first_spool:
            raise ConfigError("need 1 <= first_spool <= last_spool")

    @property
    def total_events(self) -> int:
        return (
            self.worker_crashes + self.message_drops + self.reply_garbles
            + self.worker_stalls + self.spool_corruptions
            + self.spool_truncations
        )


#: The demo storm the chaos CLI, the recovery benchmark, and the
#: ``service-chaos`` CI job default to: enough of every fault kind to
#: exercise every recovery path, early enough in the run to be
#: guaranteed to fire at workers 1, 2, and 4.
CHAOS_TEMPLATE = {
    "worker_crashes": 3,
    "message_drops": 2,
    "reply_garbles": 2,
    "worker_stalls": 2,
    "spool_corruptions": 2,
    "spool_truncations": 1,
    "first_op": 5,
    "last_op": 120,
    "first_spool": 1,
    "last_spool": 30,
}


class ServiceFaultPlan(SeededPlan):
    """A realized schedule of service-fault events, grouped by channel."""

    _index = "op"
    _channel = "channel"

    @classmethod
    def from_config(cls, config: ServiceFaultConfig) -> "ServiceFaultPlan":
        ops = (config.first_op, config.last_op)
        spools = (config.first_spool, config.last_spool)
        events = seeded_schedule(config.seed, [
            Draw(ServiceFaultKind.WORKER_CRASH, config.worker_crashes, *ops),
            Draw(ServiceFaultKind.MESSAGE_DROP, config.message_drops, *ops),
            Draw(ServiceFaultKind.REPLY_GARBLE, config.reply_garbles, *ops),
            Draw(ServiceFaultKind.WORKER_STALL, config.worker_stalls, *ops),
            Draw(ServiceFaultKind.SPOOL_CORRUPT, config.spool_corruptions,
                 *spools, arg_bound=1 << 12),
            Draw(ServiceFaultKind.SPOOL_TRUNCATE, config.spool_truncations,
                 *spools, arg_bound=1 << 12),
        ])
        return cls(ServiceFaultEvent(*event) for event in events)


class ChaosInjector:
    """The consuming cursor: one plan, fired once, in op order.

    The fleet advances ``next_transport()`` on every dispatch to a
    forked worker (recovery traffic is exempt, so a storm cannot recurse
    into its own cleanup) and ``next_spool()`` on every eviction write.
    ``fired`` accumulates a trace of delivered events for the stderr
    report -- chaos is observable, never part of the results artifact.
    """

    def __init__(self, plan: ServiceFaultPlan) -> None:
        self.plan = plan
        self._transport = list(plan.schedule("transport"))
        self._spool = list(plan.schedule("spool"))
        self.transport_ops = 0
        self.spool_ops = 0
        self.fired: List[Dict[str, object]] = []

    def _next(self, queue: List[ServiceFaultEvent], index: int) -> Optional[ServiceFaultEvent]:
        if queue and queue[0].op <= index:
            event = queue.pop(0)
            self.fired.append({
                "op": index, "scheduled": event.op,
                "kind": event.kind.value, "arg": event.arg,
            })
            return event
        return None

    def next_transport(self) -> Optional[ServiceFaultEvent]:
        """The event due at this dispatch, if any (consumed once)."""
        self.transport_ops += 1
        return self._next(self._transport, self.transport_ops)

    def next_spool(self) -> Optional[ServiceFaultEvent]:
        """The event due at this eviction write, if any (consumed once)."""
        self.spool_ops += 1
        return self._next(self._spool, self.spool_ops)

    @property
    def pending(self) -> int:
        return len(self._transport) + len(self._spool)

    def stats(self) -> Dict[str, int]:
        return {
            "chaos_planned": len(self.plan),
            "chaos_fired": len(self.fired),
            "chaos_pending": self.pending,
        }
