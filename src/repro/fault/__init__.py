"""Deterministic fault injection (DESIGN.md section 5.2).

A seeded :class:`FaultConfig` inside :class:`~repro.config.MachineConfig`
expands into an :class:`InjectionPlan` -- a schedule of fault events
keyed by cycle and component -- which a per-machine
:class:`FaultInjector` delivers into storage (ECC-correctable and
uncorrectable data errors), the map (spurious map/write-protect/bounds
faults), and the disk controller (transfer errors with bounded
retry/backoff and bad-sector remapping).  Injection is off by default
and adds nothing to the fast path when disabled.
"""

from .injector import EccFilter, FaultInjector
from .plan import (
    Draw,
    FaultConfig,
    FaultEvent,
    FaultKind,
    FaultRecord,
    InjectionPlan,
    Lcg,
    SeededPlan,
    seeded_schedule,
)

__all__ = [
    "Draw",
    "EccFilter",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultRecord",
    "InjectionPlan",
    "Lcg",
    "SeededPlan",
    "seeded_schedule",
]
