"""The simulation service (DESIGN.md 5.9).

Layer 1 -- :mod:`repro.service.session` -- wraps one workload's
lifecycle (boot-from-config or restore-from-checkpoint, bounded slices,
supervised recovery, canonical-JSON suspend/resume, per-session
metering) in a :class:`Session`; ``python -m repro`` and the experiment
matrix are thin clients of it.

Layer 2 -- :mod:`repro.service.fleet` and friends -- multiplexes many
named sessions onto a pool of worker processes with LRU eviction of
cold sessions to checkpoint files, warm-restore on any worker
(migration), and supervisor-backed crash recovery, behind an asyncio
front end::

    python -m repro.service serve --workers 4
    python -m repro.service loadtest --sessions 60 --workers 4

The load-test harness is the determinism gate: the same scripted
request stream yields byte-identical results artifacts at any worker
count, including serial in-process execution.

Layer 3 -- :mod:`repro.service.chaos` and :mod:`repro.service.spool`
(DESIGN.md 5.10) -- makes the gate hold under fire: a seeded
:class:`ServiceFaultPlan` SIGKILLs workers mid-request, drops and
garbles protocol messages, and corrupts spool checkpoints, while the
fleet's recovery machinery (idempotent retries, respawn + warm-restore
from each session's one checksummed spool file, journal replay -- from
the admission spec when that file is corrupt -- and degradation to
inline hosts) keeps the artifact byte-identical to the clean run::

    python -m repro.service chaos --workers 4
"""

from .chaos import (
    CHAOS_TEMPLATE,
    ChaosInjector,
    ServiceFaultConfig,
    ServiceFaultEvent,
    ServiceFaultKind,
    ServiceFaultPlan,
)
from .fleet import Fleet, InlineHost, ProcessHost, SessionHost
from .frontend import Frontend
from .loadtest import build_script, loadtest_json, run_loadtest
from .spool import (
    SPOOL_FORMAT_VERSION,
    spool_decode,
    spool_encode,
    spool_read,
    spool_write,
)
from .session import (
    SERVICE_FORMAT_VERSION,
    Session,
    arch_hash,
    booted_workload,
    clear_boot_cache,
    config_from_signature,
    valid_session_name,
)

__all__ = [
    "CHAOS_TEMPLATE",
    "ChaosInjector",
    "Fleet",
    "Frontend",
    "InlineHost",
    "ProcessHost",
    "SERVICE_FORMAT_VERSION",
    "SPOOL_FORMAT_VERSION",
    "ServiceFaultConfig",
    "ServiceFaultEvent",
    "ServiceFaultKind",
    "ServiceFaultPlan",
    "Session",
    "SessionHost",
    "arch_hash",
    "booted_workload",
    "build_script",
    "clear_boot_cache",
    "config_from_signature",
    "loadtest_json",
    "run_loadtest",
    "spool_decode",
    "spool_encode",
    "spool_read",
    "spool_write",
    "valid_session_name",
]
