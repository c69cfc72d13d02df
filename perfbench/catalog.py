"""Benchmark inputs: fixed catalogs, and the seeded streams drawn from them.

Every input the benchmark can generate is an entry of a fixed catalog,
so its simulated outcome is known in advance and recorded in
``reference.json``: core inputs by their simulated counters, service
sessions by the SHA-256 of their canonical result record.  The seed
decides the *order* in which entries arrive, which is what the service
layers are sensitive to:
which sessions share a worker and a round, which get evicted, and where
they resume.

A stream is a sequence of *blocks*; each block is one seeded
permutation of a fixed set of entries (the whole core catalog; a
service tenant slot's share of its catalog).  The benchmark measures
whole blocks (``core_long``) or whole *periods* -- the rounds in which
every tenant slot runs one block (``period_rounds``) -- so every seed
measures the same mix of work, and the figures of two seeds differ by
order and scheduling, not by how much of which work they happened to
draw.

Everything here is a pure function of its arguments (no clock, no
global random state); ``tests/test_perfbench.py`` checks that.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, List, Optional

#: FaultConfig field template for faulted sessions: the load test's
#: recoverable plan (one uncorrectable ECC error plus one spurious map
#: fault, early in the run).  Each faulted catalog entry fixes its own
#: fault seed, so its recovered result is known in advance.
FAULT_TEMPLATE = {
    "storage_uncorrectable": 1,
    "map_faults": 1,
    "first_cycle": 0,
    "last_cycle": 2200,
}

#: ``core_long``: long inputs on the PRODUCTION (traced) configuration.
#: Args are well above the workload defaults so each input spends tens
#: of thousands of cycles in its hot loops.
CORE_INPUTS: List[Dict[str, Any]] = [
    {"id": "mesa_loop_sum", "kind": "workload", "args": {"n": 1500}},
    {"id": "mesa_fib", "kind": "workload", "args": {"k": 14}},
    {"id": "mesa_field_kernel", "kind": "workload", "args": {"iters": 800}},
    {"id": "mesa_bubble_sort", "kind": "workload", "args": {"n": 40}},
    {"id": "mesa_mul_kernel", "kind": "workload", "args": {"iters": 700}},
    {"id": "lisp_list_sum", "kind": "workload", "args": {"n": 300}},
    {"id": "lisp_cons_kernel", "kind": "workload", "args": {"n": 160}},
    {"id": "bcpl_loop_sum", "kind": "workload", "args": {"n": 1500}},
    {"id": "smalltalk_counter", "kind": "workload", "args": {"sends": 400}},
    # E2's BitBlt inner loop on a larger rectangle, shift 5.
    {"id": "bitblt_copy", "kind": "bitblt",
     "args": {"words_per_row": 60, "rows": 48, "shift": 5}},
    # E4's fast-I/O display band, driven by run() slices until done.
    {"id": "display_band", "kind": "display", "args": {"munches": 512}},
]

#: Simulated cycles per ``run()`` call in ``core_long`` (the budget a
#: slice grants; the display band overshoots ``done`` by < one slice).
CORE_SLICE = 2000


def _session(workload: str, args: Dict[str, Any],
             fault_seed: Optional[int] = None) -> Dict[str, Any]:
    fault = None if fault_seed is None else dict(FAULT_TEMPLATE, seed=fault_seed)
    tag = "-".join(f"{k}{v}" for k, v in sorted(args.items()))
    ident = f"{workload}-{tag}" + ("" if fault is None else f"-f{fault_seed}")
    return {"id": ident, "workload": workload, "args": dict(args), "fault": fault}


#: Service session catalogs.  Every entry of a catalog halts in the same
#: number of slices (``slices`` grants of ``slice_cycles``; args tuned so
#: each runs 11.5 or 2.5 slices' worth of cycles), so the tenant slots
#: of the closed loop keep the phases they start with and every round
#: has the same make-up: the same number of sessions, of faulted ones,
#: of checkpoints due and of sessions halting.  Without that, a round's
#: latency depends on which sessions the seed happened to line up, and
#: the percentiles jump between seeds.
SESSIONS: Dict[str, Dict[str, Any]] = {
    # Long enough for the fleet's background checkpoint to fire once.
    "resident": {
        "slice_cycles": 1000,
        "slices": 12,
        "clean": [
            _session("mesa_loop_sum", {"n": 479}),
            _session("lisp_list_sum", {"n": 78}),
            _session("bcpl_loop_sum", {"n": 718}),
            _session("smalltalk_counter", {"sends": 145}),
            _session("mesa_field_kernel", {"iters": 287}),
            _session("lisp_cons_kernel", {"n": 42}),
        ],
        "faulted": [
            _session("mesa_loop_sum", {"n": 479}, fault_seed=11),
            _session("bcpl_loop_sum", {"n": 718}, fault_seed=12),
            _session("smalltalk_counter", {"sends": 145}, fault_seed=13),
        ],
    },
    # Short, so that sessions turn over while every round evicts.
    "churn": {
        "slice_cycles": 2000,
        "slices": 3,
        "clean": [
            _session("mesa_loop_sum", {"n": 208}),
            _session("lisp_list_sum", {"n": 33}),
            _session("bcpl_loop_sum", {"n": 312}),
            _session("smalltalk_counter", {"sends": 63}),
            _session("mesa_field_kernel", {"iters": 124}),
            _session("mesa_mul_kernel", {"iters": 102}),
        ],
        "faulted": [
            _session("mesa_loop_sum", {"n": 208}, fault_seed=21),
            _session("bcpl_loop_sum", {"n": 312}, fault_seed=22),
            _session("lisp_list_sum", {"n": 33}, fault_seed=23),
        ],
    },
}

#: The service workloads: which catalog, how many tenant slots the
#: closed loop keeps open (every third slot carries faulted sessions),
#: the fleet's live-session capacity, the background-checkpoint period
#: in acknowledged slices, and the rounds a traced run repeats.
SERVICE_PLANS: Dict[str, Dict[str, Any]] = {
    "service_resident": {
        "catalog": "resident", "population": 3, "capacity": 8,
        "checkpoint_every": 8, "trace_rounds": 48,
    },
    "service_churn": {
        "catalog": "churn", "population": 3, "capacity": 2,
        "checkpoint_every": 8, "trace_rounds": 10,
    },
}


def slot_is_faulted(slot: int) -> bool:
    """Every third tenant slot carries faulted, supervised sessions."""
    return slot % 3 == 2


#: Supervisor checkpoint interval (cycles) for faulted sessions, and
#: their retry budget -- the load test's settings.
CHECKPOINT_INTERVAL = 600
MAX_RETRIES = 4

def _key(seed: int, block: int, ident: str, position: int) -> bytes:
    return hashlib.sha256(f"{seed}/{block}/{position}/{ident}".encode()).digest()


def _block(entries: List[Dict[str, Any]], seed: int, block: int) -> List[Dict[str, Any]]:
    order = sorted(
        range(len(entries)),
        key=lambda i: _key(seed, block, entries[i]["id"], i),
    )
    return [entries[i] for i in order]


def core_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """``core_long`` inputs in seeded order, block after block, forever."""
    block = 0
    while True:
        yield from _block(CORE_INPUTS, seed, block)
        block += 1


def slot_entries(workload: str, slot: int) -> List[Dict[str, Any]]:
    """The catalog entries tenant slot *slot* draws its sessions from.

    The faulted slot draws from the whole faulted catalog; the clean
    catalog is dealt out between the clean slots, so that every slot's
    block has the same length.
    """
    plan = SERVICE_PLANS[workload]
    catalog = SESSIONS[plan["catalog"]]
    if slot_is_faulted(slot):
        return catalog["faulted"]
    clean_slots = [s for s in range(plan["population"]) if not slot_is_faulted(s)]
    return catalog["clean"][clean_slots.index(slot)::len(clean_slots)]


def period_rounds(workload: str) -> int:
    """Rounds in which every tenant slot runs exactly one block."""
    plan = SERVICE_PLANS[workload]
    lengths = {len(slot_entries(workload, s)) for s in range(plan["population"])}
    if len(lengths) != 1:
        raise ValueError(f"{workload}: tenant slots have blocks of {lengths} entries")
    return lengths.pop() * SESSIONS[plan["catalog"]]["slices"]


def tenant_streams(workload: str, seed: int) -> List[Iterator[Dict[str, Any]]]:
    """One endless stream of ``open`` requests per tenant slot.

    Each item is the request body the client sends (``op`` excluded)
    plus the catalog ``id`` its result is checked against.
    """
    def stream(slot: int) -> Iterator[Dict[str, Any]]:
        entries = slot_entries(workload, slot)
        count = 0
        block = 0
        while True:
            for entry in _block(entries, seed * 1000 + slot, block):
                yield {
                    "name": f"s{slot}-{count:05d}",
                    "workload": entry["workload"],
                    "args": dict(entry["args"]),
                    "fault": None if entry["fault"] is None else dict(entry["fault"]),
                    "id": entry["id"],
                }
                count += 1
            block += 1

    return [stream(slot) for slot in range(SERVICE_PLANS[workload]["population"])]
