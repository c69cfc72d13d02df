"""Checks on the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import catalog  # noqa: E402
import core_long  # noqa: E402
import hosttime  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
from spans import Tracer, attribute, link_workers  # noqa: E402


def _reference():
    with open(os.path.join(BENCH, "reference.json")) as f:
        return json.load(f)


# -- the stream generator is a pure function of its seed -------------------

@pytest.mark.parametrize("workload", sorted(catalog.SERVICE_PLANS))
def test_tenant_streams_depend_only_on_seed(workload):
    def take(seed):
        return [list(itertools.islice(s, 20))
                for s in catalog.tenant_streams(workload, seed)]

    assert take(7) == take(7)
    assert take(7) != take(8)


def test_core_stream_depends_only_on_seed():
    def take(seed):
        return [e["id"] for e in itertools.islice(catalog.core_stream(seed), 30)]

    assert take(3) == take(3)
    assert take(3) != take(4)


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_every_block_is_a_permutation_of_the_catalog(seed):
    ids = sorted(e["id"] for e in catalog.CORE_INPUTS)
    stream = catalog.core_stream(seed)
    for _ in range(3):
        block = [next(stream)["id"] for _ in ids]
        assert sorted(block) == ids


def test_faulted_slots_carry_only_faulted_sessions():
    for workload in catalog.SERVICE_PLANS:
        for slot, stream in enumerate(catalog.tenant_streams(workload, 5)):
            for tenant in itertools.islice(stream, 12):
                assert (tenant["fault"] is not None) == catalog.slot_is_faulted(slot)


@pytest.mark.parametrize("workload", sorted(catalog.SERVICE_PLANS))
def test_slot_blocks_share_one_length_and_cover_the_catalog(workload):
    plan = catalog.SERVICE_PLANS[workload]
    sessions = catalog.SESSIONS[plan["catalog"]]
    slots = [catalog.slot_entries(workload, s) for s in range(plan["population"])]
    assert len({len(entries) for entries in slots}) == 1
    drawn = sorted(e["id"] for entries in slots for e in entries)
    assert drawn == sorted(e["id"] for e in sessions["clean"] + sessions["faulted"])
    assert catalog.period_rounds(workload) == len(slots[0]) * sessions["slices"]


def test_whole_periods_stop_at_the_boundary_nearest_the_limit():
    stop = run._whole_periods(10, 20.0)
    assert not stop(0, 0.0)
    assert not stop(5, 100.0)     # mid-period: finish it
    assert not stop(10, 13.0)     # the next boundary, ~26 s, is nearer 20
    assert stop(10, 14.0)         # 14 s is nearer than the next, ~28 s
    assert not stop(20, 15.0)     # 15 s vs ~22.5 s: go on
    assert stop(20, 17.0)         # 17 s vs ~25.5 s: stop
    assert stop(10, 25.0)         # past the limit already


# -- the recorded reference still describes the program --------------------

def test_reference_matches_a_fresh_serial_run():
    reference = _reference()
    entry = catalog.CORE_INPUTS[0]
    assert core_long.reference_entry(entry)["counters"] == \
        reference["core"][entry["id"]]["counters"]
    churn = catalog.SESSIONS["churn"]
    faulted = churn["faulted"][0]
    assert service.reference_entry(faulted, churn) == \
        reference["sessions"]["churn"][faulted["id"]]


# -- tracing never changes the simulated output ----------------------------

def test_core_output_identical_with_tracing_on_and_off(tmp_path):
    from repro.config import PRODUCTION

    reference = _reference()
    first = lambda n, _elapsed: n >= 3  # noqa: E731
    plain = core_long.run_pass(catalog.core_stream(11), first, reference, PRODUCTION)
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        traced = core_long.run_pass(catalog.core_stream(11), first, reference,
                                    PRODUCTION, tracer=tracer)
    finally:
        tracer.uninstall()
    assert plain["problems"] == [] and traced["problems"] == []
    assert json.dumps(plain["records"]) == json.dumps(traced["records"])
    assert any(s[1] == "core.run" for s in tracer.spans)


def test_service_output_identical_with_tracing_on_and_off(tmp_path):
    plan = catalog.SERVICE_PLANS["service_churn"]
    reference = _reference()
    rounds = lambda r, _elapsed: r >= 6  # noqa: E731

    def run(tag, tracer=None):
        spool = tmp_path / tag
        spool.mkdir()
        svc = service.Service(plan, str(spool))
        svc.client.tracer = tracer
        try:
            return service.run_loop(svc.client, plan,
                                    catalog.tenant_streams("service_churn", 3),
                                    rounds, reference)
        finally:
            svc.client.tracer = None
            svc.close()

    plain = run("plain")
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        traced = run("traced", tracer)
    finally:
        tracer.uninstall()
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["records"], "the window should complete some sessions"
    assert json.dumps(plain["records"], sort_keys=True) == \
        json.dumps(traced["records"], sort_keys=True)
    spans = link_workers(tracer.collect())
    names = {s[1] for s in spans}
    # Worker-side layers reach the merged trace, linked to round trips.
    assert {"core.run", "session.run_slice", "session.suspend",
            "session.resume", "spool.write", "fleet.ipc"} <= names
    ipc = {s[0] for s in spans if s[1] == "fleet.ipc"}
    hosts = [s for s in spans if s[1] == "fleet.host"]
    assert hosts and all(s[4] in ipc for s in hosts)


# -- host time --------------------------------------------------------------

def _spin(seconds, conn):
    end = hosttime.time.process_time() + seconds
    while hosttime.time.process_time() < end:
        pass
    conn.send("spun")
    conn.recv()  # stay unreaped until the parent has read our clock


def test_critical_path_counts_this_process_and_the_busiest_worker():
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    pipes, procs = [], []
    clock = hosttime.CriticalPath(lambda: [p.pid for p in procs])
    mark = clock.mark()
    try:
        for seconds in (0.3, 0.1):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_spin, args=(seconds, child))
            proc.start()
            pipes.append(parent)
            procs.append(proc)
        for parent in pipes:
            assert parent.recv() == "spun"
        own, busiest = clock.since(mark)
    finally:
        for parent in pipes:
            parent.send("exit")
        for proc in procs:
            proc.join(10)
    assert 0.29 <= busiest < 0.35
    assert 0.0 <= own < 0.25


def test_pace_rescales_to_the_reference_probe_time():
    pace = hosttime.Pace()
    before = os.sched_getaffinity(0)
    pace.measure()
    assert os.sched_getaffinity(0) == before
    assert pace.seconds > 0
    assert all(len(times) == 1 for times in pace.samples.values())
    pace.samples = {0: [0.004, 0.006, 0.018], 1: [0.008]}
    assert pace.probe_ms() == pytest.approx((6.0 + 8.0) / 2)
    assert pace.factor() == pytest.approx(hosttime.REFERENCE_PROBE_S / 0.007)


# -- self-time attribution --------------------------------------------------

def test_attribution_splits_parallel_children_and_adds_up():
    spans = [
        ["r", "round", 0.0, 10.0, None, 1, None],
        ["a", "work", 2.0, 6.0, "r", 1, None],
        ["b", "work", 4.0, 8.0, "r", 1, None],
        ["c", "leaf", 5.0, 6.0, "a", 1, None],
    ]
    self_time, unattributed = attribute(spans, -1.0, 12.0)
    assert unattributed == pytest.approx(3.0)
    # 0..2 and 8..10 round alone; 2..4 a alone; 4..5 a and b share;
    # 5..6 leaf c and b share; 6..8 b alone.
    assert self_time["round"] == pytest.approx(4.0)
    assert self_time["leaf"] == pytest.approx(0.5)
    assert self_time["work"] == pytest.approx(2.0 + 1.0 + 0.5 + 2.0)
    assert sum(self_time.values()) + unattributed == pytest.approx(13.0)


def test_attribution_clips_to_the_window():
    spans = [["r", "round", 0.0, 10.0, None, 1, None]]
    self_time, unattributed = attribute(spans, 4.0, 6.0)
    assert self_time == {"round": pytest.approx(2.0)}
    assert unattributed == 0.0
