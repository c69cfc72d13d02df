"""The service workloads: tenants over the frontend's JSON protocol.

One client thread speaks newline-delimited JSON over one loopback
connection to a :class:`~repro.service.frontend.Frontend`, served from
a background thread, fronting a :class:`~repro.service.fleet.Fleet` of
two forked workers.  The client is a closed loop: it keeps
``population`` tenant sessions open, sends one ``round`` granting every
open session a slice, reads each halted session's ``result``, checks it
against the recorded reference, ``close``\\ s it and ``open``\\ s the
next session of the seeded stream.

Request times are CPU time on the critical path (``hosttime``): this
process's CPU time during the request plus that of the busiest worker.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from catalog import CHECKPOINT_INTERVAL, MAX_RETRIES, SESSIONS
from hosttime import CriticalPath, Pace

WORKERS = 2


def record_digest(record: Dict[str, Any]) -> str:
    """SHA-256 of a session result record in canonical JSON form."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Client:
    """A blocking newline-JSON client timing each request.

    ``worker_seconds`` adds up, over all requests, the busiest worker's
    share of each request's time.
    """

    def __init__(self, port: int, clock: CriticalPath) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")
        self._clock = clock
        self.tracer = None
        self.worker_seconds = 0.0

    def call(self, request: Dict[str, Any]):
        """Send one request; return (reply, CPU seconds on its critical path)."""
        data = json.dumps(request).encode() + b"\n"
        tracer = self.tracer
        span = None
        if tracer is not None:
            tracer.request_id += 1
            span = tracer.begin("frontend.request")
            span[6] = {"op": request.get("op")}
            tracer.client_span = span[0]
        mark = self._clock.mark()
        self._file.write(data)
        self._file.flush()
        line = self._file.readline()
        own, worker = self._clock.since(mark)
        self.worker_seconds += worker
        if span is not None:
            tracer.client_span = None
            tracer.end(span, dict(span[6]))
        if not line:
            raise ConnectionError("frontend closed the connection")
        return json.loads(line), own + worker

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class Service:
    """Fleet + frontend thread + connected client, started and stopped."""

    def __init__(self, plan: Dict[str, Any], spool_dir: str) -> None:
        from repro.service import Fleet, Frontend, clear_boot_cache

        clock = CriticalPath(self._worker_pids)
        start = clock.mark()
        clear_boot_cache()  # every set-up boots its templates cold
        prewarm = sorted({
            (entry["workload"], tuple(sorted(entry["args"].items())))
            for entry in SESSIONS[plan["catalog"]]["clean"]
        })
        self.fleet = Fleet(
            workers=WORKERS,
            capacity=plan["capacity"],
            spool_dir=spool_dir,
            prewarm=[(w, dict(a), None) for w, a in prewarm],
            checkpoint_interval=CHECKPOINT_INTERVAL,
            max_retries=MAX_RETRIES,
            checkpoint_every=plan["checkpoint_every"],
        )
        frontend = Frontend(self.fleet)
        ready = threading.Event()
        bound: List[Any] = []

        def on_ready(address) -> None:
            bound.append(address)
            ready.set()

        self._thread = threading.Thread(
            target=asyncio.run,
            args=(frontend.serve("127.0.0.1", 0, ready=on_ready),),
            name="frontend",
        )
        self._thread.start()
        if not ready.wait(60):
            raise RuntimeError("frontend did not start listening")
        self.client = Client(bound[0][1], clock)
        reply, _ = self.client.call({"op": "ping"})
        if not reply.get("ok"):
            raise RuntimeError(f"frontend ping failed: {reply}")
        self.setup_seconds = sum(clock.since(start))

    def _worker_pids(self) -> List[int]:
        # The fleet has no public accessor for its workers' pids.
        from repro.service.fleet import ProcessHost

        fleet = getattr(self, "fleet", None)
        if fleet is None:
            return []
        return [host._proc.pid for host in fleet.hosts
                if isinstance(host, ProcessHost)]

    def stats(self) -> Dict[str, Any]:
        reply, _ = self.client.call({"op": "stats"})
        return reply.get("stats", {})

    def close(self) -> None:
        try:
            self.client.call({"op": "shutdown"})
            self.client.close()
        finally:
            self._thread.join(60)
            self.fleet.close()
        if self._thread.is_alive():
            raise RuntimeError("frontend thread did not stop")


def run_loop(client: Client, plan: Dict[str, Any], streams, stop,
             reference: Dict[str, Any], warmup: int = 0) -> Dict[str, Any]:
    """The closed loop: *warmup* rounds, then the measured window.

    The window lasts until ``stop(rounds, elapsed)`` (rounds done and
    wall-clock seconds since the window opened) is true.  Slot ``i``
    opens its first tenant before round ``i * slices // population``,
    spreading the slots' phases evenly; from then on a slot whose
    session halted opens the next one of its stream before the
    following round.  Rounds list the open sessions youngest first, so
    the one about to halt is touched last and is still live when its
    result is read, even when the fleet's capacity is below the
    population.  The warm-up covers that phase-in and each worker's
    first sessions.

    Returns, for the window: latency samples (CPU seconds on the
    critical path; a failed request is recorded as ``inf``, so it misses
    every latency limit), simulated cycles granted, sessions verified,
    ``elapsed`` wall-clock time, and ``busy``, the critical-path CPU time
    of the window: this process's CPU time plus the busiest worker's
    share of every request, less the host-pace probes timed before each
    round (``pace``).  For the whole run: the deterministic record of
    each completed session in completion order, the rounds run, and the
    request tallies.
    """
    catalog = SESSIONS[plan["catalog"]]
    expected = reference["sessions"][plan["catalog"]]
    population = plan["population"]
    records: List[Dict[str, Any]] = []
    problems: List[str] = []
    tally = {"attempted": 0, "failed": 0}
    slots: List[Optional[Dict[str, Any]]] = [None] * population
    last_cycles: Dict[str, int] = {}
    rounds = 0

    def open_window() -> Dict[str, Any]:
        return {
            "samples": {"open": [], "round": [], "result": []},
            "cycles": 0, "verified": 0, "pace": Pace(),
            "start": time.perf_counter(), "cpu": time.process_time(),
            "workers": client.worker_seconds,
        }

    window = open_window()

    def request(body: Dict[str, Any], kind: Optional[str]):
        tally["attempted"] += 1
        reply, seconds = client.call(body)
        ok = bool(reply.get("ok"))
        if kind is not None:
            window["samples"][kind].append(seconds if ok else float("inf"))
        if not ok:
            tally["failed"] += 1
            problems.append(f"{body['op']} {body.get('name', '')}: {reply}")
            return None
        return reply

    while True:
        if rounds == warmup and warmup:
            window = open_window()
        if rounds >= warmup and stop(rounds - warmup,
                                     time.perf_counter() - window["start"]):
            break
        for slot in range(population):
            if slots[slot] is not None:
                continue
            if rounds < slot * catalog["slices"] // population:
                continue
            tenant = next(streams[slot])
            body = {"op": "open", "name": tenant["name"],
                    "workload": tenant["workload"], "args": tenant["args"]}
            if tenant["fault"] is not None:
                body["fault"] = tenant["fault"]
            if request(body, "open") is None:
                break
            slots[slot] = tenant
            last_cycles[tenant["name"]] = 0
        if rounds >= warmup:
            window["pace"].measure()
        names = sorted((t["name"] for t in slots if t is not None),
                       key=lambda n: last_cycles[n])
        reply = request({"op": "round", "names": names,
                         "cycles": catalog["slice_cycles"]}, "round")
        rounds += 1
        if reply is None:
            break
        for slot, tenant in enumerate(slots):
            if tenant is None:
                continue
            name = tenant["name"]
            row = reply["sessions"][name]
            window["cycles"] += row["cycles"] - last_cycles[name]
            last_cycles[name] = row["cycles"]
            if row["status"] == "running":
                continue
            got = request({"op": "result", "name": name}, "result")
            request({"op": "close", "name": name}, None)
            slots[slot] = None
            if got is None:
                continue
            result = got["result"]
            records.append({"name": name, "id": tenant["id"], "result": result})
            good = (
                result["status"] == "halted"
                and result["verified"]
                and (result["recovered"] is True if result["faulted"] else True)
                and record_digest(result) == expected[tenant["id"]]["digest"]
            )
            if good:
                window["verified"] += 1
            else:
                tally["failed"] += 1
                problems.append(
                    f"session {name} ({tenant['id']}) does not match its "
                    f"reference: {result}"
                )
    pace = window["pace"]
    elapsed = time.perf_counter() - window["start"]
    busy = (time.process_time() - window["cpu"] - pace.seconds
            + client.worker_seconds - window["workers"])
    for tenant in slots:  # still running when the window closed
        if tenant is not None:
            request({"op": "close", "name": tenant["name"]}, None)
    return {
        "start": window["start"],
        "elapsed": elapsed,
        "busy": busy,
        "samples": window["samples"],
        "pace": pace,
        "cycles": window["cycles"],
        "verified": window["verified"],
        "records": records,
        "rounds": rounds,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "problems": problems,
    }


def reference_entry(entry: Dict[str, Any], catalog: Dict[str, Any]) -> Dict[str, Any]:
    """The serial ``Session`` reference for one catalog session."""
    from repro.service import Session

    session = Session.build(
        entry["workload"], name="reference", args=entry["args"],
        fault=entry["fault"], checkpoint_interval=CHECKPOINT_INTERVAL,
        max_retries=MAX_RETRIES,
    )
    slices = 0
    while session.status == "running":
        session.run_slice(catalog["slice_cycles"])
        slices += 1
    if slices != catalog["slices"]:
        raise AssertionError(
            f"{entry['id']} halted after {slices} slices, the catalog "
            f"promises {catalog['slices']}"
        )
    result = json.loads(json.dumps(session.result()))
    counters = session.cpu.counters
    return {
        "digest": record_digest(result),
        "counters": {
            "cycles": counters.cycles,
            "instructions": counters.instructions,
            "held_cycles": counters.held_cycles,
            "task_switches": counters.task_switches,
            "cache_misses": counters.cache_misses,
        },
    }
