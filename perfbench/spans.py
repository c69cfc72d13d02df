"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public functions at each layer boundary (see
:func:`layer_points`) where their callers look them up, so every call
records one span: name, start, end, parent span, request id, and a
small measurement (bytes written, cycles run).  Spans stay in memory
per process.  Fleet workers inherit the wrappers across ``fork`` and
append their spans to ``<out_dir>/spans-<pid>.jsonl`` after each
request, so a worker that is killed loses only the request in flight; :meth:`Tracer.collect` merges them with the coordinator's.

All processes stamp spans with ``time.perf_counter`` (CLOCK_MONOTONIC
on Linux, one clock for the whole host), so a worker's span lies inside
the coordinator's round trip that caused it.  The worker-side
``fleet.host`` span is parented to that round trip (``fleet.ipc``)
through the (worker pid, request id) pair both sides see.

:func:`attribute` turns the merged spans into self time per name.  At
every instant the wall clock is split equally between the *innermost*
open spans (open spans with no open child); an instant with no open
span is unattributed.  Without parallelism this is the usual "span time
minus the time its children cover"; with two workers busy at once each
gets half of that instant, so self times plus ``unattributed.s`` add up
to the wall clock.
"""

from __future__ import annotations

import contextvars
import glob
import inspect
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# A span: [id, name, start, end, parent id, request id, extra dict]
Span = List[Any]


def _length(result, args, before) -> Dict[str, int]:
    return {"bytes": len(result)}


def _payload_length(result, args, before) -> Dict[str, int]:
    return {"bytes": len(args[1])}


def _host_link(result, args, before) -> Dict[str, Any]:
    return {"link": [os.getpid(), args[1].get("req")]}


def _trace_counts(args) -> Dict[str, int]:
    # The trace cache has no public accessor; its counters are read
    # where the processor keeps them.
    traces = args[0]._traces
    return {"entries": traces.entries, "compiled": traces.compiled,
            "invalidations": traces.invalidations,
            "blacklisted": len(traces.blacklist)}


def _core_run(result, args, before) -> Dict[str, int]:
    after = _trace_counts(args)
    return {"cycles": result,
            **{f"trace_{key}": after[key] - before[key] for key in after}}


#: Measures that need a reading taken before the call.
_BEFORE = {_core_run: _trace_counts}


def layer_points():
    """(owner, attribute, span name, measure) for every wrapped boundary.

    Imported lazily so that this module loads without the program (the
    benchmark must fail cleanly, not at import, when it is absent).
    """
    import repro.core.processor as processor
    import repro.service.fleet as fleet
    import repro.service.frontend as frontend
    import repro.service.session as session
    import repro.state as state

    Processor = processor.Processor
    Session = session.Session
    return [
        # core
        (Processor, "run", "core.run", _core_run),
        # state
        (Processor, "snapshot", "state.snapshot", None),
        (Processor, "restore", "state.restore", None),
        (Processor, "fork", "state.fork", None),
        (state, "canonical_json", "state.canonical_json", _length),
        (session, "canonical_json", "state.canonical_json", _length),
        (state, "parse_canonical_json", "state.parse", None),
        (session, "parse_canonical_json", "state.parse", None),
        (session, "arch_hash", "state.arch_hash", None),
        # session
        (Session, "build", "session.build", None),
        (Session, "run_slice", "session.run_slice", None),
        (Session, "suspend", "session.suspend", _length),
        (Session, "resume", "session.resume", None),
        (Session, "result", "session.result", None),
        # spool (looked up by the fleet under these names)
        (fleet, "spool_write", "spool.write", _payload_length),
        (fleet, "spool_read", "spool.read", None),
        # fleet
        (fleet.Fleet, "open_session", "fleet.open", None),
        (fleet.Fleet, "run_round", "fleet.round", None),
        (fleet.Fleet, "result", "fleet.result", None),
        (fleet.Fleet, "close_session", "fleet.close", None),
        (fleet.SessionHost, "handle", "fleet.host", _host_link),
        # frontend
        (frontend.Frontend, "handle", "frontend.handle", None),
    ]


class _FlushingConn:
    """A worker's pipe end that exports spans before waiting for a request.

    The export then overlaps the coordinator's handling of the reply just
    sent instead of lengthening the next round trip.
    """

    def __init__(self, conn, tracer: "Tracer") -> None:
        self._conn = conn
        self._tracer = tracer

    def recv(self):
        self._tracer.flush()
        return self._conn.recv()

    def send(self, message) -> None:
        self._conn.send(message)

    def close(self) -> None:
        self._tracer.flush()
        self._conn.close()


class Tracer:
    """Installs the layer wrappers and records spans while installed."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: The open client-side request span; a span opened where no
        #: span is current (the frontend's handler on the event loop)
        #: is its child.  One client, one request at a time.
        self.client_span: Optional[str] = None
        self.request_id = 0
        self._sent: Dict[Tuple[int, Any], float] = {}
        self._flushed = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, parent: Optional[str] = None) -> Span:
        if parent is None:
            parent = self._current.get() or self.client_span
        span = [f"{self.pid}:{next(self._ids)}", name, time.perf_counter(), None,
                parent, self.request_id, None]
        self.spans.append(span)
        return span

    def end(self, span: Span, extra: Optional[Dict[str, Any]] = None) -> None:
        span[3] = time.perf_counter()
        if extra:
            span[6] = extra

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named *name* (benchmark-side spans)."""
        span = self.begin(name)
        token = self._current.set(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            self._current.reset(token)
            self.end(span)

    def _wrap(self, name: str, fn: Callable, measure) -> Callable:
        tracer = self
        prepare = _BEFORE.get(measure)

        def traced(*args, **kwargs):
            before = prepare(args) if prepare is not None else None
            span = tracer.begin(name)
            token = tracer._current.set(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._current.reset(token)
                tracer.end(span)
            if measure is not None:
                span[6] = measure(result, args, before)
            return result

        async def traced_async(*args, **kwargs):
            span = tracer.begin(name)
            token = tracer._current.set(span[0])
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._current.reset(token)
                tracer.end(span)

        wrapper = traced_async if inspect.iscoroutinefunction(fn) else traced
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name, measure in layer_points():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr,
                            classmethod(self._wrap(name, raw.__func__, measure)))
            else:
                self._patch(owner, attr, self._wrap(name, raw, measure))
        self._install_transport()

    def _install_transport(self) -> None:
        """Round trips to forked workers, and span export from workers."""
        import repro.service.fleet as fleet

        tracer = self
        send = fleet.ProcessHost.__dict__["send"]
        recv = fleet.ProcessHost.__dict__["recv"]
        host_main = fleet.__dict__["_host_main"]

        def traced_send(host, message):
            tracer._sent[(id(host), message.get("req"))] = time.perf_counter()
            return send(host, message)

        def traced_recv(host, timeout=None):
            waited = time.perf_counter()
            reply = recv(host, timeout)
            done = time.perf_counter()
            req = reply.get("req") if isinstance(reply, dict) else None
            sent = tracer._sent.pop((id(host), req), None)
            if sent is not None:
                span = [f"{tracer.pid}:{next(tracer._ids)}", "fleet.ipc",
                        sent, done, tracer._current.get(), tracer.request_id,
                        {"link": [host._proc.pid, req], "wait": done - waited}]
                tracer.spans.append(span)
            return reply

        def traced_host_main(conn):
            # A fresh process: forget the parent's spans and context.
            tracer.spans = []
            tracer._flushed = 0
            tracer.pid = os.getpid()
            tracer.client_span = None
            tracer._current.set(None)
            host_main(_FlushingConn(conn, tracer))

        self._patch(fleet.ProcessHost, "send", traced_send)
        self._patch(fleet.ProcessHost, "recv", traced_recv)
        self._patch(fleet, "_host_main", traced_host_main)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- export ---------------------------------------------------------

    def flush(self) -> None:
        """Append the spans recorded since the last flush to this
        process's file (a worker killed mid-request loses only that one)."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            for span in self.spans[self._flushed:]:
                f.write(json.dumps(span) + "\n")
        self._flushed = len(self.spans)

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's exported spans."""
        merged = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.out_dir, "spans-*.jsonl"))):
            with open(path) as f:
                for line in f:
                    try:
                        merged.append(json.loads(line))
                    except ValueError:
                        pass  # cut short by a kill
        return merged


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def link_workers(spans: Iterable[Span]) -> List[Span]:
    """Parent each worker's root ``fleet.host`` span to its round trip."""
    spans = list(spans)
    trips = {
        tuple(s[6]["link"]): s[0] for s in spans
        if s[1] == "fleet.ipc" and s[6]
    }
    for span in spans:
        if span[1] == "fleet.host" and span[4] is None and span[6]:
            span[4] = trips.get(tuple(span[6]["link"]))
    return spans


def attribute(spans: Iterable[Span], start: float, end: float
              ) -> Tuple[Dict[str, float], float]:
    """Self seconds per span name within [start, end], and unattributed.

    Each instant goes, in equal shares, to the innermost open spans.
    """
    events = []
    parent_of: Dict[str, Optional[str]] = {}
    name_of: Dict[str, str] = {}
    for sid, name, s, e, parent, _rid, _extra in spans:
        if e is None:
            continue
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        parent_of[sid] = parent
        name_of[sid] = name
        events.append((s, 1, sid))
        events.append((e, 0, sid))
    events.sort()
    active: Dict[str, int] = {}     # open span -> open children
    innermost: set = set()
    self_time: Dict[str, float] = {}
    unattributed = 0.0
    now = start
    for t, kind, sid in events:
        if t > now:
            dt = t - now
            if innermost:
                share = dt / len(innermost)
                for open_sid in innermost:
                    name = name_of[open_sid]
                    self_time[name] = self_time.get(name, 0.0) + share
            else:
                unattributed += dt
            now = t
        parent = parent_of[sid]
        if kind == 1:
            active[sid] = 0
            innermost.add(sid)
            if parent in active:
                active[parent] += 1
                innermost.discard(parent)
        else:
            active.pop(sid, None)
            innermost.discard(sid)
            if parent in active:
                active[parent] -= 1
                if active[parent] == 0:
                    innermost.add(parent)
    if end > now:
        unattributed += end - now
    return self_time, unattributed


def totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, raw duration, and summed extras."""
    out: Dict[str, Dict[str, float]] = {}
    for _sid, name, s, e, _parent, _rid, extra in spans:
        if e is None:
            continue
        row = out.setdefault(name, {"calls": 0, "duration": 0.0})
        row["calls"] += 1
        row["duration"] += e - s
        for key, value in (extra or {}).items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0) + value
    return out
