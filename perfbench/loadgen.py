"""One-thread load generator for the fleet workloads.

Two phases, both from a single client thread in one process:

* **open loop** — operations are due on a Poisson schedule at a fixed
  rate and are sent when due, whether or not earlier ones finished.
  Every latency is taken from the due time, so a stall also charges the
  operations queued behind it; the generator records how late it sent each
  one, so a stalled generator is never read as a slow service.
* **closed loop** — a fixed number of fault/repair events is kept
  outstanding (below the plane's admission bound, so nothing is shed)
  and the completed-operations rate is the plane's capacity.

Queries are synchronous calls; events resolve through futures, and an
event's settle time is taken by a done-callback when its future
resolves.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field


def poisson_schedule(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Due times (seconds from the phase start) of a Poisson stream."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    out: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


@dataclass
class PhaseResult:
    """What one phase observed; every latency is in seconds."""

    consumed: list = field(default_factory=list)   # trace events actually sent
    #: distinct answers ``(network, pipeline nodes, faults) -> times served``
    answers: dict = field(default_factory=dict)
    event_latency: list = field(default_factory=list)
    query_latency: list = field(default_factory=list)
    late: list = field(default_factory=list)
    events: int = 0
    queries: int = 0
    fresh: int = 0
    shed: int = 0
    errors: int = 0
    elapsed: float = 0.0


class _Outstanding:
    """Events not yet settled.  A done-callback records each event's
    outcome as it settles, so the client keeps no futures alive."""

    def __init__(self, out: PhaseResult) -> None:
        self._out = out
        self._open = 0
        self._cv = threading.Condition()

    def add(self, future, due_at: float | None = None) -> None:
        with self._cv:
            self._open += 1
        future.add_done_callback(lambda f: self._settled(f, due_at))

    def _settled(self, future, due_at: float | None) -> None:
        now = time.perf_counter()
        with self._cv:
            if future.exception() is not None:
                self._out.errors += 1
            elif due_at is not None:
                self._out.event_latency.append(now - due_at)
            self._open -= 1
            self._cv.notify_all()

    def wait_below(self, count: int, timeout: float) -> None:
        with self._cv:
            if not self._cv.wait_for(lambda: self._open < count, timeout):
                raise TimeoutError(f"{self._open} events still outstanding")


def _submit(plane, ev):
    if ev.kind == "fault":
        return plane.submit_fault(ev.network, ev.node)
    return plane.submit_repair(ev.network, ev.node)


def _query(plane, ev, out: PhaseResult) -> None:
    answer = plane.query_pipeline(ev.network)
    key = (ev.network, answer.pipeline.nodes, answer.faults)
    out.answers[key] = out.answers.get(key, 0) + 1
    out.queries += 1
    if not (answer.degraded or answer.stale):
        out.fresh += 1


def open_loop(plane, trace, due: list[float], *, overload_error, timeout: float = 60.0) -> PhaseResult:
    """Send ``trace[i]`` at ``due[i]`` seconds after the phase starts."""
    out = PhaseResult()
    pending = _Outstanding(out)
    clock = time.perf_counter
    t0 = clock()
    for ev, at in zip(trace, due):
        due_at = t0 + at
        wait = due_at - clock()
        if wait > 0:
            time.sleep(wait)
        sent = clock()
        out.late.append(sent - due_at)
        out.consumed.append(ev)
        if ev.kind == "query":
            _query(plane, ev, out)
            out.query_latency.append(clock() - due_at)
            continue
        out.events += 1
        try:
            pending.add(_submit(plane, ev), due_at)
        except overload_error:
            out.shed += 1
    out.elapsed = clock() - t0
    pending.wait_below(1, timeout)
    return out


def closed_loop(plane, trace, *, window: int, duration: float, overload_error, timeout: float = 60.0) -> PhaseResult:
    """Keep *window* events outstanding for *duration* seconds (queries
    in the trace run inline); ``elapsed`` runs until the last settles."""
    out = PhaseResult()
    pending = _Outstanding(out)
    clock = time.perf_counter
    t0 = clock()
    end = t0 + duration
    for ev in trace:
        if clock() >= end:
            break
        out.consumed.append(ev)
        if ev.kind == "query":
            _query(plane, ev, out)
            continue
        pending.wait_below(window, timeout)
        out.events += 1
        try:
            pending.add(_submit(plane, ev))
        except overload_error:
            out.shed += 1
    pending.wait_below(1, timeout)
    out.elapsed = clock() - t0
    return out
