"""Spans recorded from outside the library, for the traced run.

The untraced run never imports this module's wrappers.  The traced run
replaces the library's public functions and methods with thin wrappers
that record one span per call: ``(id, name, start, end, parent, request
id, attrs)``.  A function is patched at every ``repro.*`` module that
holds a reference to it, so calls through ``from x import f`` bindings
are seen at the call site's module.  Spans stay in memory and are
written out once, when the run ends.

Span names are ``<layer>.<call>``; the layer is the part before the dot.
A span's self time is its duration minus the part of its interval that
its child spans cover (children may run on other threads, so their
intervals are merged before subtracting).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


class Recorder:
    """Installs wrappers, keeps spans, and restores the library on exit.

    Request ids: a call made by the client thread outside any other span
    opens a new request.  A fleet event keeps one request id from
    ``submit_*`` through the drain worker that applies it, because the
    client's future is carried by the event the worker dequeues.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: admitted fleet events, keyed by the client's future
        self._events: dict = {}

    # ------------------------------------------------------------------
    # per-thread context
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable | None = None,
    ) -> Callable:
        """A wrapper recording one *name* span per call of *fn*.

        ``attrs(result, args, start)`` returns extra fields for the span;
        it runs after the end time is taken, so it is not billed.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            rid = getattr(rec._tls, "rid", None)
            opened = parent is None and rid is None
            if opened:
                rid = rec._tls.rid = next(rec._rids)
            sid = next(rec._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                rec.spans.append(
                    Span(sid, name, t0, t1, parent, rid, {"error": type(exc).__name__})
                )
                raise
            finally:
                stack.pop()
                if opened:
                    rec._tls.rid = None
            t1 = time.perf_counter()
            info = attrs(result, args, t0) if attrs is not None else {}
            rec.spans.append(Span(sid, name, t0, t1, parent, rid, info))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_function(self, module, attr: str, name: str, attrs=None) -> None:
        """Wrap ``module.attr`` and every other ``repro.*`` binding of it."""
        orig = getattr(module, attr)
        wrapper = self.wrap(name, orig, attrs)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    def patch_method(self, cls, attr: str, name: str, attrs=None) -> None:
        orig = cls.__dict__[attr]
        self._set(cls, attr, self.wrap(name, orig, attrs))

    def _set(self, cls, attr: str, value) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def restore(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # fleet events: one request id from submit to the drain worker
    # ------------------------------------------------------------------
    def patch_fleet(self, control_plane_cls, mailbox_cls, overload_error) -> None:
        rec = self
        for attr in ("submit_fault", "submit_repair"):
            orig_submit = control_plane_cls.__dict__[attr]

            def submit(plane, name, node, _orig=orig_submit):
                rid = next(rec._rids)
                root = next(rec._ids)
                sid = next(rec._ids)
                rec._tls.pending = (rid, root)
                t0 = time.perf_counter()
                try:
                    future = _orig(plane, name, node)
                except overload_error:
                    t1 = time.perf_counter()
                    rec.spans.append(Span(sid, "control.submit", t0, t1, root, rid, {"shed": True}))
                    rec.spans.append(Span(root, "fleet.event", t0, t1, None, rid, {"shed": True}))
                    raise
                finally:
                    rec._tls.pending = None
                t1 = time.perf_counter()
                rec.spans.append(Span(sid, "control.submit", t0, t1, root, rid, {}))

                def settled(fut, _t0=t0, _root=root, _rid=rid):
                    info = {"error": True} if fut.exception() is not None else {}
                    rec.spans.append(
                        Span(_root, "fleet.event", _t0, time.perf_counter(), None, _rid, info)
                    )

                future.add_done_callback(settled)
                return future

            self._set(control_plane_cls, attr, functools.wraps(orig_submit)(submit))

        orig_offer = mailbox_cls.__dict__["offer"]
        orig_next = mailbox_cls.__dict__["next_event"]
        orig_done = mailbox_cls.__dict__["event_done"]

        def offer(box, event):
            pending = getattr(rec._tls, "pending", None)
            future = getattr(event, "future", None)
            if pending is not None and future is not None:
                # registered before the event becomes visible to workers
                rec._events[future] = (*pending, time.perf_counter())
            admitted, schedule = orig_offer(box, event)
            if not admitted and future is not None:
                rec._events.pop(future, None)
            return admitted, schedule

        def next_event(box):
            event = orig_next(box)
            if event is None:
                return None
            info = rec._events.pop(getattr(event, "future", None), None)
            if info is not None:
                rid, root, admitted_at = info
                sid = next(rec._ids)
                rec._tls.rid = rid
                rec._tls.stack = [sid]
                rec._tls.proc = (sid, root, rid, time.perf_counter(), admitted_at)
            return event

        def event_done(box):
            orig_done(box)
            proc = getattr(rec._tls, "proc", None)
            if proc is not None:
                sid, root, rid, t0, _ = proc
                rec.spans.append(Span(sid, "control.process", t0, time.perf_counter(), root, rid, {}))
                rec._tls.proc = None
                rec._tls.stack = []
                rec._tls.rid = None

        self._set(mailbox_cls, "offer", functools.wraps(orig_offer)(offer))
        self._set(mailbox_cls, "next_event", functools.wraps(orig_next)(next_event))
        self._set(mailbox_cls, "event_done", functools.wraps(orig_done)(event_done))

    def queue_wait(self, start: float) -> dict:
        """Admission-to-*start* wait of the event this worker is applying."""
        proc = getattr(self._tls, "proc", None)
        return {} if proc is None else {"queue_wait": start - proc[4]}

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "rid": s.rid,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )
