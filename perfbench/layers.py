"""Which library calls the traced run times, and the per-layer metrics
derived from their spans.

:func:`install` patches the public functions and methods of each layer
named in ``layers.json``; :func:`derive` turns the recorded spans into
the metrics listed there.  A layer whose code a workload does not reach
reports zeros.
"""

from __future__ import annotations

import json
from importlib import import_module as _mod
from pathlib import Path
from typing import Sequence

from stats import quantile, ratio
from tracing import Recorder, Span, self_times

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


def per_layer_specs() -> list[dict]:
    """The per-layer metrics, in ``layers.json`` order."""
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    return [m for layer in layers for m in layer["metrics"]]


def _cert(cert, args, start) -> dict:
    return {
        "checked": cert.checked,
        "refuted": cert.counterexample is not None,
    }


def _report(rep, args, start) -> dict:
    return {"status": rep.status.value, "expanded": rep.nodes_expanded}


def _depth(cache) -> int:
    depth = getattr(cache, "write_behind_depth", None)
    return depth() if callable(depth) else 0


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points; undo with ``rec.restore()``."""
    rec.patch_function(_mod("repro.core.constructions.factory"), "build", "build.build")
    rec.patch_function(_mod("repro.core.constructions.special"), "build_special", "build.special")
    rec.patch_function(_mod("repro.service.trace"), "demo_ring_network", "build.ring")

    for module, attr in (
        ("repro.core.verify.exhaustive", "verify_exhaustive"),
        ("repro.core.verify.warm", "verify_exhaustive_warm"),
        ("repro.core.verify.batch", "verify_exhaustive_batched"),
        ("repro.core.verify.parallel", "verify_exhaustive_parallel"),
        ("repro.core.verify.symmetry", "verify_exhaustive_symmetry_reduced"),
    ):
        rec.patch_function(_mod(module), attr, f"verify.{attr}", _cert)

    hamilton = _mod("repro.core.hamilton")
    rec.patch_function(hamilton, "solve", "hamilton.solve", _report)
    rec.patch_function(hamilton, "solve_posa", "hamilton.posa", _report)

    kernel = _mod("repro.core.verify.batch").WitnessKernel
    rec.patch_method(
        kernel, "accept_batch", "kernel.accept_batch",
        lambda r, a, t: {"rows": len(r), "accepted": int(sum(bool(x) for x in r))},
    )
    rec.patch_method(
        kernel, "accept_row", "kernel.accept_row",
        lambda r, a, t: {"rows": 1, "accepted": int(bool(r))},
    )
    pool = _mod("repro.core.verify.shm").ShmWorkerPool
    rec.patch_method(pool, "submit", "pool.submit")
    rec.patch_method(pool, "get", "pool.get")

    rec.patch_function(
        _mod("repro.core.search"), "random_search_standard_solution", "search.random",
        lambda r, a, t: {"trials": r.trials_used, "found": r.found},
    )

    control = _mod("repro.service.control")
    rec.patch_fleet(
        control.ControlPlane,
        _mod("repro.service.mailbox").Mailbox,
        _mod("repro.errors").ServiceOverloadError,
    )
    rec.patch_method(
        control.ControlPlane, "query_pipeline", "control.query",
        lambda r, a, t: {"fresh": not (r.degraded or r.stale)},
    )

    session = _mod("repro.core.session").ReconfigurationSession
    for attr in ("fail", "repair"):
        rec.patch_method(session, attr, f"session.{attr}", lambda r, a, t: rec.queue_wait(t))
    rec.patch_function(_mod("repro.core.reconfigure"), "reconfigure", "reconfigure.reconfigure")

    canon = _mod("repro.service.canonical").Canonicalizer
    rec.patch_method(canon, "__init__", "canonical.init")
    rec.patch_method(canon, "canonical", "canonical.canonical")

    for cls in (
        _mod("repro.service.cache").WitnessCache,
        _mod("repro.service.tiering").TieredWitnessCache,
    ):
        rec.patch_method(
            cls, "lookup_validated", "cache.lookup",
            lambda r, a, t: {"hit": r is not None},
        )
        rec.patch_method(
            cls, "store", "cache.store",
            lambda r, a, t: {"depth": _depth(a[0])},
        )
        rec.patch_method(cls, "warm_start", "cache.warm_start")

    store = _mod("repro.service.store").WitnessStore
    rec.patch_method(store, "put_many", "store.put_many", lambda r, a, t: {"rows": r})
    rec.patch_method(store, "note_validation_failure", "store.validation_failure")


def _busy_union(spans: Sequence[Span], opens: str, closes: str) -> float:
    """Time with at least one ``opens`` call not yet matched by a
    ``closes`` return (the pool's dispatch-to-result window)."""
    marks = sorted(
        [(s.start, 1) for s in spans if s.name == opens]
        + [(s.end, -1) for s in spans if s.name == closes]
    )
    busy, depth, since = 0.0, 0, 0.0
    for t, step in marks:
        if depth == 0 and step > 0:
            since = t
        depth = max(0, depth + step)
        if depth == 0 and step < 0:
            busy += t - since
    return busy


def derive(spans: Sequence[Span], harness: dict) -> dict[str, float]:
    """Per-layer metrics from *spans*, plus the load generator's own *harness*
    figures (``loadgen.*``, ``trace.overhead_frac``)."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def top(s: Span) -> bool:
        parent = by_id.get(s.parent)
        return parent is None or parent.layer != s.layer

    def under(s: Span, layer: str) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.layer == layer:
                return True
            parent = by_id.get(parent.parent)
        return False

    layer_spans: dict[str, list[Span]] = {}
    for s in spans:
        layer_spans.setdefault(s.layer, []).append(s)

    def tops(layer: str, name: str | None = None) -> list[Span]:
        """The layer's outermost spans (of one call *name*, if given)."""
        return [
            s for s in layer_spans.get(layer, ())
            if top(s) and (name is None or s.name == name)
        ]

    def busy(layer: str, name: str | None = None) -> float:
        return sum(s.duration for s in tops(layer, name))

    def self_s(layer: str) -> float:
        return sum(selfs[s.sid] for s in layer_spans.get(layer, ()))

    def ms_q(values: list[float], q: float) -> float:
        return 1000.0 * quantile(values, q) if values else 0.0

    out: dict[str, float] = {}

    builds = tops("build")
    out["build.calls"] = len(builds)
    out["build.busy_s"] = busy("build")
    out["build.self_s"] = self_s("build")

    verifies = tops("verify")
    fault_sets = sum(s.attrs.get("checked", 0) for s in verifies)
    refuting = [s for s in verifies if s.attrs.get("refuted")]
    solves = tops("hamilton")
    out["verify.calls"] = len(verifies)
    out["verify.busy_s"] = busy("verify")
    out["verify.self_s"] = self_s("verify")
    out["verify.fault_sets"] = fault_sets
    out["verify.solves_per_set"] = ratio(
        sum(1 for s in solves if under(s, "verify")), fault_sets
    )
    out["verify.refutations"] = len(refuting)
    out["verify.sets_per_refutation"] = ratio(
        sum(s.attrs.get("checked", 0) for s in refuting), len(refuting)
    )

    out["hamilton.solves"] = len(solves)
    out["hamilton.busy_s"] = busy("hamilton")
    out["hamilton.self_s"] = self_s("hamilton")
    out["hamilton.nodes_expanded"] = sum(s.attrs.get("expanded", 0) for s in solves)
    out["hamilton.infeasible"] = sum(1 for s in solves if s.attrs.get("status") == "none")

    kernel = tops("kernel")
    rows = sum(s.attrs.get("rows", 0) for s in kernel)
    out["kernel.rows"] = rows
    out["kernel.accept_frac"] = ratio(sum(s.attrs.get("accepted", 0) for s in kernel), rows)
    out["kernel.busy_s"] = busy("kernel")
    out["kernel.self_s"] = self_s("kernel")

    out["pool.dispatches"] = len(tops("pool", "pool.submit"))
    out["pool.busy_s"] = _busy_union(layer_spans.get("pool", ()), "pool.submit", "pool.get")

    searches = tops("search")
    search_ids = {s.sid for s in layer_spans.get("search", ())}
    trials = sum(s.attrs.get("trials", 0) for s in searches)
    candidates = sum(1 for s in verifies if s.parent in search_ids)
    out["search.calls"] = len(searches)
    out["search.trials"] = trials
    out["search.candidates"] = candidates
    out["search.feasible_frac"] = ratio(candidates, trials)
    out["search.busy_s"] = busy("search")
    out["search.self_s"] = self_s("search")

    submits = [s for s in layer_spans.get("control", ()) if s.name == "control.submit"]
    queries = [s for s in layer_spans.get("control", ()) if s.name == "control.query"]
    events = layer_spans.get("fleet", [])
    out["control.submits"] = len(submits)
    out["control.submit_ms_p50"] = ms_q([s.duration for s in submits], 0.5)
    out["control.queries"] = len(queries)
    out["control.query_ms_p50"] = ms_q([s.duration for s in queries], 0.5)
    out["control.query_ms_p95"] = ms_q([s.duration for s in queries], 0.95)
    out["control.shed"] = sum(1 for s in submits if s.attrs.get("shed"))
    out["control.errors"] = sum(1 for s in events if s.attrs.get("error"))
    out["control.self_s"] = self_s("control")

    waits = [
        s.attrs["queue_wait"]
        for s in layer_spans.get("session", ())
        if "queue_wait" in s.attrs
    ]
    out["mailbox.queue_wait_ms_p50"] = ms_q(waits, 0.5)
    out["mailbox.queue_wait_ms_p95"] = ms_q(waits, 0.95)

    out["canonical.calls"] = len(tops("canonical", "canonical.canonical"))
    out["canonical.busy_s"] = busy("canonical", "canonical.canonical")
    out["canonical.self_s"] = self_s("canonical")
    out["canonical.init_s"] = busy("canonical", "canonical.init")

    lookups = tops("cache", "cache.lookup")
    out["cache.lookups"] = len(lookups)
    out["cache.hit_frac"] = ratio(sum(1 for s in lookups if s.attrs.get("hit")), len(lookups))
    out["cache.stores"] = len(tops("cache", "cache.store"))
    out["cache.busy_s"] = busy("cache")
    out["cache.self_s"] = self_s("cache")

    puts = tops("store", "store.put_many")
    out["store.rows_written"] = sum(s.attrs.get("rows", 0) for s in puts)
    out["store.write_busy_s"] = sum(s.duration for s in puts)
    out["store.write_behind_depth_max"] = max(
        (s.attrs.get("depth", 0) for s in layer_spans.get("cache", ())), default=0
    )
    out["store.validation_failures"] = len(tops("store", "store.validation_failure"))

    out["session.applies"] = len(tops("session"))
    out["session.busy_s"] = busy("session")
    out["session.self_s"] = self_s("session")
    out["reconfigure.calls"] = len(tops("reconfigure"))
    out["reconfigure.busy_s"] = busy("reconfigure")
    out["reconfigure.self_s"] = self_s("reconfigure")

    out["trace.spans"] = len(spans)
    out.update(harness)
    return out
