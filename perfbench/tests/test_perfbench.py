"""Tests of the benchmark's own code (not of the library it measures).

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import random
from pathlib import Path

import pytest

import repro
from layers import derive, install, per_layer_specs
from loadgen import poisson_schedule
from stats import quantile
from tracing import Recorder, Span, covered_length, self_times
from workloads import (
    bad_answers,
    bad_final_states,
    expected_fault_sets,
    net_faults,
    proof_ok,
    refute_ok,
    relabel,
)

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# quantile picker
# ----------------------------------------------------------------------
def test_quantile_is_nearest_rank():
    xs = [7, 1, 5, 3, 9, 2, 8, 4, 6, 10]
    assert quantile(xs, 0.5) == 5
    assert quantile(xs, 0.95) == 10
    assert quantile(xs, 0.9) == 9
    assert quantile(xs, 0.0) == 1
    assert quantile(xs, 1.0) == 10


def test_quantile_returns_an_observed_sample():
    xs = [0.1, 0.4]
    assert quantile(xs, 0.5) == 0.1
    assert quantile(xs, 0.51) == 0.4


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_same_seed_gives_same_schedule():
    a = poisson_schedule(500.0, 2.0, random.Random(7))
    b = poisson_schedule(500.0, 2.0, random.Random(7))
    c = poisson_schedule(500.0, 2.0, random.Random(8))
    assert a == b
    assert a != c
    assert all(0 < t < 2.0 for t in a)
    assert a == sorted(a)
    # a Poisson stream at 500/s over 2 s: ~1000 arrivals
    assert 850 < len(a) < 1150


def test_same_seed_gives_same_proof_inputs():
    net = repro.build(6, 2)
    a = relabel(net, random.Random(3))
    b = relabel(net, random.Random(3))
    c = relabel(net, random.Random(4))
    assert sorted(a.graph.edges) == sorted(b.graph.edges)
    assert sorted(a.graph.edges) != sorted(c.graph.edges)
    assert a.graph.number_of_nodes() == net.graph.number_of_nodes()


# ----------------------------------------------------------------------
# span self-time arithmetic
# ----------------------------------------------------------------------
def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (9, 12)], 0, 10) == pytest.approx(5)
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_children_only():
    spans = [
        Span(1, "a.root", 0.0, 10.0, None, 1),
        # two overlapping children (as from two threads) and one that
        # outlives its parent: together they cover [1, 5] and [9, 10]
        Span(2, "b.child", 1.0, 3.0, 1, 1),
        Span(3, "b.child", 2.0, 5.0, 1, 1),
        Span(4, "c.child", 9.0, 12.0, 1, 1),
        # a grandchild is charged to its own parent, not the root
        Span(5, "d.grand", 1.5, 2.5, 2, 1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_derive_counts_top_level_calls_and_self_time():
    spans = [
        Span(1, "verify.verify_exhaustive", 0.0, 4.0, None, 1, {"checked": 10, "refuted": True}),
        Span(2, "hamilton.solve", 0.5, 1.5, 1, 1, {"status": "found", "expanded": 5}),
        Span(3, "hamilton.solve", 2.0, 3.0, 1, 1, {"status": "none", "expanded": 7}),
        # nested call of the same layer: not a second top-level solve
        Span(4, "hamilton.posa", 2.1, 2.6, 3, 1, {"status": "none", "expanded": 3}),
    ]
    out = derive(spans, {})
    assert out["verify.calls"] == 1
    assert out["verify.busy_s"] == pytest.approx(4.0)
    assert out["verify.self_s"] == pytest.approx(2.0)
    assert out["verify.fault_sets"] == 10
    assert out["verify.solves_per_set"] == pytest.approx(0.2)
    assert out["verify.sets_per_refutation"] == pytest.approx(10.0)
    assert out["hamilton.solves"] == 2
    assert out["hamilton.busy_s"] == pytest.approx(2.0)
    assert out["hamilton.self_s"] == pytest.approx(2.0)
    assert out["hamilton.nodes_expanded"] == 12
    assert out["hamilton.infeasible"] == 1


def test_derive_reports_every_per_layer_metric():
    out = derive([], {})
    names = [m["name"] for m in per_layer_specs()]
    harness_only = {n for n in names if n.startswith("loadgen.") or n == "trace.overhead_frac"}
    assert set(names) - harness_only <= set(out)


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == per_layer_specs()


def test_traced_calls_share_a_request_id_and_restore():
    orig = repro.verify_exhaustive
    rec = Recorder()
    install(rec)
    try:
        cert = repro.verify_exhaustive(repro.build(3, 2))
    finally:
        rec.restore()
    assert repro.verify_exhaustive is orig
    assert cert.is_proof
    verify = [s for s in rec.spans if s.layer == "verify"]
    solves = [s for s in rec.spans if s.name == "hamilton.solve"]
    assert len(verify) == 1 and len(solves) == cert.checked
    assert {s.rid for s in solves} == {verify[0].rid}
    assert {s.parent for s in solves} == {verify[0].sid}


def test_fleet_event_keeps_one_request_id_into_the_worker():
    rec = Recorder()
    install(rec)
    try:
        with repro.ControlPlane(repro.ControlPlaneConfig(workers=1)) as plane:
            plane.register("a", n=6, k=2)
            plane.submit_fault("a", "p1").result(timeout=30)
            plane.wait()
    finally:
        rec.restore()
    events = [s for s in rec.spans if s.name == "fleet.event"]
    assert len(events) == 1
    rid = events[0].rid
    process = [s for s in rec.spans if s.name == "control.process"]
    applies = [s for s in rec.spans if s.name == "session.fail"]
    assert [s.rid for s in process] == [rid]
    assert [s.parent for s in process] == [events[0].sid]
    assert [s.rid for s in applies] == [rid]
    assert applies[0].attrs["queue_wait"] >= 0


# ----------------------------------------------------------------------
# correctness checks trip on corrupted answers
# ----------------------------------------------------------------------
def test_corrupted_query_answer_trips_the_check():
    with repro.ControlPlane(repro.ControlPlaneConfig(workers=1)) as plane:
        plane.register("a", n=6, k=2)
        plane.submit_fault("a", "p1").result(timeout=30)
        plane.wait()
        answer = plane.query_pipeline("a")
        networks = {"a": plane.managed("a").network}
        nodes, faults = answer.pipeline.nodes, answer.faults
        assert bad_answers(networks, {("a", nodes, faults): 3}) == 0

        corrupted = {
            # the served pipeline runs through a node it claims has failed
            ("a", nodes, frozenset({nodes[1]})): 2,
            # the served pipeline skips a healthy processor
            ("a", nodes[:1] + nodes[2:], faults): 1,
        }
        assert bad_answers(networks, corrupted) == 3


def test_final_state_must_match_the_trace():
    from repro.service.trace import TraceEvent

    with repro.ControlPlane(repro.ControlPlaneConfig(workers=1)) as plane:
        plane.register("a", n=6, k=2)
        plane.submit_fault("a", "p1").result(timeout=30)
        plane.wait()
        applied = [TraceEvent("a", "fault", "p1")]
        assert net_faults(applied) == {"a": frozenset({"p1"})}
        assert bad_final_states(plane.final_states(), applied) == 0
        lost_repair = applied + [TraceEvent("a", "repair", "p1")]
        assert bad_final_states(plane.final_states(), lost_repair) == 1


def test_proof_and_refutation_checks():
    net = repro.build(3, 2)
    cert = repro.verify_exhaustive(net)
    assert proof_ok(cert, net)
    assert cert.checked == expected_fault_sets(net)
    from dataclasses import replace

    assert not proof_ok(replace(cert, checked=cert.checked - 1), net)
    assert not proof_ok(replace(cert, counterexample=("p0",)), net)

    from repro.core.search import SearchResult

    assert refute_ok(SearchResult(None, 5))
    assert not refute_ok(SearchResult(net, 3))
