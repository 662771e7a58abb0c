"""The repo's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload proof --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing at all.  ``--trace 1`` runs the workload twice for half
the time each, untraced and then traced, reports the per-layer metrics
of ``layers.json`` and writes the spans to ``.perfbench/spans/``
(gzip-compressed JSON lines).

``setup_s`` is the median over several fresh interpreters of the time
from interpreter start to a workload ready to run (imports, network
builds, fleet registration with its initial solves and automorphism
enumeration), so work moved into import or set-up shows there.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up once, print the time from interpreter start, exit",
    )
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter (see the module docstring)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(outcome, setup_s: float) -> dict:
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - outcome.failed / outcome.attempted, "fraction"),
        "latency_p50_ms": (1000.0 * outcome.p50, "ms"),
        "latency_p95_ms": (1000.0 * outcome.p95, "ms"),
        "capacity_ops_per_s": (outcome.capacity, "1/s"),
        "fresh_frac": (outcome.fresh_frac, "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced(wl, seed: int, seconds: float):
    """Untraced then traced halves; returns the per-layer metrics and
    both outcomes."""
    from layers import derive, install, per_layer_specs
    from tracing import Recorder

    half = seconds / 2
    state = wl.setup(seed)
    try:
        plain = wl.run(state, half)
    finally:
        wl.teardown(state)

    rec = Recorder()
    install(rec)
    try:
        state = wl.setup(seed)
        try:
            outcome = wl.run(state, half)
        finally:
            wl.teardown(state)
    finally:
        rec.restore()

    harness = dict(outcome.harness)
    harness["trace.overhead_frac"] = plain.capacity / outcome.capacity - 1.0
    values = derive(rec.spans, harness)

    out_dir = ROOT / ".perfbench" / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)
    rec.write(out_dir / f"{wl.name}-seed{seed}.jsonl.gz")

    # a layer the workload never reaches (the load generator on proof and
    # refute) reports zero
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in per_layer_specs()
    }
    return metrics, [plain, outcome]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        state = wl.setup(args.seed)
        ready = time.perf_counter() - _T0
        wl.teardown(state)
        print(json.dumps({"setup_s": ready}))
        return 0

    if args.trace:
        metrics, outcomes = traced(wl, args.seed, args.seconds)
    else:
        from stats import median

        setup_s = median([probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES)])
        state = wl.setup(args.seed)
        try:
            outcome = wl.run(state, args.seconds)
        finally:
            wl.teardown(state)
        metrics = end_to_end(outcome, setup_s)
        outcomes = [outcome]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
