#!/usr/bin/env python3
"""Run one abd benchmark workload and print its metrics.

    python3 benchmark/run.py --workload portal-http --seed 1 --seconds 20 --trace 0

Run from a source checkout: the benchmark imports ``abd`` from ``src/`` next
to this directory and refuses to run without it. It builds the workload's
world several times (the median is ``setup_s``), warms up, and runs a
closed loop for ``--seconds``. With ``--trace 1`` it measures half the time
untraced and half with the outside-in tracer installed, and reports the
per-layer metrics instead of the end-to-end ones.

The end-to-end times, ``setup_s`` included, are scaled to a host of fixed
speed by a reference timed next to them (``hostspeed.py``): the shared host
this runs on changes speed by up to half from minute to minute. The same
figures as measured are printed, with the scale, on the line before the
result. Per-layer times are not scaled. The bench, the verifier child it
starts and the reference all run on one CPU, the lowest the process may
use, so the reference is timed on the CPU whose speed the workload saw.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The line before it
gives sample counts, decisions and failures by kind. The spans of the last
traced run of each workload are kept under ``.bench_runs/`` in the checkout;
nothing is written outside the checkout, and all traffic stays on loopback.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
# Set-up is timed at least SETUP_MIN_BUILDS times and, for cheap worlds,
# until SETUP_MIN_S have gone by (at most SETUP_MAX_BUILDS); setup_s is the median.
SETUP_MIN_BUILDS = 9
SETUP_MAX_BUILDS = 31
SETUP_MIN_S = 3.0

# End-to-end metric -> unit, in output order. The decide and publish p99s
# are printed on the line before the result but not gated: a 30 s run puts
# about ten federation-dht decisions beyond its p99, and on a shared host
# both p99s moved between runs of the same code by more than the p95 does.
END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "decide_p50_ms": "ms",
    "decide_p95_ms": "ms",
    "publish_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CALLS = ("calls_per_op", "calls/op")
SELF = ("self_us_per_op", "us/op")
# span name -> the per-op figures reported for it
LAYER_SPANS = {
    "core.verify_signature": (CALLS, SELF),
    "core.sign_record_set": (CALLS, SELF),
    "core.canonical_deserialize": (CALLS, SELF),
    "delegation.decode_attr_payload": (CALLS, SELF),
    "credential.verify_credential": (CALLS, SELF),
    "credential.import_json": (SELF,),
    "credential.collect": (SELF,),
    "netsim.get.FileBackend": (CALLS, SELF),
    "netsim.get.SimulatedDht": (CALLS, SELF),
    "netsim.dht.replica_nodes": (SELF,),
    "netsim.put": (SELF,),
    "netsim.dht.advance_clock": (SELF,),
    "namestore.publish": (SELF,),
    "namestore.load_namespace": (SELF,),
    "discovery.discover": (SELF,),
    "authz.authorize": (SELF,),
    "authz.nonce": (SELF,),
    "authz.request_access": (SELF,),
}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and insist abd comes from it."""
    if not (SRC / "abd" / "__init__.py").is_file():
        fail(f"no abd sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import abd

    if Path(abd.__file__).resolve().parent != (SRC / "abd").resolve():
        fail(f"imported abd from {abd.__file__}, not from {SRC}")


def percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in milliseconds."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


def end_to_end(window, scale: float, setup_s: list[float], setup_scale: float) -> dict[str, float]:
    """The end-to-end figures, with the window's times multiplied by
    ``scale`` and the builds' by ``setup_scale``."""
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    values = {
        "decisions_per_s": len(window.decide_ns) / (window.elapsed_s * scale),
        "decide_p50_ms": percentile(window.decide_ns, 0.50) * scale,
        "decide_p95_ms": percentile(window.decide_ns, 0.95) * scale,
        "publish_p50_ms": percentile(window.publish_ns, 0.50) * scale,
        "setup_s": statistics.median(setup_s) * setup_scale,
        "peak_rss_mb": usage / 1024,
    }
    return {name: values[name] for name in END_TO_END_UNITS}


def per_layer(summary: dict, base, base_scale: float, traced, traced_scale: float, failed_frac: float) -> dict:
    ops = traced.attempted
    metrics = {}
    for span, figures in LAYER_SPANS.items():
        entry = summary.get(span, {"calls": 0, "self_ns": 0})
        for suffix, unit in figures:
            value = entry["calls"] / ops if suffix == CALLS[0] else entry["self_ns"] / 1e3 / ops
            metrics[f"{span}.{suffix}"] = (value, unit)
    resolves = summary.get("netsim.resolve", {"calls": 0})["calls"]
    chain_steps = summary.get("discovery.chain_step", {"calls": 0})["calls"]
    post_ns = summary.get("authz.http.post", {"total_ns": 0})["total_ns"]
    served_ns = summary.get("authz.authorize_payload", {"total_ns": 0})["total_ns"]
    lookups = traced.lookups
    gets = lookups["lookups"]
    base_rate = len(base.decide_ns) / (base.elapsed_s * base_scale)
    traced_rate = len(traced.decide_ns) / (traced.elapsed_s * traced_scale)
    metrics.update(
        {
            "discovery.resolves_per_op": (resolves / ops, "resolves/op"),
            "discovery.useful_resolve_ratio": (chain_steps / resolves if resolves else 0.0, "ratio"),
            "authz.http.post_wait_us_per_op": ((post_ns - served_ns) / 1e3 / ops if post_ns else 0.0, "us/op"),
            "netsim.dht.messages_per_get": (lookups["messages"] / gets if gets else 0.0, "msgs/get"),
            "netsim.dht.cache_hit_ratio": (lookups["cache_hits"] / gets if gets else 0.0, "ratio"),
            "trace.overhead_frac": (1 - traced_rate / base_rate, "frac"),
            "failed_frac": (failed_frac, "frac"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # children inherit it
    # Turn SIGTERM into SystemExit so the finally below stops the verifier child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    from tracer import Tracer
    from workloads import FAILURE_KINDS, WORKLOADS, Window

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    RUNS_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    workload = WORKLOADS[args.workload](args.seed, scratch, RUNS_DIR / f"spans-{args.workload}.jsonl")
    try:
        setup_s: list[float] = []
        setup_scale = hostspeed.Scale()
        while len(setup_s) < SETUP_MIN_BUILDS or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_BUILDS):
            if setup_s:
                workload.close()
            start = time.perf_counter()
            workload.build()
            setup_s.append(time.perf_counter() - start)
            setup_scale.add(setup_s[-1])
        model_problems = workload.check_model()
        warm = workload.warm_up()
        if args.trace:
            base, base_scale = workload.measure(args.seconds / 2)
            tracer = Tracer()
            warm.merge(workload.start_tracing(tracer))
            traced, traced_scale = workload.measure(args.seconds / 2)
            summary = workload.stop_tracing()
            window = Window()
            window.merge(base)
            window.merge(traced)
        else:
            window, scale = workload.measure(args.seconds)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        missing = [span for span in workload.TRACED_SPANS if not summary.get(span, {}).get("calls")]
        if missing:
            fail(f"the traced run recorded no calls to {', '.join(missing)}; the tracer no longer reaches them")
    failed = sum(window.failures.values())
    failed_frac = failed / window.attempted
    if args.trace:
        metrics = per_layer(summary, base, base_scale, traced, traced_scale, failed_frac)
    else:
        values = end_to_end(window, scale, setup_s, setup_scale.value)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    tail_scale = 1.0 if args.trace else scale
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "transport": "loopback HTTP to 127.0.0.1 only" if workload.loopback else "in process, no network",
        "client_threads": workload.clients,
        "cpu": cpu,
        "loop": "closed",
        "samples": {
            "decide": len(window.decide_ns),
            "publish": len(window.publish_ns),
            "beyond_p95": {"decide": len(window.decide_ns) - math.ceil(0.95 * len(window.decide_ns))},
            "beyond_p99": {
                "decide": len(window.decide_ns) - math.ceil(0.99 * len(window.decide_ns)),
                "publish": len(window.publish_ns) - math.ceil(0.99 * len(window.publish_ns)),
            },
        },
        "decide_p99_ms": percentile(window.decide_ns, 0.99) * tail_scale,
        "publish_p99_ms": percentile(window.publish_ns, 0.99) * tail_scale,
        "decisions": dict(window.decisions),
        "failed_frac": failed_frac,
        "failures_by_kind": {kind: window.failures[kind] for kind in FAILURE_KINDS},
        "failure_examples": window.examples,
        "warm_up_failures": dict(warm.failures),
        "model_vs_oracle": model_problems or "agree",
        "setup_s_samples": setup_s,
        "host_scale": (
            {"base": base_scale, "traced": traced_scale}
            if args.trace
            else {"measure": scale, "setup": setup_scale.value}
        ),
        "unscaled": None if args.trace else end_to_end(window, 1.0, setup_s, 1.0),
        "lookup_stats_over_decisions": dict(window.lookups),
        "parameters": workload.describe(),
    }
    print(json.dumps(detail, sort_keys=True))
    correct = not failed and not warm.failures and not model_problems
    print(json.dumps({"correct": correct, "attempted": window.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
