"""One benchmark process: builds a workload's inputs, prints ``ready``, then
runs timed passes (or the traced run) and prints its result as one JSON line.

Started by run.py; the time from its start to ``ready`` is the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from recorder import Recorder, SpeedGauge, cpu_seconds  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    open11_code,
    run_probes,
)

MIN_PASSES = 3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped
    children (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def timed_pass(name: str, inputs, rec: Recorder) -> tuple[float, float]:
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    WORKLOADS[name].run(inputs, rec)
    return time.perf_counter() - wall0, cpu_seconds() - cpu0


def serial_counts(rec: Recorder) -> dict[str, int]:
    """Counters that must repeat exactly; parallel node counts depend on how
    the work is split and are never compared."""
    return {k: v for k, v in sorted(rec.counters.items()) if "parallel" not in k}


def count_drift(first: Recorder, later: list[Recorder]) -> list[str]:
    """Passes (numbered from 1) whose serial counts differ from pass 1's."""
    reference = serial_counts(first)
    out = []
    for i, rec in enumerate(later, start=2):
        got = serial_counts(rec)
        if got != reference:
            diff = sorted(k for k in reference.keys() | got.keys()
                          if reference.get(k) != got.get(k))
            out.append(f"pass {i}: serial node counts differ from pass 1 in {diff}")
    return out


def composed_pass(recs: list[Recorder], field: str) -> tuple[float, float]:
    """(wall, cpu) of one pass: the sum over its operations of each one's
    median over the passes.  A burst of load from other processes lands on
    one pass of an operation, which the median drops, where it would
    inflate a whole pass."""
    ops = getattr(recs[0], field)
    return tuple(sum(median(getattr(r, field)[op][i] for r in recs) for op in ops)
                 for i in (0, 1))


def measure(name: str, inputs, seconds: float) -> dict:
    """Closed loop, one client: passes back to back until another pass would
    end after `seconds`; always at least MIN_PASSES."""
    start = time.perf_counter()
    gauge = SpeedGauge()
    walls, cpus, recs = [], [], []
    while True:
        rec = Recorder(trace=False, gauge=gauge)
        wall, cpu = timed_pass(name, inputs, rec)
        walls.append(wall)
        cpus.append(cpu)
        recs.append(rec)
        if len(walls) >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            break
    wall, cpu = composed_pass(recs, "op_seconds")
    raw_wall, raw_cpu = composed_pass(recs, "raw_op_seconds")
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": sum(r.attempted for r in recs),
        "failures": [f for r in recs for f in r.failures],
        "nondeterministic": count_drift(recs[0], recs[1:]),
        "counters": serial_counts(recs[0]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(traced: list[Recorder], probes: Recorder) -> dict[str, float]:
    def s(name: str) -> float:
        return sum(r.seconds(name) for r in traced)

    c: Counter = sum((r.counters for r in traced), Counter())
    p = probes.counters
    m = {
        "gf2.solve_unit.s": probes.seconds("gf2.solve_unit"),
        "gf2.min_distance.s": probes.seconds("gf2.min_distance"),
        "recovery.verify_pir.s": s("recovery.verify_pir"),
        "recovery.verify_pir.nodes": c["recovery.verify_pir.nodes"],
        "recovery.verify_batch.s": s("recovery.verify_batch"),
        "recovery.verify_batch.nodes": c["recovery.verify_batch.nodes"],
        "recovery.minimal_recovery_sets.s": probes.seconds("recovery.minimal_recovery_sets"),
        "recovery.minimal_recovery_sets.nodes": p["recovery.minimal_recovery_sets.nodes"],
        "designs.exact_packing.s": s("designs.exact_packing"),
        "designs.exact_packing.nodes": c["designs.exact_packing.nodes"],
        "constructions.build_packing_pir.s": s("constructions.build_packing_pir"),
        "constructions.build_pir3.s": s("constructions.build_pir3"),
        "constructions.extend_for_even_t.s": s("constructions.extend_for_even_t"),
        "bounds.max_code_size.s": s("bounds.max_code_size"),
        "bounds.max_code_size.nodes": c["bounds.max_code_size.nodes"],
        "bounds.max_code_size.setup_s": probes.seconds("bounds.max_code_size.setup"),
        "bounds.max_code_size.parallel_s": s("bounds.max_code_size.parallel"),
        "bounds.max_code_size.parallel_nodes": c["bounds.max_code_size.parallel_nodes"],
        "bounds.optimality_report_3pir.s": s("bounds.optimality_report_3pir"),
        "bounds.optimality_report_3pir.inner_s": probes.seconds("bench.optimality_inner"),
        "hamming.check_no_3pir_any_encoder.s": s("hamming.check_no_3pir_any_encoder"),
        "search.search_codes.orderly_s": s("search.search_codes.orderly"),
        "search.search_codes.orderly_nodes": c["search.search_codes.orderly_nodes"],
        "search.search_codes.heuristic_s": s("search.search_codes.heuristic"),
        "search.encoder_exists_3pir.s": s("search.encoder_exists_3pir"),
        "search.encoder_exists_3pir.triples": c["search.encoder_exists_3pir.triples"],
        "search.encoder_exists_3pir.candidates": c["search.encoder_exists_3pir.candidates"],
        "search.encoder_exists_3pir.nodes": c["search.encoder_exists_3pir.nodes"],
    }
    m["recovery.verify_pir.nodes_per_s"] = _ratio(
        m["recovery.verify_pir.nodes"], m["recovery.verify_pir.s"])
    m["recovery.minimal_recovery_sets.minimal_per_node"] = _ratio(
        p["recovery.minimal_recovery_sets.kept"], p["recovery.minimal_recovery_sets.nodes"])
    m["designs.exact_packing.nodes_per_s"] = _ratio(
        m["designs.exact_packing.nodes"], m["designs.exact_packing.s"])
    m["bounds.clique.nodes_per_s"] = _ratio(
        p["bounds.clique.nodes"],
        probes.seconds("bounds.clique.capped") - probes.seconds("bounds.clique.setup"))
    m["hamming.check_no_3pir_any_encoder.triples_per_s"] = _ratio(
        c["hamming.check_no_3pir_any_encoder.triples"], m["hamming.check_no_3pir_any_encoder.s"])
    m["search.search_codes.orderly_nodes_per_s"] = _ratio(
        m["search.search_codes.orderly_nodes"], m["search.search_codes.orderly_s"])
    m["search.encoder_exists_3pir.triples_per_s"] = _ratio(
        m["search.encoder_exists_3pir.triples"], m["search.encoder_exists_3pir.s"])
    m["search.encoder_exists_3pir.open11_triples_per_s"] = _ratio(
        p["search.encoder_exists_3pir.open11_triples"],
        probes.seconds("search.encoder_exists_3pir.open11"))
    self_time: Counter = sum((Counter(r.self_seconds_by_layer()) for r in traced), Counter())
    for layer in ("gf2", "recovery", "designs", "constructions", "hamming", "bounds",
                  "search", "bench"):
        m[f"{layer}.self_s"] = self_time[layer]
    return m


def span_seconds(calls: int = 20_000) -> float:
    """What one span adds to a call: traced minus untraced time of a no-op
    call, per call."""
    elapsed = []
    for trace in (False, True):
        rec = Recorder(trace=trace)
        start = time.perf_counter()
        for _ in range(calls):
            rec.call("bench.noop", int)
        elapsed.append(time.perf_counter() - start)
    return (elapsed[1] - elapsed[0]) / calls


def traced_run(name: str, inputs: dict, seed: int) -> dict:
    """One traced pass of every workload (`name` first), then the probes.

    The speed gauge runs between operations, outside every span, so that
    `trace.wall_s` compares with the untraced runs' `wall_s`; their
    difference is the tracing overhead.  `trace.overhead_s` is the same
    difference measured directly: the spans of the pass times the cost of
    one span, which a single pass's noise would hide."""
    origin = time.perf_counter()
    gauge = SpeedGauge()
    traced = {}
    for other in [name] + [w for w in WORKLOADS if w != name]:
        traced[other] = Recorder(trace=True, gauge=gauge)
        timed_pass(other, inputs[other], traced[other])
    probes = Recorder(trace=True)
    probe_info = run_probes(inputs["verify"], open11_code(seed), probes)
    metrics = layer_metrics(list(traced.values()), probes)
    own = traced[name]
    metrics["trace.wall_s"] = sum(w for w, _ in own.op_seconds.values())
    metrics["trace.overhead_s"] = len(own.spans) * span_seconds()
    metrics["trace.overhead_share"] = _ratio(metrics["trace.overhead_s"], metrics["trace.wall_s"])
    return {
        "metrics": metrics,
        "attempted": sum(r.attempted for r in traced.values()),
        "failures": [f for r in traced.values() for f in r.failures],
        "nondeterministic": [],  # checked across the passes of untraced runs
        "counters": serial_counts(own),
        "trace": {
            "passes": {w: r.spans_jsonable(origin) for w, r in traced.items()},
            "probes": probes.spans_jsonable(origin),
            "probe_info": probe_info,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    names = list(WORKLOADS) if args.trace else [args.workload]
    inputs = {w: WORKLOADS[w].inputs(args.seed) for w in names}
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(args.workload, inputs, args.seed)
    else:
        result = measure(args.workload, inputs[args.workload], args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
