"""Time-to-certified-verdict benchmark for pircodes.

    python3 perfbench/run.py --workload {packing,verify,maxsize,hunt} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/pircodes``).  With
``--trace 0`` it prints the end-to-end metrics of one workload; with
``--trace 1`` the per-layer metrics of the traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
Full results, with the environment, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from statistics import quantiles

from recorder import REFERENCE_SECONDS, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7  # set-up processes timed to `ready` per run
CHILD_TIMEOUT = 150.0  # seconds; a run must end within 180


def run_worker(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to its `ready` line, its
    JSON result or None).  The worker is killed if it outlives CHILD_TIMEOUT."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or ready.strip() != "ready":
        raise SystemExit(f"benchmark worker {args} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def timed_setup(common: list[str]) -> tuple[float, float]:
    """(raw, scaled) seconds from a worker's start to its first timed call;
    scaled by the reference kernel timed just before and after."""
    before = reference_seconds()
    setup, _ = run_worker([*common, "--setup-only"])
    after = reference_seconds()
    return setup, setup * 2 * REFERENCE_SECONDS / (before + after)


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def measure(common: list[str], seconds: int) -> tuple[dict, dict]:
    """Set-up samples, then the measuring worker: (metric values, result)."""
    run_worker([*common, "--setup-only"])  # fills the bytecode and file caches
    raw_setups, setups = zip(*(timed_setup(common) for _ in range(SETUP_SAMPLES)))
    _, result = run_worker([*common, "--seconds", str(seconds)])
    result["setup_s"] = quartiles(list(setups))
    result["raw_setup_s"] = quartiles(list(raw_setups))
    values = {"wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
              "setup_s": result["setup_s"]["median"], "peak_rss_mb": result["peak_rss_mb"]}
    return values, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring time of a --trace 0 run; the traced run does a fixed amount")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pircodes", "__init__.py")):
        print(f"no pircodes sources under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "python": platform.python_version(), "git_sha": git_sha(),
           "workload": args.workload, "seed": args.seed, "trace": args.trace}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        _, result = run_worker([*common, "--trace", "1"])
        values = result["metrics"]
    else:
        values, result = measure(common, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted = result["attempted"]
    failed = len(result["failures"])
    correct = failed == 0 and not result["nondeterministic"]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failed_share": failed / attempted, **result}, fh, indent=1)

    print(f"env {json.dumps(env)}")
    for problem in result["failures"][:20] + result["nondeterministic"]:
        print(f"FAILED {problem}")
        print(f"FAILED {problem}", file=sys.stderr)
    if not args.trace:
        passes = quartiles(result["pass_wall_s"])
        print(f"raw pass wall: median {passes['median']:.4f} s, q1 {passes['q1']:.4f}, "
              f"q3 {passes['q3']:.4f}, n={passes['n']} passes")
        setup = result["setup_s"]
        print(f"setup samples: q1 {setup['q1']:.4f} s, q3 {setup['q3']:.4f}, n={setup['n']}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_share: {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"serial counts: {json.dumps(result['counters'])}")
    print(f"full result: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
