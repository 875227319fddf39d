"""Benchmark of the oddfactor CLI: three workloads timed end to end, and per
layer in a separate traced run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both runs
    python3 perfbench/run.py --workload all --smoke    # the same at tiny sizes

Run it from the root of a checkout. It imports the library from ./src and
exits with code 2 when that is missing. A run repeats passes of the workload
in this process, checking every output, as long as the next pass would end
within --seconds. With --trace 0 it makes at least three passes and times
the set-up in fresh interpreters before each. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it records the run environment. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 alternates untraced and
traced passes and reports its per-layer metrics. --workload all runs each
workload both ways in child processes and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3  # untraced passes a --trace 0 run makes however short --seconds is
# set-up is timed this many times before each untraced pass, so that its
# median spans the whole run rather than one moment of a noisy machine
PROBES_PER_PASS = 3
SPANS_DIR = os.path.join(HERE, "out")
# The speed of a shared host drifts by up to a factor of 1.8 over minutes,
# and a pass slows with it. Each untraced pass and set-up time is therefore
# scaled by the host's speed, read from a fixed pure-Python loop timed next
# to it, to the speed at which that loop takes CALIBRATION_REF_S seconds
# (about a quiet 2-core x86-64 VM with CPython 3.11).
CALIBRATION_REF_S = 0.3


def _spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha(root: str):
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _environment(root: str) -> dict:
    import numpy

    src = os.path.join(root, "src", "oddfactor")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def time_setup(root: str, name: str, seed: int, smoke: bool) -> float:
    """Wall time of a fresh interpreter running probe.py."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), "1" if smoke else "0"]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, long enough to average out the host's
    sub-second jitter."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_400_000):
        acc += i * 7 % 13
    return time.perf_counter() - t0


def _merge(per_pass: list) -> dict:
    """Per-layer figures per traced pass: extremes over passes, the rest averaged."""
    merged = {}
    for key in set().union(*per_pass):
        values = [stats.get(key, 0) for stats in per_pass]
        if key.endswith("_max"):
            merged[key] = max(values)
        elif key.endswith("_min"):
            merged[key] = min(stats[key] for stats in per_pass if key in stats)
        else:
            merged[key] = sum(values) / len(values)
    return merged


def run_workload(args, root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    import oddfactor.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"error: imported {cli.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    spec = _spec(root)
    calls = workloads.build(args.workload, args.seed, args.smoke)
    items = sum(call.items for call in calls)
    for call in workloads.warm_calls(args.workload, args.seed):
        workloads.invoke(cli.main, call)

    tracer = Tracer() if args.trace else None
    setups, plain, scaled, traced, layer_stats = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        probes = []
        if tracer is None:
            probes = [time_setup(root, args.workload, args.seed, args.smoke) for _ in range(PROBES_PER_PASS)]
        before = calibration_s()
        setups += [t * CALIBRATION_REF_S / before for t in probes]
        elapsed, results = workloads.run_pass(cli, calls)
        plain.append(elapsed)
        scaled.append(elapsed * CALIBRATION_REF_S * 2 / (before + calibration_s()))
        attempted += items
        failed += workloads.count_failed(calls, results)
        if tracer is not None:
            tracer.clear()
            tracer.install()
            try:
                elapsed, results = workloads.run_pass(cli, calls)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            layer_stats.append(tracer.stats())
            attempted += items
            failed += workloads.count_failed(calls, results)
        # stop before a round that would end after --seconds
        now = time.perf_counter()
        if len(plain) >= (1 if tracer else MIN_PASSES) and now - start + (now - round_start) > args.seconds:
            break

    if tracer is None:
        values = {
            # total over total: a mean of the scaled passes, which spread
            # less from run to run than their median
            "items_per_s": items * len(scaled) / sum(scaled),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        values = _merge(layer_stats)
        values["trace.pass_s"] = statistics.median(traced)
        # each round runs its two passes back to back, so slow drift of the
        # host cancels in the per-round difference
        values["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
        wanted = spec["per_layer"]
        os.makedirs(SPANS_DIR, exist_ok=True)
        with open(os.path.join(SPANS_DIR, f"spans-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "raised", "counts"], "spans": tracer.spans}, fh)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    info = {
        "env": _environment(root),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "items_per_pass": items,
        "passes_s": plain,
        "scaled_passes_s": scaled,
        "traced_passes_s": traced,
        "failed_frac": failed / attempted,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, root: str) -> int:
    """Every workload, untraced and traced, each in its own process; one table."""
    metrics = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                metrics[f"{name}.{metric}"] = entry
                print(f"{name:<9} {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
            if trace == 0:
                print(f"{name:<9} {'failed_frac':<46} {result['failed'] / result['attempted']:>14.6g} 1")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40, help="how long a run repeats passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, to check the harness itself")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oddfactor", "cli.py")):
        print(f"error: {root} has no src/oddfactor; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
