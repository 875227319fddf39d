"""Tests of the benchmark harness itself. Run from the root of the checkout:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the certificate check imports the library

import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_prints_every_metric_and_no_failure():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    table = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        table[workload, metric] = (float(value), unit)
    spec = _spec()
    for w in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert table[w["name"], m["name"]][1] == m["unit"]
        assert table[w["name"], "failed_frac"] == (0.0, "1")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sweep_check_tolerates_solver_noise_only():
    reference = workloads.load_sweep_reference(4)
    check = workloads.check_sweep(reference)
    header, rows = reference[0], reference[1:]

    def csv(rows, shift):
        lines = [",".join(header)]
        for row in rows:
            floats = ["" if x == "" else f"{float(x) + shift:.9f}" for x in row[5:]]
            lines.append(",".join(row[:5] + floats))
        return "\n".join(lines) + "\n"

    check(csv(rows, 1e-13), 0)
    for bad in ((csv(rows, 3e-9), 0), (csv(rows[:-1], 0.0), 0), (csv(rows, 0.0), 4)):
        try:
            check(*bad)
        except workloads.CheckFailed:
            continue
        raise AssertionError("a wrong sweep output passed the check")


def test_decision_check_rechecks_certificates_and_witnesses():
    n, edges = 22, workloads.barrier_cubic(22)
    check = workloads.check_decision(n, edges, 1, "no")
    assert check(json.dumps({"kind": "violation", "S": [0], "o": 3, "bound": 1}), 3) == "no"
    bad = (
        (json.dumps({"kind": "violation", "S": [1], "o": 3, "bound": 1}), 3),  # not a witness
        (json.dumps({"kind": "factor", "edges": [list(edges[0])]}), 0),  # not a factor
        (json.dumps({"kind": "none"}), 3),  # no witness at all
    )
    for out, code in bad:
        try:
            check(out, code)
        except workloads.CheckFailed:
            continue
        raise AssertionError(f"a wrong decider output passed the check: {out}")
