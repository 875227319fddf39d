"""Inputs, passes and output checks for the three benchmark workloads.

A workload is a list of CLI invocations built from the benchmark seed. A pass
runs every invocation in-process through ``oddfactor.cli.main``; the checks
read only the captured stdout and the exit code. Graphs reach the CLI as
edge-list text on stdin, so a pass writes no files.

The inputs are generated here, not by the library, so a later change to the
library's own sampler cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_REFERENCE = os.path.join(HERE, "sweep_reference.csv")

# the library's comparison band; a solver change far below it must not fail a check
GUARD = 1e-9
# a campaign trial whose lambda_3 lies this close to the applicability edge
# rho - GUARD may land on either side of it, so it is pinned neither way
EDGE_BAND = 1e-6

EXIT_OK = 0
EXIT_NEGATIVE = 3

# full size and smoke size of every workload parameter
SIZES = {
    False: {
        "sweep_r_max": 30,
        "campaign_trials": 500,
        "barrier_orders": (58, 64, 70, 76, 82),
        "cubic_orders": (18, 20),
        "quintic_order": 40,
    },
    True: {
        "sweep_r_max": 6,
        "campaign_trials": 10,
        "barrier_orders": (22, 28),
        "cubic_orders": (8, 10),
        "quintic_order": 12,
    },
}

WORKLOADS = ("sweep", "campaign", "deciders")


class CheckFailed(Exception):
    """A CLI invocation returned an output the benchmark does not accept."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv, optional stdin text, the items it completes,
    and the check its (stdout, exit code) must pass."""

    argv: tuple
    stdin: str | None
    items: int
    check: Callable[[str, int], None] | None


# ---------------------------------------------------------------------------
# graphs, as plain (n, edge list) pairs; nothing here imports the library


def edge_list_text(n: int, edges) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def _adjacency(n: int, edges, removed=()):
    gone = set(removed)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if u not in gone and v not in gone:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def component_orders(n: int, edges, removed=()) -> list:
    """Orders of the connected components of G - removed, by breadth-first search."""
    gone = set(removed)
    adj = _adjacency(n, edges, gone)
    seen = set(gone)
    orders = []
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        orders.append(len(queue))
    return orders


def odd_components(n: int, edges, removed=()) -> int:
    return sum(k % 2 for k in component_orders(n, edges, removed))


def _is_bridgeless(n: int, edges) -> bool:
    for e in edges:
        rest = [f for f in edges if f != e]
        if len(component_orders(n, rest)) > 1:
            return False
    return True


def barrier_cubic(n: int):
    """Named adversarial input: a connected cubic graph with no perfect matching.

    Vertex 0 is a hub joined by a bridge to each of three gadgets of
    k = (n - 1) / 3 vertices. A gadget is the prism C_m x K2 (k = 2m + 1) with
    one rung a0-b0 replaced by an attachment vertex joined to a0, b0 and the
    hub. G - {hub} has three odd components, so S = {hub} is a witness that
    no odd [1,1]-factor exists, and the exact search has to prove it.
    """
    k = (n - 1) // 3
    if n != 3 * k + 1 or k % 2 == 0 or k < 7:
        raise ValueError(f"barrier order must be 3k+1 with odd k >= 7, got {n}")
    m = (k - 1) // 2
    edges = []
    for j in range(3):
        w = 1 + j * k
        a = [w + 1 + i for i in range(m)]
        b = [w + 1 + m + i for i in range(m)]
        edges += [(0, w), (w, a[0]), (w, b[0])]
        for i in range(m):
            edges += [(a[i], a[(i + 1) % m]), (b[i], b[(i + 1) % m])]
            if i > 0:
                edges.append((a[i], b[i]))
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    if set(degrees) != {3} or len(set(edges)) != len(edges):
        raise AssertionError(f"barrier graph on {n} vertices is not simple 3-regular")
    if len(component_orders(n, edges)) != 1:
        raise AssertionError(f"barrier graph on {n} vertices is not connected")
    if odd_components(n, edges, removed=(0,)) != 3:
        raise AssertionError(f"barrier graph on {n} vertices: G - hub lacks 3 odd components")
    return edges


def _pair_stubs(n: int, r: int, rng: random.Random):
    """Join random stub pairs one at a time, skipping loops and repeats;
    None when the last stubs cannot form a new edge."""
    stubs = [v for v in range(n) for _ in range(r)]
    edges = set()
    while stubs:
        for _ in range(100):
            i, j = rng.sample(range(len(stubs)), 2)
            e = (min(stubs[i], stubs[j]), max(stubs[i], stubs[j]))
            if e[0] != e[1] and e not in edges:
                break
        else:
            return None
        edges.add(e)
        for k in (max(i, j), min(i, j)):
            stubs[k] = stubs[-1]
            stubs.pop()
    return sorted(edges)


def random_regular_edges(n: int, r: int, rng: random.Random, bridgeless: bool = False):
    """Connected simple r-regular graph from random stub pairings, with restarts.

    With bridgeless=True (cubic graphs) the sample also has no bridge, so by
    Petersen's theorem it has a perfect matching and the subset check has to
    enumerate every subset before it can say so.
    """
    while True:
        edges = _pair_stubs(n, r, rng)
        if edges is None:
            continue
        if len(component_orders(n, edges)) != 1:
            continue
        if bridgeless and not _is_bridgeless(n, edges):
            continue
        return edges


# ---------------------------------------------------------------------------
# output checks


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _load_json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON object: {out[:200]!r}") from exc


def load_sweep_reference(r_max: int) -> list:
    with open(SWEEP_REFERENCE, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [row for row in rows[1:] if int(row[0]) <= r_max]


SWEEP_INT_COLUMNS = 5  # r, b, ceil_rb, epsilon, eta; the rest are floats or blank


def check_sweep(reference: list) -> Callable[[str, int], None]:
    def check(out: str, code: int) -> None:
        _expect(code == EXIT_OK, f"sweep exited {code}")
        rows = list(csv.reader(io.StringIO(out)))
        _expect(rows[:1] == reference[:1], f"sweep header {rows[:1]} != {reference[:1]}")
        _expect(len(rows) == len(reference), f"sweep has {len(rows) - 1} rows, want {len(reference) - 1}")
        for got, want in zip(rows[1:], reference[1:]):
            _expect(len(got) == len(want), f"sweep row {got} has the wrong width")
            _expect(got[:SWEEP_INT_COLUMNS] == want[:SWEEP_INT_COLUMNS], f"sweep row {got} != {want}")
            for g, w in zip(got[SWEEP_INT_COLUMNS:], want[SWEEP_INT_COLUMNS:]):
                if g == "" or w == "":
                    _expect(g == w, f"sweep row {got}: blank mismatch against {want}")
                else:
                    _expect(abs(float(g) - float(w)) <= GUARD, f"sweep row {got} != {want}")

    return check


@functools.lru_cache(maxsize=None)
def campaign_applicable_range(master_seed: int, trials: int) -> tuple:
    """Fewest and most applicable trials a correct campaign can report.

    Each trial's (r, b, n, seed) is derived as the library's
    verify._campaign_trial does at the CLI defaults (n 8-20, r 3-7, random b)
    and its graph comes from the library's sampler, but its lambda_3 comes
    from numpy.linalg.eigvalsh and its rho from the sweep reference, so a
    wrong eigensolver shows as wrong counts. A trial within EDGE_BAND of the
    edge counts either way.
    """
    import numpy
    from oddfactor.verify import random_regular

    reference = load_sweep_reference(7)
    col = reference[0].index("rho")
    rho = {(int(row[0]), int(row[1])): float(row[col]) for row in reference[1:]}
    sure = unsure = 0
    for index in range(trials):
        seed = master_seed * 1_000_003 + index
        rng = random.Random(seed)
        r = rng.randrange(3, 8)
        b = rng.choice(range(1, r, 2))
        n = rng.choice([n for n in range(8, 21) if n % 2 == 0 and n > r])
        a = numpy.zeros((n, n))
        for u, v in random_regular(n, r, seed=seed).edges:
            a[u, v] = a[v, u] = 1.0
        gap = numpy.linalg.eigvalsh(a)[-3] - (rho[r, b] - GUARD)
        if abs(gap) <= EDGE_BAND:
            unsure += 1
        elif gap < 0:
            sure += 1
    return sure, sure + unsure


def check_campaign(trials: int, master_seed: int) -> Callable[[str, int], None]:
    def check(out: str, code: int) -> None:
        _expect(code == EXIT_OK, f"campaign exited {code}")
        s = _load_json(out)
        _expect(s.get("trials") == trials, f"campaign ran {s.get('trials')} trials, want {trials}")
        _expect(s["found"] == s["applicable"], f"campaign found {s['found']} of {s['applicable']}")
        # computed on the first check, outside the timed pass
        lo, hi = campaign_applicable_range(master_seed, trials)
        _expect(lo <= s["applicable"] <= hi, f"campaign has {s['applicable']} applicable trials, want {lo}..{hi}")
        _expect(s["applicable"] + s["inapplicable"] == trials, "campaign counts do not add up")
        _expect(s["counterexamples"] == [], "campaign reported counterexamples")

    return check


def _check_certificate(n: int, edges, b: int, payload: dict) -> None:
    """A positive answer: recheck the factor with the library's verifier."""
    from oddfactor.factor import FactorCertificate, verify_certificate
    from oddfactor.graphs import Graph

    picked = tuple(tuple(e) for e in payload["edges"])
    result = verify_certificate(Graph(n, edges), b, FactorCertificate(edges=picked, degrees=()))
    _expect(result.ok, f"factor certificate rejected: {result.reason}")


def _check_witness(n: int, edges, b: int, s, claimed_o: int | None = None) -> None:
    """A negative answer: recount the odd components of G - S for the witness S."""
    o = odd_components(n, edges, removed=s)
    _expect(claimed_o in (None, o), f"witness S={s}: recount {o} odd components, output says {claimed_o}")
    _expect(o > b * len(s), f"witness S={s} is not a violation: o={o}, b|S|={b * len(s)}")


def check_decision(n: int, edges, b: int, want: str | None, known_witness=None):
    """Check one decider answer and return it as 'yes' or 'no'.

    want is the answer fixed by construction, or None when the answer is
    only cross-checked against the other decider.
    """

    def check(out: str, code: int) -> str:
        payload = _load_json(out)
        kind = payload.get("kind")
        if kind in ("factor", "holds"):
            _expect(code == EXIT_OK, f"{kind} answer exited {code}")
            if kind == "factor":
                _check_certificate(n, edges, b, payload)
            answer = "yes"
        elif kind in ("violation", "none"):
            _expect(code == EXIT_NEGATIVE, f"{kind} answer exited {code}")
            if kind == "violation":
                _check_witness(n, edges, b, payload["S"], payload["o"])
            else:
                _expect(known_witness is not None, "no-factor answer without any witness")
                _check_witness(n, edges, b, known_witness)
            answer = "no"
        else:
            raise CheckFailed(f"unknown answer kind {kind!r}")
        _expect(want is None or answer == want, f"answer {answer}, want {want}")
        return answer

    return check


def _agreeing_pair(n: int, edges, b: int, max_n: int) -> list:
    """check and find-factor on one graph; the second call's check also
    compares its answer with the first one's."""
    text = edge_list_text(n, edges)
    first = check_decision(n, edges, b, None)
    answers = []

    def check_first(out: str, code: int) -> None:
        answers.clear()
        answers.append(first(out, code))

    def check_second(out: str, code: int) -> None:
        got = first(out, code)
        _expect(answers == [got], f"deciders disagree: check said {answers}, find-factor said {got}")

    return [
        Call(("check", "-", "--b", str(b), "--max-n", str(max_n)), text, 1, check_first),
        Call(("find-factor", "-", "--b", str(b), "--max-edges", str(len(edges))), text, 1, check_second),
    ]


# ---------------------------------------------------------------------------
# workloads


def build(name: str, seed: int, smoke: bool = False) -> list:
    """The calls of one pass of a workload at its full or smoke size."""
    size = SIZES[smoke]
    if name == "sweep":
        # the sweep has no random input; the seed changes nothing
        r_max = size["sweep_r_max"]
        reference = load_sweep_reference(r_max)
        return [Call(("verify", "sweep", "--r-max", str(r_max)), None, len(reference) - 1, check_sweep(reference))]
    if name == "campaign":
        trials = size["campaign_trials"]
        argv = ("verify", "campaign", "--trials", str(trials), "--master-seed", str(seed), "--jobs", "1")
        return [Call(argv, None, trials, check_campaign(trials, seed))]
    if name == "deciders":
        calls = []
        for n in size["barrier_orders"]:
            edges = barrier_cubic(n)
            check = check_decision(n, edges, 1, "no", known_witness=[0])
            argv = ("find-factor", "-", "--b", "1", "--max-edges", str(len(edges)))
            calls.append(Call(argv, edge_list_text(n, edges), 1, check))
        n = size["barrier_orders"][0]
        edges = barrier_cubic(n)
        check = check_decision(n, edges, 1, "no")
        calls.append(Call(("check", "-", "--b", "1", "--max-n", str(n)), edge_list_text(n, edges), 1, check))
        for n in size["cubic_orders"]:
            rng = random.Random(f"deciders/{seed}/cubic/{n}")
            calls += _agreeing_pair(n, random_regular_edges(n, 3, rng, bridgeless=True), 1, n)
        n = size["quintic_order"]
        for b in (1, 3):
            rng = random.Random(f"deciders/{seed}/quintic/{n}/{b}")
            edges = random_regular_edges(n, 5, rng)
            check = check_decision(n, edges, b, "yes")
            argv = ("find-factor", "-", "--b", str(b), "--max-edges", str(len(edges)))
            calls.append(Call(argv, edge_list_text(n, edges), 1, check))
        return calls
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warm_calls(name: str, seed: int) -> list:
    """The smallest call into every layer a workload uses; set-up runs these."""
    if name == "sweep":
        return [Call(("verify", "sweep", "--r-max", "4"), None, 1, None)]
    if name == "campaign":
        return [Call(("verify", "campaign", "--trials", "2", "--master-seed", str(seed), "--jobs", "1"), None, 1, None)]
    if name == "deciders":
        edges = barrier_cubic(22)
        text = edge_list_text(22, edges)
        return [
            Call(("find-factor", "-", "--b", "1", "--max-edges", str(len(edges))), text, 1, None),
            Call(("check", "-", "--b", "1", "--max-n", "22"), text, 1, None),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# running


def invoke(cli_main, call: Call):
    """Run one call through the CLI entry point; return (stdout, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(call.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(call.argv))
    finally:
        sys.stdin = saved_stdin
    return out.getvalue(), code


def run_pass(cli, calls: list):
    """Time one pass; return (seconds, [(stdout, code) or exception text])."""
    results = []
    t0 = time.perf_counter()
    for call in calls:
        try:
            # looked up on every call, so an installed trace wrapper is used
            results.append(invoke(cli.main, call))
        except Exception:  # an escaped exception fails the item, not the run
            results.append(traceback.format_exc())
    return time.perf_counter() - t0, results


def count_failed(calls: list, results: list) -> int:
    """Items whose call raised, exited unexpectedly or failed its check."""
    failed = 0
    for call, result in zip(calls, results):
        try:
            if isinstance(result, str):
                raise CheckFailed(f"raised:\n{result}")
            call.check(*result)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            failed += call.items
            print(f"check failed: {' '.join(call.argv)}: {exc}", file=sys.stderr)
    return failed
