"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines on passing
runs too. The sweep covers 3 <= r <= 60 with odd b < r; constructions exist
for every even r and for odd r once eta >= 3, and cached spectra are shared
across criteria.
"""

import itertools
import math
import random

import pytest

from oddfactor.factor import check_amahashi, find_odd_factor, verify_certificate
from oddfactor.graphs import Graph
from oddfactor.spectral import spectra
from oddfactor.thresholds import (
    build_extremal,
    extremal_missing,
    lwy_threshold,
    prior_1factor_thresholds,
    threshold_params,
)
from oddfactor.verify import (
    case2_polynomial_check,
    randomized_theorem_campaign,
    theorem_check,
)
from conftest import (
    block_quotient,
    dfs_odd_factor,
    extremal_partition,
    induced_subgraph,
    oracle_spectrum,
    petersen_graph,
    quotient_roots,
    random_graph,
)

R_MAX = 60


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def sweep_data():
    """(params, graph, partition, spectrum) for every pair; construction data
    is None on degenerate pairs and cached by (r, eta) otherwise."""
    rows = []
    cache = {}
    for r in range(3, R_MAX + 1):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if r % 2 == 1 and p.eta < 3:
                rows.append((p, None, None, None))
                continue
            key = (r, p.eta)
            if key not in cache:
                h = build_extremal(p)
                parts = extremal_partition(p)
                spec = oracle_spectrum(h)
                cache[key] = (h, parts, spec)
            rows.append((p, *cache[key]))
    return rows


def test_criterion_1_sharpness_reproduction(sweep_data):
    worst = 0.0
    checked = 0
    for p, h, parts, spec in sweep_data:
        if h is None:
            continue
        checked += 1
        worst = max(worst, abs(spec[0] - p.rho))
    ok = worst < 1e-9
    assert report(1, ok, f"{checked} constructions, max |lambda1 - rho| = {worst:.3e}")


def test_criterion_2_closed_form_spot_values():
    issues = []
    if abs(threshold_params(3, 1).rho - 2 * math.sqrt(2)) >= 1e-12:
        issues.append("rho(3,1) != 2*sqrt(2)")
    cgh4 = (4 - 2 + math.sqrt(4**2 + 12)) / 2
    if abs(threshold_params(4, 1).rho - cgh4) >= 1e-12:
        issues.append("rho(4,1) mismatch")
    cgh5 = (5 - 3 + math.sqrt((5 + 1) ** 2 + 16)) / 2
    if abs(threshold_params(5, 1).rho - cgh5) >= 1e-12:
        issues.append("rho(5,1) mismatch")
    _, cgh3 = prior_1factor_thresholds(3)
    if abs(cgh3 - 2.85577) >= 1e-5:
        issues.append(f"cubic root {cgh3!r} is not 2.85577 to 5 decimals")
    if abs(cgh3**3 - cgh3**2 - 6 * cgh3 + 2) >= 1e-10:
        issues.append("cubic residual too large")
    assert report(2, not issues, "; ".join(issues) or "all spot values match")


def test_criterion_3_improvement_over_lwy():
    """rho improves on the Lu-Wu-Yang bound as a hypothesis on lambda_3.

    On a connected r-regular graph lambda_3 <= lambda_2 < r, so the hypothesis
    lambda_3 < t depends on t only through min(t, r). The criterion therefore
    compares the capped thresholds, min(rho, r) >= min(lwy, r), over every
    pair 3 <= r <= R_MAX with odd b < r, straight from the closed forms:
    - eta >= 1: rho > lwy strictly, so rho covers graphs that lwy does not;
    - eta = 0: rho == r exactly and lwy > r, so both capped thresholds are r
      and the two hypotheses cover every connected r-regular graph alike.
    The raw shortfall rho < lwy at eta = 0 stays pinned in test_verify.py.
    """
    bad = []
    strict = tied = 0
    min_margin, min_at = math.inf, None
    for r in range(3, R_MAX + 1):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            lwy = lwy_threshold(p)
            if p.eta == 0:
                tied += 1
                sharp = p.rho == r < lwy
            else:
                strict += 1
                sharp = p.rho > lwy
                if p.rho - lwy < min_margin:
                    min_margin, min_at = p.rho - lwy, (r, b)
            if not (sharp and min(p.rho, r) >= min(lwy, r)):
                bad.append((r, b, p.eta))
    strict_ok = (
        threshold_params(3, 1).rho > lwy_threshold(threshold_params(3, 1))
        and threshold_params(4, 1).rho > lwy_threshold(threshold_params(4, 1))
    )
    ok = not bad and strict_ok
    detail = (
        f"{strict + tied} pairs: rho > lwy strictly on {strict} (eta >= 1, "
        f"smallest margin {min_margin:.3e} at {min_at}), min(rho, r) = "
        f"min(lwy, r) = r on {tied} (eta = 0)"
        if ok
        else f"capped comparison fails on {len(bad)} pairs (r, b, eta): {bad[:4]}; "
        f"strict at (3,1)/(4,1): {strict_ok}"
    )
    assert report(3, ok, detail)


def test_criterion_4_claim2_structure(sweep_data):
    bad = []
    for p, h, parts, spec in sweep_data:
        if h is None:
            continue
        expected_n = p.r + 1 + p.parity_offset
        degs = h.degrees()
        if (
            h.n != expected_n
            or 2 * len(h.edges) != p.r * expected_n - p.eta
            or degs.count(p.r - 1) != p.eta
            or degs.count(p.r) != expected_n - p.eta
        ):
            bad.append((p.r, p.b))
    assert report(4, not bad, f"count mismatches: {bad}" if bad else "vertex/edge/degree counts exact")


def test_criterion_5_oracle_equivalence_exhaustive_6():
    pairs = list(itertools.combinations(range(6), 2))
    disagreements = 0
    total = 0
    for mask in range(1 << 15):
        edges = [pairs[i] for i in range(15) if mask >> i & 1]
        g = Graph(6, edges)
        for b in (1, 3):
            total += 1
            via_search = find_odd_factor(g, b) is not None
            via_criterion = check_amahashi(g, b) is None
            via_dfs = dfs_odd_factor(g, b) is not None
            if not via_search == via_criterion == via_dfs:
                disagreements += 1
    ok = disagreements == 0
    assert report(5, ok, f"{total} decider triples on all 2^15 graphs, {disagreements} disagreements")


def test_criterion_6_theorem_campaign():
    summary = randomized_theorem_campaign(
        500, n_range=(8, 20), r_range=(3, 7), b_policy="random", master_seed=20260810
    )
    pet = theorem_check(petersen_graph(), 1)
    pet_cert = verify_certificate(petersen_graph(), 1, find_odd_factor(petersen_graph(), 1))
    pet_ok = (
        abs(pet.lambda3 - 1.0) < 1e-9
        and abs(pet.rho - 2 * math.sqrt(2)) < 1e-12
        and pet.implication_applicable
        and pet_cert.ok
    )
    ok = (
        summary.trials == 500
        and summary.found == summary.applicable
        and summary.applicable + summary.inapplicable == 500
        and pet_ok
    )
    assert report(
        6,
        ok,
        f"500 trials: {summary.applicable} applicable, all factored; "
        f"petersen lambda3={pet.lambda3:.9f} < rho={pet.rho:.9f}, matching certified={pet_cert.ok}",
    )


def test_criterion_7_case2_inequality():
    worst_q = float("-inf")
    worst_gap = 0.0
    checked = 0
    for r in range(3, R_MAX + 1, 2):
        for b in range(1, r, 2):
            rep = case2_polynomial_check(r, b)
            checked += 1
            worst_q = max(worst_q, rep.max_q_at_rho)
            worst_gap = max(worst_gap, rep.max_form_gap)
    ok = worst_q <= 1e-9 and worst_gap <= 1e-9
    assert report(
        7, ok, f"{checked} (r,b) grids, max q(rho) = {worst_q:.3e}, max factored-form gap = {worst_gap:.3e}"
    )


def test_criterion_8_spectral_foundation(sweep_data):
    issues = []

    rng = random.Random(88)
    worst_trace = worst_energy = 0.0
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 13), 0.5)
        vals = spectra([g])[0]
        worst_trace = max(worst_trace, abs(sum(vals)))
        worst_energy = max(worst_energy, abs(sum(v * v for v in vals) - 2 * len(g.edges)))
    if worst_trace >= 1e-8 or worst_energy >= 1e-8:
        issues.append(f"trace/energy off: {worst_trace:.2e}/{worst_energy:.2e}")

    rng = random.Random(89)
    done = 0
    worst_interlace = -1.0
    while done < 200:
        g = random_graph(rng, rng.randrange(2, 13), 0.5)
        keep = [v for v in range(g.n) if rng.random() < 0.6]
        if not keep:
            continue
        h, _ = induced_subgraph(g, keep)
        gl, hl = spectra([g, h])
        worst_interlace = max(worst_interlace, max(x - gl[i] for i, x in enumerate(hl)))
        done += 1
    if worst_interlace >= 1e-9:
        issues.append(f"interlacing violated by {worst_interlace:.2e}")

    # the library's quotient, read off the missing-pair set, and both roots
    # of the block-mean quotient of the built Graph lie in its spectrum
    worst_embed = 0.0
    for p, h, parts, spec in sweep_data:
        if h is None:
            continue
        equitable, _, top, _ = extremal_missing(p)[2]
        oracle_equitable, q = block_quotient(h, parts)
        if not (equitable and oracle_equitable):
            issues.append(f"partition not equitable at ({p.r},{p.b})")
            continue
        for mu in (top, *quotient_roots(q)):
            worst_embed = max(worst_embed, min(abs(mu - lam) for lam in spec))
    if worst_embed >= 1e-8:
        issues.append(f"quotient eigenvalue embedding off by {worst_embed:.2e}")

    assert report(
        8,
        not issues,
        "; ".join(issues)
        or f"trace<={worst_trace:.1e}, energy<={worst_energy:.1e}, "
        f"interlacing slack<={worst_interlace:.1e}, quotient embedding<={worst_embed:.1e}",
    )
