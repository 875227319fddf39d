import math
import random
from dataclasses import replace

import pytest

from oddfactor import (
    Graph,
    bound_sweep,
    case2_polynomial_check,
    check_amahashi,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    lambda_k,
    random_regular,
    randomized_theorem_campaign,
    sharpness_check,
    sweep_to_csv,
    theorem_check,
    threshold_params,
)
from oddfactor.thresholds import DegenerateConstructionError
from oddfactor.verify import SWEEP_CSV_HEADER, _trial_seed
from conftest import cubic_no_matching_16, petersen_graph, quartic_no_matching_22


def circulant_4_regular_7():
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(i, (i + 2) % 7) for i in range(7)]
    return Graph(7, edges)


# ---------------------------------------------------------------------------
# random regular graphs


def test_random_regular_basic():
    g = random_regular(10, 3, seed=1)
    assert g.n == 10 and len(g.edges) == 15
    assert g.regular_degree() == 3
    assert g.check_invariants()


def test_random_regular_deterministic():
    assert random_regular(12, 5, seed=4) == random_regular(12, 5, seed=4)
    assert random_regular(12, 5, seed=4) != random_regular(12, 5, seed=5)


def test_random_regular_k4_forced():
    for seed in range(5):
        assert random_regular(4, 3, seed=seed) == complete_graph(4)


def test_random_regular_errors():
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd stub total
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)
    with pytest.raises(RuntimeError):
        random_regular(16, 7, seed=0, max_retries=-1)  # zero attempts allowed


def test_random_regular_spread_of_degrees():
    for n, r in ((14, 3), (16, 7), (20, 5)):
        g = random_regular(n, r, seed=123)
        assert set(g.degrees()) == {r}


def test_random_regular_restarts_on_disconnected_sample():
    # the first simple pairing at this campaign seed is two copies of K4
    assert len(components(random_regular(8, 3, seed=_trial_seed(5, 284)))) == 1


# ---------------------------------------------------------------------------
# the main implication


def test_theorem_check_petersen():
    rep = theorem_check(petersen_graph(), 1, seed=11)
    assert rep.r == 3 and rep.n == 10 and rep.seed == 11
    assert abs(rep.lambda3 - 1.0) < 1e-9
    assert abs(rep.rho - 2 * math.sqrt(2)) < 1e-12
    assert rep.implication_applicable
    assert rep.factor_found is True


def test_theorem_check_k4():
    rep = theorem_check(complete_graph(4), 1)
    assert abs(rep.lambda3 + 1.0) < 1e-9
    assert rep.implication_applicable and rep.factor_found


def test_theorem_check_rejects_low_degree():
    with pytest.raises(ValueError):
        theorem_check(cycle_graph(6), 1)


def test_theorem_check_rejects_odd_order():
    with pytest.raises(ValueError):
        theorem_check(circulant_4_regular_7(), 1)


def test_theorem_check_rejects_irregular():
    with pytest.raises(ValueError):
        theorem_check(Graph(4, [(0, 1), (1, 2), (2, 3)]), 1)


def test_theorem_check_inapplicable_when_lambda3_large():
    # no factor exists, so lambda3 must sit at or above rho and no search runs
    rep = theorem_check(cubic_no_matching_16(), 1)
    assert not rep.implication_applicable
    assert rep.factor_found is None


def test_theorem_check_inapplicable_when_disconnected():
    # K5 + K5 has lambda3 = -1 < rho(4, 1) but no perfect matching
    rep = theorem_check(disjoint_union([complete_graph(5), complete_graph(5)]), 1)
    assert abs(rep.lambda3 + 1.0) < 1e-9
    assert not rep.implication_applicable
    assert rep.factor_found is None


def test_contrapositive_cubic_witness():
    g = cubic_no_matching_16()
    assert g.regular_degree() == 3
    assert check_amahashi(g, 1) is not None
    assert lambda_k(g, 3) >= threshold_params(3, 1).rho - 1e-9


def test_contrapositive_quartic_witness():
    g = quartic_no_matching_22()
    assert g.regular_degree() == 4
    v = check_amahashi(g, 1)
    assert v is not None and v.o >= v.bound + 2
    assert lambda_k(g, 3) >= threshold_params(4, 1).rho - 1e-9


# ---------------------------------------------------------------------------
# sharpness and the quotient polynomial


def test_sharpness_check_odd():
    rep = sharpness_check(5, 1)
    assert rep.passed and not rep.issues
    assert abs(rep.lambda1 - (1 + math.sqrt(13))) < 1e-9
    assert rep.n_vertices == 7 and rep.edge_count == 16
    assert rep.equitable


def test_sharpness_check_even():
    rep = sharpness_check(4, 1)
    assert rep.passed
    assert abs(rep.lambda1 - (1 + math.sqrt(7))) < 1e-9
    assert rep.n_vertices == 5 and rep.edge_count == 9


def test_sharpness_check_degenerate():
    with pytest.raises(DegenerateConstructionError):
        sharpness_check(9, 3)
    # the analytic threshold itself stays available
    assert threshold_params(9, 3).rho > 0


def test_case2_t_zero_vanishes():
    p = threshold_params(5, 1)
    eta = p.eta
    a = 5 + 2 - eta
    m12 = a * eta
    direct = (p.rho - (5 - m12 / a)) * (p.rho - (4 - m12 / eta)) - (m12 / a) * (m12 / eta)
    assert abs(direct) < 1e-12


def test_case2_polynomial_check_examples():
    rep = case2_polynomial_check(5, 1)
    assert rep.passed
    assert rep.t_max == 4
    assert rep.max_q_at_rho <= 1e-9
    assert rep.max_form_gap <= 1e-9
    rep = case2_polynomial_check(7, 1)
    assert rep.passed and rep.t_max == 4


def test_case2_rejects_even_r():
    with pytest.raises(ValueError):
        case2_polynomial_check(4, 1)


# ---------------------------------------------------------------------------
# the sweep


def test_bound_sweep_rows():
    rows = bound_sweep(12)
    assert len(rows) == sum(len(range(1, r, 2)) for r in range(3, 13))
    by_pair = {(row.r, row.b): row for row in rows}

    row = by_pair[(4, 1)]
    assert abs(row.rho - (1 + math.sqrt(7))) < 1e-12
    assert abs(row.lwy - 109 / 30) < 1e-12
    assert row.rho > row.lwy
    assert row.sharpness_ok

    row = by_pair[(3, 1)]
    assert abs(row.rho - 2 * math.sqrt(2)) < 1e-12
    assert abs(row.lwy - 2.79) < 1e-12
    assert row.lambda1_H is None and row.sharpness_ok is None

    # complete-graph rows: rho = r and the realized eigenvalue agrees
    row = by_pair[(4, 3)]
    assert row.eta == 0
    assert row.rho == 4.0
    assert abs(row.lambda1_H - 4.0) < 1e-9


def test_bound_sweep_lwy_comparison_structure():
    # rho >= lwy wherever eta >= 1; the eta = 0 rows fall short by exactly
    # the additive correction in the older bound
    rows = bound_sweep(20)
    for row in rows:
        if row.eta >= 1:
            assert row.rho_ge_lwy, (row.r, row.b)
        else:
            assert not row.rho_ge_lwy
            assert abs((row.lwy - row.rho) - 1 / ((row.r + 1) * (row.r + 2))) < 1e-12
        assert not row.lwy_tie


def test_bound_sweep_sharpness_all_ok():
    rows = bound_sweep(16)
    for row in rows:
        assert row.sharpness_ok is not False


def test_sweep_csv_format():
    rows = bound_sweep(5)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + len(rows)
    # (3,1) row has an empty lambda1 cell
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[1] == "1" and cells[-1] == ""
    # (4,1) row carries 9-decimal values
    cells = lines[2].split(",")
    assert cells[5] == "3.645751311"
    assert cells[9] == "3.645751311"


def test_bound_sweep_rejects_small_r_max():
    with pytest.raises(ValueError):
        bound_sweep(2)


# ---------------------------------------------------------------------------
# randomized campaign


def test_campaign_counts_and_invariant():
    summary = randomized_theorem_campaign(50, master_seed=2024)
    assert summary.trials == 50
    assert summary.applicable + summary.inapplicable == 50
    assert summary.found == summary.applicable
    assert summary.counterexamples == ()
    for rep in summary.reports:
        if rep.implication_applicable:
            assert rep.factor_found is True
        assert rep.n % 2 == 0 and 3 <= rep.r <= 7
        assert rep.b % 2 == 1 and rep.b < rep.r


def test_campaign_reproducible():
    s1 = randomized_theorem_campaign(25, master_seed=5)
    s2 = randomized_theorem_campaign(25, master_seed=5)
    strip = lambda reports: [replace(r, elapsed=0.0) for r in reports]
    assert strip(s1.reports) == strip(s2.reports)
    s3 = randomized_theorem_campaign(25, master_seed=6)
    assert strip(s1.reports) != strip(s3.reports)


def test_campaign_parallel_matches_serial():
    s1 = randomized_theorem_campaign(16, master_seed=31, jobs=1)
    s2 = randomized_theorem_campaign(16, master_seed=31, jobs=2)
    strip = lambda reports: [replace(r, elapsed=0.0) for r in reports]
    assert strip(s1.reports) == strip(s2.reports)


def test_campaign_empty():
    summary = randomized_theorem_campaign(0)
    assert summary.to_json_dict() == {
        "trials": 0,
        "applicable": 0,
        "found": 0,
        "inapplicable": 0,
        "counterexamples": [],
    }


def test_campaign_b_policies():
    for policy in ("unit", "max"):
        summary = randomized_theorem_campaign(10, b_policy=policy, master_seed=8)
        assert summary.trials == 10
        if policy == "unit":
            assert all(rep.b == 1 for rep in summary.reports)


def test_campaign_rejects_bad_ranges():
    with pytest.raises(ValueError):
        randomized_theorem_campaign(5, r_range=(2, 4))
