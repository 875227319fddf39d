import math

import pytest

from oddfactor import (
    DegenerateConstructionError,
    adjacency_matrix,
    build_extremal,
    complete_graph,
    eigenvalues_sym,
    extremal_partition,
    is_equitable,
    lwy_threshold,
    prior_1factor_thresholds,
    quotient_eigs_2x2,
    quotient_matrix,
    threshold_params,
)

SQRT2 = math.sqrt(2)


def test_threshold_params_examples():
    p = threshold_params(4, 1)
    assert (p.ceil_rb, p.epsilon, p.eta, p.parity_case) == (4, 2, 2, "even-even")
    p = threshold_params(5, 1)
    assert (p.ceil_rb, p.epsilon, p.eta, p.parity_case) == (5, 2, 3, "odd-odd")
    p = threshold_params(11, 3)
    assert (p.ceil_rb, p.epsilon, p.eta, p.parity_case) == (4, 1, 3, "odd-even")
    assert p.parity_offset == 1


def test_threshold_params_errors():
    with pytest.raises(ValueError):
        threshold_params(4, 2)
    with pytest.raises(ValueError):
        threshold_params(4, 5)
    with pytest.raises(ValueError):
        threshold_params(3, 3)
    with pytest.raises(ValueError):
        threshold_params(2, 1)


def test_eta_parity_follows_r():
    for r in range(3, 31):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            assert p.eta % 2 == r % 2
            assert p.eta >= (1 if r % 2 else 0)


def test_rho_spot_values():
    assert abs(threshold_params(3, 1).rho - 2 * SQRT2) < 1e-12
    assert abs(threshold_params(4, 1).rho - (1 + math.sqrt(7))) < 1e-12
    assert abs(threshold_params(5, 1).rho - (1 + math.sqrt(13))) < 1e-12


def _rho_four_branch(r, b):
    """rho(r, b) in the paper's four parity branches, as an oracle for the
    unified eta form that threshold_params computes."""
    ceil_rb = -(-r // b)
    if r % 2 == 0 and ceil_rb % 2 == 0:
        return (r - 2 + math.sqrt((r + 2) ** 2 - 4 * (ceil_rb - 2))) / 2
    if r % 2 == 0:
        return (r - 2 + math.sqrt((r + 2) ** 2 - 4 * (ceil_rb - 1))) / 2
    if ceil_rb % 2 == 1:
        return (r - 3 + math.sqrt((r + 3) ** 2 - 4 * (ceil_rb - 2))) / 2
    return (r - 3 + math.sqrt((r + 3) ** 2 - 4 * (ceil_rb - 1))) / 2


def test_rho_matches_four_branch_oracle():
    for r in range(3, 61):
        for b in range(1, r, 2):
            assert abs(threshold_params(r, b).rho - _rho_four_branch(r, b)) <= 1e-12


def test_rho_is_degree_when_eta_zero():
    for r, b in ((4, 3), (6, 5), (10, 7)):
        p = threshold_params(r, b)
        assert p.eta == 0
        assert p.rho == float(r)


def test_lwy_spot_values():
    assert abs(lwy_threshold(4, 1) - 109 / 30) < 1e-12
    assert abs(lwy_threshold(3, 1) - 2.79) < 1e-12
    assert abs(lwy_threshold(5, 3) - (5 - 1 / 6 + 1 / 49)) < 1e-12


def test_lwy_matches_eta_shorthand():
    # all four branches collapse to r - eta/(r+1) + parity correction
    for r in range(3, 41):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            corr = 1 / ((r + 1) * (r + 2)) if r % 2 == 0 else 1 / (r + 2) ** 2
            assert abs(lwy_threshold(r, b) - (r - p.eta / (r + 1) + corr)) < 1e-12


def test_prior_1factor_thresholds():
    bh, cgh = prior_1factor_thresholds(4)
    assert abs(bh - 3.6) < 1e-12
    assert abs(cgh - (1 + math.sqrt(7))) < 1e-12
    bh, cgh = prior_1factor_thresholds(3)
    assert abs(bh - 2.6) < 1e-12
    # largest root of x^3 - x^2 - 6x + 2
    assert abs(cgh - 2.85577) < 1e-5
    assert abs(cgh**3 - cgh**2 - 6 * cgh + 2) < 1e-10
    bh, cgh = prior_1factor_thresholds(5)
    assert abs(cgh - (2 + math.sqrt(52)) / 2) < 1e-12
    with pytest.raises(ValueError):
        prior_1factor_thresholds(2)


def test_rho_coincides_with_cgh_at_b_equal_1():
    for r in range(4, 61):
        _, cgh = prior_1factor_thresholds(r)
        assert abs(threshold_params(r, 1).rho - cgh) < 1e-9


def test_build_extremal_even_r():
    h = build_extremal(threshold_params(4, 1))
    assert h.n == 5 and len(h.edges) == 9
    assert sorted(h.degrees()) == [3, 3, 4, 4, 4]


def test_build_extremal_odd_r():
    h = build_extremal(threshold_params(5, 1))
    assert h.n == 7 and len(h.edges) == 16
    assert sorted(h.degrees()) == [4, 4, 4, 5, 5, 5, 5]


def test_build_extremal_eta_zero_is_complete():
    assert build_extremal(threshold_params(4, 3)) == complete_graph(5)


def test_build_extremal_degenerate_cases():
    for r, b in ((9, 3), (5, 3), (3, 1)):
        p = threshold_params(r, b)
        assert p.eta == 1
        assert p.rho > 0  # formula value exists regardless
        with pytest.raises(DegenerateConstructionError):
            build_extremal(p)
        with pytest.raises(DegenerateConstructionError):
            extremal_partition(p)


def test_extremal_partition_blocks():
    p = threshold_params(5, 1)
    parts = extremal_partition(p)
    assert tuple(len(x) for x in parts) == (3, 4)
    p = threshold_params(4, 1)
    parts = extremal_partition(p)
    assert tuple(len(x) for x in parts) == (3, 2)
    p = threshold_params(4, 3)
    assert extremal_partition(p) == (tuple(range(5)),)


def test_extremal_partition_is_equitable():
    for r, b in ((7, 1), (4, 1), (5, 1), (11, 3), (8, 3)):
        p = threshold_params(r, b)
        assert is_equitable(build_extremal(p), extremal_partition(p))


def test_claim2_structure_small_sweep():
    for r in range(3, 21):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if r % 2 == 1 and p.eta < 3:
                continue
            h = build_extremal(p)
            x = p.parity_offset
            assert h.n == r + 1 + x
            assert 2 * len(h.edges) == r * (r + 1 + x) - p.eta
            degs = h.degrees()
            assert degs.count(r - 1) == p.eta
            assert max(degs) == r


def test_sharpness_and_quotient_agreement_sampled():
    for r, b in ((4, 1), (5, 1), (7, 1), (11, 3), (12, 5), (20, 7)):
        p = threshold_params(r, b)
        if p.r % 2 == 1 and p.eta < 3:
            continue
        h = build_extremal(p)
        lam1 = eigenvalues_sym(adjacency_matrix(h)).values[0]
        assert abs(lam1 - p.rho) < 1e-9
        parts = extremal_partition(p)
        if len(parts) == 2:
            top = quotient_eigs_2x2(quotient_matrix(h, parts))[0]
            assert abs(top - p.rho) < 1e-9


def test_quotient_agreement_full_sweep():
    # closed-form route only: no dense eigensolve needed
    seen = set()
    for r in range(3, 61):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if (r % 2 == 1 and p.eta < 3) or (r, p.eta) in seen:
                continue
            seen.add((r, p.eta))
            h = build_extremal(p)
            parts = extremal_partition(p)
            q = quotient_matrix(h, parts)
            top = float(q[0, 0]) if q.shape == (1, 1) else quotient_eigs_2x2(q)[0]
            assert abs(top - p.rho) < 1e-9, (r, b)


def test_known_quotient_matrix_shape():
    # odd case: [[eta-3, r+2-eta], [eta, r-eta]]
    p = threshold_params(5, 1)
    q = quotient_matrix(build_extremal(p), extremal_partition(p))
    assert q.tolist() == [[0.0, 4.0], [3.0, 2.0]]
    # even case: [[r-eta, eta], [r+1-eta, eta-2]]
    p = threshold_params(4, 1)
    q = quotient_matrix(build_extremal(p), extremal_partition(p))
    assert q.tolist() == [[2.0, 2.0], [3.0, 0.0]]
