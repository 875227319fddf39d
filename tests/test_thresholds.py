import itertools
import math
import random
import re

import pytest

from oddfactor.graphs import GraphError, complete_graph, cycle_graph, matching_complement
from oddfactor.thresholds import (
    DegenerateConstructionError,
    R_MAX,
    _missing_quotient,
    bound_sweep,
    build_extremal,
    extremal_missing,
    lwy_threshold,
    prior_1factor_thresholds,
    threshold_params,
)
from conftest import (
    ETA,
    R,
    T,
    block_quotient,
    complement,
    extremal_partition,
    join,
    oracle_spectrum,
    quotient_roots,
    sweep_rows,
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
    for r in range(3, 201):
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
    assert abs(lwy_threshold(threshold_params(4, 1)) - 109 / 30) < 1e-12
    assert abs(lwy_threshold(threshold_params(3, 1)) - 2.79) < 1e-12
    assert abs(lwy_threshold(threshold_params(5, 3)) - (5 - 1 / 6 + 1 / 49)) < 1e-12


def _lwy_four_branch(r, b):
    """The Lu-Wu-Yang bound in its four parity branches, as an oracle for the
    eta form that lwy_threshold computes."""
    ceil_rb = -(-r // b)
    if r % 2 == 0 and ceil_rb % 2 == 0:
        return r - (ceil_rb - 2) / (r + 1) + 1 / ((r + 1) * (r + 2))
    if r % 2 == 0:
        return r - (ceil_rb - 1) / (r + 1) + 1 / ((r + 1) * (r + 2))
    if ceil_rb % 2 == 0:
        return r - (ceil_rb - 1) / (r + 1) + 1 / (r + 2) ** 2
    return r - (ceil_rb - 2) / (r + 1) + 1 / (r + 2) ** 2


def test_lwy_matches_four_branch_oracle():
    # eta is the branch's integer numerator, so the two forms agree exactly
    for r in range(3, 201):
        for b in range(1, r, 2):
            assert lwy_threshold(threshold_params(r, b)) == _lwy_four_branch(r, b), (r, b)


def test_bound_sweep_matches_the_four_branch_oracles():
    # the sweep computes rho and lwy once per (r, eta) class, from the same
    # (r, eta) forms threshold_params uses; these oracles share no code with
    # them and check every row of the table
    rows = 0
    for c in bound_sweep(200):
        for b, ceil_rb, _ in c.rows:
            assert ceil_rb == -(-c.r // b), (c.r, b)
            assert abs(c.rho - _rho_four_branch(c.r, b)) <= 1e-12, (c.r, b)
            assert c.lwy == _lwy_four_branch(c.r, b), (c.r, b)
            rows += 1
    assert rows == sum(r // 2 for r in range(3, 201)) == 9999


def test_degree_cap_is_checked_everywhere_r_is():
    assert R_MAX == 2**53
    assert threshold_params(R_MAX, 1).eta == R_MAX - 2
    assert math.isfinite(sum(prior_1factor_thresholds(R_MAX)))
    message = f"degree r must be at most 2\\*\\*53 = {R_MAX}, got {R_MAX + 1}"
    with pytest.raises(ValueError, match=message):
        threshold_params(R_MAX + 1, 1)
    with pytest.raises(ValueError, match=message):
        prior_1factor_thresholds(R_MAX + 1)


def test_extremal_order_cap(monkeypatch):
    # r + 1 + (r mod 2) vertices: 2047 at r = 2045 and 2046, 2049 at r = 2047
    for r in (2045, 2046):
        order, missing, quotient = extremal_missing(threshold_params(r, 1))
        assert order == 2047 and quotient[3]
    # refused with the order message even where the construction would be
    # degenerate (r = 2047, b = 2045 gives eta = 1)
    for b in (1, 2045):
        with pytest.raises(GraphError, match="^order 2049 exceeds the cap"):
            extremal_missing(threshold_params(2047, b))

    def must_not_run(*args):
        raise AssertionError("an order above ORDER_MAX reached complete_minus")

    monkeypatch.setattr("oddfactor.thresholds.complete_minus", must_not_run)
    with pytest.raises(GraphError, match="^order 2049 exceeds the cap"):
        build_extremal(threshold_params(2048, 1))


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


def _largest_cubic_root_bisect(lo: float, hi: float, width: float = 1e-12) -> float:
    # largest root of x^3 - x^2 - 6x + 2 lies in [2, 3] where f is increasing
    f = lambda x: x**3 - x**2 - 6 * x + 2
    while hi - lo > width:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_cubic_cgh_closed_form_matches_bisection():
    # the r = 3 CGH bound is computed in trigonometric form; bisection is the oracle
    cgh = prior_1factor_thresholds(3)[1]
    assert abs(cgh - _largest_cubic_root_bisect(2.0, 3.0)) < 1e-12
    assert abs(cgh**3 - cgh**2 - 6 * cgh + 2) < 1e-13


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


def test_build_extremal_matches_join_oracle():
    # the construction as the paper states it: two blocks joined
    pairs = 0
    for r in range(3, 61):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            eta = p.eta
            if r % 2 == 0:
                oracle = join(complete_graph(r + 1 - eta), matching_complement(eta))
            elif eta >= 3:
                oracle = join(complement(cycle_graph(eta)), matching_complement(r + 2 - eta))
            else:
                continue
            assert build_extremal(p) == oracle, (r, b)
            pairs += 1
    assert pairs == 609


def test_missing_pair_matrix_matches_graph_oracle():
    # the sweep's lambda1_H must be rho exactly and agree with the dense
    # eigensolve of the built Graph, the independent numeric check
    lam1 = {}
    for r in range(3, 61):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if r % 2 == 1 and p.eta < 3:
                with pytest.raises(DegenerateConstructionError):
                    extremal_missing(p)
                continue
            lam1[r, b] = oracle_spectrum(build_extremal(p))[0]
    assert len(lam1) == 609
    rows = sweep_rows(bound_sweep(60))
    assert len(rows) == 899
    for row in rows:
        if (row.r, row.b) not in lam1:
            assert row.lambda1_H is None, (row.r, row.b)
            continue
        assert row.lambda1_H == row.rho, (row.r, row.b)
        assert abs(row.lambda1_H - lam1[row.r, row.b]) <= 1e-12, (row.r, row.b)


def test_sweep_classes_cover_each_pair_once():
    # the classes of one r hold its odd b < r once each, in order and in runs
    # of consecutive b, with eta falling strictly from class to class, and
    # every row derives the eta of its class
    for r_max in [*range(3, 61), 200]:
        by_r = {}
        for c in bound_sweep(r_max):
            bs = [b for b, _, _ in c.rows]
            assert bs and bs == list(range(bs[0], bs[-1] + 1, 2)), (r_max, c.r, c.eta)
            for b, ceil_rb, epsilon in c.rows:
                assert ceil_rb - epsilon == c.eta, (r_max, c.r, b)
            by_r.setdefault(c.r, []).append(c)
        assert list(by_r) == list(range(3, r_max + 1)), r_max
        for r, classes in by_r.items():
            assert [b for c in classes for b, _, _ in c.rows] == list(range(1, r, 2)), (r_max, r)
            etas = [c.eta for c in classes]
            assert all(x > y for x, y in zip(etas, etas[1:])), (r_max, r)


def test_check_missing_rejects_broken_sets():
    # the extremal shape for r = 5, eta = 3: K_7 minus a triangle and a 2-matching
    p = threshold_params(5, 1)
    good = [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)]
    assert _missing_quotient(p, 7, good) == (True, [[0, 4], [3, 2]], p.rho, True)
    assert extremal_missing(p) == (7, tuple(good), _missing_quotient(p, 7, good))
    for broken, message in (
        (good + [(0, 1)], "extremal missing pairs repeat"),
        (good[:-1] + [(6, 5)], r"extremal missing pair \(6, 5\) is not u < v < 7"),
        (good[:-1] + [(5, 7)], r"extremal missing pair \(5, 7\) is not u < v < 7"),
        (good[:-1] + [(-1, 5)], r"extremal missing pair \(-1, 5\) is not u < v < 7"),
        (good[:-1], r"^extremal degree profile broken: \[4, 4, 4, 5, 5, 6, 6\]$"),
        (good[:-1] + [(3, 5)], r"extremal degree profile broken: \[4, 4, 4, 4, 5, 5, 6\]"),
    ):
        with pytest.raises(AssertionError, match=message):
            _missing_quotient(p, 7, broken)
    # distinct in-range pairs with the wrong edge count always break the
    # degree profile, since the pairs lost sum to twice their number
    rng = random.Random(30)
    for _ in range(600):
        r = rng.randrange(3, 16)
        p = threshold_params(r, rng.randrange(1, r, 2))
        order = r + 1 + p.parity_offset
        pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
        right = (order * (order - 1) - r * order + p.eta) // 2
        k = rng.choice([k for k in range(len(pairs) + 1) if k != right])
        broken = rng.sample(pairs, k)
        degs = [order - 1] * order
        for u, v in broken:
            degs[u] -= 1
            degs[v] -= 1
        profile = re.escape(str(sorted(degs)))
        with pytest.raises(AssertionError, match=f"^extremal degree profile broken: {profile}$"):
            _missing_quotient(p, order, broken)


def test_missing_quotient_needs_the_discriminant():
    # r = 6, eta = 4 on 14 vertices: K_14 minus K_4 on 0..3, K_{5,5} between
    # 4..8 and 9..13, {0, 1} x 4..8 and {2, 3} x 9..13. The degree profile
    # holds and the partition is equitable with the right trace r - 2 = 4,
    # but the discriminant is 56, not (r + 2)^2 - 4 eta = 48
    p = threshold_params(6, 1)
    assert p.eta == 4
    missing = list(itertools.combinations(range(4), 2))
    missing += itertools.product(range(4, 9), range(9, 14))
    missing += itertools.product((0, 1), range(4, 9))
    missing += itertools.product((2, 3), range(9, 14))
    top = (4 + math.sqrt(56)) / 2
    assert _missing_quotient(p, 14, missing) == (True, [[0, 5], [2, 4]], top, False)


def test_build_extremal_degenerate_cases():
    for r, b in ((9, 3), (5, 3), (3, 1)):
        p = threshold_params(r, b)
        assert p.eta == 1
        assert p.rho > 0  # formula value exists regardless
        with pytest.raises(DegenerateConstructionError):
            build_extremal(p)
        with pytest.raises(DegenerateConstructionError):
            extremal_missing(p)


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
        assert block_quotient(build_extremal(p), extremal_partition(p))[0]
        assert extremal_missing(p)[2][0]


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
        lam1 = oracle_spectrum(h)[0]
        assert abs(lam1 - p.rho) < 1e-9
        parts = extremal_partition(p)
        if len(parts) == 2:
            top = quotient_roots(block_quotient(h, parts)[1])[0]
            assert abs(top - p.rho) < 1e-9


def test_quotient_agreement_full_sweep():
    # closed-form route only: the quotient read off the missing-pair set,
    # with no dense eigensolve and no Graph
    seen = set()
    for r in range(3, 61):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if (r % 2 == 1 and p.eta < 3) or (r, p.eta) in seen:
                continue
            seen.add((r, p.eta))
            equitable, _, top, certified = extremal_missing(p)[2]
            assert equitable and certified, (r, b)
            assert abs(top - p.rho) < 1e-9, (r, b)


def test_known_quotient_matrix_shape():
    # odd case: [[eta-3, r+2-eta], [eta, r-eta]]
    p = threshold_params(5, 1)
    assert block_quotient(build_extremal(p), extremal_partition(p))[1] == [[0.0, 4.0], [3.0, 2.0]]
    # even case: [[r-eta, eta], [r+1-eta, eta-2]]
    p = threshold_params(4, 1)
    assert block_quotient(build_extremal(p), extremal_partition(p))[1] == [[2.0, 2.0], [3.0, 0.0]]


# ---------------------------------------------------------------------------
# rho > lwy for every r, in integer polynomials


def _lwy_polynomials(x: int) -> tuple:
    """(s, D, den, W, Q) for the r of parity x, in (r, eta): rho is
    (s + sqrt(D))/2, den clears the denominators of lwy_threshold,
    W = den*(2*lwy - s) and Q = den^2*D - W^2."""
    s = R - 2 - x
    D = (R + 2 + x) ** 2 - 4 * ETA
    if x == 0:
        den = (R + 1) * (R + 2)
        W = den * (2 * R - s) - 2 * ETA * (R + 2) + 2
    else:
        den = (R + 1) * (R + 2) ** 2
        W = den * (2 * R - s) - 2 * ETA * (R + 2) ** 2 + 2 * (R + 1)
    return s, D, den, W, den**2 * D - W**2


def test_rho_beats_lwy_for_every_r():
    """rho > lwy whenever eta >= 1 and rho = r < lwy when eta = 0, for every r.

    eta = ceil(r/b) - epsilon has the parity of r and is at most r - 2,
    since ceil(r/b) <= r and epsilon = 2 when ceil(r/b) = r. So eta >= 1
    ranges over [2, r - 2] for even r >= 4 and over [1, r - 2] for odd
    r >= 3. Since den > 0 and 2*rho - s = sqrt(D), rho > lwy iff
    den*sqrt(D) > W, which Q > 0 implies. Q is concave in eta, so on the
    range it is at least its value at one of the two ends; there, with
    r = r0 + t, Q has nonnegative coefficients in t and a positive
    constant, so it is positive for every t >= 0. W, linear in eta, is
    positive the same way, so the comparison is never decided by its sign.
    """
    # the polynomials are the formulas the library runs
    for r in range(3, 201):
        s, D, den, W, _ = _lwy_polynomials(r % 2)
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            at = {"r": r, "eta": p.eta}
            assert (s.value(**at) + math.sqrt(D.value(**at))) / 2 == p.rho, (r, b)
            got = W.value(**at) / den.value(r=r)
            assert abs(got - (2 * lwy_threshold(p) - s.value(r=r))) <= 1e-12, (r, b)
    cases = (
        # x, r0, lowest eta >= 1, Q at both ends, W at both ends (in t)
        (0, 4, 2, [4, 52, 208, 236], [8, 108, 400, 236], [1, 17, 92, 158], [1, 15, 80, 158]),
        (
            1,
            3,
            1,
            [4, 92, 852, 3964, 9248, 8636],
            [4, 108, 1180, 6564, 18984, 25048, 8636],
            [1, 20, 147, 472, 558],
            [1, 18, 127, 422, 558],
        ),
    )
    for x, r0, lo, q_lo, q_hi, w_lo, w_hi in cases:
        s, D, den, W, Q = _lwy_polynomials(x)
        assert Q.diff("eta").diff("eta") == -8 * (R + 2) ** (2 + 2 * x)
        for eta, q_want, w_want in ((lo, q_lo, w_lo), (R - 2, q_hi, w_hi)):
            for poly, want in ((Q, q_want), (W, w_want)):
                got = poly.subs(eta=eta).subs(r=r0 + T).coeffs("t")
                assert got == want, (x, eta, got)
                assert min(got) >= 0 and got[-1] > 0
    # eta = 0 (even r only): sqrt(D) = r + 2, so rho = r, and
    # 2*lwy - s - sqrt(D) = 2/den > 0, so lwy = r + 1/den
    s, D, den, W, _ = _lwy_polynomials(0)
    assert D.subs(eta=0) == (R + 2) ** 2
    assert W.subs(eta=0) - den * (R + 2) == 2


def test_extremal_quotient_root_is_rho_for_every_r():
    """The top root of the extremal component's quotient is rho, for every r.

    The rows are those of its two degree classes, numbered by their smallest
    vertex; test_quotient_rows_have_the_closed_form_up_to_r_200 ties them to
    the construction pair by pair. The roots of [[a, b], [c, d]] are those
    of x^2 - (a + d)x + (ad - bc), so its top root is (s + sqrt(D))/2 = rho
    once a + d = s and (a + d)^2 - 4(ad - bc) = D, in the polynomials that
    test_rho_beats_lwy_for_every_r ties to the library's formula. The
    quotient of an equitable partition of a connected graph has lambda_1 as
    its top root (Godsil and Royle, Algebraic Graph Theory, ch. 9), so
    bound_sweep reads lambda1_H off rho.
    """
    rows_by_parity = {
        0: [[R - ETA, ETA], [R + 1 - ETA, ETA - 2]],
        1: [[ETA - 3, R + 2 - ETA], [ETA, R - ETA]],
    }
    for x, ((a, b), (c, d)) in rows_by_parity.items():
        s, D, _, _, _ = _lwy_polynomials(x)
        assert a + d == s, x
        assert (a + d) ** 2 - 4 * (a * d - b * c) == D, x
    # eta = 0 (even r only) leaves K_{r+1}: one class [[r]], whose root is
    # r, and rho = (s + sqrt(D))/2 = (r - 2 + r + 2)/2 = r
    s, D, _, _, _ = _lwy_polynomials(0)
    assert D.subs(eta=0) == (R + 2) ** 2 and s + (R + 2) == 2 * R
