import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from oddfactor import thresholds, verify
from oddfactor.cli import main
from oddfactor.factor import (
    AmahashiViolation,
    CertificateCheck,
    FactorCertificate,
    check_amahashi,
    find_odd_factor,
    verify_certificate,
)
from oddfactor.graphs import (
    Graph,
    GraphError,
    complete_graph,
    complete_minus,
    cycle_graph,
    serialize_edge_list,
)
from oddfactor.spectral import spectra
from oddfactor.thresholds import (
    SWEEP_CSV_HEADER,
    DegenerateConstructionError,
    SweepClass,
    ThresholdParams,
    _missing_quotient,
    bound_sweep,
    build_extremal,
    extremal_missing,
    lwy_threshold,
    prior_1factor_thresholds,
    sweep_to_csv,
    threshold_params,
)
from oddfactor.verify import (
    GUARD,
    CampaignSummary,
    Case2Report,
    TrialReport,
    _shuffle,
    _trial_seed,
    case2_polynomial_check,
    random_regular,
    randomized_theorem_campaign,
    theorem_check,
)
from conftest import (
    ETA,
    R,
    RHO,
    T,
    block_quotient,
    campaign_reports,
    check_invariants,
    components,
    cubic_no_matching_16,
    delete_vertices,
    disjoint_union,
    extremal_partition,
    oracle_equitable,
    oracle_spectrum,
    oracle_sweep_csv,
    petersen_graph,
    quartic_no_matching_22,
    quotient_roots,
    sharp_graph,
    sweep_rows,
)


def circulant_4_regular_7():
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(i, (i + 2) % 7) for i in range(7)]
    return Graph(7, edges)


# ---------------------------------------------------------------------------
# random regular graphs


def test_random_regular_basic():
    g = random_regular(10, 3, seed=1)
    assert g.n == 10 and len(g.edges) == 15
    assert g.regular_degree() == 3
    assert check_invariants(g)


def test_random_regular_deterministic():
    assert random_regular(12, 5, seed=4) == random_regular(12, 5, seed=4)
    assert random_regular(12, 5, seed=4) != random_regular(12, 5, seed=5)


def test_random_regular_k4_forced():
    for seed in range(5):
        assert random_regular(4, 3, seed=seed) == complete_graph(4)


def test_random_regular_errors(monkeypatch):
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd stub total
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)
    with monkeypatch.context() as m:
        m.setattr(verify, "_MAX_RETRIES", -1)  # zero attempts allowed
        with pytest.raises(RuntimeError):
            random_regular(16, 7, seed=0)
    # no connected 0- or 1-regular graph beyond K1 and K2: refused before sampling
    for n, r in ((2, 0), (5, 0), (4, 1), (200, 1)):
        with pytest.raises(ValueError, match="no connected"):
            random_regular(n, r, seed=0)
    # the order checks still come first
    with pytest.raises(ValueError, match="n\\*r must be even"):
        random_regular(5, 1, seed=0)
    with pytest.raises(ValueError, match="need 0 <= r < n"):
        random_regular(1, 1, seed=0)
    assert random_regular(1, 0, seed=0) == Graph(1)
    assert random_regular(2, 1, seed=0) == complete_graph(2)


def test_random_regular_spread_of_degrees():
    for n, r in ((14, 3), (16, 7), (20, 5)):
        g = random_regular(n, r, seed=123)
        assert set(g.degrees()) == {r}


def test_random_regular_stream_is_pinned():
    # a seed names the same graph in every version of the sampler; the digest
    # was taken from the sampler that called random.Random.shuffle
    digest = hashlib.sha1()
    count = 0
    for r in range(2, 12):
        for n in range(r + 1, 41):
            if n * r % 2:
                continue
            for seed in range(12):
                edges = random_regular(n, r, seed).edges
                digest.update(repr((n, r, seed, edges)).encode())
                count += 1
    assert count == 3060
    assert digest.hexdigest() == "94bd0c464e714830e58a57b104d17b3b92a70cd0"


def test_inlined_shuffle_matches_random_shuffle():
    for length in range(301):
        mine, ref = random.Random(length), random.Random(length)
        x, y = list(range(length)), list(range(length))
        _shuffle(x, mine.getrandbits)
        ref.shuffle(y)
        assert x == y, length
        assert mine.getstate() == ref.getstate(), length


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
    # an applicable report comes back only when the search found a factor
    assert rep.implication_applicable
    assert verify_certificate(petersen_graph(), 1, find_odd_factor(petersen_graph(), 1))


def test_theorem_check_k4():
    rep = theorem_check(complete_graph(4), 1)
    assert abs(rep.lambda3 + 1.0) < 1e-9
    assert rep.implication_applicable
    assert verify_certificate(complete_graph(4), 1, find_odd_factor(complete_graph(4), 1))


def test_theorem_check_raises_on_an_applicable_graph_without_factor(monkeypatch):
    # a decider that finds nothing makes the applicable Petersen graph a
    # counterexample, raised where it is decided, with the graph checked
    monkeypatch.setattr(verify, "find_odd_factor", lambda g, b: None)
    with pytest.raises(
        verify.TheoremViolation,
        match=r"^applicable trial without factor: n=10, r=3, b=1, seed=None, lambda3=",
    ) as info:
        theorem_check(petersen_graph(), 1)
    assert info.value.graph_text == serialize_edge_list(petersen_graph())


def test_theorem_check_sharp_graph_is_not_applicable():
    # lambda_3 = rho exactly on the sharp graph, and the float lambda_3 - rho
    # is +1.8e-15 at (8, 3) and +7.1e-15 at (11, 3): only the guard's side of
    # rho keeps these graphs without a factor out of the search
    for r, b in ((8, 3), (11, 3)):
        assert theorem_check(sharp_graph(r, b)[0], b).implication_applicable is False, (r, b)


def test_theorem_check_rejects_low_degree():
    with pytest.raises(ValueError):
        theorem_check(cycle_graph(6), 1)


def test_theorem_check_rejects_odd_order():
    with pytest.raises(ValueError):
        theorem_check(circulant_4_regular_7(), 1)


def test_theorem_check_rejects_irregular():
    with pytest.raises(ValueError):
        theorem_check(Graph(4, [(0, 1), (1, 2), (2, 3)]), 1)


def test_theorem_check_inapplicable_when_lambda3_large(monkeypatch):
    # no factor exists, so lambda3 must sit at or above rho and no search runs
    monkeypatch.setattr(verify, "find_odd_factor", _started)
    rep = theorem_check(cubic_no_matching_16(), 1)
    assert not rep.implication_applicable


def test_theorem_check_inapplicable_when_disconnected(monkeypatch):
    # K5 + K5 has lambda3 = -1 < rho(4, 1) but no perfect matching
    monkeypatch.setattr(verify, "find_odd_factor", _started)
    rep = theorem_check(disjoint_union([complete_graph(5), complete_graph(5)]), 1)
    assert abs(rep.lambda3 + 1.0) < 1e-9
    assert not rep.implication_applicable


def test_contrapositive_cubic_witness():
    g = cubic_no_matching_16()
    assert g.regular_degree() == 3
    assert check_amahashi(g, 1) is not None
    assert oracle_spectrum(g)[2] >= threshold_params(3, 1).rho - 1e-9


def test_contrapositive_quartic_witness():
    g = quartic_no_matching_22()
    assert g.regular_degree() == 4
    v = check_amahashi(g, 1)
    assert v is not None and v.o >= v.bound + 2
    assert oracle_spectrum(g)[2] >= threshold_params(4, 1).rho - 1e-9


# ---------------------------------------------------------------------------
# sharpness and the quotient polynomial


def sharpness_lines(capsys, r, b) -> tuple:
    """(exit code, stdout lines, stderr) of verify sharpness at (r, b)."""
    code = main(["verify", "sharpness", "--r", str(r), "--b", str(b)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def test_sharpness_check_odd(capsys):
    p = threshold_params(5, 1)
    order, missing, (equitable, _, top, certified) = extremal_missing(p)
    assert certified and equitable and top == p.rho
    # the dense eigensolve of the built graph, independent of the quotient
    g = build_extremal(p)
    assert abs(oracle_spectrum(g)[0] - (1 + math.sqrt(13))) < 1e-9
    assert order == g.n == 7 and len(g.edges) == 16
    code, lines, err = sharpness_lines(capsys, 5, 1)
    assert (code, err) == (0, "")
    assert lines[4:] == [
        "lambda1: 4.605551275",
        "vertices: 7",
        "edges: 16",
        "equitable: True",
        "quotient_top: 4.605551275",
        "result: pass",
    ]


def test_sharpness_check_even(capsys):
    p = threshold_params(4, 1)
    order, missing, (equitable, _, top, certified) = extremal_missing(p)
    assert certified and equitable and top == p.rho
    g = build_extremal(p)
    assert abs(oracle_spectrum(g)[0] - (1 + math.sqrt(7))) < 1e-9
    assert order == g.n == 5 and len(g.edges) == 9
    code, lines, err = sharpness_lines(capsys, 4, 1)
    assert (code, err) == (0, "")
    assert "vertices: 5" in lines and "edges: 9" in lines and "result: pass" in lines
    # eta = 0: the extremal graph is K5, and its one degree class is the
    # whole vertex set, so the quotient is the 1x1 matrix [r]
    p = threshold_params(4, 3)
    assert extremal_missing(p) == (5, (), (True, [[4]], 4.0, True))
    assert build_extremal(p) == complete_graph(5)
    code, lines, err = sharpness_lines(capsys, 4, 3)
    assert (code, err) == (0, "")
    assert lines[5:] == [
        "vertices: 5",
        "edges: 10",
        "equitable: True",
        "quotient_top: 4.000000000",
        "result: pass",
    ]


@pytest.mark.parametrize("r, b", [(8, 3), (10, 3), (12, 3), (11, 3), (16, 3), (20, 5)])
def test_whole_theorem_is_sharp(r, b):
    # a connected r-regular graph of even order with lambda_3 = rho and no odd
    # [1,b]-factor: the theorem's strict inequality cannot be relaxed. At
    # (16, 3) and (20, 5) the "no" comes from the degree gadget of a graph
    # on 276 and 422 vertices
    g, s = sharp_graph(r, b)
    p = threshold_params(r, b)
    assert len(s) == p.eta > 0 and len(components(g)) == 1
    assert g.regular_degree() == r and g.n % 2 == 0
    (spec,) = spectra([g])
    assert abs(spec[1] - p.rho) < 1e-9 and abs(spec[2] - p.rho) < 1e-9
    assert find_odd_factor(g, b) is None
    # Amahashi's witness, by count: G - S leaves r odd components
    rest, _ = delete_vertices(g, s)
    odd = sum(len(c) % 2 for c in components(rest))
    assert odd == r > b * p.eta


@pytest.mark.parametrize("r, b", [(6, 3), (8, 5)])
def test_whole_theorem_sharp_graph_needs_hubs(r, b):
    # eta = 0 leaves no hub to join the copies of K_{r+1}
    g, s = sharp_graph(r, b)
    assert s == ()
    assert g == disjoint_union([complete_graph(r + 1)] * r)
    assert len(components(g)) == r


def test_missing_quotient_matches_block_mean_oracle():
    pairs = 0
    for r in range(3, 61):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if r % 2 == 1 and p.eta < 3:
                continue
            order, missing, quotient = extremal_missing(p)
            # the degree classes the missing set leaves are the paper's blocks
            lost = [0] * order
            for u, v in missing:
                lost[u] += 1
                lost[v] += 1
            classes = {k: tuple(v for v in range(order) if lost[v] == k) for k in set(lost)}
            parts = extremal_partition(p)
            assert sorted(classes.values()) == sorted(parts), (r, b)
            equitable, q = block_quotient(build_extremal(p), parts)
            want = (equitable, q, quotient_roots(q)[0], True)
            assert quotient == want, (r, b)
            pairs += 1
    assert pairs == 609


def test_missing_quotient_reports_unequal_blocks():
    # a valid extremal shape for r = 5, eta = 3 whose degree classes are not
    # equitable: vertex 1 misses two pairs inside its class, vertex 0 one
    missing = [(0, 1), (1, 2), (0, 3), (2, 4), (5, 6)]
    equitable, rows, top, certified = _missing_quotient(threshold_params(5, 1), 7, missing)
    assert not equitable and not certified
    # the rows come from each class's smallest vertex
    assert rows == [[1, 3], [2, 3]]
    assert top == (4 + math.sqrt(28)) / 2
    assert not block_quotient(complete_minus(7, set(missing)), [range(3), range(3, 7)])[0]


def test_quotient_certificate_holds_up_to_r_200():
    # the two integer equalities hold on every constructible pair, the
    # equitable flag agrees with the vertex-by-vertex rule, and the certified
    # root is rho to the last bit
    pairs = set()
    for r in range(3, 201):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if r % 2 == 1 and p.eta < 3:
                continue
            order, missing, (equitable, rows, top, certified) = extremal_missing(p)
            assert equitable and certified, (r, b, rows)
            assert equitable == oracle_equitable(order, missing), (r, b)
            assert top == p.rho, (r, b)
            pairs.add((r, b, p.eta))
    assert len(pairs) == 6699 and len({(r, eta) for r, _, eta in pairs}) == 1734


def test_quotient_rows_have_the_closed_form_up_to_r_200():
    # the rows are linear in r and eta: [[r - eta, eta], [r + 1 - eta, eta - 2]]
    # for even r and [[r - eta, eta], [r + 2 - eta, eta - 3]] for odd r, whose
    # first class, the cycle's, holds the degree r - 1 vertices; eta = 0 leaves
    # K_{r+1}, one class with entry r
    pairs = 0
    for r in range(3, 201):
        x = r % 2
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            eta = p.eta
            if x == 1 and eta < 3:
                continue
            want = [[r - eta, eta], [r + 1 + x - eta, eta - 2 - x]]
            if eta == 0:
                want = [[r]]
            elif x == 1:
                want = [row[::-1] for row in want[::-1]]
            assert extremal_missing(p)[2][1] == want, (r, b)
            pairs += 1
    assert pairs == 6699


# valid extremal shapes for (5, 1) whose degree classes are not equitable,
# with the rows read off each class's smallest vertex; the second set's rows
# are those of the true quotient, so only the equitability check rejects it
UNEQUAL_5_1 = [
    (((0, 1), (1, 2), (0, 3), (2, 4), (5, 6)), [[1, 3], [2, 3]]),
    (((0, 1), (0, 2), (1, 5), (2, 6), (3, 4)), [[0, 4], [3, 2]]),
]


@pytest.mark.parametrize("missing, rows", UNEQUAL_5_1)
def test_failed_certificate_breaks_sharpness(missing, rows, monkeypatch, capsys):
    def fake(p):
        if (p.r, p.b) == (5, 1):
            return 7, missing, _missing_quotient(p, 7, missing)
        return extremal_missing(p)

    monkeypatch.setattr("oddfactor.cli.extremal_missing", fake)
    p = threshold_params(5, 1)
    equitable, got, _, certified = fake(p)[2]
    assert not equitable and not certified and got == rows
    assert not oracle_equitable(7, missing)
    # the independent eigensolve of the patched graph disagrees with rho
    # (its last digits vary with BLAS)
    assert abs(oracle_spectrum(complete_minus(7, set(missing)))[0] - p.rho) >= GUARD
    code, lines, err = sharpness_lines(capsys, 5, 1)
    assert code == 4
    assert "equitable: False" in lines and "result: FAIL" in lines
    assert err.splitlines() == [f"issue: integer quotient {rows} does not certify rho"]


def test_sweep_builds_no_extremal_component(monkeypatch, capsys):
    # lambda1_H is rho, proved for every r in test_thresholds.py, so the
    # sweep reads no missing-pair set; the digest is the one of the table
    # that read each class's certified quotient root
    def must_not_run(p):
        raise AssertionError("verify sweep built an extremal component")

    monkeypatch.setattr(thresholds, "extremal_missing", must_not_run)
    assert main(["verify", "sweep", "--r-max", "60"]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 + 899
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "eab0877c512107e39c7c175716f971a678701fbda7199bfbafe20a879f5e2010"
    assert err == (
        "note: rho < lwy on 239 rows (all eta=0): "
        "(4,3), (6,3), (6,5), (8,5), (8,7), (10,5), (10,7), (10,9) and 231 more\n"
    )


def test_one_block_certificate():
    # eta = 0: the extremal graph is K_{r+1}, one block whose entry is r
    row = {(row.r, row.b): row for row in sweep_rows(bound_sweep(4))}[4, 3]
    assert row.eta == 0
    assert row.lambda1_H == 4.0
    p = threshold_params(4, 3)
    assert extremal_missing(p)[2] == (True, [[4]], 4.0, True)
    # K_5 is not the shape of (3, 1), so the shape check rejects it
    profile = r"^extremal degree profile broken: \[4, 4, 4, 4, 4\]$"
    with pytest.raises(AssertionError, match=profile):
        _missing_quotient(threshold_params(3, 1), 5, ())
    # a shape-valid single block whose entry is not r does not certify: the
    # 7-cycle leaves K_7 4-regular, the shape of r = 5 with eta = 7
    cycle = tuple((i, i + 1) for i in range(6)) + ((0, 6),)
    p = threshold_params(5, 1)._replace(eta=7)
    assert _missing_quotient(p, 7, cycle) == (True, [[4]], 4.0, False)


def test_certificate_rejects_another_pairs_quotient():
    # the extremal set of (11, 1), eta = 9, does not have the shape of
    # (11, 3), eta = 3, so the shape check rejects it before any quotient
    order, missing, _ = extremal_missing(threshold_params(11, 1))
    profile = re.escape(str([10] * 9 + [11] * 4))
    with pytest.raises(AssertionError, match=f"^extremal degree profile broken: {profile}$"):
        _missing_quotient(threshold_params(11, 3), order, missing)
    # a shape-valid equitable set whose quotient has the wrong trace: K_9
    # minus a 2-star from each of 0, 1, 2 into 3..8 has eta = 3 vertices of
    # degree 6 and six of degree 7; every (7, b) has eta 5 or 1, never 3
    p = threshold_params(7, 1)._replace(eta=3)
    missing = ((0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8))
    equitable, rows, top, certified = _missing_quotient(p, 9, missing)
    assert equitable and rows == [[2, 4], [2, 5]] and not certified
    assert top == (7 + math.sqrt(41)) / 2 and abs(top - p.rho) > 1e-3


def test_sharpness_check_degenerate(capsys):
    with pytest.raises(DegenerateConstructionError):
        extremal_missing(threshold_params(9, 3))
    # the analytic threshold itself stays available
    assert threshold_params(9, 3).rho > 0
    code, lines, err = sharpness_lines(capsys, 9, 3)
    assert (code, lines) == (2, ["rho: 8.916079783"])
    assert err == "degenerate construction: no extremal construction for odd r=9 with eta=1 < 3\n"


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


def test_case2_holds_for_every_odd_r():
    """What case2_polynomial_check checks, proved for every odd r in integer
    polynomials.

    With a = r + 2 - eta, m12 = a*eta - t, s = r - 3 and D = (r + 3)^2 -
    4*eta, rho = (s + sqrt(D))/2 is a root of rho^2 = s*rho + (D - s^2)/4,
    that is, rho^2 = (r - 3)*rho + (3r - eta). Modulo that relation, a*eta
    times the direct quotient polynomial equals a*eta times its factored
    form -t(r+2)/(a*eta) * (rho + eta/(r+2) - r). The bracket's sign:
    2(r+2) times it is (r+2)*sqrt(D) - L with L = (r+2)(r+3) - 2*eta, and
    (r+2)^2*D - L^2 = 4*eta*(r + 2 - eta) >= 0, so rho >= r - eta/(r+2)
    and the polynomial is at most 0 for every t in [0, a].
    """
    a = R + 2 - ETA
    m12 = a * ETA - T
    s = R - 3
    D = (R + 3) ** 2 - 4 * ETA
    assert D - s**2 == 4 * (3 * R - ETA)
    direct = (a * RHO - a * R + m12) * (ETA * RHO - ETA * (R - 1) + m12) - m12**2
    bracket = (R + 2) * RHO + ETA - R * (R + 2)
    factored = -T * bracket
    assert (direct - factored).reduce("rho", s * RHO + 3 * R - ETA) == 0
    L = (R + 2) * (R + 3) - 2 * ETA
    assert 2 * bracket == (R + 2) * (2 * RHO - s) - L
    assert (R + 2) ** 2 * D - L**2 == 4 * ETA * (R + 2 - ETA)
    # the polynomials are the formulas case2_polynomial_check evaluates
    for r in range(3, 60, 2):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            at = {"r": r, "eta": p.eta, "rho": p.rho}
            assert abs(p.rho**2 - (s * RHO + 3 * R - ETA).value(**at)) <= 1e-9
            t_max = r + 2 - p.eta
            top = max(direct.value(t=t, **at) for t in range(t_max + 1)) / (t_max * p.eta)
            rep = case2_polynomial_check(r, b)
            assert rep.t_max == t_max and abs(rep.max_q_at_rho - top) <= 1e-9, (r, b)


# ---------------------------------------------------------------------------
# the sweep


def test_bound_sweep_rows():
    rows = sweep_rows(bound_sweep(12))
    assert len(rows) == sum(len(range(1, r, 2)) for r in range(3, 13))
    by_pair = {(row.r, row.b): row for row in rows}

    row = by_pair[(4, 1)]
    assert abs(row.rho - (1 + math.sqrt(7))) < 1e-12
    assert abs(row.lwy - 109 / 30) < 1e-12
    assert row.rho > row.lwy
    assert row.lambda1_H == row.rho

    row = by_pair[(3, 1)]
    assert abs(row.rho - 2 * math.sqrt(2)) < 1e-12
    assert abs(row.lwy - 2.79) < 1e-12
    assert row.lambda1_H is None

    # complete-graph rows: rho = r and the realized eigenvalue agrees
    row = by_pair[(4, 3)]
    assert row.eta == 0
    assert row.rho == 4.0
    assert abs(row.lambda1_H - 4.0) < 1e-9


def test_bound_sweep_lwy_comparison_structure():
    # rho > lwy wherever eta >= 1; the eta = 0 rows fall short by exactly
    # the additive correction in the older bound (test_thresholds.py proves
    # both for every r)
    for c in bound_sweep(20):
        if c.eta >= 1:
            assert c.rho > c.lwy, (c.r, c.eta)
        else:
            assert c.rho < c.lwy
            assert abs((c.lwy - c.rho) - 1 / ((c.r + 1) * (c.r + 2))) < 1e-12


def test_bound_sweep_sharpness_all_ok():
    # lambda1_H is rho on every class but the degenerate ones (odd r, eta < 3)
    for c in bound_sweep(60):
        assert c.lambda1_H == (None if c.r % 2 and c.eta < 3 else c.rho), (c.r, c.eta)


def test_sweep_csv_format():
    classes = bound_sweep(5)
    text = sweep_to_csv(classes)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + sum(len(c.rows) for c in classes) == 1 + 5
    # (3,1) row has an empty lambda1 cell
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[1] == "1" and cells[-1] == ""
    # (4,1) row carries 9-decimal values
    cells = lines[2].split(",")
    assert cells[5] == "3.645751311"
    assert cells[9] == "3.645751311"


SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "sweep_reference.csv"


def test_sweep_matches_benchmark_reference():
    # the table the benchmark's sweep workload checks every pass against
    want = list(csv.reader(SWEEP_REFERENCE.read_text(encoding="utf-8").splitlines()))
    got = list(csv.reader(io.StringIO(sweep_to_csv(bound_sweep(30)))))
    assert got[0] == want[0] == SWEEP_CSV_HEADER.split(",")
    assert len(got) == len(want) == 225
    for g, w in zip(got[1:], want[1:]):
        assert len(g) == len(w) == 10
        assert g[:5] == w[:5]  # r, b, ceil_rb, epsilon, eta
        for x, y in zip(g[5:], w[5:]):
            if x == "" or y == "":
                assert x == y, (g, w)
            else:
                assert abs(float(x) - float(y)) <= GUARD, (g, w)


def test_sweep_csv_matches_the_cell_by_cell_oracle():
    for r_max in [*range(3, 61), 200]:
        classes = bound_sweep(r_max)
        assert sweep_to_csv(classes) == oracle_sweep_csv(sweep_rows(classes)), r_max


def test_bound_sweep_rows_match_a_per_pair_oracle():
    # each row rebuilt on its own, with no bound shared across b and no root
    # shared across pairs of one (r, eta)
    want = []
    for r in range(3, 61):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            lwy = lwy_threshold(p)
            bh, cgh = prior_1factor_thresholds(r)
            try:
                _, _, lam1, certified = extremal_missing(p)[2]
            except DegenerateConstructionError:
                lam1 = None
            else:
                assert certified, (r, b)
            want.append(
                dict(
                    r=r,
                    b=b,
                    ceil_rb=p.ceil_rb,
                    epsilon=p.epsilon,
                    eta=p.eta,
                    rho=p.rho,
                    lwy=lwy,
                    cgh=cgh,
                    bh=bh,
                    lambda1_H=lam1,
                )
            )
    rows = sweep_rows(bound_sweep(60))
    assert [row._asdict() for row in rows] == want
    assert [[type(x) for x in row] for row in rows] == [
        [type(x) for x in w.values()] for w in want
    ]
    assert sum(w["lambda1_H"] is None for w in want) == 290
    assert sum(w["rho"] < w["lwy"] for w in want) == sum(w["eta"] == 0 for w in want) == 239


RECORDS = [
    (
        ThresholdParams,
        lambda: threshold_params(7, 3),
        ("r", "b", "ceil_rb", "epsilon", "eta", "parity_case", "parity_offset", "rho"),
    ),
    (
        SweepClass,
        lambda: bound_sweep(4)[1],
        ("r", "eta", "rho", "lwy", "cgh", "bh", "lambda1_H", "rows"),
    ),
    (FactorCertificate, lambda: find_odd_factor(cycle_graph(6), 1), ("edges", "degrees")),
    (
        AmahashiViolation,
        # the star K_{1,3}: deleting its centre leaves three odd components
        lambda: check_amahashi(complete_minus(4, {(1, 2), (1, 3), (2, 3)}), 1),
        ("s", "o", "bound"),
    ),
    (
        CertificateCheck,
        lambda: verify_certificate(cycle_graph(6), 1, find_odd_factor(cycle_graph(6), 1)),
        ("ok", "reason"),
    ),
    (
        TrialReport,
        lambda: theorem_check(complete_graph(6), 1),
        ("r", "b", "n", "seed", "lambda3", "rho", "implication_applicable"),
    ),
    (
        Case2Report,
        lambda: case2_polynomial_check(7, 1),
        ("r", "b", "eta", "t_max", "max_q_at_rho", "max_form_gap", "passed"),
    ),
    (
        CampaignSummary,
        lambda: randomized_theorem_campaign(2, master_seed=3),
        ("trials", "applicable", "found", "inapplicable"),
    ),
]


@pytest.mark.parametrize(
    "record, make, fields", RECORDS, ids=[record.__name__ for record, _, _ in RECORDS]
)
def test_records_are_immutable_named_tuples(record, make, fields):
    assert record._fields == fields
    made = make()
    assert type(made) is record and isinstance(made, tuple)
    assert tuple(made) == tuple(getattr(made, f) for f in fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(made, f, 0)
    first = fields[0]
    assert getattr(made._replace(**{first: 9}), first) == 9 and getattr(made, first) != 9
    if record is CertificateCheck:
        # a tuple of two is truthy; the check is as true as its verdict
        assert bool(made) is True and bool(CertificateCheck(False, "x")) is False


def test_sweep_csv_never_shares_a_tail_between_signed_zeros():
    # 0.0 == -0.0, but they print differently: a formatted bound is reused
    # only for the very same float object, so each class prints its own
    # sign, on every one of its rows
    c = bound_sweep(10)[-1]
    assert (c.r, c.eta, [row[0] for row in c.rows]) == (10, 0, [5, 7, 9])
    classes = [c._replace(rho=z, lwy=z) for z in (0.0, -0.0, -0.0, 0.0)]
    # two classes of one r whose 1-factor bounds are equal but signed apart,
    # then one whose lambda1_H equals its rho but is signed apart from it
    classes += [c._replace(cgh=z, bh=-z) for z in (0.0, -0.0)]
    classes.append(c._replace(rho=0.0, lambda1_H=-0.0))
    text = sweep_to_csv(classes)
    cells = [line.split(",") for line in text.splitlines()[1:]]
    zero, minus = "0.000000000", "-0.000000000"
    assert [row[5] for row in cells[:12]] == [*[zero] * 3, *[minus] * 6, *[zero] * 3]
    assert [row[7:9] for row in cells[12:18]] == [[zero, minus]] * 3 + [[minus, zero]] * 3
    assert [(row[5], row[9]) for row in cells[18:]] == [(zero, minus)] * 3
    assert text == oracle_sweep_csv(sweep_rows(classes))


def test_sweep_csv_of_no_classes_is_the_header_line():
    assert sweep_to_csv([]) == SWEEP_CSV_HEADER + "\n" == oracle_sweep_csv([])


def test_sweep_csv_reads_its_cells_off_the_largest_r_in_any_order():
    # the integer cells come from a table of 0..max r, so a list whose last
    # class has the smallest r still prints every row
    classes = bound_sweep(40)
    shuffled = classes[:]
    random.Random(7).shuffle(shuffled)
    for order in (classes[::-1], shuffled):
        assert order[-1].r < 40
        assert sweep_to_csv(order) == oracle_sweep_csv(sweep_rows(order))


@pytest.mark.parametrize("row", [(-1, 4, 1), (3, 41, 1)], ids=["negative_b", "ceil_rb_above_r"])
def test_sweep_csv_refuses_a_row_int_outside_its_table(row):
    # bound_sweep puts every row int in 0..r; a hand-built row outside
    # 0..max r raises, and never prints a cell other than str() of it
    c = bound_sweep(10)[-1]
    classes = [c, c._replace(r=40, rows=(row,))]
    with pytest.raises(KeyError):
        sweep_to_csv(classes)


def test_bound_sweep_rejects_small_r_max():
    with pytest.raises(ValueError):
        bound_sweep(2)


# ---------------------------------------------------------------------------
# randomized campaign


def test_campaign_counts_and_invariant(capsys):
    summary = randomized_theorem_campaign(50, master_seed=2024)
    assert summary.trials == 50
    assert summary.applicable + summary.inapplicable == 50
    assert summary.found == summary.applicable
    assert main(["verify", "campaign", "--trials", "50", "--master-seed", "2024"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {**summary._asdict(), "counterexamples": []}
    reports = campaign_reports(50, master_seed=2024)
    assert summary.applicable == sum(rep.implication_applicable for rep in reports)
    for rep in reports:
        if rep.implication_applicable:
            g = random_regular(rep.n, rep.r, seed=rep.seed)
            assert verify_certificate(g, rep.b, find_odd_factor(g, rep.b))
        assert rep.n % 2 == 0 and 3 <= rep.r <= 7
        assert rep.b % 2 == 1 and rep.b < rep.r


def test_campaign_raises_with_reproducer(monkeypatch):
    # a decider that finds nothing turns the first applicable trial into a
    # counterexample, reported with the graph that trial checked, which its
    # seed regenerates
    monkeypatch.setattr(verify, "find_odd_factor", lambda g, b: None)
    with pytest.raises(verify.TheoremViolation, match="n=12, r=7, b=5, seed=1000003,") as info:
        randomized_theorem_campaign(5, master_seed=1)
    assert info.value.graph_text == serialize_edge_list(random_regular(12, 7, seed=1000003))


def test_campaign_stops_at_its_first_counterexample(monkeypatch):
    # the counterexample above is trial 3 of master seed 1, so a campaign of
    # ten blocks checks its first block and raises the same reproducer
    monkeypatch.setattr(verify, "find_odd_factor", lambda g, b: None)
    with pytest.raises(verify.TheoremViolation) as pinned:
        randomized_theorem_campaign(5, master_seed=1)
    real, blocks = verify._campaign_block, []

    def counted(block):
        blocks.append(block)
        return real(block)

    monkeypatch.setattr(verify, "_campaign_block", counted)
    with pytest.raises(verify.TheoremViolation) as info:
        randomized_theorem_campaign(640, master_seed=1)
    assert len(blocks) == 1 and blocks[0] == (1, 0, 64, 8, 20, 3, 7, "random")
    assert (str(info.value), info.value.graph_text) == (str(pinned.value), pinned.value.graph_text)
    # forked workers see the patched decider, and the pool gives the blocks
    # back in trial order, so the same trial raises
    monkeypatch.setattr(verify, "_campaign_block", real)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    with pytest.raises(verify.TheoremViolation) as info:
        randomized_theorem_campaign(640, master_seed=1, jobs=2)
    assert (str(info.value), info.value.graph_text) == (str(pinned.value), pinned.value.graph_text)


def test_campaign_memory_does_not_grow_with_trials(monkeypatch):
    # with the trials stubbed out, what is left is the campaign's own
    # bookkeeping, which holds one block at a time whatever --trials says
    monkeypatch.setattr(verify, "_campaign_block", lambda block: 0)
    tracemalloc.start()
    try:
        summary = randomized_theorem_campaign(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert summary == (10**5, 0, 0, 10**5)


def _list_drawn_trial(master_seed, index, n_lo, n_hi, r_lo, r_hi, b_policy):
    """A trial's (n, r, b) as the campaign drew them when it listed every
    admissible n, the oracle for its draw from a range."""
    rng = random.Random(_trial_seed(master_seed, index))
    r = rng.randrange(r_lo, r_hi + 1)
    if b_policy == "random":
        b = rng.choice(range(1, r, 2))
    else:
        b = 1 if b_policy == "unit" else r - 1 if (r - 1) % 2 == 1 else r - 2
    n = rng.choice([n for n in range(n_lo, n_hi + 1) if n % 2 == 0 and n > r])
    return n, r, b


@pytest.mark.parametrize(
    "n_range, r_range, policy",
    [
        ((8, 20), (3, 7), "random"),
        ((7, 21), (3, 7), "random"),
        ((5, 9), (3, 7), "unit"),
        ((-3, 12), (3, 11), "max"),
        ((12, 31), (5, 8), "random"),
        ((4, 5), (3, 3), "unit"),
    ],
)
def test_campaign_n_draw_matches_the_list_draw(n_range, r_range, policy):
    for index in range(25):
        spec = (11, index, *n_range, *r_range, policy)
        g, b, seed = verify._campaign_graph(spec)
        assert (g.n, g.regular_degree(), b) == _list_drawn_trial(*spec), spec
        assert seed == _trial_seed(11, index)


def test_campaign_reproducible():
    assert randomized_theorem_campaign(25, master_seed=5) == randomized_theorem_campaign(
        25, master_seed=5
    )
    s1 = campaign_reports(25, master_seed=5)
    s2 = campaign_reports(25, master_seed=5)
    assert s1 == s2
    s3 = campaign_reports(25, master_seed=6)
    assert s1 != s3


def test_campaign_parallel_matches_serial():
    # 16 trials are one block and run serially; 130 span three pool tasks
    for trials in (16, 130):
        s1 = randomized_theorem_campaign(trials, master_seed=31, jobs=1)
        s2 = randomized_theorem_campaign(trials, master_seed=31, jobs=2)
        assert s1 == s2


@pytest.mark.parametrize("policy", ["random", "unit", "max"])
def test_campaign_blocks_equal_single_checks(policy):
    # counts on both sides of a block edge; a trial's report depends only on
    # its own seed, so a shorter campaign is a prefix of a longer one, and the
    # campaign counts the applicable reports of its trials
    full = campaign_reports(197, b_policy=policy, master_seed=4)
    for trials in (1, 63, 64, 65, 197):
        reports = campaign_reports(trials, b_policy=policy, master_seed=4)
        assert reports == full[:trials]
        applicable = sum(rep.implication_applicable for rep in reports)
        summary = randomized_theorem_campaign(trials, b_policy=policy, master_seed=4)
        assert summary == (trials, applicable, applicable, trials - applicable)
    for rep in full:
        g = random_regular(rep.n, rep.r, seed=rep.seed)
        assert theorem_check(g, rep.b, seed=rep.seed) == rep
        # exact: the stacked solve gives the bits of the matrix solved alone
        assert rep.lambda3 == oracle_spectrum(g)[2]


def test_campaign_pool_gets_one_worker_per_block(monkeypatch):
    # a stand-in pool that records its size and runs the trials in this
    # process, so the test starts no process whatever --jobs says
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    serial = {t: randomized_theorem_campaign(t, master_seed=3) for t in (2, 64, 65, 129, 200)}
    # blocks of 64 trials; one block runs serially whatever --jobs says, and
    # the pool never gets more workers than blocks or CPUs
    cases = {
        8: ((2, 64, None), (64, 2, None), (65, 2, 2), (129, 2, 2), (129, 8, 3), (200, 64, 4)),
        2: ((200, 64, 2), (200, 10**6, 2)),
    }
    for cpus, runs in cases.items():
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for trials, jobs, workers in runs:
            pooled = randomized_theorem_campaign(trials, master_seed=3, jobs=jobs)
            assert (sizes.pop() if sizes else None) == workers, (cpus, trials, jobs)
            assert pooled == serial[trials]
    assert not sizes


def test_campaign_empty(capsys):
    assert randomized_theorem_campaign(0) == CampaignSummary(0, 0, 0, 0)
    assert main(["verify", "campaign", "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {
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
            reports = campaign_reports(10, b_policy=policy, master_seed=8)
            assert all(rep.b == 1 for rep in reports)


def test_campaign_rejects_bad_ranges():
    with pytest.raises(ValueError):
        randomized_theorem_campaign(5, r_range=(2, 4))
    # ranges are checked before any trial runs, so zero trials are rejected too
    for trials in (3, 0):
        with pytest.raises(ValueError, match="r range is empty"):
            randomized_theorem_campaign(trials, r_range=(7, 3))
        with pytest.raises(ValueError, match="no even n"):
            randomized_theorem_campaign(trials, n_range=(20, 8))
        # n must exceed the largest r the range allows, not only the drawn one
        with pytest.raises(ValueError, match="no even n"):
            randomized_theorem_campaign(trials, n_range=(4, 9), r_range=(3, 8))
        with pytest.raises(ValueError, match="no even n"):
            randomized_theorem_campaign(trials, n_range=(7, 7), r_range=(3, 5))
    with pytest.raises(ValueError, match="trials must be non-negative"):
        randomized_theorem_campaign(-3)
    for trials in (0, 2):
        with pytest.raises(ValueError, match="unknown b_policy 'bogus'"):
            randomized_theorem_campaign(trials, b_policy="bogus")


class _Started(Exception):
    pass


def _started(*args, **kwargs):
    raise _Started


def test_order_cap_in_the_verify_checks(monkeypatch):
    # each check refuses an order above ORDER_MAX = 2048 before its work
    # starts, and starts it at the cap: the sweep's largest component at
    # r_max 2046 has 2047 vertices, at 2047 it has 2049
    monkeypatch.setattr(thresholds, "prior_1factor_thresholds", _started)
    with pytest.raises(_Started):
        bound_sweep(2046)
    with pytest.raises(GraphError, match="^order 2049 exceeds the cap ORDER_MAX = 2048$"):
        bound_sweep(2047)
    assert case2_polynomial_check(2045, 1).passed
    with pytest.raises(GraphError, match="^order 2049 exceeds the cap"):
        case2_polynomial_check(2047, 1)
    monkeypatch.setattr(verify, "random_regular", _started)
    with pytest.raises(_Started):
        randomized_theorem_campaign(1, n_range=(2048, 2049))
    for trials in (1, 0):
        with pytest.raises(GraphError, match="^order 2050 exceeds the cap"):
            randomized_theorem_campaign(trials, n_range=(8, 2050))


@pytest.mark.parametrize("jobs", [0, -2])
def test_campaign_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        randomized_theorem_campaign(4, jobs=jobs)


def test_campaign_accepts_tightest_ranges():
    summary = randomized_theorem_campaign(3, n_range=(8, 8), r_range=(7, 7))
    assert summary.trials == 3
    assert {rep.n for rep in campaign_reports(3, n_range=(8, 8), r_range=(7, 7))} == {8}
