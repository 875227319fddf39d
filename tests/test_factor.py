import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddfactor import (
    FactorCertificate,
    Graph,
    check_amahashi,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    find_odd_factor,
    join,
    small_boundary_components,
    verify_certificate,
)
from conftest import (
    barrier_cubic,
    brute_force_has_odd_factor,
    cubic_no_matching_16,
    dfs_odd_factor,
    graphs,
    random_graph,
)


def star_k13():
    return join(complete_graph(1), empty_graph(3))


def test_check_amahashi_star():
    v = check_amahashi(star_k13(), 1)
    assert v is not None
    assert v.s == (0,)
    assert v.o == 3 and v.bound == 1
    assert v.odd_components == ((1,), (2,), (3,))
    assert v.to_json_dict() == {"kind": "violation", "S": [0], "o": 3, "bound": 1}


def test_check_amahashi_empty_set_witness():
    g = disjoint_union([cycle_graph(3), cycle_graph(3)])
    v = check_amahashi(g, 1)
    assert v.s == ()
    assert v.o == 2 and v.bound == 0


def test_check_amahashi_holds_on_c6():
    assert check_amahashi(cycle_graph(6), 1) is None


def test_check_amahashi_errors():
    with pytest.raises(ValueError):
        check_amahashi(cycle_graph(6), 2)
    with pytest.raises(ValueError):
        check_amahashi(empty_graph(10), 1, max_n=8)


def test_find_odd_factor_c6():
    g = cycle_graph(6)
    cert = find_odd_factor(g, 1)
    assert cert is not None
    assert len(cert.edges) == 3
    assert set(cert.degrees) == {1}
    assert verify_certificate(g, 1, cert)


def test_find_odd_factor_k4_full():
    g = complete_graph(4)
    cert = find_odd_factor(g, 3)
    assert cert is not None
    assert verify_certificate(g, 3, cert)


def test_find_odd_factor_star_none():
    assert find_odd_factor(star_k13(), 1) is None


def test_find_odd_factor_guards():
    with pytest.raises(ValueError):
        find_odd_factor(cycle_graph(6), 4)
    with pytest.raises(ValueError):
        find_odd_factor(complete_graph(6), 1, max_edges=10)


def test_find_odd_factor_trivial_graphs():
    assert find_odd_factor(empty_graph(0), 1) == FactorCertificate((), ())
    assert find_odd_factor(empty_graph(2), 1) is None  # isolated vertices
    assert find_odd_factor(complete_graph(2), 1) is not None


def test_verify_certificate_reasons():
    g = cycle_graph(6)
    ok = verify_certificate(g, 1, FactorCertificate(((0, 1), (2, 3), (4, 5)), (1,) * 6))
    assert ok and ok.reason is None
    bad = verify_certificate(g, 1, FactorCertificate(tuple(g.edges), (2,) * 6))
    assert not bad and "even" in bad.reason
    bad = verify_certificate(complete_graph(4), 3, FactorCertificate((), ()))
    assert not bad and "degree 0" in bad.reason
    bad = verify_certificate(g, 1, FactorCertificate(((0, 2), (1, 4), (3, 5)), (1,) * 6))
    assert not bad and "not in the host graph" in bad.reason


def test_deciders_agree_exhaustively_n4():
    pairs = list(itertools.combinations(range(4), 2))
    for b in (1, 3):
        for mask in range(1 << len(pairs)):
            g = Graph(4, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            via_criterion = check_amahashi(g, b) is None
            via_search = find_odd_factor(g, b) is not None
            via_dfs = dfs_odd_factor(g, b) is not None
            via_brute = brute_force_has_odd_factor(g, b)
            assert via_criterion == via_search == via_dfs == via_brute


def test_deciders_agree_on_random_graphs():
    rng = random.Random(99)
    gadget_only = 0  # a factor for b >= 3 but no perfect matching
    for _ in range(500):
        g = random_graph(rng, rng.randrange(1, 13), rng.choice([0.2, 0.4, 0.6]))
        for b in (1, 3, 5):
            via_criterion = check_amahashi(g, b) is None
            cert = find_odd_factor(g, b, max_edges=len(g.edges))
            via_search = cert is not None
            via_dfs = dfs_odd_factor(g, b, max_edges=len(g.edges)) is not None
            assert via_criterion == via_search == via_dfs, f"disagree on {g.edges} b={b}"
            if b == 1:
                perfect = via_search
            elif via_search and not perfect:
                gadget_only += 1
            if cert is not None:
                assert verify_certificate(g, b, cert)
    # the degree-gadget branch must keep being exercised
    assert gadget_only >= 16


@settings(derandomize=True, database=None, deadline=None)
@given(graphs(10), st.sampled_from([1, 3, 5]))
def test_deciders_agree_property(g, b):
    cert = find_odd_factor(g, b)
    assert (cert is not None) == (dfs_odd_factor(g, b) is not None) == (check_amahashi(g, b) is None)
    if cert is not None:
        assert verify_certificate(g, b, cert)


def test_degree_gadget_cases():
    star = join(complete_graph(1), empty_graph(5))  # K_{1,5}
    assert find_odd_factor(star, 3) is None
    cert = find_odd_factor(star, 5)
    assert cert is not None and verify_certificate(star, 5, cert)
    assert cert.degrees == (5, 1, 1, 1, 1, 1)
    # no perfect matching, so only the gadget finds these factors; on the
    # second graph the backtracking search cannot prove the b = 1 answer
    big = barrier_cubic(81)
    assert big.n == 244
    for g in (cubic_no_matching_16(), big):
        assert find_odd_factor(g, 1, max_edges=len(g.edges)) is None
        cert = find_odd_factor(g, 3, max_edges=len(g.edges))
        assert cert is not None and verify_certificate(g, 3, cert)
        assert max(cert.degrees) == 3


def test_odd_order_never_has_factor():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([3, 5, 7, 9])
        g = random_graph(rng, n, 0.5)
        assert check_amahashi(g, 1) is not None
        assert find_odd_factor(g, 1) is None


def test_violation_is_smallest_then_lexicographic():
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        g = random_graph(rng, rng.randrange(2, 9), 0.35)
        v = check_amahashi(g, 1)
        if v is None:
            continue
        checked += 1
        # independent replay of the documented tie-break order
        adj_sets = [set(ns) for ns in g.adj]

        def odd_after(drop):
            seen = set(drop)
            odd = 0
            for s in range(g.n):
                if s in seen:
                    continue
                stack = [s]
                seen.add(s)
                size = 0
                while stack:
                    x = stack.pop()
                    size += 1
                    for y in adj_sets[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                if size % 2 == 1:
                    odd += 1
            return odd

        first = None
        for size in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                if odd_after(combo) > size:
                    first = combo
                    break
            if first is not None:
                break
        assert v.s == first
        assert v.o == odd_after(v.s) and v.o > v.bound


def test_certificates_always_verify():
    rng = random.Random(3)
    for _ in range(120):
        g = random_graph(rng, rng.choice([4, 6, 8, 10]), 0.5)
        for b in (1, 3):
            cert = find_odd_factor(g, b, max_edges=len(g.edges))
            if cert is not None:
                assert verify_certificate(g, b, cert)
                assert set(cert.edges) <= set(g.edges)


def test_counting_step_on_cubic_witness():
    g = cubic_no_matching_16()
    v = check_amahashi(g, 1)
    assert v is not None
    # even order and odd b force the excess to be at least 2
    assert v.o >= v.bound + 2
    small = small_boundary_components(g, v.s, 3, 1)
    assert len(small) >= 3
    for comp, boundary in small:
        assert len(comp) % 2 == 1
        assert boundary < 3


def test_small_boundary_components_examples():
    g = star_k13()
    out = small_boundary_components(g, [0], 3, 1)
    assert out == [((1,), 1), ((2,), 1), ((3,), 1)]
    g = disjoint_union([cycle_graph(3), complete_graph(2)])
    out = small_boundary_components(g, [], 3, 1)
    assert out == [((0, 1, 2), 0)]
    # path of five after deleting one vertex of C6: boundary 2 not under ceil(2/1)=2
    out = small_boundary_components(cycle_graph(6), [0], 2, 1)
    assert out == []


def test_certificate_json_shape():
    cert = find_odd_factor(cycle_graph(6), 1)
    payload = cert.to_json_dict()
    assert payload["kind"] == "factor"
    assert sorted(payload["edges"]) == [[0, 1], [2, 3], [4, 5]]
