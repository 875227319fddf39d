import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddfactor import factor
from oddfactor.cli import main
from oddfactor.factor import (
    FactorCertificate,
    check_amahashi,
    find_odd_factor,
    verify_certificate,
)
from oddfactor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    serialize_edge_list,
)
from conftest import (
    barrier_cubic,
    brute_force_has_odd_factor,
    components,
    cubic_no_matching_16,
    delete_vertices,
    dfs_odd_factor,
    disjoint_union,
    graphs,
    join,
    random_graph,
    scan_augment,
    sharp_graph,
)


def star_k13():
    return join(complete_graph(1), empty_graph(3))


def edge_degrees(n: int, edges) -> tuple:
    """The degrees the edges give, recounted; certificates carry no tally."""
    degs = [0] * n
    for u, w in edges:
        degs[u] += 1
        degs[w] += 1
    return tuple(degs)


def cli_payload(capsys, monkeypatch, command, g, b):
    """The exit code and the JSON payload of `oddfactor <command> - --b <b>` on g."""
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_edge_list(g)))
    code = main([command, "-", "--b", str(b)])
    return code, json.loads(capsys.readouterr().out)


def test_check_amahashi_star(capsys, monkeypatch):
    v = check_amahashi(star_k13(), 1)
    assert v is not None
    assert v.s == (0,)
    assert v.o == 3 and v.bound == 1
    payload = {"kind": "violation", "S": [0], "o": 3, "bound": 1}
    assert cli_payload(capsys, monkeypatch, "check", star_k13(), 1) == (3, payload)


def test_check_amahashi_empty_set_witness():
    g = disjoint_union([cycle_graph(3), cycle_graph(3)])
    v = check_amahashi(g, 1)
    assert v.s == ()
    assert v.o == 2 and v.bound == 0


def test_check_amahashi_holds_on_c6():
    assert check_amahashi(cycle_graph(6), 1) is None


def test_check_amahashi_stops_where_no_set_can_violate(monkeypatch):
    # only |S| < n/(b+1) can violate: sizes 0-2 of C6 at b = 1 (1 + 6 + 15
    # subsets), sizes 0-1 at b = 3 (1 + 6)
    real = factor._odd_count_masked
    for b, calls in ((1, 22), (3, 7)):
        seen = []

        def counted(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(factor, "_odd_count_masked", counted)
        assert check_amahashi(cycle_graph(6), b) is None
        assert len(seen) == calls, b


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
    assert set(edge_degrees(g.n, cert.edges)) == {1}
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


def test_find_odd_factor_trivial_graphs():
    # the graph on no vertices takes the general path to the empty factor
    for b in (1, 3, 5):
        assert find_odd_factor(empty_graph(0), b) == FactorCertificate((), ())
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
    bad = verify_certificate(g, 1, FactorCertificate(((0, 1), (2, 2), (4, 5)), (1,) * 6))
    assert not bad and bad.reason == "edge (2, 2) not in the host graph"
    # vertices outside 0..n-1 are rejected as non-edges, never used as indices
    for u, v in ((-1, 0), (0, -1), (-6, -5), (5, 6), (6, 7), (0, 6), (-1, -1), (6, 6)):
        bad = verify_certificate(g, 1, FactorCertificate(((u, v),), (1,)))
        assert not bad and "not in the host graph" in bad.reason, (u, v)
    # edges that are not pairs of integers, as JSON input may carry
    for e in ((0.5, 1), (0, "1"), (0, 1, 2), (0,), "01", 5, None):
        bad = verify_certificate(g, 1, FactorCertificate((e,), (1,)))
        assert not bad and bad.reason == f"edge {e!r} is not a pair of integers", e
    # an edge container that is not iterable, as JSON input may carry
    for edges in (None, 5):
        bad = verify_certificate(g, 1, FactorCertificate(edges, ()))
        assert not bad and bad.reason == f"edges {edges!r} is not iterable", edges
    bad = verify_certificate(g, 1, FactorCertificate(((0, 1), (1, 0), (2, 3), (4, 5)), ()))
    assert not bad and bad.reason == "duplicate edge (0, 1)"
    bad = verify_certificate(complete_graph(4), 1, FactorCertificate(((0, 1), (0, 2), (0, 3)), ()))
    assert not bad and bad.reason == "vertex 0 has degree 3 > 1"
    # a list pair is read like a tuple
    ok = verify_certificate(g, 1, FactorCertificate(([0, 1], [2, 3], [4, 5]), ()))
    assert ok


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
            cert = find_odd_factor(g, b)
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
    assert edge_degrees(star.n, cert.edges) == (5, 1, 1, 1, 1, 1)
    # no perfect matching, so only the gadget finds these factors; on the
    # second graph the backtracking search cannot prove the b = 1 answer
    big = barrier_cubic(81)
    assert big.n == 244
    for g in (cubic_no_matching_16(), big):
        assert find_odd_factor(g, 1) is None
        cert = find_odd_factor(g, 3)
        assert cert is not None and verify_certificate(g, 3, cert)
        assert max(edge_degrees(g.n, cert.edges)) == 3


def test_member_lists_give_the_scan_certificates(monkeypatch):
    # the member-list relabelling must reproduce, edge for edge, the
    # certificates of the full-scan search kept in conftest as the oracle
    rng = random.Random(27)
    cases = []
    for _ in range(2000):
        n = 2 * rng.randrange(1, 16)
        edges = set(random_graph(rng, n, rng.choice([0.08, 0.12, 0.2, 0.3])).edges)
        # no isolated vertex, so that no case stops before the search
        for v in range(n):
            if not any(v in e for e in edges):
                w = rng.choice([u for u in range(n) if u != v])
                edges.add((min(v, w), max(v, w)))
        g = Graph(n, edges)
        cases += [(g, b) for b in (1, 3, 5)]
    cases += [(barrier_cubic(k), b) for k in range(7, 30, 2) for b in (1, 3)]
    cases += [(sharp_graph(r, 3)[0], b) for r in (8, 12) for b in (1, 3)]
    fast = [find_odd_factor(g, b) for g, b in cases]
    monkeypatch.setattr(factor, "_augment", scan_augment)
    slow = [find_odd_factor(g, b) for g, b in cases]
    assert [c and c.edges for c in fast] == [c and c.edges for c in slow]
    # b = 3 factors with no perfect matching under them come from the gadget
    gadget = sum(1 for i in range(0, 6000, 3) if fast[i] is None and fast[i + 1] is not None)
    assert gadget >= 200 and fast.count(None) >= 1000


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
            cert = find_odd_factor(g, b)
            if cert is not None:
                assert verify_certificate(g, b, cert)
                assert set(cert.edges) <= set(g.edges)


def test_counting_step_on_cubic_witness():
    g = cubic_no_matching_16()
    v = check_amahashi(g, 1)
    assert v is not None
    # even order and odd b force the excess to be at least 2
    assert v.o >= v.bound + 2


def test_violation_components_match_deleted_graph():
    # oracle: the odd components of G - S from the Graph-level component search
    rng = random.Random(23)
    checked = 0
    for _ in range(400):
        g = random_graph(rng, rng.randrange(1, 12), rng.choice([0.15, 0.3, 0.5]))
        for b in (1, 3, 5):
            v = check_amahashi(g, b)
            if v is None:
                continue
            checked += 1
            h, _ = delete_vertices(g, v.s)
            odd = sum(len(comp) % 2 for comp in components(h))
            assert v.o == odd, (g.edges, b)
            assert v.o > v.bound == b * len(v.s)
    assert checked >= 900


def test_certificate_json_shape(capsys, monkeypatch):
    code, payload = cli_payload(capsys, monkeypatch, "find-factor", cycle_graph(6), 1)
    assert code == 0
    assert payload["kind"] == "factor"
    assert sorted(payload["edges"]) == [[0, 1], [2, 3], [4, 5]]
