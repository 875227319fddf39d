import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddfactor.cli import parse_construction
import oddfactor.graphs
from oddfactor.graphs import (
    ORDER_MAX,
    Graph,
    GraphError,
    complete_graph,
    complete_minus,
    cycle_graph,
    empty_graph,
    is_connected,
    matching_complement,
    parse_edge_list,
    serialize_edge_list,
    to_dot,
)
from oddfactor.thresholds import build_extremal, threshold_params
from oddfactor.verify import random_regular
from conftest import (
    check_invariants,
    complement,
    components,
    delete_vertices,
    disjoint_union,
    graphs,
    induced_subgraph,
    join,
    oracle_adj,
    oracle_parse_edge_list,
    random_graph,
)


def test_complete_graph():
    g = complete_graph(4)
    assert len(g.edges) == 6
    assert g.degrees() == (3, 3, 3, 3)
    assert check_invariants(g)


def test_cycle_graph():
    g = cycle_graph(5)
    assert len(g.edges) == 5
    assert set(g.degrees()) == {2}


def test_matching_complement_is_a_four_cycle():
    g = matching_complement(4)
    assert len(g.edges) == 4
    assert set(g.degrees()) == {2}
    assert len(components(g)) == 1
    # the removed matching is exactly the complement
    assert complement(g).edges == ((0, 1), (2, 3))


def test_construction_spec_dispatch_and_errors():
    assert parse_construction("K3") == complete_graph(3)
    assert parse_construction("E2") == empty_graph(2)
    with pytest.raises(GraphError):
        parse_construction("C2")
    with pytest.raises(GraphError):
        parse_construction("M3")
    with pytest.raises(GraphError):
        parse_construction("K0")
    with pytest.raises(ValueError):
        parse_construction("P10")


@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_graph(1),
        lambda: complete_graph(6),
        lambda: complete_minus(0, ()),
        lambda: complete_minus(5, {(0, 1), (3, 4), (4, 3), (2, 9)}),
        lambda: complete_minus(7, {(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)}),
        lambda: complete_minus(4, set(itertools.combinations(range(4), 2))),
        lambda: matching_complement(0),
        lambda: matching_complement(6),
        lambda: matching_complement(2),
        lambda: build_extremal(threshold_params(6, 1)),
        lambda: parse_edge_list("0 0\n"),
        lambda: parse_edge_list("5 4\n4 1\n0 3\n1 0\n3 2\n"),
        lambda: parse_edge_list("4 3\n2 3\n0 3\n1 3\n"),
        lambda: build_extremal(threshold_params(7, 1)),
        lambda: random_regular(14, 3, seed=3),
        lambda: random_regular(8, 3, seed=0),
        lambda: random_regular(10, 4, seed=1),
        lambda: random_regular(12, 5, seed=2),
    ],
)
def test_unchecked_builders_match_checked_constructor(build):
    # builders skip re-validation; the checked constructor is the reference
    g = build()
    assert check_invariants(g)
    checked = Graph(g.n, g.edges)
    assert g == checked
    assert g.adj == checked.adj


def test_parse_refuses_header_orders_above_the_cap(monkeypatch):
    assert ORDER_MAX == 2048 and "ORDER_MAX" in oddfactor.graphs.__all__
    g = parse_edge_list("2048 0\n")
    assert (g.n, g.edges, g.adj) == (2048, (), ((),) * 2048)

    def must_not_run(*args):
        raise AssertionError("a header above ORDER_MAX reached the graph builder")

    # the refusal comes before any table or graph of that order is built
    monkeypatch.setattr(Graph, "_canonical", must_not_run)
    for text in ("2049 0\n", "2049 1\n0 1\n", "2049 1\n0 01\n", "2000000000000 0\n"):
        order = int(text.split()[0])
        message = f"^order {order} exceeds the cap ORDER_MAX = 2048$"
        with pytest.raises(GraphError, match=message):
            parse_edge_list(text)


def test_library_calls_take_any_order():
    # the cap bounds what arrives from outside; code may build larger graphs
    assert Graph(ORDER_MAX + 1, [(0, ORDER_MAX)]).adj[ORDER_MAX] == (0,)
    assert empty_graph(ORDER_MAX + 1).n == ORDER_MAX + 1


def test_adj_matches_oracle_with_isolated_vertices():
    # more than 2m vertices leaves some isolated; every graph has one adjacency
    # layout, checked on both sides of that line and through every builder
    rng = random.Random(29)
    sides = set()
    for _ in range(300):
        n = rng.randrange(0, 40)
        g = random_graph(rng, n, rng.choice((0.01, 0.03, 0.1, 0.5)))
        want = oracle_adj(n, g.edges)
        for h in (g, Graph._canonical(n, g.edges), parse_edge_list(serialize_edge_list(g))):
            assert h.adj == want
            assert check_invariants(h)
        sides.add(n > 2 * len(g.edges))
    assert sides == {True, False}
    big = Graph(2_000, [(1999, 7), (3, 7)])
    assert big.adj == oracle_adj(2_000, big.edges)


def test_complete_minus_without_missing_edges_is_complete():
    for k in range(1, 8):
        assert complete_minus(k, set()) == complete_graph(k)


def test_has_edge_matches_edge_list():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(0, 9), 0.4)
        edges = set(g.edges)
        for u in range(-2, g.n + 2):
            for v in range(-2, g.n + 2):
                # loops, negative vertices and vertices >= n are never edges
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    assert not Graph(0).has_edge(0, 0)
    assert not complete_graph(3).has_edge(-1, 2) and not complete_graph(3).has_edge(2, -1)
    assert not complete_graph(3).has_edge(1, 1) and not complete_graph(3).has_edge(0, 3)


def test_is_connected_agrees_with_components():
    rng = random.Random(11)
    for g in (empty_graph(0), empty_graph(1), empty_graph(2), complete_graph(1)):
        assert is_connected(g) == (len(components(g)) == 1)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 10), rng.choice((0.15, 0.3, 0.6)))
        assert is_connected(g) == (len(components(g)) == 1)


def test_complete_minus_rejects_negative_order():
    with pytest.raises(GraphError):
        complete_minus(-1, ())


def test_zero_vertex_graphs():
    assert empty_graph(0).n == 0
    assert matching_complement(0).n == 0
    assert disjoint_union([]).n == 0


def test_graph_constructor_errors():
    # a loop and an end out of range get the message that parse_edge_list
    # gives for the same line
    for (u, v), message in (
        ((1, 1), r"^self-loop at vertex 1$"),
        ((0, 3), r"^edge \(0,3\) out of range for n=3$"),
        ((-1, 0), r"^edge \(-1,0\) out of range for n=3$"),
    ):
        with pytest.raises(GraphError, match=message):
            Graph(3, [(u, v)])
        with pytest.raises(GraphError, match=message):
            parse_edge_list(f"3 1\n{u} {v}\n")
    with pytest.raises(GraphError, match="^vertex count must be nonnegative, got -1$"):
        Graph(-1)
    # labels must be integers, neither truncated nor parsed; both errors are
    # GraphErrors, which the CLI reports with exit 2
    with pytest.raises(GraphError, match="must be an integer"):
        Graph(2.7)
    with pytest.raises(GraphError, match="must be an integer"):
        Graph("3")
    for edge in ((0, 1.5), ("1", "2"), (0, 1, 2), (0,), 5, None):
        with pytest.raises(GraphError, match="is not a pair of integers"):
            Graph(3, [edge])
    # set semantics: duplicates and reversed pairs collapse
    g = Graph(3, [(1, 0), (0, 1), (0, 1)])
    assert g.edges == ((0, 1),)


# ---------------------------------------------------------------------------
# the graph algebra that the tests use as oracles (tests/conftest.py)


def test_complement_examples():
    assert complement(complete_graph(4)) == empty_graph(4)
    assert complement(cycle_graph(3)) == empty_graph(3)
    c5c = complement(cycle_graph(5))
    # self-complementary: 2-regular connected on 5 vertices forces a 5-cycle
    assert len(c5c.edges) == 5
    assert set(c5c.degrees()) == {2}
    assert len(components(c5c)) == 1


def test_complement_involution_exhaustive_small():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            assert complement(complement(g)) == g


def test_join_examples():
    g = join(complete_graph(1), matching_complement(4))
    assert g.n == 5 and len(g.edges) == 8
    k22 = join(empty_graph(2), empty_graph(2))
    assert len(k22.edges) == 4
    assert set(k22.degrees()) == {2}
    assert len(components(k22)) == 1
    assert join(complete_graph(3), empty_graph(0)) == complete_graph(3)


def test_join_edge_count_formula():
    rng = random.Random(1)
    for _ in range(25):
        g1 = random_graph(rng, rng.randrange(0, 6), 0.5)
        g2 = random_graph(rng, rng.randrange(0, 6), 0.5)
        j = join(g1, g2)
        assert len(j.edges) == len(g1.edges) + len(g2.edges) + g1.n * g2.n
        assert check_invariants(j)


def test_disjoint_union():
    k2 = complete_graph(2)
    g = disjoint_union([k2, k2])
    assert g.n == 4 and g.edges == ((0, 1), (2, 3))
    assert len(components(g)) == 2
    assert components(disjoint_union([cycle_graph(3), cycle_graph(3)])) == [(0, 1, 2), (3, 4, 5)]


def test_delete_vertices():
    g, mapping = delete_vertices(complete_graph(4), [0])
    assert g == complete_graph(3)
    assert mapping == {1: 0, 2: 1, 3: 2}
    star = join(complete_graph(1), empty_graph(3))
    g, _ = delete_vertices(star, [0])
    assert g == empty_graph(3)
    g, mapping = delete_vertices(star, [])
    assert g == star
    assert mapping == {v: v for v in range(4)}
    with pytest.raises(GraphError, match="^vertex 4 out of range for n=4$"):
        delete_vertices(star, [4])


def test_induced_subgraph():
    g, _ = induced_subgraph(complete_graph(4), [0, 1])
    assert g == complete_graph(2)
    g, _ = induced_subgraph(cycle_graph(5), [0, 1, 2])
    assert g.edges == ((0, 1), (1, 2))
    g, _ = induced_subgraph(cycle_graph(5), range(5))
    assert g == cycle_graph(5)


def test_components_ordering():
    assert components(complete_graph(4)) == [(0, 1, 2, 3)]
    assert components(empty_graph(3)) == [(0,), (1,), (2,)]
    g = disjoint_union([complete_graph(2), complete_graph(3)])
    assert components(g) == [(0, 1), (2, 3, 4)]


def test_odd_components_parity_properties():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(1, 10), 0.3)
        s = [v for v in range(g.n) if rng.random() < 0.3]
        h, _ = delete_vertices(g, s)
        comps = components(h)
        o = sum(len(c) % 2 for c in comps)
        assert o <= len(comps)
        if all(len(c) % 2 == 1 for c in comps):
            assert o % 2 == (g.n - len(set(s))) % 2


# ---------------------------------------------------------------------------
# text formats and Graph basics


def test_parse_and_serialize():
    assert parse_edge_list("2 1\n0 1") == complete_graph(2)
    assert parse_edge_list("3 0") == empty_graph(3)
    assert parse_edge_list("2 1\n1 0\n") == complete_graph(2)
    # other spellings of a label, and labels at or above 2m, are read too
    assert parse_edge_list("2 1\n001 -0\n") == complete_graph(2)
    assert parse_edge_list("8 2\n007 0\n6\t00\n") == Graph(8, [(0, 7), (0, 6)])
    assert parse_edge_list("100 1\n98 99\n") == Graph(100, [(98, 99)])

    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(0, 9), 0.4)
        assert parse_edge_list(serialize_edge_list(g)) == g


def _respell(text: str, rng: random.Random) -> str:
    """The same edge list with labels zero-padded, 0 written -0, endpoints
    swapped and tabs among the separators, each at random."""
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        toks = line.split()
        if rng.random() < 0.3:
            toks.reverse()
        for i, tok in enumerate(toks):
            pick = rng.random()
            if pick < 0.2:
                toks[i] = "0" * rng.randint(1, 3) + tok
            elif pick < 0.3 and tok == "0":
                toks[i] = "-0"
        out.append(rng.choice((" ", "\t", " \t ")).join(toks))
    return "\n".join(out) + "\n"


@settings(derandomize=True, database=None, deadline=None)
@given(graphs(12), st.randoms(use_true_random=False))
def test_parse_serialize_round_trip_property(g, rng):
    assert parse_edge_list(serialize_edge_list(g)) == g
    # canonical labels are looked up in bulk, other spellings read by the line scan
    assert parse_edge_list(_respell(serialize_edge_list(g), rng)) == g


def test_parse_error_kinds():
    cases = [
        ("", "empty input"),
        ("x y\n", "header must be two integers, got 'x y'"),
        ("3\n", "header must be 'n m', got '3'"),
        ("-1 0\n", "header values must be nonnegative, got '-1 0'"),
        ("3 2\n0 1", "expected 2 edge lines, found 1"),
        ("3 1\n0 1 2", "edge line must be 'u v', got '0 1 2'"),
        ("3 1\n0 x", "edge line must be two integers, got '0 x'"),
        ("2 1\n0 0", "self-loop at vertex 0"),
        ("2 1\n0 5", "edge (0,5) out of range for n=2"),
        ("3 2\n0 1\n1 0", "duplicate edge (0, 1)"),
        # the first fault is named, whatever follows it
        ("3 3\n0 1\n2 2\n1 0\n", "self-loop at vertex 2"),
        ("3 3\n0 1\n1 0\n0 x\n", "duplicate edge (0, 1)"),
        # a fault on the last line of an otherwise canonical body
        ("4 3\n0 1\n1 2\n2 2\n", "self-loop at vertex 2"),
        ("4 3\n0 1\n1 2\n2 1\n", "duplicate edge (1, 2)"),
        ("4 3\n0 1\n1 2\n2 4\n", "edge (2,4) out of range for n=4"),
        ("4 3\n0 1\n1 2\n2 3 0\n", "edge line must be 'u v', got '2 3 0'"),
        ("4 3\n0 1\n1 2\n2 y\n", "edge line must be two integers, got '2 y'"),
        # str.split() splits on U+00A0, but the format reads ASCII only
        ("2 1\n0\u00a01\n", "edge line must be two integers, got '0\\xa01'"),
    ]
    for text, message in cases:
        with pytest.raises(GraphError) as exc:
            parse_edge_list(text)
        assert (type(exc.value), str(exc.value)) == (GraphError, message), text


_FUZZ_TOKENS = ("x", "", "+1", "1_0", "\u0663", "-1", "-0", "00", "007", "1.0", "0x1")
_FUZZ_SEPARATORS = ("  ", "\t", "\u00a0", "\u2003", "\x1f")


def _fuzz_label(rng: random.Random, n: int, m: int) -> str:
    pick = rng.random()
    if pick < 0.8:
        return str(rng.randrange(max(n, 1)))
    if pick < 0.85:
        # at or above 2m, and maybe out of range
        return str(rng.randint(2 * m, 2 * m + 3))
    if pick < 0.9:
        return "0" * rng.randint(1, 2) + str(rng.randrange(max(n, 1)))
    return rng.choice(_FUZZ_TOKENS)


def _fuzz_text(rng: random.Random) -> str:
    n = rng.choice((rng.randrange(6), rng.randrange(12), 1000))
    if n >= 3 and rng.random() < 0.5:
        # a valid canonical body, so that faults land late in it
        pairs = list(itertools.combinations(range(min(n, 12)), 2))
        picked = rng.sample(pairs, rng.randrange(min(len(pairs), 8) + 1))
        rows = [[str(u), str(v)][:: rng.choice((1, -1))] for u, v in picked]
    else:
        rows = [[] for _ in range(rng.randrange(7))]
    m = len(rows)
    for i, row in enumerate(rows):
        if not row or rng.random() < 0.15:
            rows[i] = row = [_fuzz_label(rng, n, m) for _ in range(rng.choice((2, 2, 2, 2, 1, 3)))]
        if rng.random() < 0.1 and row:
            row[-1] = row[0]
    if rows and rng.random() < 0.1:
        rows.append(list(rng.choice(rows)))
    head = f"{n} {len(rows) + rng.choice((0, 0, 0, 0, 0, 0, 1, -1))}"
    seps = [rng.choice(_FUZZ_SEPARATORS) if rng.random() < 0.1 else " " for _ in rows]
    lines = [head] + [sep.join(row) for sep, row in zip(seps, rows)]
    end = rng.choice(("\n", "\n", "\r\n"))
    blank = rng.choice(("", end, end + end, end + "  " + end, end + "\u00a0" + end))
    return end.join(lines) + blank


def _parse_outcome(parse, text: str):
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g.n, g.edges, g.adj


# the faults the fuzz texts reach, each as a pattern of its message
_FUZZ_FAULTS = (
    r"header values must be nonnegative, got ",
    r"expected \d+ edge lines, found \d+$",
    r"edge line must be 'u v', got ",
    r"edge line must be two integers, got ",
    r"self-loop at vertex -?\d+$",
    r"edge \(-?\d+,-?\d+\) out of range for n=\d+$",
    r"duplicate edge \(\d+, \d+\)$",
)


def test_parse_matches_line_scan_oracle():
    rng = random.Random(17)
    reached = set()
    for _ in range(4000):
        text = _fuzz_text(rng)
        want = _parse_outcome(oracle_parse_edge_list, text)
        assert _parse_outcome(parse_edge_list, text) == want, text
        if want[0] is GraphError:
            faults = [p for p in _FUZZ_FAULTS if re.match(p, want[1])]
            assert len(faults) == 1, want[1]
            reached.add(faults[0])
        else:
            reached.add(Graph)
    # the fuzz reaches an accepted graph and each of the seven faults
    assert reached == {Graph, *_FUZZ_FAULTS}, reached


def test_parse_bulk_branch_edges(monkeypatch):
    # the bulk table holds every label below ORDER_MAX, so a label in it may
    # still be out of range, and a repeat is caught once the sort brings it
    # next to its copy, wherever the two lines stand
    top = Graph(2048, [(0, 2047)])
    forward = serialize_edge_list(matching_complement(6))
    head, *body = forward.splitlines()
    backward = "\n".join([head] + body[::-1]) + "\n"
    cases = [
        ("3 1\n0 2047\n", (GraphError, "edge (0,2047) out of range for n=3")),
        ("2048 1\n0 2047\n", (top.n, top.edges, top.adj)),
        ("3 1\n0 3\n", (GraphError, "edge (0,3) out of range for n=3")),
        ("4 3\n0 1\n2 3\n1 0\n", (GraphError, "duplicate edge (0, 1)")),
        # the same body in reversed line order gives the same graph
        (backward, _parse_outcome(parse_edge_list, forward)),
    ]
    for text, want in cases:
        assert _parse_outcome(oracle_parse_edge_list, text) == want, text
        assert _parse_outcome(parse_edge_list, text) == want, text
    # a canonical body is read in bulk in any line order, without the scan
    def scan(body, n, plain):
        raise AssertionError("a canonical body went to the line scan")

    monkeypatch.setattr(oddfactor.graphs, "_scan_edges", scan)
    assert parse_edge_list(backward) == parse_edge_list(forward)


def test_parse_reads_ascii_decimals_only():
    # int() alone reads '1_1' as 11 and the Arabic-Indic digit '\u0663' as 3
    with pytest.raises(GraphError) as exc:
        parse_edge_list("1_1 1\n1_0 \u0663\n")
    assert str(exc.value) == "header must be two integers, got '1_1 1'"
    for line in ("1_0 \u0663", "0 \u0662", "0 +2", "0 1_0"):
        with pytest.raises(GraphError) as exc:
            parse_edge_list(f"11 1\n{line}\n")
        assert str(exc.value) == f"edge line must be two integers, got {line!r}", line
    with pytest.raises(GraphError, match=r"^header must be two integers, got '\+2 1'$"):
        parse_edge_list("+2 1\n0 1\n")
    # negative numbers keep their own errors
    with pytest.raises(GraphError) as exc:
        parse_edge_list("3 1\n-1 2\n")
    assert str(exc.value) == "edge (-1,2) out of range for n=3"
    # trailing blank lines are dropped, non-ASCII whitespace among them
    assert parse_edge_list("2 1\n0 1\n\n  \n") == complete_graph(2)
    assert parse_edge_list("2 1\n0 1\n\u00a0\n") == complete_graph(2)


def test_to_dot():
    text = to_dot(complete_graph(2))
    assert text == "graph g {\n  0;\n  1;\n  0 -- 1;\n}\n"


def test_degree_sum_identity():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(0, 12), 0.5)
        assert sum(g.degrees()) == 2 * len(g.edges)
        assert check_invariants(g)


def test_graph_equality_is_label_sensitive():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 2)])
    assert a != b
    assert a == Graph(3, [(1, 0)])
    assert hash(a) == hash(Graph(3, [(0, 1)]))


def test_regular_degree():
    assert complete_graph(4).regular_degree() == 3
    assert cycle_graph(5).regular_degree() == 2
    assert Graph(3, [(0, 1)]).regular_degree() is None
