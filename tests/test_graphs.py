import itertools
import random

import pytest
from hypothesis import given, settings

from oddfactor import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    MalformedEdgeError,
    MalformedHeaderError,
    SelfLoopError,
    VertexRangeError,
    complement,
    complete_graph,
    components,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    edge_boundary,
    empty_graph,
    induced_subgraph,
    join,
    matching_complement,
    odd_component_count,
    parse_edge_list,
    serialize_edge_list,
    standard_graph,
    to_dot,
)
from conftest import graphs, random_graph


def test_complete_graph():
    g = complete_graph(4)
    assert len(g.edges) == 6
    assert g.degrees() == (3, 3, 3, 3)
    assert g.check_invariants()


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


def test_standard_graph_dispatch_and_errors():
    assert standard_graph("complete", 3) == complete_graph(3)
    assert standard_graph("empty", 2) == empty_graph(2)
    with pytest.raises(GraphError):
        standard_graph("cycle", 2)
    with pytest.raises(GraphError):
        standard_graph("matching_complement_part", 3)
    with pytest.raises(GraphError):
        standard_graph("complete", 0)
    with pytest.raises(GraphError):
        standard_graph("petersen", 10)


def test_zero_vertex_graphs():
    assert empty_graph(0).n == 0
    assert matching_complement(0).n == 0
    assert disjoint_union([]).n == 0


def test_graph_constructor_errors():
    with pytest.raises(SelfLoopError):
        Graph(3, [(1, 1)])
    with pytest.raises(VertexRangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(VertexRangeError):
        Graph(-1)
    # set semantics: duplicates and reversed pairs collapse
    g = Graph(3, [(1, 0), (0, 1), (0, 1)])
    assert g.edges == ((0, 1),)


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
        assert j.check_invariants()


def test_disjoint_union():
    k2 = complete_graph(2)
    g = disjoint_union([k2, k2])
    assert g.n == 4 and g.edges == ((0, 1), (2, 3))
    assert len(components(g)) == 2
    assert odd_component_count(disjoint_union([cycle_graph(3), cycle_graph(3)])) == 2


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
    with pytest.raises(VertexRangeError):
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


def test_odd_component_count_examples():
    star = join(complete_graph(1), empty_graph(3))
    g, _ = delete_vertices(star, [0])
    assert odd_component_count(g) == 3
    assert odd_component_count(complete_graph(4)) == 0
    assert odd_component_count(disjoint_union([cycle_graph(3), complete_graph(2)])) == 1


def test_edge_boundary():
    assert edge_boundary(complete_graph(4), [0], [1, 2, 3]) == 3
    two_k2 = disjoint_union([complete_graph(2)] * 2)
    assert edge_boundary(two_k2, [0, 1], [2, 3]) == 0
    assert edge_boundary(cycle_graph(4), [0, 1], [2, 3]) == 2
    with pytest.raises(GraphError):
        edge_boundary(complete_graph(4), [0, 1], [1, 2])


def test_odd_components_parity_properties():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(1, 10), 0.3)
        s = [v for v in range(g.n) if rng.random() < 0.3]
        h, _ = delete_vertices(g, s)
        comps = components(h)
        o = odd_component_count(h)
        assert o <= len(comps)
        if all(len(c) % 2 == 1 for c in comps):
            assert o % 2 == (g.n - len(set(s))) % 2


def test_parse_and_serialize():
    assert parse_edge_list("2 1\n0 1") == complete_graph(2)
    assert parse_edge_list("3 0") == empty_graph(3)
    assert parse_edge_list("2 1\n1 0\n") == complete_graph(2)

    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(0, 9), 0.4)
        assert parse_edge_list(serialize_edge_list(g)) == g


@settings(derandomize=True, database=None, deadline=None)
@given(graphs(12))
def test_parse_serialize_round_trip_property(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_parse_error_kinds():
    with pytest.raises(MalformedHeaderError):
        parse_edge_list("")
    with pytest.raises(MalformedHeaderError):
        parse_edge_list("x y\n")
    with pytest.raises(MalformedHeaderError):
        parse_edge_list("3\n")
    with pytest.raises(MalformedEdgeError):
        parse_edge_list("3 2\n0 1")
    with pytest.raises(MalformedEdgeError):
        parse_edge_list("3 1\n0 1 2")
    with pytest.raises(SelfLoopError):
        parse_edge_list("2 1\n0 0")
    with pytest.raises(VertexRangeError):
        parse_edge_list("2 1\n0 5")
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("3 2\n0 1\n1 0")


def test_to_dot():
    text = to_dot(complete_graph(2))
    assert text == "graph g {\n  0;\n  1;\n  0 -- 1;\n}\n"


def test_degree_sum_identity():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(0, 12), 0.5)
        assert sum(g.degrees()) == 2 * len(g.edges)
        assert g.check_invariants()


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
