"""Immutable simple undirected graphs on vertices 0..n-1.

Everything downstream (spectra, thresholds, factor search) consumes this
representation, the one layout of every graph: a sorted tuple of (u, v)
edges with u < v, and one sorted adjacency tuple per vertex, built from it,
which also answers edge queries. The builders here and the edge-list parser
each return a new value; nothing mutates a graph after __init__. Graph
algebra such as complements, joins and vertex deletion lives in the tests,
where it serves as an oracle. Every input fault raises GraphError, a
ValueError whose message names the fault.
"""

from __future__ import annotations

import operator
from itertools import combinations, islice
from typing import Iterable

__all__ = [
    "ORDER_MAX",
    "Graph",
    "GraphError",
    "complete_graph",
    "complete_minus",
    "cycle_graph",
    "empty_graph",
    "matching_complement",
    "is_connected",
    "parse_edge_list",
    "serialize_edge_list",
    "to_dot",
]


class GraphError(ValueError):
    """Every graph construction and parsing fault; the message names it."""


# the largest order a header or CLI argument may name. Extremal components have
# r + 1 or r + 2 vertices and no test, CI or benchmark order exceeds 2000, while
# K_2048 already costs about 1.5 s and 400 MB; library calls take any order
ORDER_MAX = 2048


def _check_order(n: int) -> int:
    if n > ORDER_MAX:
        raise GraphError(f"order {n} exceeds the cap ORDER_MAX = {ORDER_MAX}")
    return n


def _edge(u: int, v: int, n: int) -> tuple:
    """(min, max) of the edge uv; raises on a loop or an end outside 0..n-1."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    if not (0 <= u < n) or not (0 <= v < n):
        raise GraphError(f"edge ({u},{v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with set-semantics edges.

    Vertices are 0..n-1. Edges are stored as a sorted tuple of (u, v) pairs
    with u < v; equality and hashing are label-sensitive (no isomorphism).
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable = ()):
        try:
            n = operator.index(n)
        except TypeError:
            raise GraphError(f"vertex count must be an integer, got {n!r}") from None
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for e in edges:
            try:
                u, v = map(operator.index, e)
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not a pair of integers") from None
            canon.add(_edge(u, v, n))
        self._fill(n, sorted(canon))

    @classmethod
    def _canonical(cls, n: int, edges) -> "Graph":
        """Unchecked constructor for the library's own builders: edges must
        already be sorted, unique and have u < v < n."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, edges) -> None:
        self.n = n
        self.edges = tuple(edges)
        # sorted edges with u < v reach each list in ascending order already
        lists = [[] for _ in range(n)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        self.adj = tuple(map(tuple, lists))

    def degrees(self) -> tuple:
        return tuple(len(ns) for ns in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        # the guard keeps a negative u from indexing adj from the end; adj[u]
        # never holds u itself or a vertex outside 0..n-1
        return 0 <= u < self.n and v in self.adj[u]

    def regular_degree(self):
        """Common degree if the graph is regular, else None (n=0 gives 0)."""
        if self.n == 0:
            return 0
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


# ---------------------------------------------------------------------------
# constructions


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise GraphError(f"complete graph needs k >= 1, got {k}")
    return Graph._canonical(k, combinations(range(k), 2))


def cycle_graph(k: int) -> Graph:
    # k < 3 would be a multigraph or a loop, both outside simple graphs
    if k < 3:
        raise GraphError(f"cycle needs k >= 3, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def empty_graph(k: int) -> Graph:
    if k < 0:
        raise GraphError(f"empty graph needs k >= 0, got {k}")
    return Graph(k)


def matching_complement(k: int) -> Graph:
    """Complement of a perfect matching on k vertices (k even): K_k minus the matching."""
    if k < 0 or k % 2 != 0:
        raise GraphError(f"matching complement needs even k >= 0, got {k}")
    return complete_minus(k, {(i, i + 1) for i in range(0, k, 2)})


def complete_minus(k: int, missing) -> Graph:
    """K_k without the pairs (u, v), u < v, in the set `missing`."""
    if k < 0:
        raise GraphError(f"complete graph minus edges needs k >= 0, got {k}")
    # combinations yields the pairs sorted, with u < v
    return Graph._canonical(k, [e for e in combinations(range(k), 2) if e not in missing])


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one component (the graph on no vertices has none)."""
    if g.n == 0:
        return False
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    adj = g.adj
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


# ---------------------------------------------------------------------------
# text formats


# str(v) -> v for every vertex of the largest order _check_order allows; the
# bulk branch of parse_edge_list looks each label up here
_LABEL = {str(v): v for v in range(ORDER_MAX)}


def _plain(text: str) -> bool:
    # int() also reads '_', '+' and non-ASCII digits, which the format does not allow
    return text.isascii() and "_" not in text and "+" not in text


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header plus m lines of "u v", each number an ASCII
    decimal with an optional leading '-'. Rejects loops and duplicates."""
    # one look at the whole text spares a look at each line
    plain = _plain(text)
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise GraphError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"header must be 'n m', got {lines[0]!r}")
    try:
        if not (plain or _plain(lines[0])):
            raise ValueError
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphError(f"header values must be nonnegative, got {lines[0]!r}")
    _check_order(n)
    body = lines[1:]
    if len(body) != m:
        raise GraphError(f"expected {m} edge lines, found {len(body)}")
    # labels spelled as str(v) are looked up in bulk; any other spelling and
    # every fault go to the line scan, which names the first fault. Only plain
    # text qualifies: str.split() also splits on U+00A0, which the scan rejects
    if plain:
        try:
            # a dropped loop leaves fewer than m keys
            keys = [
                (u, v) if u < v else (v, u)
                for a, b in map(str.split, body)
                if (u := _LABEL[a]) != (v := _LABEL[b])
            ]
        except (KeyError, ValueError):
            pass
        else:
            # linear on sorted text, and it brings a repeat next to its copy;
            # the table also holds the labels at or above n
            keys.sort()
            if (
                len(keys) == m
                and all(map(operator.lt, keys, islice(keys, 1, None)))
                and max(map(operator.itemgetter(1), keys), default=-1) < n
            ):
                return Graph._canonical(n, keys)
    return _scan_edges(body, n, plain)


def _scan_edges(body: list, n: int, plain: bool) -> Graph:
    """Read the edge lines one at a time and raise on the first fault."""
    seen = set()
    edges = []
    for line in body:
        toks = line.split()
        if len(toks) != 2:
            raise GraphError(f"edge line must be 'u v', got {line!r}")
        try:
            if not (plain or _plain(line)):
                raise ValueError
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphError(f"edge line must be two integers, got {line!r}") from None
        key = _edge(u, v, n)
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph._canonical(n, sorted(edges))


def serialize_edge_list(g: Graph) -> str:
    out = [f"{g.n} {len(g.edges)}"]
    out += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(out) + "\n"


def to_dot(g: Graph) -> str:
    lines = ["graph g {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
