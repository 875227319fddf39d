"""Shared test helpers: reference graphs and independent brute-force oracles."""

import itertools
import random

from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from oddfactor import FactorCertificate, Graph
from oddfactor.factor import DEFAULT_MAX_EDGES


def pytest_configure(config):
    # hypothesis caches the constants it reads from local modules in its home
    # directory, ./.hypothesis unless set; keep them with pytest's own cache
    # (absent under -p no:cacheprovider)
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def graphs(max_n: int):
    """Hypothesis strategy: a graph on at most max_n vertices, one boolean per vertex pair."""

    def on(n: int):
        pairs = list(itertools.combinations(range(n), 2))
        picks = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        return picks.map(lambda keep: Graph(n, [e for e, k in zip(pairs, keep) if k]))

    return st.integers(min_value=0, max_value=max_n).flatmap(on)


def petersen_graph() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set, disjointness adjacency."""
    verts = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(verts)}
    edges = [
        (idx[p], idx[q])
        for p, q in itertools.combinations(verts, 2)
        if not (set(p) & set(q))
    ]
    return Graph(10, edges)


def cubic_no_matching_16() -> Graph:
    """Smallest-style 3-regular graph without a perfect matching.

    A central vertex feeds three 5-vertex gadgets (a missing-edge K4 plus a
    degree-2 attachment vertex); deleting the center leaves three odd
    components.
    """
    edges = []
    for i in range(3):
        base = 1 + 5 * i
        s, a, b, d, e = base, base + 1, base + 2, base + 3, base + 4
        edges += [(a, d), (a, e), (b, d), (b, e), (d, e), (s, a), (s, b), (0, s)]
    return Graph(16, edges)


def quartic_no_matching_22() -> Graph:
    """4-regular, connected, no perfect matching: two hubs and four gadgets
    (K5 minus an edge), each gadget sending one edge to each hub. Deleting
    both hubs leaves four odd components."""
    edges = []
    for i in range(4):
        base = 2 + 5 * i
        block = [base, base + 1, base + 2, base + 3, base + 4]
        for x in range(5):
            for y in range(x + 1, 5):
                if (x, y) != (0, 1):
                    edges.append((block[x], block[y]))
        edges += [(0, block[0]), (1, block[1])]
    return Graph(22, edges)


def brute_force_has_odd_factor(g: Graph, b: int) -> bool:
    """Independent oracle: try every edge subset. Only viable for small m."""
    m = len(g.edges)
    assert m <= 16, "brute force oracle limited to 16 edges"
    if g.n == 0:
        return True
    for mask in range(1 << m):
        degs = [0] * g.n
        for i in range(m):
            if mask >> i & 1:
                u, v = g.edges[i]
                degs[u] += 1
                degs[v] += 1
        if all(d % 2 == 1 and 1 <= d <= b for d in degs):
            return True
    return False


def barrier_cubic(k: int) -> Graph:
    """Connected cubic graph of order 3k + 1 (odd k >= 7) with no perfect matching.

    A hub is joined by a bridge to each of three gadgets of k vertices: the
    prism C_m x K2 (k = 2m + 1) with the rung a0-b0 replaced by an
    attachment vertex joined to a0, b0 and the hub. Deleting the hub leaves
    three odd components.
    """
    assert k % 2 == 1 and k >= 7
    m = (k - 1) // 2
    edges = []
    for j in range(3):
        w = 1 + j * k
        a = [w + 1 + i for i in range(m)]
        c = [w + 1 + m + i for i in range(m)]
        edges += [(0, w), (w, a[0]), (w, c[0])]
        for i in range(m):
            edges += [(a[i], a[(i + 1) % m]), (c[i], c[(i + 1) % m])]
            if i > 0:
                edges.append((a[i], c[i]))
    return Graph(3 * k + 1, edges)


def dfs_odd_factor(g: Graph, b: int, max_edges: int = DEFAULT_MAX_EDGES):
    """Reference decider: exact backtracking search over the edges.

    Returns a FactorCertificate or None; exponential on graphs without a
    factor. Edges are decided depth-first, grouped by vertex in
    nonincreasing-degree order. A branch dies as soon as either endpoint can
    no longer reach an odd degree in [1, b] with its remaining undecided
    edges.
    """
    if b < 1 or b % 2 == 0:
        raise ValueError(f"b must be a positive odd integer, got {b}")
    m = len(g.edges)
    if m > max_edges:
        raise ValueError(f"edge count {m} exceeds the search guard {max_edges}")
    n = g.n
    if n == 0:
        return FactorCertificate(edges=(), degrees=())
    degs = g.degrees()
    if n % 2 == 1 or min(degs) == 0:
        # odd vertex count cannot have all degrees odd; isolated vertices
        # cannot reach degree 1
        return None

    order = sorted(range(n), key=lambda v: (-degs[v], v))
    pos = [0] * n
    for rank, v in enumerate(order):
        pos[v] = rank
    listed = set()
    edge_seq = []
    for v in order:
        for w in sorted(g.adj[v], key=lambda u: pos[u]):
            e = (v, w) if v < w else (w, v)
            if e not in listed:
                listed.add(e)
                edge_seq.append(e)

    chosen = [0] * n
    undecided = list(degs)
    take = [False] * m

    def feasible(v: int) -> bool:
        c = chosen[v]
        if c > b:
            return False
        lo = c if c > 1 else 1
        hi = c + undecided[v]
        if hi > b:
            hi = b
        if lo > hi:
            return False
        return lo % 2 == 1 or lo + 1 <= hi

    def dfs(i: int) -> bool:
        if i == m:
            return True
        u, w = edge_seq[i]
        undecided[u] -= 1
        undecided[w] -= 1
        chosen[u] += 1
        chosen[w] += 1
        take[i] = True
        if feasible(u) and feasible(w) and dfs(i + 1):
            return True
        chosen[u] -= 1
        chosen[w] -= 1
        take[i] = False
        if feasible(u) and feasible(w) and dfs(i + 1):
            return True
        undecided[u] += 1
        undecided[w] += 1
        return False

    if not dfs(0):
        return None
    picked = tuple(sorted(e for i, e in enumerate(edge_seq) if take[i]))
    final = [0] * n
    for u, w in picked:
        final[u] += 1
        final[w] += 1
    return FactorCertificate(edges=picked, degrees=tuple(final))
