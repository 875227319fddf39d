"""Shared test helpers: reference graphs and independent brute-force oracles."""

import itertools
import math
import random
from collections import deque
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from oddfactor import verify
from oddfactor.factor import FactorCertificate
from oddfactor.graphs import (
    Graph,
    GraphError,
    complete_minus,
)
from oddfactor.thresholds import SWEEP_CSV_HEADER, extremal_missing, threshold_params

# edge-count guard of dfs_odd_factor, whose search is exponential in the edges
DFS_MAX_EDGES = 64


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


# ---------------------------------------------------------------------------
# graph algebra, kept here as oracles for the library's direct constructions


def check_invariants(g: Graph) -> bool:
    """Revalidate a Graph's internal consistency."""
    for u, v in g.edges:
        assert 0 <= u < v < g.n
    edge_set = set(g.edges)
    assert len(edge_set) == len(g.edges)
    for v, ns in enumerate(g.adj):
        assert list(ns) == sorted(set(ns))
        for w in ns:
            assert w != v
            assert (min(v, w), max(v, w)) in edge_set
    assert sum(g.degrees()) == 2 * len(g.edges)
    return True


def oracle_adj(n: int, edges) -> tuple:
    """Sorted neighbour tuple of each of the n vertices, read off the edge list
    one vertex at a time: the reference for Graph.adj."""
    return tuple(
        tuple(sorted({w for e in edges if v in e for w in e if w != v})) for v in range(n)
    )


def oracle_matrix(g: Graph):
    """Adjacency matrix of g filled entry by entry from its edge list: the
    reference for spectral._stack."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def oracle_spectrum(g: Graph) -> tuple:
    """Eigenvalues of oracle_matrix(g), nonincreasing: a reference that does
    not come from the library, and that spectral.spectra equals bit for bit."""
    return tuple(np.linalg.eigvalsh(oracle_matrix(g))[::-1].tolist())


def complement(g: Graph) -> Graph:
    return Graph(g.n, [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)])


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; g2's vertices are shifted by g1.n."""
    off = g1.n
    edges = list(g1.edges)
    edges += [(u + off, v + off) for u, v in g2.edges]
    edges += [(u, v + off) for u in range(g1.n) for v in range(g2.n)]
    return Graph(g1.n + g2.n, edges)


def disjoint_union(parts) -> Graph:
    edges = []
    off = 0
    for part in parts:
        edges += [(u + off, v + off) for u, v in part.edges]
        off += part.n
    return Graph(off, edges)


def _vertex_set(vertices, n: int) -> tuple:
    vs = tuple(sorted(set(vertices)))
    for v in vs:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for n={n}")
    return vs


def induced_subgraph(g: Graph, s):
    """Induced subgraph on S, relabelled contiguously. Returns (graph, mapping)
    where mapping sends the kept old labels to the new ones."""
    mapping = {old: new for new, old in enumerate(_vertex_set(s, g.n))}
    edges = [(mapping[u], mapping[v]) for u, v in g.edges if u in mapping and v in mapping]
    return Graph(len(mapping), edges), mapping


def delete_vertices(g: Graph, s):
    """G - S, relabelled contiguously. Returns (graph, mapping) as induced_subgraph."""
    drop = set(_vertex_set(s, g.n))
    return induced_subgraph(g, [v for v in range(g.n) if v not in drop])


def components(g: Graph) -> list:
    """Connected components as sorted vertex tuples, ordered by smallest vertex."""
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return out


# ---------------------------------------------------------------------------
# edge-list text


def _oracle_plain(text: str) -> bool:
    # int() also reads '_', '+' and non-ASCII digits, which the format does not allow
    return text.isascii() and "_" not in text and "+" not in text


def oracle_parse_edge_list(text: str) -> Graph:
    """The line-at-a-time edge-list parser, kept as it stood before the library
    looked canonical labels up in bulk: the same accepted texts, graphs and
    GraphError messages are expected of oddfactor.graphs.parse_edge_list.

    Parse the "n m" header plus m lines of "u v", each number an ASCII
    decimal with an optional leading '-'. Rejects loops and duplicates."""
    # one look at the whole text spares a look at each line
    plain = _oracle_plain(text)
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise GraphError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"header must be 'n m', got {lines[0]!r}")
    try:
        if not (plain or _oracle_plain(lines[0])):
            raise ValueError
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphError(f"header values must be nonnegative, got {lines[0]!r}")
    body = lines[1:]
    if len(body) != m:
        raise GraphError(f"expected {m} edge lines, found {len(body)}")
    seen = set()
    edges = []
    for line in body:
        toks = line.split()
        if len(toks) != 2:
            raise GraphError(f"edge line must be 'u v', got {line!r}")
        try:
            if not (plain or _oracle_plain(line)):
                raise ValueError
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphError(f"edge line must be two integers, got {line!r}") from None
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph._canonical(n, sorted(edges))


# ---------------------------------------------------------------------------
# vertex partitions and quotients


def extremal_partition(p) -> tuple:
    """The paper's blocks of the extremal graph, in join order: for r even a
    clique on r+1-eta vertices joined to a matching complement on eta, for
    r odd a cycle complement on eta joined to a matching complement on
    r+2-eta. With eta = 0 the second block would be empty, so the single
    full block is returned."""
    r, eta = p.r, p.eta
    if r % 2 == 0:
        if eta == 0:
            return (tuple(range(r + 1)),)
        split = r + 1 - eta
        return (tuple(range(split)), tuple(range(split, r + 1)))
    assert eta >= 3, f"no extremal construction for odd r={r} with eta={eta} < 3"
    return (tuple(range(eta)), tuple(range(eta, r + 2)))


def block_quotient(g: Graph, blocks) -> tuple:
    """(equitable, q) for a partition of V(g) into blocks: q[i][j] is the
    mean number of neighbours in block j over the vertices of block i, and
    the partition is equitable when every vertex of block i has the same
    number of neighbours in each block."""
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    assert sorted(block_of) == list(range(g.n)) and len(block_of) == sum(map(len, blocks))
    counts = [[0] * len(blocks) for _ in range(g.n)]
    for u, v in g.edges:
        counts[u][block_of[v]] += 1
        counts[v][block_of[u]] += 1
    equitable = all(counts[v] == counts[block[0]] for block in blocks for v in block)
    q = [
        [sum(counts[v][j] for v in block) / len(block) for j in range(len(blocks))]
        for block in blocks
    ]
    return equitable, q


def quotient_roots(q) -> tuple:
    """Eigenvalues of a 1x1 or 2x2 matrix, largest first, the latter by the
    closed-form quadratic; a negative discriminant raises ValueError."""
    if len(q) == 1:
        return (float(q[0][0]),)
    (a, b), (c, d) = q
    root = math.sqrt((a - d) ** 2 + 4 * b * c)
    return ((a + d + root) / 2, (a + d - root) / 2)


def oracle_equitable(order: int, missing) -> bool:
    """Whether the degree classes of K_order minus `missing` are equitable,
    vertex by vertex: each vertex misses as many pairs inside its class as
    the class's smallest vertex. The reference for the flag of
    thresholds._missing_quotient."""
    lost = [0] * order
    for u, v in missing:
        lost[u] += 1
        lost[v] += 1
    inner = [0] * order
    for u, v in missing:
        if lost[u] == lost[v]:
            inner[u] += 1
            inner[v] += 1
    first = {k: lost.index(k) for k in dict.fromkeys(lost)}
    return all(inner[v] == inner[first[k]] for v, k in enumerate(lost))


def sharp_graph(r: int, b: int) -> tuple:
    """(G, S) for the sharpness of the whole theorem at (r, b): S is the eta
    hub vertices 0..eta-1, and G is S plus r copies of the extremal component
    H, where hub i joins the i-th vertex of degree r - 1 in every copy. G is
    r-regular of even order, and G - S is the r copies, each of odd order, so
    o(G - S) = r > b * eta and G has no odd [1,b]-factor. With eta = 0, H is
    K_{r+1} and G is r disjoint copies of it."""
    p = threshold_params(r, b)
    h = complete_minus(*extremal_missing(p)[:2])
    short = [v for v in range(h.n) if len(h.adj[v]) == r - 1]
    assert len(short) == p.eta
    edges = []
    for copy in range(r):
        off = p.eta + copy * h.n
        edges += [(u + off, v + off) for u, v in h.edges]
        edges += [(i, v + off) for i, v in enumerate(short)]
    return Graph(p.eta + r * h.n, edges), tuple(range(p.eta))


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


def dfs_odd_factor(g: Graph, b: int, max_edges: int = DFS_MAX_EDGES):
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


def scan_augment(adj, mate: list, root: int) -> bool:
    """Reference for factor._augment: the same Edmonds search, relabelling
    each contracted blossom by a scan over all n vertices, which queues the
    vertices that turn outer in increasing order. Patched into factor, it
    pins the certificates find_odd_factor returns."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def common_base(a: int, c: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while not seen[base[c]]:
            c = parent[mate[base[c]]]
        return base[c]

    def mark_path(v: int, top: int, child: int, blossom: list) -> None:
        while base[v] != top:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:
        for u in adj[v]:
            if base[v] == base[u] or mate[v] == u:
                continue
            if u == root or (mate[u] != -1 and parent[mate[u]] != -1):
                top = common_base(v, u)
                blossom = [False] * n
                mark_path(v, top, u, blossom)
                mark_path(u, top, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = top
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[u] == -1:
                parent[u] = v
                if mate[u] == -1:
                    while u != -1:
                        v = parent[u]
                        w = mate[v]
                        mate[u], mate[v] = v, u
                        u = w
                    return True
                outer[mate[u]] = True
                queue.append(mate[u])
    return False


# ---------------------------------------------------------------------------
# integer polynomials, for identities that hold for every r


POLY_VARS = ("r", "eta", "t", "rho")


class Poly:
    """An integer polynomial in POLY_VARS, kept as a dict from exponent
    tuples to nonzero coefficients. Enough exact arithmetic to clear
    denominators, differentiate, substitute and read coefficients off, so
    that a test can prove a closed-form inequality for every r."""

    def __init__(self, terms=()):
        self.terms = {k: c for k, c in dict(terms).items() if c}

    @staticmethod
    def var(name: str) -> "Poly":
        i = POLY_VARS.index(name)
        return Poly({tuple(int(j == i) for j in range(len(POLY_VARS))): 1})

    @staticmethod
    def lift(x) -> "Poly":
        return x if isinstance(x, Poly) else Poly({(0,) * len(POLY_VARS): x})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in Poly.lift(other).terms.items():
            out[k] = out.get(k, 0) + c
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in Poly.lift(other).terms.items():
                k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return Poly(out)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -Poly.lift(other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly.lift(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms

    def __repr__(self):
        return f"Poly({self.terms})"

    def diff(self, name: str) -> "Poly":
        """The partial derivative in the variable `name`."""
        i = POLY_VARS.index(name)
        return Poly(
            {k[:i] + (k[i] - 1,) + k[i + 1 :]: c * k[i] for k, c in self.terms.items() if k[i]}
        )

    def subs(self, **values) -> "Poly":
        """Each named variable replaced by the polynomial or integer given."""
        out = Poly()
        for k, c in self.terms.items():
            term = Poly({tuple(0 if v in values else e for v, e in zip(POLY_VARS, k)): c})
            for v, e in zip(POLY_VARS, k):
                if v in values:
                    term = term * Poly.lift(values[v]) ** e
            out = out + term
        return out

    def value(self, **point):
        """The polynomial at a point that names every variable it uses."""
        return sum(
            c * math.prod(point[v] ** e for v, e in zip(POLY_VARS, k) if e)
            for k, c in self.terms.items()
        )

    def coeffs(self, name: str) -> list:
        """Coefficients of a polynomial in `name` alone, highest power first."""
        i = POLY_VARS.index(name)
        assert all(e == 0 for k in self.terms for j, e in enumerate(k) if j != i), self
        by_power = {k[i]: c for k, c in self.terms.items()}
        return [by_power.get(d, 0) for d in range(max(by_power, default=0), -1, -1)]

    def reduce(self, name: str, square: "Poly") -> "Poly":
        """The remainder modulo name**2 - square: every name**2 is replaced by
        square until no power of name above the first is left."""
        i = POLY_VARS.index(name)
        out = self
        while any(k[i] >= 2 for k in out.terms):
            nxt = Poly()
            for k, c in out.terms.items():
                if k[i] >= 2:
                    nxt = nxt + Poly({k[:i] + (k[i] - 2,) + k[i + 1 :]: c}) * square
                else:
                    nxt = nxt + Poly({k: c})
            out = nxt
        return out


R, ETA, T, RHO = map(Poly.var, POLY_VARS)


# ---------------------------------------------------------------------------
# the campaign's trials


def campaign_reports(
    trials: int, n_range=(8, 20), r_range=(3, 7), b_policy="random", master_seed=0
) -> list:
    """The TrialReport of every trial of randomized_theorem_campaign with these
    arguments, in trial order: each of the campaign's blocks drawn with
    verify._campaign_graph and checked with verify._check_block, whose
    reports the campaign itself only counts."""
    step = verify._CAMPAIGN_BLOCK
    ranges = (*n_range, *r_range, b_policy)
    return [
        rep
        for start in range(0, trials, step)
        for rep in verify._check_block(
            [
                verify._campaign_graph((master_seed, i, *ranges))
                for i in range(start, min(start + step, trials))
            ]
        )
    ]


# ---------------------------------------------------------------------------
# the sweep table


def _fmt(x: float, digits: int = 9) -> str:
    return f"{x:.{digits}f}"


class SweepRow(NamedTuple):
    """One (r, b) row of the sweep table, with every bound of its class."""

    r: int
    b: int
    ceil_rb: int
    epsilon: int
    eta: int
    rho: float
    lwy: float
    cgh: float
    bh: float
    lambda1_H: float | None


def sweep_rows(classes) -> list:
    """The SweepClass records of thresholds.bound_sweep expanded into one
    SweepRow per (r, b), in their order, each a copy of its class's bounds."""
    return [
        SweepRow(c.r, b, ceil_rb, epsilon, c.eta, c.rho, c.lwy, c.cgh, c.bh, c.lambda1_H)
        for c in classes
        for b, ceil_rb, epsilon in c.rows
    ]


def oracle_sweep_csv(rows) -> str:
    """The sweep's CSV, cell by cell, from one record per (r, b) row, as the
    table was written before thresholds.sweep_to_csv formatted each (r, eta)
    class's bounds once: the reference for its bytes. Give it
    sweep_rows(classes)."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.r),
                    str(row.b),
                    str(row.ceil_rb),
                    str(row.epsilon),
                    str(row.eta),
                    _fmt(row.rho),
                    _fmt(row.lwy),
                    _fmt(row.cgh),
                    _fmt(row.bh),
                    "" if row.lambda1_H is None else _fmt(row.lambda1_H),
                ]
            )
        )
    return "\n".join(lines) + "\n"
