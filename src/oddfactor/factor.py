"""Exact deciders for odd [1,b]-factor existence, with certificates.

Two independent routes answer the same question:

* check_amahashi enumerates vertex subsets S and tests Amahashi's criterion
  o(G-S) <= b|S| in O(2^n) time; a failure yields a violation witness.
* find_odd_factor reduces the question to perfect matching and solves it
  exactly with Edmonds' blossom algorithm (Edmonds 1965) in O(n m^2) time.
  A perfect matching of G is an odd [1,b]-factor for every odd b, so G
  itself is matched first. For b >= 3 and a G with no perfect matching,
  the degree gadget (Tutte 1954; Cornuejols, General factors of graphs,
  1988) turns every vertex into ports and absorbers so that its perfect
  matchings are exactly the odd [1,b]-factors of G.

For odd b the two must agree on every graph (Amahashi's theorem); tests
enforce exactly that, with the earlier backtracking search over edges kept
in the tests as a third, independent decider.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, as_vertex_set, components, delete_vertices, edge_boundary

__all__ = [
    "FactorCertificate",
    "AmahashiViolation",
    "CertificateCheck",
    "check_amahashi",
    "find_odd_factor",
    "verify_certificate",
    "small_boundary_components",
    "subset_guard",
]

DEFAULT_MAX_N = 22
DEFAULT_MAX_EDGES = 64


@dataclass(frozen=True)
class FactorCertificate:
    """Edge subset of the host graph in which every vertex degree is odd and in [1, b]."""

    edges: tuple
    degrees: tuple

    def to_json_dict(self) -> dict:
        return {"kind": "factor", "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class AmahashiViolation:
    """A vertex set S with more odd components in G-S than b|S| allows."""

    s: tuple
    odd_components: tuple  # in original labels
    o: int
    bound: int

    def to_json_dict(self) -> dict:
        return {"kind": "violation", "S": list(self.s), "o": self.o, "bound": self.bound}


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _check_b(b: int) -> None:
    if b < 1 or b % 2 == 0:
        raise ValueError(f"b must be a positive odd integer, got {b}")


def _odd_components_masked(adj_masks, n: int, deleted: int) -> int:
    """Count odd components of the graph restricted to vertices outside `deleted`.

    Bitmask flood fill; avoids building Graph objects in the subset loop.
    """
    remaining = ((1 << n) - 1) & ~deleted
    odd = 0
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            reach = 0
            f = frontier
            while f:
                vbit = f & -f
                f ^= vbit
                reach |= adj_masks[vbit.bit_length() - 1]
            frontier = reach & remaining & ~comp
            comp |= frontier
        if comp.bit_count() % 2 == 1:
            odd += 1
        remaining &= ~comp
    return odd


def subset_guard(g: Graph, b: int, max_n: int = DEFAULT_MAX_N) -> None:
    """Raise ValueError unless b is a positive odd integer and g has at most
    max_n vertices: the checks check_amahashi makes before enumerating."""
    _check_b(b)
    if g.n > max_n:
        raise ValueError(f"graph order {g.n} exceeds the exhaustive-search guard {max_n}")


def check_amahashi(g: Graph, b: int, max_n: int = DEFAULT_MAX_N):
    """Test o(G-S) <= b|S| over every subset S of V(G).

    Returns None when the criterion holds (an odd [1,b]-factor exists for odd
    b), otherwise an AmahashiViolation for the smallest, lexicographically
    first violating S. Subsets are enumerated by increasing cardinality so the
    search short-circuits on the most informative witness.
    """
    subset_guard(g, b, max_n)
    n = g.n
    adj_masks = [sum(1 << w for w in ns) for ns in g.adj]
    for size in range(n + 1):
        bound = b * size
        for combo in itertools.combinations(range(n), size):
            deleted = 0
            for v in combo:
                deleted |= 1 << v
            o = _odd_components_masked(adj_masks, n, deleted)
            if o > bound:
                return _build_violation(g, combo, o, bound)
    return None


def _build_violation(g: Graph, s, o: int, bound: int) -> AmahashiViolation:
    h, mapping = delete_vertices(g, s)
    back = {new: old for old, new in mapping.items()}
    odd = tuple(
        tuple(back[v] for v in comp)
        for comp in components(h)
        if len(comp) % 2 == 1
    )
    assert len(odd) == o
    return AmahashiViolation(s=tuple(s), odd_components=odd, o=o, bound=bound)


def find_odd_factor(g: Graph, b: int, max_edges: int = DEFAULT_MAX_EDGES):
    """Exact polynomial decider for a spanning subgraph with all degrees odd and in [1, b].

    Returns a FactorCertificate or None, and None proves that no factor
    exists. A perfect matching of G is an odd [1,b]-factor for every odd b,
    so G is tried first: a greedy matching over the sorted adjacency lists,
    then one Edmonds search from each exposed vertex, stopping at the first
    that fails. For b = 1 that is the whole answer. For b >= 3 a G with no
    perfect matching goes to its degree gadget, whose perfect matchings are
    exactly the odd [1,b]-factors of G, seeded from the matching of G so
    that only the vertices of G it missed need a search. The certificate is
    a perfect matching whenever G has one. The gadget has 4m - n vertices,
    and at most n searches of O((4m)^2) each run on it, so the time is
    O(n m^2). max_edges is a size guard, not a limit of the method.
    """
    _check_b(b)
    m = len(g.edges)
    if m > max_edges:
        raise ValueError(f"edge count {m} exceeds the search guard {max_edges}")
    n = g.n
    if n == 0:
        return FactorCertificate(edges=(), degrees=())
    if n % 2 == 1 or min(g.degrees()) == 0:
        # odd vertex count cannot have all degrees odd; isolated vertices
        # cannot reach degree 1
        return None

    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for w in g.adj[v]:
                if mate[w] == -1:
                    mate[v], mate[w] = w, v
                    break
    if _complete_matching(g.adj, mate):
        picked = tuple((v, w) for v, w in enumerate(mate) if v < w)
        return FactorCertificate(edges=picked, degrees=(1,) * n)
    if b == 1:
        return None

    gadget_adj, gadget_mate = _degree_gadget(g, b, mate)
    if not _complete_matching(gadget_adj, gadget_mate):
        return None
    picked = tuple(e for i, e in enumerate(g.edges) if gadget_mate[2 * i] == 2 * i + 1)
    final = [0] * n
    for u, w in picked:
        final[u] += 1
        final[w] += 1
    return FactorCertificate(edges=picked, degrees=tuple(final))


def _degree_gadget(g: Graph, b: int, mate_g: list):
    """Adjacency lists and a starting matching of the degree gadget of g.

    Edge i = (u, w) of g gives port 2i at u and port 2i + 1 at w, joined to
    each other. A vertex of degree d, with top the largest odd number
    <= min(b, d), gets d - 1 absorbers joined to all of its ports: d - top
    singles, then (top - 1) / 2 pairs joined by an edge. A single takes one
    port and a pair takes two or none, so a perfect matching leaves 1, 3,
    ..., top ports of each vertex matched across their edges. The starting
    matching holds the port pairs of the edges in mate_g and gives every
    other port to an absorber of its vertex, which leaves one port exposed
    at each vertex that mate_g leaves exposed.
    """
    ports = [[] for _ in range(g.n)]
    mate = [-1] * (2 * len(g.edges))
    for i, (u, w) in enumerate(g.edges):
        ports[u].append(2 * i)
        ports[w].append(2 * i + 1)
        if mate_g[u] == w:
            mate[2 * i], mate[2 * i + 1] = 2 * i + 1, 2 * i
    adj = [[p ^ 1] for p in range(len(mate))]
    for own in ports:
        d = len(own)
        top = min(b, d) - 1 + min(b, d) % 2
        singles = d - top
        free = [p for p in own if mate[p] == -1]
        for k in range(d - 1):
            a = len(adj)
            adj.append(list(own))
            mate.append(-1)
            for p in own:
                adj[p].append(a)
            if k >= singles and (k - singles) % 2 == 1:
                adj[a].append(a - 1)
                adj[a - 1].append(a)
            if k < len(free):
                mate[a], mate[free[k]] = free[k], a
    return adj, mate


def _complete_matching(adj, mate: list) -> bool:
    """Augment mate in place from each exposed vertex; False at the first
    vertex no augmenting path reaches, which then no maximum matching
    covers, so the graph has no perfect matching."""
    for v in range(len(adj)):
        if mate[v] == -1 and not _augment(adj, mate, v):
            return False
    return True


def _augment(adj, mate: list, root: int) -> bool:
    """Edmonds' search from the exposed vertex root (cardinality blossom).

    Grows an alternating tree breadth first and contracts each odd cycle
    (blossom) into its base; on reaching another exposed vertex it flips
    the path into mate and returns True.
    """
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


def verify_certificate(g: Graph, b: int, cert: FactorCertificate) -> CertificateCheck:
    """Recompute everything the certificate claims; never raises."""
    degrees = [0] * g.n
    seen = set()
    for e in cert.edges:
        u, v = e
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return CertificateCheck(False, f"duplicate edge {key}")
        seen.add(key)
        if key not in g._edge_set:
            return CertificateCheck(False, f"edge {key} not in the host graph")
        degrees[u] += 1
        degrees[v] += 1
    for v, d in enumerate(degrees):
        if d < 1:
            return CertificateCheck(False, f"vertex {v} has degree {d} < 1")
        if d % 2 == 0:
            return CertificateCheck(False, f"vertex {v} has even degree {d}")
        if d > b:
            return CertificateCheck(False, f"vertex {v} has degree {d} > {b}")
    return CertificateCheck(True)


def small_boundary_components(g: Graph, s, r: int, b: int) -> list:
    """Odd components of g-s whose edge boundary toward s is below ceil(r/b).

    Mechanical filter: no regularity assumption is made about g. Components
    are reported in original labels with their boundary sizes, ordered by
    smallest vertex.
    """
    if r < 1 or b < 1:
        raise ValueError(f"r and b must be positive, got r={r}, b={b}")
    s_t = as_vertex_set(s, g.n)
    ceil_rb = (r + b - 1) // b
    h, mapping = delete_vertices(g, s_t)
    back = {new: old for old, new in mapping.items()}
    out = []
    for comp in components(h):
        if len(comp) % 2 == 0:
            continue
        lifted = tuple(back[v] for v in comp)
        boundary = edge_boundary(g, lifted, s_t)
        if boundary < ceil_rb:
            out.append((lifted, boundary))
    return out
