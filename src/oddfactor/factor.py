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
  matchings are exactly the odd [1,b]-factors of G. Each contracted
  blossom keeps the list of its members (Gabow 1976), so a contraction
  costs time proportional to the blossom, not to the order of the graph
  searched.

For odd b the two must agree on every graph (Amahashi's theorem); tests
enforce exactly that, with the earlier backtracking search over edges kept
in the tests as a third, independent decider.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from .graphs import Graph

__all__ = [
    "DEFAULT_MAX_N",
    "FactorCertificate",
    "AmahashiViolation",
    "CertificateCheck",
    "check_amahashi",
    "find_odd_factor",
    "verify_certificate",
]

DEFAULT_MAX_N = 22


class FactorCertificate(NamedTuple):
    """Edge subset of the host graph in which every vertex degree is odd and in [1, b].

    find_odd_factor leaves degrees empty; verify_certificate recounts them
    from edges.
    """

    edges: tuple
    degrees: tuple = ()


class AmahashiViolation(NamedTuple):
    """A vertex set S with more odd components in G-S than b|S| allows."""

    s: tuple
    o: int
    bound: int


class CertificateCheck(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _check_b(b: int) -> None:
    if b < 1 or b % 2 == 0:
        raise ValueError(f"b must be a positive odd integer, got {b}")


def _odd_count_masked(adj_masks, n: int, deleted: int) -> int:
    """The number of odd components of the graph restricted to vertices
    outside `deleted`.

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
        odd += comp.bit_count() % 2
        remaining &= ~comp
    return odd


def check_amahashi(g: Graph, b: int, max_n: int = DEFAULT_MAX_N):
    """Test o(G-S) <= b|S| over every subset S of V(G).

    Returns None when the criterion holds (an odd [1,b]-factor exists for odd
    b), otherwise an AmahashiViolation for the smallest, lexicographically
    first violating S. Subsets are enumerated by increasing cardinality so the
    search short-circuits on the most informative witness, and it stops below
    size n/(b+1), since no larger S can violate.
    """
    _check_b(b)
    n = g.n
    if n > max_n:
        raise ValueError(f"graph order {n} exceeds the exhaustive-search guard {max_n}")
    adj_masks = [sum(1 << w for w in ns) for ns in g.adj]
    # o(G-S) <= n - |S|, which exceeds b|S| only when |S| < n/(b+1)
    for size in range(-(-n // (b + 1))):
        bound = b * size
        for combo in itertools.combinations(range(n), size):
            deleted = 0
            for v in combo:
                deleted |= 1 << v
            o = _odd_count_masked(adj_masks, n, deleted)
            if o > bound:
                return AmahashiViolation(s=combo, o=o, bound=bound)
    return None


def find_odd_factor(g: Graph, b: int):
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
    O(n m^2).
    """
    _check_b(b)
    n = g.n
    if n % 2 == 1 or not all(g.adj):
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
        return FactorCertificate(edges=picked)
    if b == 1:
        return None

    gadget_adj, gadget_mate = _degree_gadget(g, b, mate)
    if not _complete_matching(gadget_adj, gadget_mate):
        return None
    picked = tuple(e for i, e in enumerate(g.edges) if gadget_mate[2 * i] == 2 * i + 1)
    return FactorCertificate(edges=picked)


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
    the path into mate and returns True. Each contracted base keeps the
    list of its members (Gabow 1976), so a contraction relabels only the
    vertices of the new blossom and costs time proportional to it; the
    vertices it turns outer join the queue in increasing order.
    """
    n = len(adj)
    base = list(range(n))
    members = {}  # base of a contracted blossom -> the vertices it stands for
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]
    stamp = [0] * n
    tick = 0

    def common_base(a: int, c: int) -> int:
        while True:
            a = base[a]
            stamp[a] = tick
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while stamp[base[c]] != tick:
            c = parent[mate[base[c]]]
        return base[c]

    def mark_path(v: int, top: int, child: int, marked: set) -> None:
        while base[v] != top:
            marked.add(base[v])
            marked.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:
        for u in adj[v]:
            if base[v] == base[u] or mate[v] == u:
                continue
            if u == root or (mate[u] != -1 and parent[mate[u]] != -1):
                tick += 1
                top = common_base(v, u)
                marked = set()
                mark_path(v, top, u, marked)
                mark_path(u, top, v, marked)
                block = members.setdefault(top, [top])
                fresh = []
                for old in marked:
                    group = members.pop(old, (old,))
                    for i in group:
                        base[i] = top
                        if not outer[i]:
                            outer[i] = True
                            fresh.append(i)
                    block.extend(group)
                fresh.sort()
                queue.extend(fresh)
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
    """Check that cert.edges is an odd [1,b]-factor of g; never raises.

    The edges are checked to be distinct edges of g, and the degrees they
    give are recomputed and checked against [1, b] and odd parity.
    cert.degrees is never read, so a certificate with wrong or empty
    degrees still passes when its edges form a factor.
    """
    try:
        edges = iter(cert.edges)
    except TypeError:
        return CertificateCheck(False, f"edges {cert.edges!r} is not iterable")
    degrees = [0] * g.n
    seen = set()
    for e in edges:
        try:
            u, v = map(operator.index, e)
        except (TypeError, ValueError):
            return CertificateCheck(False, f"edge {e!r} is not a pair of integers")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return CertificateCheck(False, f"duplicate edge {key}")
        seen.add(key)
        if not g.has_edge(u, v):
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
