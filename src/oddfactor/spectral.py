"""Adjacency spectra from a dense symmetric eigensolver.

Eigenvalues come from LAPACK's symmetric solver, called through numpy, a
direct method with no sweep count or tolerance to tune; its error on the
adjacency matrices used here sits far below the 1e-9 comparison slack used
elsewhere. spectra solves a list of graphs with one stacked call per vertex
count, which spares numpy's per-call overhead on many small graphs; a graph
on its own is the list of one.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["spectra"]


def _stack(graphs: list, n: int) -> np.ndarray:
    """Adjacency matrices of graphs on n vertices each, as one (k, n, n) stack."""
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
        np.intp,
        2 * sum(len(g.edges) for g in graphs),
    ).reshape(-1, 2)
    layer = np.repeat(np.arange(len(graphs)), [2 * len(g.edges) for g in graphs])
    a = np.zeros((len(graphs), n, n), dtype=np.float64)
    # each edge sets (u, v) and (v, u) of its graph's layer in one store, so every
    # layer is a square, finite, exactly symmetric 0/1 matrix that needs no check
    a[layer, ends.ravel(), ends[:, ::-1].ravel()] = 1.0
    return a


def spectra(graphs) -> list:
    """Each graph's adjacency eigenvalues as a nonincreasing tuple of floats,
    in the order given.

    Graphs of one vertex count are stacked and solved in one call, so a
    graph's values do not depend on the other graphs in the list.
    """
    graphs = list(graphs)
    by_order: dict = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    if 0 in by_order:
        # numpy gives a (k, 0, 0) stack an empty spectrum instead of failing
        raise ValueError("matrix must have order >= 1")
    out = [None] * len(graphs)
    for n, idx in by_order.items():
        stack = _stack([graphs[i] for i in idx], n)
        for i, vals in zip(idx, np.linalg.eigvalsh(stack)[..., ::-1].tolist()):
            out[i] = tuple(vals)
    return out
