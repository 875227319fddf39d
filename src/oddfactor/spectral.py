"""Dense symmetric eigensolver and adjacency matrices.

Eigenvalues come from LAPACK's symmetric solver (numpy.linalg.eigvalsh),
a direct method with no sweep count or tolerance to tune; its error on the
adjacency matrices used here sits far below the 1e-9 comparison slack used
elsewhere. eigenvalues_sym solves one matrix; spectra solves a list of
graphs with one stacked call per vertex count, which spares numpy's
per-call overhead on many small graphs and gives each graph the same
values, bit for bit, as eigenvalues_sym of its adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graphs import Graph

__all__ = [
    "Spectrum",
    "adjacency_matrix",
    "eigenvalues_sym",
    "spectra",
]


@dataclass(frozen=True)
class Spectrum:
    """All real eigenvalues in nonincreasing order."""

    values: tuple


def _stack(graphs: list, n: int) -> np.ndarray:
    """Adjacency matrices of graphs on n vertices each, as one (k, n, n) stack."""
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
        np.intp,
        2 * sum(len(g.edges) for g in graphs),
    ).reshape(-1, 2)
    layer = np.repeat(np.arange(len(graphs)), [2 * len(g.edges) for g in graphs])
    a = np.zeros((len(graphs), n, n), dtype=np.float64)
    # each edge sets (u, v) and (v, u) of its graph's layer in one store
    a[layer, ends.ravel(), ends[:, ::-1].ravel()] = 1.0
    return a


def _eigvalsh(a: np.ndarray, ndim: int) -> np.ndarray:
    """Eigenvalues of the symmetric matrices on the last two axes of an
    ndim-dimensional float64 array, nonincreasing along the last axis."""
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] < 1:
        raise ValueError("matrix must have order >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not (a == a.swapaxes(-1, -2)).all():
        raise ValueError("matrix must be exactly symmetric")
    return np.linalg.eigvalsh(a)[..., ::-1]


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _stack([g], g.n)[0]


def eigenvalues_sym(m) -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted nonincreasing."""
    a = np.asarray(m, dtype=np.float64)  # read only, so a float array is not copied
    return Spectrum(values=tuple(_eigvalsh(a, 2).tolist()))


def spectra(graphs) -> list:
    """The Spectrum of each graph's adjacency matrix, in the order given.

    Graphs of one vertex count are stacked and solved in one call, so a
    graph's values do not depend on the other graphs in the list.
    """
    graphs = list(graphs)
    by_order: dict = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    out = [None] * len(graphs)
    for n, idx in by_order.items():
        values = _eigvalsh(_stack([graphs[i] for i in idx], n), 3).tolist()
        for i, vals in zip(idx, values):
            out[i] = Spectrum(values=tuple(vals))
    return out
