"""Dense symmetric eigensolver and adjacency matrices.

Eigenvalues come from LAPACK's symmetric solver (numpy.linalg.eigvalsh),
a direct method with no sweep count or tolerance to tune; its error on the
adjacency matrices used here sits far below the 1e-9 comparison slack used
elsewhere.
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
]


@dataclass(frozen=True)
class Spectrum:
    """All real eigenvalues in nonincreasing order."""

    values: tuple


def adjacency_matrix(g: Graph) -> np.ndarray:
    ends = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * len(g.edges)).reshape(-1, 2)
    a = np.zeros((g.n, g.n), dtype=np.float64)
    # each edge sets (u, v) and (v, u) in one store
    a[ends.ravel(), ends[:, ::-1].ravel()] = 1.0
    return a


def eigenvalues_sym(m) -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted nonincreasing."""
    a = np.asarray(m, dtype=np.float64)  # read only, so a float array is not copied
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must have order >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not (a == a.T).all():
        raise ValueError("matrix must be exactly symmetric")
    return Spectrum(values=tuple(np.linalg.eigvalsh(a)[::-1].tolist()))

