"""Dense symmetric eigensolver and quotient-matrix machinery.

Eigenvalues come from LAPACK's symmetric solver (numpy.linalg.eigvalsh),
a direct method with no sweep count or tolerance to tune; its error on the
adjacency matrices used here sits far below the 1e-9 comparison slack used
elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph, as_vertex_set

__all__ = [
    "Spectrum",
    "sym_matrix",
    "adjacency_matrix",
    "eigenvalues_sym",
    "lambda_k",
    "validate_partition",
    "quotient_matrix",
    "is_equitable",
    "quotient_eigs_2x2",
]


@dataclass(frozen=True)
class Spectrum:
    """All real eigenvalues in nonincreasing order."""

    values: tuple

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def sym_matrix(entries) -> np.ndarray:
    """Build a float matrix that is symmetric to exact representational equality.

    The upper triangle (including the diagonal) is mirrored onto the lower.
    """
    a = np.array(entries, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return np.triu(a) + np.triu(a, 1).T


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def eigenvalues_sym(m) -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted nonincreasing."""
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must have order >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric; see sym_matrix()")
    return Spectrum(values=tuple(float(x) for x in np.linalg.eigvalsh(a)[::-1]))


def lambda_k(g: Graph, k: int) -> float:
    """k-th largest adjacency eigenvalue (1-indexed)."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    return eigenvalues_sym(adjacency_matrix(g)).values[k - 1]


# ---------------------------------------------------------------------------
# vertex partitions


def validate_partition(g: Graph, blocks: Iterable) -> tuple:
    """Normalize blocks to sorted tuples; require disjoint nonempty coverage of V."""
    norm = []
    total = 0
    seen = set()
    for block in blocks:
        b = as_vertex_set(block, g.n)
        if not b:
            raise ValueError("partition blocks must be nonempty")
        if seen.intersection(b):
            raise ValueError("partition blocks must be disjoint")
        seen.update(b)
        total += len(b)
        norm.append(b)
    if total != g.n:
        raise ValueError(f"partition covers {total} of {g.n} vertices")
    return tuple(norm)


def quotient_matrix(g: Graph, blocks: Iterable) -> np.ndarray:
    """Block-averaged neighbor counts: entry (i, j) is the mean number of
    neighbors in block j over the vertices of block i."""
    parts = validate_partition(g, blocks)
    s = len(parts)
    block_of = [0] * g.n
    for i, part in enumerate(parts):
        for v in part:
            block_of[v] = i
    sums = np.zeros((s, s), dtype=np.float64)
    for u, v in g.edges:
        bu, bv = block_of[u], block_of[v]
        sums[bu, bv] += 1.0
        sums[bv, bu] += 1.0
    sizes = np.array([len(part) for part in parts], dtype=np.float64)
    return sums / sizes[:, None]


def is_equitable(g: Graph, blocks: Iterable) -> bool:
    """True iff within each block every vertex has the same (integer) number
    of neighbors in every block."""
    parts = validate_partition(g, blocks)
    block_of = [0] * g.n
    for i, part in enumerate(parts):
        for v in part:
            block_of[v] = i
    s = len(parts)
    for part in parts:
        ref = None
        for v in part:
            counts = [0] * s
            for w in g.adj[v]:
                counts[block_of[w]] += 1
            if ref is None:
                ref = counts
            elif counts != ref:
                return False
    return True


def quotient_eigs_2x2(q) -> tuple:
    """Both roots of the characteristic polynomial of a 2x2 matrix, larger first.

    Uses the closed-form quadratic; exact up to floating rounding.
    """
    a = np.array(q, dtype=np.float64)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    disc = (a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] * a[1, 0]
    if disc < 0.0:
        raise ValueError(f"complex eigenvalues (discriminant {disc})")
    root = math.sqrt(disc)
    tr = a[0, 0] + a[1, 1]
    return ((tr + root) / 2.0, (tr - root) / 2.0)
