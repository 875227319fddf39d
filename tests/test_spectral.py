import math
import random

import numpy as np
import pytest

from oddfactor import spectral
from oddfactor.graphs import complete_graph, cycle_graph, empty_graph
from oddfactor.spectral import adjacency_matrix, eigenvalues_sym, spectra
from conftest import (
    block_quotient,
    induced_subgraph,
    join,
    petersen_graph,
    quotient_roots,
    random_graph,
)


def spectra_close(values, expected, tol=1e-9):
    assert len(values) == len(expected)
    assert max(abs(a - b) for a, b in zip(values, expected)) < tol


def test_adjacency_matrix():
    assert adjacency_matrix(complete_graph(2)).tolist() == [[0, 1], [1, 0]]
    assert adjacency_matrix(empty_graph(2)).tolist() == [[0, 0], [0, 0]]
    a = adjacency_matrix(cycle_graph(3))
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))
    for k in (0, 1, 3):
        assert np.array_equal(adjacency_matrix(empty_graph(k)), np.zeros((k, k)))


def test_adjacency_matrix_matches_entrywise_reference():
    rng = random.Random(8)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 12), rng.random())
        ref = np.zeros((g.n, g.n))
        for u, v in g.edges:
            ref[u, v] = ref[v, u] = 1.0
        a = adjacency_matrix(g)
        assert a.dtype == np.float64 and np.array_equal(a, ref)


def test_closed_form_spectra():
    # K_n: n-1 once, -1 with multiplicity n-1
    spectra_close(eigenvalues_sym(adjacency_matrix(complete_graph(4))).values, [3, -1, -1, -1])
    # C_n: 2cos(2 pi k / n)
    for n in (4, 5, 7):
        expected = sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)
        spectra_close(eigenvalues_sym(adjacency_matrix(cycle_graph(n))).values, expected)
    # complete bipartite K_{3,3}: +-3 and zeros
    k33 = join(empty_graph(3), empty_graph(3))
    spectra_close(eigenvalues_sym(adjacency_matrix(k33)).values, [3, 0, 0, 0, 0, -3])


def test_against_independent_eigensolver():
    rng = random.Random(17)
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 14), 0.4)
        mine = np.array(eigenvalues_sym(adjacency_matrix(g)).values)
        # general nonsymmetric LAPACK routine, independent of eigvalsh
        ref = np.sort(np.linalg.eigvals(adjacency_matrix(g)).real)[::-1]
        worst = max(worst, float(np.max(np.abs(mine - ref))))
    assert worst < 1e-9


def test_spectrum_sorted_and_deterministic():
    g = petersen_graph()
    s1 = eigenvalues_sym(adjacency_matrix(g))
    s2 = eigenvalues_sym(adjacency_matrix(g))
    assert s1.values == s2.values
    assert all(a >= b for a, b in zip(s1.values, s1.values[1:]))


def test_trace_and_energy_identities():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 14), 0.5)
        vals = eigenvalues_sym(adjacency_matrix(g)).values
        assert abs(sum(vals)) < 1e-9
        assert abs(sum(v * v for v in vals) - 2 * len(g.edges)) < 1e-8


def _lam(g, k):
    """lambda_k, the k-th largest adjacency eigenvalue (1-indexed)."""
    return eigenvalues_sym(adjacency_matrix(g)).values[k - 1]


def test_lambda_k():
    assert abs(_lam(complete_graph(4), 1) - 3) < 1e-9
    assert abs(_lam(petersen_graph(), 3) - 1) < 1e-9
    assert abs(_lam(cycle_graph(4), 4) + 2) < 1e-9


def test_regular_lambda1_equals_degree():
    for g in (complete_graph(5), cycle_graph(6), petersen_graph()):
        assert abs(_lam(g, 1) - g.regular_degree()) < 1e-9


def test_eigenvalues_sym_input_validation():
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_sym([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        eigenvalues_sym([[float("nan"), 0.0], [0.0, 0.0]])


def test_spectra_equal_single_spectra_on_mixed_orders():
    # orders interleave, so each stack gathers graphs from across the list
    rng = random.Random(43)
    gs = [random_graph(rng, rng.randrange(1, 15), rng.random()) for _ in range(120)]
    gs += [petersen_graph(), complete_graph(1), empty_graph(3)]
    assert len({g.n for g in gs}) == 14
    got = spectra(iter(gs))
    assert got == [eigenvalues_sym(adjacency_matrix(g)) for g in gs]
    # a graph's values do not depend on the others in the list
    assert spectra(gs[5:6]) == got[5:6]
    assert spectra([]) == []


BAD_MATRICES = [
    (np.zeros((0, 0)), "matrix must have order >= 1"),
    (np.zeros((2, 3)), "expected a square matrix, got shape"),
    ([[0.0, 1.0], [2.0, 0.0]], "matrix must be exactly symmetric"),
    ([[float("nan"), 0.0], [0.0, 0.0]], "matrix entries must be finite"),
    ([[float("inf"), 0.0], [0.0, 0.0]], "matrix entries must be finite"),
]


@pytest.mark.parametrize("m, message", BAD_MATRICES)
def test_stacked_path_rejects_what_the_single_path_rejects(m, message):
    a = np.asarray(m, dtype=np.float64)
    with pytest.raises(ValueError, match=message):
        eigenvalues_sym(a)
    # the bad matrix sits behind a good one in a stack of the same shape
    stack = np.stack([np.zeros_like(a), a])
    with pytest.raises(ValueError, match=message):
        spectral._eigvalsh(stack, 3)


def test_stack_and_single_reject_the_other_rank():
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 2, 3\)"):
        spectral._eigvalsh(np.zeros((2, 2, 3)), 3)
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(1, 2, 2\)"):
        eigenvalues_sym(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 2\)"):
        spectral._eigvalsh(np.zeros((2, 2)), 3)
    # the graph on no vertices is the one input spectra can be given that fails
    with pytest.raises(ValueError, match="matrix must have order >= 1"):
        spectra([complete_graph(2), empty_graph(0)])


def test_interlacing_on_induced_subgraphs():
    rng = random.Random(31)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randrange(2, 13), 0.5)
        keep = [v for v in range(g.n) if rng.random() < 0.6]
        if not keep:
            continue
        h, _ = induced_subgraph(g, keep)
        gl = eigenvalues_sym(adjacency_matrix(g)).values
        hl = eigenvalues_sym(adjacency_matrix(h)).values
        for i, x in enumerate(hl):
            assert x <= gl[i] + 1e-9
        done += 1


def test_average_degree_lower_bound():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 14), 0.5)
        assert _lam(g, 1) >= 2 * len(g.edges) / g.n - 1e-9


# ---------------------------------------------------------------------------
# the block-mean quotient oracle (tests/conftest.py)


def test_quotient_matrix_examples():
    star = join(complete_graph(1), empty_graph(3))
    assert block_quotient(star, [[0], [1, 2, 3]])[1] == [[0.0, 3.0], [1.0, 0.0]]
    assert block_quotient(cycle_graph(6), [range(6)])[1] == [[2.0]]


def test_is_equitable():
    star = join(complete_graph(1), empty_graph(3))
    assert block_quotient(star, [[0], [1, 2, 3]])[0]
    assert not block_quotient(cycle_graph(4), [[0], [1, 2, 3]])[0]
    # antipodal halves of C4
    assert block_quotient(cycle_graph(4), [[0, 2], [1, 3]])[0]


def test_quotient_eigs_2x2():
    top, bot = quotient_roots([[0.0, 4.0], [3.0, 2.0]])
    assert abs(top - (1 + math.sqrt(13))) < 1e-12
    assert abs(bot - (1 - math.sqrt(13))) < 1e-12
    assert quotient_roots([[0.0, 0.0], [0.0, 0.0]]) == (0.0, 0.0)
    # negative-entry matrix still has real roots via the formula
    top, bot = quotient_roots([[-2.0, 4.0], [1.0, 2.0]])
    assert abs(top - 2 * math.sqrt(2)) < 1e-12
    assert abs(bot + 2 * math.sqrt(2)) < 1e-12
    assert quotient_roots([[1.0]]) == (1.0,)
    with pytest.raises(ValueError):
        quotient_roots([[0.0, -1.0], [1.0, 0.0]])


def test_equitable_partition_eigs_contained_in_spectrum():
    cases = [
        (join(complete_graph(1), empty_graph(3)), [[0], [1, 2, 3]]),
        (cycle_graph(4), [[0, 2], [1, 3]]),
        (join(empty_graph(3), empty_graph(3)), [range(3), range(3, 6)]),
    ]
    for g, parts in cases:
        equitable, q = block_quotient(g, parts)
        assert equitable
        spec = eigenvalues_sym(adjacency_matrix(g)).values
        for mu in quotient_roots(q):
            assert min(abs(mu - lam) for lam in spec) < 1e-8
        # connected host: top quotient eigenvalue is the spectral radius
        assert abs(quotient_roots(q)[0] - spec[0]) < 1e-8


def test_quotient_eigs_interlace_even_when_not_equitable():
    rng = random.Random(41)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randrange(4, 12), 0.5)
        cut = rng.randrange(1, g.n)
        parts = [list(range(cut)), list(range(cut, g.n))]
        mu1, mu2 = quotient_roots(block_quotient(g, parts)[1])
        lam = eigenvalues_sym(adjacency_matrix(g)).values
        n = g.n
        assert mu1 <= lam[0] + 1e-8 and mu1 >= lam[n - 2] - 1e-8
        assert mu2 <= lam[1] + 1e-8 and mu2 >= lam[n - 1] - 1e-8
        done += 1
