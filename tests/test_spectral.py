import math
import random

import numpy as np
import pytest

from oddfactor import (
    Graph,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    eigenvalues_sym,
    empty_graph,
    induced_subgraph,
    is_equitable,
    join,
    lambda_k,
    quotient_eigs_2x2,
    quotient_matrix,
    sym_matrix,
    validate_partition,
)
from conftest import petersen_graph, random_graph


def spectra_close(values, expected, tol=1e-9):
    assert len(values) == len(expected)
    assert max(abs(a - b) for a, b in zip(values, expected)) < tol


def test_adjacency_matrix():
    assert adjacency_matrix(complete_graph(2)).tolist() == [[0, 1], [1, 0]]
    assert adjacency_matrix(empty_graph(2)).tolist() == [[0, 0], [0, 0]]
    a = adjacency_matrix(cycle_graph(3))
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))


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


def test_lambda_k():
    assert abs(lambda_k(complete_graph(4), 1) - 3) < 1e-9
    assert abs(lambda_k(petersen_graph(), 3) - 1) < 1e-9
    assert abs(lambda_k(cycle_graph(4), 4) + 2) < 1e-9
    with pytest.raises(ValueError):
        lambda_k(complete_graph(4), 0)
    with pytest.raises(ValueError):
        lambda_k(complete_graph(4), 5)


def test_regular_lambda1_equals_degree():
    for g in (complete_graph(5), cycle_graph(6), petersen_graph()):
        assert abs(lambda_k(g, 1) - g.regular_degree()) < 1e-9


def test_eigenvalues_sym_input_validation():
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_sym([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        eigenvalues_sym([[float("nan"), 0.0], [0.0, 0.0]])


def test_sym_matrix_mirrors_upper_triangle():
    m = sym_matrix([[1.0, 2.0], [9.0, 4.0]])
    assert m.tolist() == [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(ValueError):
        sym_matrix([[1.0, 2.0]])


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
        assert lambda_k(g, 1) >= 2 * len(g.edges) / g.n - 1e-9


def test_validate_partition():
    g = complete_graph(4)
    parts = validate_partition(g, [[0], [3, 1, 2]])
    assert parts == ((0,), (1, 2, 3))
    with pytest.raises(ValueError):
        validate_partition(g, [[0], [1, 2]])
    with pytest.raises(ValueError):
        validate_partition(g, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        validate_partition(g, [[], [0, 1, 2, 3]])


def test_quotient_matrix_examples():
    star = join(complete_graph(1), empty_graph(3))
    q = quotient_matrix(star, [[0], [1, 2, 3]])
    assert q.tolist() == [[0.0, 3.0], [1.0, 0.0]]
    g = cycle_graph(6)
    q = quotient_matrix(g, [range(6)])
    assert q.tolist() == [[2.0]]


def test_is_equitable():
    star = join(complete_graph(1), empty_graph(3))
    assert is_equitable(star, [[0], [1, 2, 3]])
    assert not is_equitable(cycle_graph(4), [[0], [1, 2, 3]])
    # antipodal halves of C4
    assert is_equitable(cycle_graph(4), [[0, 2], [1, 3]])


def test_quotient_eigs_2x2():
    top, bot = quotient_eigs_2x2([[0.0, 4.0], [3.0, 2.0]])
    assert abs(top - (1 + math.sqrt(13))) < 1e-12
    assert abs(bot - (1 - math.sqrt(13))) < 1e-12
    assert quotient_eigs_2x2([[0.0, 0.0], [0.0, 0.0]]) == (0.0, 0.0)
    # negative-entry matrix still has real roots via the formula
    top, bot = quotient_eigs_2x2([[-2.0, 4.0], [1.0, 2.0]])
    assert abs(top - 2 * math.sqrt(2)) < 1e-12
    assert abs(bot + 2 * math.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        quotient_eigs_2x2([[1.0]])
    with pytest.raises(ValueError):
        quotient_eigs_2x2([[0.0, -1.0], [1.0, 0.0]])


def test_equitable_partition_eigs_contained_in_spectrum():
    cases = [
        (join(complete_graph(1), empty_graph(3)), [[0], [1, 2, 3]]),
        (cycle_graph(4), [[0, 2], [1, 3]]),
        (join(empty_graph(3), empty_graph(3)), [range(3), range(3, 6)]),
    ]
    for g, parts in cases:
        assert is_equitable(g, parts)
        spec = eigenvalues_sym(adjacency_matrix(g)).values
        for mu in quotient_eigs_2x2(quotient_matrix(g, parts)):
            assert min(abs(mu - lam) for lam in spec) < 1e-8
        # connected host: top quotient eigenvalue is the spectral radius
        assert abs(quotient_eigs_2x2(quotient_matrix(g, parts))[0] - spec[0]) < 1e-8


def test_quotient_eigs_interlace_even_when_not_equitable():
    rng = random.Random(41)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randrange(4, 12), 0.5)
        cut = rng.randrange(1, g.n)
        parts = [list(range(cut)), list(range(cut, g.n))]
        q = quotient_matrix(g, parts)
        mu1, mu2 = quotient_eigs_2x2(q)
        lam = eigenvalues_sym(adjacency_matrix(g)).values
        n = g.n
        assert mu1 <= lam[0] + 1e-8 and mu1 >= lam[n - 2] - 1e-8
        assert mu2 <= lam[1] + 1e-8 and mu2 >= lam[n - 1] - 1e-8
        done += 1
