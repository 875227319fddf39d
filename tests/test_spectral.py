import math
import random

import numpy as np
import pytest

from oddfactor import spectral
from oddfactor.graphs import Graph, complete_graph, cycle_graph, empty_graph
from oddfactor.spectral import spectra
from conftest import (
    block_quotient,
    induced_subgraph,
    join,
    oracle_matrix,
    oracle_spectrum,
    petersen_graph,
    quotient_roots,
    random_graph,
)


def spectra_close(values, expected, tol=1e-9):
    assert len(values) == len(expected)
    assert max(abs(a - b) for a, b in zip(values, expected)) < tol


def _spec(g):
    return spectra([g])[0]


def test_adjacency_matrix():
    # the matrix builder itself, not only its spectra: two isospectral
    # mistakes would pass a spectrum test
    a = spectral._stack([complete_graph(2), empty_graph(2)], 2)
    assert a.tolist() == [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]
    a = spectral._stack([cycle_graph(3), empty_graph(3), Graph(3, [(0, 1)])], 3)
    assert np.array_equal(a[0], np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(a[1], np.zeros((3, 3)))
    assert a[2].tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    for k in (0, 1, 3):
        assert np.array_equal(spectral._stack([empty_graph(k)] * 2, k), np.zeros((2, k, k)))


def test_adjacency_matrix_matches_entrywise_reference():
    rng = random.Random(8)
    for n in range(1, 12):
        gs = [random_graph(rng, n, rng.random()) for _ in range(4)]
        a = spectral._stack(gs, n)
        assert a.dtype == np.float64 and a.shape == (4, n, n)
        for layer, g in zip(a, gs):
            assert np.array_equal(layer, oracle_matrix(g))


def test_closed_form_spectra():
    # K_n: n-1 once, -1 with multiplicity n-1
    spectra_close(_spec(complete_graph(4)), [3, -1, -1, -1])
    # C_n: 2cos(2 pi k / n)
    for n in (4, 5, 7):
        expected = sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)
        spectra_close(_spec(cycle_graph(n)), expected)
    # complete bipartite K_{3,3}: +-3 and zeros
    k33 = join(empty_graph(3), empty_graph(3))
    spectra_close(_spec(k33), [3, 0, 0, 0, 0, -3])


def test_against_independent_eigensolver():
    rng = random.Random(17)
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 14), 0.4)
        mine = np.array(_spec(g))
        # general nonsymmetric LAPACK routine, independent of eigvalsh
        ref = np.sort(np.linalg.eigvals(oracle_matrix(g)).real)[::-1]
        worst = max(worst, float(np.max(np.abs(mine - ref))))
    assert worst < 1e-9


def test_spectrum_sorted_and_deterministic():
    g = petersen_graph()
    s1 = _spec(g)
    assert _spec(g) == s1
    assert type(s1) is tuple and all(type(v) is float for v in s1)
    assert all(a >= b for a, b in zip(s1, s1[1:]))


def test_trace_and_energy_identities():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 14), 0.5)
        vals = _spec(g)
        assert abs(sum(vals)) < 1e-9
        assert abs(sum(v * v for v in vals) - 2 * len(g.edges)) < 1e-8


def _lam(g, k):
    """lambda_k, the k-th largest adjacency eigenvalue (1-indexed)."""
    return _spec(g)[k - 1]


def test_lambda_k():
    assert abs(_lam(complete_graph(4), 1) - 3) < 1e-9
    assert abs(_lam(petersen_graph(), 3) - 1) < 1e-9
    assert abs(_lam(cycle_graph(4), 4) + 2) < 1e-9


def test_regular_lambda1_equals_degree():
    for g in (complete_graph(5), cycle_graph(6), petersen_graph()):
        assert abs(_lam(g, 1) - g.regular_degree()) < 1e-9


def test_spectra_equal_single_spectra_on_mixed_orders():
    # orders interleave, so each stack gathers graphs from across the list
    rng = random.Random(43)
    gs = [random_graph(rng, rng.randrange(1, 15), rng.random()) for _ in range(120)]
    gs += [petersen_graph(), complete_graph(1), empty_graph(3)]
    assert len({g.n for g in gs}) == 14
    got = spectra(iter(gs))
    # exact: the stacked solve gives the bits of one matrix solved alone
    assert got == [oracle_spectrum(g) for g in gs]
    # a graph's values do not depend on the others in the list
    assert spectra(gs[5:6]) == got[5:6]
    assert spectra([]) == []


@pytest.mark.parametrize("orders", [(0,), (2, 0), (0, 2), (2, 0, 3)])
def test_spectra_rejects_the_graph_on_no_vertices(orders):
    # numpy would give it an empty spectrum; it is the one graph spectra refuses
    gs = [complete_graph(n) if n else empty_graph(0) for n in orders]
    with pytest.raises(ValueError, match="matrix must have order >= 1"):
        spectra(iter(gs))


def test_interlacing_on_induced_subgraphs():
    rng = random.Random(31)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randrange(2, 13), 0.5)
        keep = [v for v in range(g.n) if rng.random() < 0.6]
        if not keep:
            continue
        h, _ = induced_subgraph(g, keep)
        gl = _spec(g)
        hl = _spec(h)
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
        spec = _spec(g)
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
        lam = _spec(g)
        n = g.n
        assert mu1 <= lam[0] + 1e-8 and mu1 >= lam[n - 2] - 1e-8
        assert mu2 <= lam[1] + 1e-8 and mu2 >= lam[n - 1] - 1e-8
        done += 1
