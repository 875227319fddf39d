"""Numerical verification harness for the spectral factor threshold.

Checks, at desk scale, the consequences the theory promises: any regular
even-order graph whose third eigenvalue sits below rho(r, b) yields a factor
when searched, and the minimal-component quotient polynomial is nonpositive
at rho(r, b) across its whole parameter range. That the extremal component
attains rho(r, b) exactly is certified in integers by thresholds, where
verify sharpness reads it.

Only theorem_check and the campaign eigensolve, both through
spectral.spectra; they import spectral, and with it numpy, when they run, so
the quotient-polynomial check starts without numpy. The campaign streams its
trials in blocks of 64, with one stacked eigensolve per vertex count in each
block, and hands whole blocks to a process pool when it has more than one
block and more than one job; theorem_check is the one-graph case of that
block check. The block check is the one place that decides a contradiction
of the theorem: an applicable trial without a factor raises TheoremViolation
there, with the graph it checked, and a campaign block returns only its
count of applicable trials.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple

from .factor import find_odd_factor
from .graphs import Graph, _check_order, is_connected, serialize_edge_list
from .thresholds import threshold_params

__all__ = [
    "GUARD",
    "TrialReport",
    "Case2Report",
    "CampaignSummary",
    "TheoremViolation",
    "random_regular",
    "theorem_check",
    "case2_polynomial_check",
    "randomized_theorem_campaign",
]

# float comparisons sit on the conservative side of this band, far above solver
# error. It guards only spectral.spectra's output (theorem_check and the
# campaign) and case2's closed-form verdict
GUARD = 1e-9


class TheoremViolation(RuntimeError):
    """An applicable trial failed to produce a factor: a bug or a discovery."""

    def __init__(self, message: str, graph_text: str | None = None):
        super().__init__(message)
        self.graph_text = graph_text


class TrialReport(NamedTuple):
    r: int
    b: int
    n: int
    seed: int | None
    lambda3: float
    rho: float
    implication_applicable: bool  # True: a factor was found; False: none was searched


class Case2Report(NamedTuple):
    r: int
    b: int
    eta: int
    t_max: int
    max_q_at_rho: float
    max_form_gap: float
    passed: bool


class CampaignSummary(NamedTuple):
    trials: int
    applicable: int
    found: int
    inapplicable: int


def _suitable_pair_exists(edges: set, leftover: dict, n: int) -> bool:
    verts = sorted(leftover)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if u * n + v not in edges:
                return True
    return False


def _shuffle(x: list, getrandbits) -> None:
    """random.Random.shuffle(x) on the same getrandbits stream.

    Fisher-Yates: for i = len(x) - 1 down to 1, j is drawn from
    (i + 1).bit_length() random bits and redrawn while j > i.
    """
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _pairing_attempt(n: int, base: list, getrandbits):
    """One pairing-model attempt: shuffle the stubs, keep good pairs, re-pair
    the colliding stubs until none remain or no simple pair can be formed.
    Edges come back as codes u * n + v with u < v."""
    edges: set = set()
    stubs = base.copy()
    rounds = 0
    while stubs:
        rounds += 1
        if rounds > 1000:
            return None
        # its insertion order is the next round's stub order, which the
        # shuffle turns into the next pairs
        collisions: dict = {}
        _shuffle(stubs, getrandbits)
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            code = u * n + v
            if u != v and code not in edges:
                edges.add(code)
            else:
                collisions[u] = collisions.get(u, 0) + 1
                collisions[v] = collisions.get(v, 0) + 1
        if not collisions:
            return edges
        if not _suitable_pair_exists(edges, collisions, n):
            return None
        stubs = [v for v, k in collisions.items() for _ in range(k)]
    return edges


_MAX_RETRIES = 10_000  # restarts random_regular allows before it gives up


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Sample a simple connected r-regular graph by the pairing model.

    Stubs are shuffled and paired; self-loops and repeated pairs are thrown
    back and re-paired, and the attempt restarts from scratch once no simple
    pair can be completed or the finished graph is disconnected, so every
    graph returned is connected. Raises ValueError when no connected graph
    fits n and r, and RuntimeError after _MAX_RETRIES restarts.

    The graph is a function of the seed through random.Random(seed)'s
    getrandbits stream alone: every shuffle draws exactly the words
    random.Random.shuffle draws on Python 3.10 and later, so the same seed
    gives the same graph on every such version.
    """
    if r < 0 or r >= n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 != 0:
        raise ValueError(f"n*r must be even, got n={n}, r={r}")
    if r <= 1 and n > r + 1:
        raise ValueError(f"no connected {r}-regular graph has n={n} vertices")
    getrandbits = random.Random(seed).getrandbits
    base = [v for v in range(n) for _ in range(r)]
    for _ in range(_MAX_RETRIES + 1):
        codes = _pairing_attempt(n, base, getrandbits)
        if codes is not None:
            g = Graph._canonical(n, [divmod(c, n) for c in sorted(codes)])
            if is_connected(g):
                return g
    raise RuntimeError(
        f"pairing model failed to produce a simple connected {r}-regular graph on {n} "
        f"vertices after {_MAX_RETRIES + 1} attempts (seed {seed})"
    )


def theorem_check(g: Graph, b: int, seed: int | None = None) -> TrialReport:
    """Evaluate the factor implication on one regular even-order graph.

    Computes lambda_3 and rho(r, b); when the graph is connected and
    lambda_3 < rho - GUARD the factor search runs, and finding no factor
    raises TheoremViolation with the graph. Otherwise the implication is
    silent and no search happens. This is the one-graph case of the
    campaign's block check.
    """
    return _check_block([(g, b, seed)])[0]


def _check_block(trials: list) -> list:
    """theorem_check of each (graph, b, seed) in trials, with every graph
    validated first and then one stacked eigensolve per vertex count. The
    first applicable trial, in trial order, whose search finds no factor
    raises TheoremViolation with that graph, and no later trial is searched."""
    from .spectral import spectra

    params = []
    for g, b, _ in trials:
        if g.n % 2 != 0:
            raise ValueError(f"graph order must be even, got {g.n}")
        r = g.regular_degree()
        if r is None:
            raise ValueError("graph must be regular")
        params.append((r, threshold_params(r, b).rho))  # rejects r < 3, even b, b >= r
    reports = []
    for (g, b, seed), (r, rho), spec in zip(trials, params, spectra(t[0] for t in trials)):
        lam3 = spec[2]
        applicable = lam3 < rho - GUARD and is_connected(g)
        if applicable and find_odd_factor(g, b) is None:
            raise TheoremViolation(
                f"applicable trial without factor: n={g.n}, r={r}, b={b}, "
                f"seed={seed}, lambda3={lam3!r}, rho={rho!r}",
                graph_text=serialize_edge_list(g),
            )
        reports.append(
            TrialReport(
                r=r,
                b=b,
                n=g.n,
                seed=seed,
                lambda3=lam3,
                rho=rho,
                implication_applicable=applicable,
            )
        )
    return reports


def case2_polynomial_check(r: int, b: int) -> Case2Report:
    """Evaluate the minimal-component quotient polynomial at rho(r, b) for odd r.

    For each integer t in [0, r+2-eta] the cross-block edge count is
    (r+2-eta)*eta - t. The characteristic polynomial of the resulting
    quotient matrix, evaluated at rho, must be <= 0 and must agree with its
    factored form -t(r+2)/((r+2-eta)eta) * (rho + eta/(r+2) - r).
    """
    if r % 2 == 0:
        raise ValueError(f"this check applies to odd r only, got {r}")
    p = threshold_params(r, b)
    _check_order(r + 2)
    eta = p.eta
    a = r + 2 - eta
    rho = p.rho
    max_q = float("-inf")
    max_gap = 0.0
    for t in range(a + 1):
        m12 = a * eta - t
        q00 = r - m12 / a
        q11 = r - 1 - m12 / eta
        q01 = m12 / a
        q10 = m12 / eta
        direct = (rho - q00) * (rho - q11) - q01 * q10
        factored = -t * (r + 2) / (a * eta) * (rho + eta / (r + 2) - r)
        max_q = max(max_q, direct)
        max_gap = max(max_gap, abs(direct - factored))
    return Case2Report(
        r=r,
        b=b,
        eta=eta,
        t_max=a,
        max_q_at_rho=max_q,
        max_form_gap=max_gap,
        passed=max_q <= GUARD and max_gap <= GUARD,
    )


# ---------------------------------------------------------------------------
# randomized campaign


# trials per block, run in this process or sent whole to a pool worker; each
# block eigensolves its graphs in one stacked call per vertex count
_CAMPAIGN_BLOCK = 64


def _trial_seed(master_seed: int, index: int) -> int:
    # plain arithmetic so worker processes derive identical seeds
    return master_seed * 1_000_003 + index


def _campaign_graph(args) -> tuple:
    """The (graph, b, seed) a trial checks, all drawn from its seed."""
    master_seed, index, n_lo, n_hi, r_lo, r_hi, b_policy = args
    seed = _trial_seed(master_seed, index)
    rng = random.Random(seed)
    r = rng.randrange(r_lo, r_hi + 1)
    if b_policy == "random":
        b = rng.choice(range(1, r, 2))
    elif b_policy == "unit":
        b = 1
    else:  # "max"
        b = r - 1 if (r - 1) % 2 == 1 else r - 2
    # the even n in [n_lo, n_hi] above r; a range draws as its list would
    start = max(n_lo, r + 1)
    n = rng.choice(range(start + start % 2, n_hi - n_hi % 2 + 1, 2))
    return random_regular(n, r, seed=seed), b, seed


def _campaign_block(block: tuple) -> int:
    """The number of applicable trials among trials start to stop - 1, one
    block of a campaign; the block check raises at its first counterexample."""
    master_seed, start, stop, *ranges = block
    trials = [_campaign_graph((master_seed, i, *ranges)) for i in range(start, stop)]
    return sum(rep.implication_applicable for rep in _check_block(trials))


def randomized_theorem_campaign(
    trials: int,
    n_range: tuple = (8, 20),
    r_range: tuple = (3, 7),
    b_policy: str = "random",
    master_seed: int = 0,
    jobs: int = 1,
) -> CampaignSummary:
    """Run theorem_check over sampled regular graphs, in blocks that each
    eigensolve their graphs in one stacked call per vertex count.

    Each trial derives its parameters and generator seed from (master_seed,
    index), so the outcome is reproducible and independent of worker count.
    Blocks are generated as they are checked, and each hands back only its
    count of applicable trials. The arguments are checked before any trial
    runs: r_range must be non-empty with r >= 3, n_range must hold an even n
    above the largest r and none above ORDER_MAX, and b_policy must be
    "random", "unit" or "max". The first applicable trial without a factor
    ends the campaign with a TheoremViolation carrying its graph, once the
    blocks before its own are counted.
    """
    n_lo, n_hi = n_range
    r_lo, r_hi = r_range
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if r_lo < 3:
        raise ValueError(f"r range must start at 3 or above, got {r_lo}")
    if r_lo > r_hi:
        raise ValueError(f"r range is empty: r_min {r_lo} exceeds r_max {r_hi}")
    top_n = _check_order(n_hi - n_hi % 2)
    if top_n < n_lo or top_n <= r_hi:
        # checked against r_max so that every r the trials may draw fits
        raise ValueError(f"no even n in [{n_lo}, {n_hi}] exceeds r_max {r_hi}")
    if b_policy not in ("random", "unit", "max"):
        raise ValueError(f"unknown b_policy {b_policy!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    starts = range(0, trials, _CAMPAIGN_BLOCK)
    ranges = (n_lo, n_hi, r_lo, r_hi, b_policy)
    blocks = ((master_seed, i, min(i + _CAMPAIGN_BLOCK, trials), *ranges) for i in starts)
    if jobs > 1 and len(starts) > 1:
        # imported here so that a serial run never loads multiprocessing
        import multiprocessing

        # the pool forks all its workers at once, so it gets one per block and
        # one per CPU at most; imap gives the blocks back in trial order, and
        # leaving the with block, after the last or on a raise, terminates it
        workers = min(jobs, len(starts), os.cpu_count() or 1)
        with multiprocessing.Pool(workers) as pool:
            applicable = sum(pool.imap(_campaign_block, blocks))
    else:
        applicable = sum(map(_campaign_block, blocks))
    # every applicable trial found a factor, or its block raised
    return CampaignSummary(trials, applicable, applicable, trials - applicable)
