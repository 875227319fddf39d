"""Numerical verification harness for the spectral factor threshold.

Checks, at desk scale, the consequences the theory promises: the extremal
construction attains rho(r, b) exactly; any regular even-order graph whose
third eigenvalue sits below rho(r, b) yields a factor when searched; the
minimal-component quotient polynomial is nonpositive at rho(r, b) across its
whole parameter range; and the threshold compares against the earlier bounds
over a full (r, b) sweep.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .factor import find_odd_factor
from .graphs import Graph, components, serialize_edge_list
from .spectral import (
    adjacency_matrix,
    eigenvalues_sym,
    is_equitable,
    quotient_eigs_2x2,
    quotient_matrix,
)
from .thresholds import (
    DegenerateConstructionError,
    build_extremal,
    extremal_partition,
    lwy_threshold,
    prior_1factor_thresholds,
    threshold_params,
)

__all__ = [
    "GUARD",
    "TrialReport",
    "SweepRow",
    "SharpnessReport",
    "Case2Report",
    "CampaignSummary",
    "TheoremViolation",
    "random_regular",
    "theorem_check",
    "sharpness_check",
    "case2_polynomial_check",
    "bound_sweep",
    "sweep_to_csv",
    "SWEEP_CSV_HEADER",
    "randomized_theorem_campaign",
]

# comparisons sit on the conservative side of this band; solver error is far below it
GUARD = 1e-9

SWEEP_CSV_HEADER = "r,b,ceil_rb,epsilon,eta,rho,lwy,cgh,bh,lambda1_H"


class TheoremViolation(RuntimeError):
    """An applicable trial failed to produce a factor: a bug or a discovery."""

    def __init__(self, message: str, report=None, graph_text: str | None = None):
        super().__init__(message)
        self.report = report
        self.graph_text = graph_text


@dataclass(frozen=True)
class TrialReport:
    r: int
    b: int
    n: int
    seed: int | None
    lambda3: float
    rho: float
    implication_applicable: bool
    factor_found: bool | None  # None when the implication did not apply
    elapsed: float


@dataclass(frozen=True)
class SharpnessReport:
    r: int
    b: int
    eta: int
    rho: float
    lambda1: float
    n_vertices: int
    edge_count: int
    degree_profile_ok: bool
    equitable: bool
    quotient_top: float
    issues: tuple
    passed: bool


@dataclass(frozen=True)
class Case2Report:
    r: int
    b: int
    eta: int
    t_max: int
    max_q_at_rho: float
    max_form_gap: float
    passed: bool


@dataclass(frozen=True)
class SweepRow:
    r: int
    b: int
    ceil_rb: int
    epsilon: int
    eta: int
    rho: float
    lwy: float
    cgh: float
    bh: float
    lambda1_H: float | None  # None when the construction is degenerate
    rho_ge_lwy: bool
    lwy_tie: bool
    sharpness_ok: bool | None


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    applicable: int
    found: int
    inapplicable: int
    counterexamples: tuple
    reports: tuple

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "applicable": self.applicable,
            "found": self.found,
            "inapplicable": self.inapplicable,
            "counterexamples": list(self.counterexamples),
        }


def _suitable_pair_exists(edges: set, leftover: dict) -> bool:
    verts = sorted(leftover)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if (u, v) not in edges:
                return True
    return False


def _pairing_attempt(n: int, r: int, rng: random.Random):
    """One pairing-model attempt: shuffle stubs, keep good pairs, re-pair the
    colliding stubs until none remain or no simple pair can be formed."""
    edges: set = set()
    stubs = [v for v in range(n) for _ in range(r)]
    rounds = 0
    while stubs:
        rounds += 1
        if rounds > 1000:
            return None
        collisions: dict = {}
        rng.shuffle(stubs)
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                collisions[u] = collisions.get(u, 0) + 1
                collisions[v] = collisions.get(v, 0) + 1
        if not collisions:
            return edges
        if not _suitable_pair_exists(edges, collisions):
            return None
        stubs = [v for v, k in collisions.items() for _ in range(k)]
    return edges


def random_regular(n: int, r: int, seed: int, max_retries: int = 10_000) -> Graph:
    """Sample a simple connected r-regular graph by the pairing model.

    Stubs are shuffled and paired; self-loops and repeated pairs are thrown
    back and re-paired, and the attempt restarts from scratch once no simple
    pair can be completed or the finished graph is disconnected, so every
    graph returned is connected. Deterministic for a fixed seed. Raises after
    max_retries restarts.
    """
    if r < 0 or r >= n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 != 0:
        raise ValueError(f"n*r must be even, got n={n}, r={r}")
    rng = random.Random(seed)
    for _ in range(max_retries + 1):
        edges = _pairing_attempt(n, r, rng)
        if edges is not None:
            g = Graph(n, edges)
            if len(components(g)) == 1:
                return g
    raise RuntimeError(
        f"pairing model failed to produce a simple connected {r}-regular graph on {n} "
        f"vertices after {max_retries + 1} attempts (seed {seed})"
    )


def theorem_check(g: Graph, b: int, seed: int | None = None) -> TrialReport:
    """Evaluate the factor implication on one regular even-order graph.

    Computes lambda_3 and rho(r, b); when the graph is connected and
    lambda_3 < rho - GUARD the factor search runs and its outcome is
    recorded. Otherwise the implication is silent and no search happens.
    """
    t0 = time.perf_counter()
    if g.n % 2 != 0:
        raise ValueError(f"graph order must be even, got {g.n}")
    r = g.regular_degree()
    if r is None:
        raise ValueError("graph must be regular")
    p = threshold_params(r, b)  # rejects r < 3, even b, b >= r
    spec = eigenvalues_sym(adjacency_matrix(g))
    lam3 = spec.values[2]
    applicable = lam3 < p.rho - GUARD and len(components(g)) == 1
    found = None
    if applicable:
        cert = find_odd_factor(g, b, max_edges=len(g.edges))
        found = cert is not None
    return TrialReport(
        r=r,
        b=b,
        n=g.n,
        seed=seed,
        lambda3=lam3,
        rho=p.rho,
        implication_applicable=applicable,
        factor_found=found,
        elapsed=time.perf_counter() - t0,
    )


def _quotient_top(h: Graph, parts) -> float:
    q = quotient_matrix(h, parts)
    if q.shape == (1, 1):
        return float(q[0, 0])
    return quotient_eigs_2x2(q)[0]


def sharpness_check(r: int, b: int) -> SharpnessReport:
    """Build the extremal component and confirm it attains rho(r, b).

    Checks the eigenvalue, the vertex/edge counts, the degree profile, the
    equitability of the construction partition, and the agreement of the
    quotient eigenvalue. Raises DegenerateConstructionError when no
    construction exists (odd r with eta < 3).
    """
    p = threshold_params(r, b)
    h = build_extremal(p)  # structural counts validated inside
    parts = extremal_partition(p)
    lam1 = eigenvalues_sym(adjacency_matrix(h)).values[0]
    degs = h.degrees()
    profile_ok = degs.count(r - 1) == p.eta and degs.count(r) == h.n - p.eta
    equitable = is_equitable(h, parts)
    q_top = _quotient_top(h, parts)

    issues = []
    if abs(lam1 - p.rho) >= GUARD:
        issues.append(f"lambda1={lam1!r} differs from rho={p.rho!r}")
    if not profile_ok:
        issues.append(f"degree profile {sorted(degs)} lacks {p.eta} vertices of degree {r - 1}")
    if not equitable:
        issues.append("construction partition is not equitable")
    if abs(q_top - p.rho) >= GUARD:
        issues.append(f"quotient eigenvalue {q_top!r} differs from rho={p.rho!r}")

    return SharpnessReport(
        r=r,
        b=b,
        eta=p.eta,
        rho=p.rho,
        lambda1=lam1,
        n_vertices=h.n,
        edge_count=len(h.edges),
        degree_profile_ok=profile_ok,
        equitable=equitable,
        quotient_top=q_top,
        issues=tuple(issues),
        passed=not issues,
    )


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


def _sweep_pairs(r_max: int, b_policy: str):
    if r_max < 3:
        raise ValueError(f"r_max must be at least 3, got {r_max}")
    for r in range(3, r_max + 1):
        if b_policy == "all":
            bs = range(1, r, 2)
        elif b_policy == "unit":
            bs = (1,)
        else:
            raise ValueError(f"unknown b_policy {b_policy!r}")
        for b in bs:
            yield r, b


def bound_sweep(r_max: int, b_policy: str = "all") -> list:
    """One row per (r, b): every closed-form bound plus the realized lambda_1.

    lambda1_H stays None on degenerate constructions (odd r, eta < 3). Each
    row records its own validation outcomes instead of raising, so a single
    offending pair cannot take down the rest of the sweep.
    """
    lam1_cache: dict = {}
    rows = []
    for r, b in _sweep_pairs(r_max, b_policy):
        p = threshold_params(r, b)
        lwy = lwy_threshold(r, b)
        bh, cgh = prior_1factor_thresholds(r)
        key = (r, p.eta)
        if key not in lam1_cache:
            try:
                h = build_extremal(p)
            except DegenerateConstructionError:
                lam1_cache[key] = None
            else:
                lam1_cache[key] = eigenvalues_sym(adjacency_matrix(h)).values[0]
        lam1 = lam1_cache[key]
        rows.append(
            SweepRow(
                r=r,
                b=b,
                ceil_rb=p.ceil_rb,
                epsilon=p.epsilon,
                eta=p.eta,
                rho=p.rho,
                lwy=lwy,
                cgh=cgh,
                bh=bh,
                lambda1_H=lam1,
                rho_ge_lwy=p.rho >= lwy,
                lwy_tie=abs(p.rho - lwy) <= GUARD,
                sharpness_ok=None if lam1 is None else abs(lam1 - p.rho) < GUARD,
            )
        )
    return rows


def _fmt(x: float, digits: int = 9) -> str:
    return f"{x:.{digits}f}"


def sweep_to_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.r),
                    str(row.b),
                    str(row.ceil_rb),
                    str(row.epsilon),
                    str(row.eta),
                    _fmt(row.rho),
                    _fmt(row.lwy),
                    _fmt(row.cgh),
                    _fmt(row.bh),
                    "" if row.lambda1_H is None else _fmt(row.lambda1_H),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# randomized campaign


def _trial_seed(master_seed: int, index: int) -> int:
    # plain arithmetic so worker processes derive identical seeds
    return master_seed * 1_000_003 + index


def _campaign_trial(args) -> TrialReport:
    master_seed, index, n_lo, n_hi, r_lo, r_hi, b_policy = args
    seed = _trial_seed(master_seed, index)
    rng = random.Random(seed)
    r = rng.randrange(r_lo, r_hi + 1)
    if b_policy == "random":
        b = rng.choice(range(1, r, 2))
    elif b_policy == "unit":
        b = 1
    elif b_policy == "max":
        b = r - 1 if (r - 1) % 2 == 1 else r - 2
    else:
        raise ValueError(f"unknown b_policy {b_policy!r}")
    n_choices = [n for n in range(n_lo, n_hi + 1) if n % 2 == 0 and n > r]
    if not n_choices:
        raise ValueError(f"no even n in [{n_lo}, {n_hi}] exceeds r={r}")
    n = rng.choice(n_choices)
    g = random_regular(n, r, seed=seed)
    return theorem_check(g, b, seed=seed)


def randomized_theorem_campaign(
    trials: int,
    n_range: tuple = (8, 20),
    r_range: tuple = (3, 7),
    b_policy: str = "random",
    master_seed: int = 0,
    jobs: int = 1,
) -> CampaignSummary:
    """Run theorem_check over sampled regular graphs.

    Each trial derives its parameters and generator seed from (master_seed,
    index), so the outcome is reproducible and independent of worker count.
    Any applicable trial without a factor aborts with a TheoremViolation
    carrying a full reproducer.
    """
    n_lo, n_hi = n_range
    r_lo, r_hi = r_range
    if r_lo < 3:
        raise ValueError(f"r range must start at 3 or above, got {r_lo}")
    specs = [
        (master_seed, i, n_lo, n_hi, r_lo, r_hi, b_policy) for i in range(trials)
    ]
    if jobs > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_campaign_trial, specs, chunksize=8))
    else:
        reports = [_campaign_trial(s) for s in specs]

    applicable = found = inapplicable = 0
    for rep in reports:
        if rep.implication_applicable:
            applicable += 1
            if rep.factor_found:
                found += 1
            else:
                g = random_regular(rep.n, rep.r, seed=rep.seed)
                raise TheoremViolation(
                    f"applicable trial without factor: n={rep.n}, r={rep.r}, b={rep.b}, "
                    f"seed={rep.seed}, lambda3={rep.lambda3!r}, rho={rep.rho!r}",
                    report=rep,
                    graph_text=serialize_edge_list(g),
                )
        else:
            inapplicable += 1
    return CampaignSummary(
        trials=trials,
        applicable=applicable,
        found=found,
        inapplicable=inapplicable,
        counterexamples=(),
        reports=tuple(reports),
    )
