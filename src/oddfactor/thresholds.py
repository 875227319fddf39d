"""Closed-form spectral thresholds for odd [1,b]-factors and the extremal
graphs that attain them.

The central quantity is the threshold rho(r, b) on the third-largest
adjacency eigenvalue of an r-regular graph: below it an odd [1,b]-factor is
guaranteed. Its four parity branches (parity of r crossed with parity of
ceil(r/b)) collapse to a single form in terms of the derived quantity eta,
which is the one computed here. Also here: the older Brouwer-Haemers and
Cioaba-Gregory-Haemers 1-factor thresholds, the Lu-Wu-Yang odd-[1,b]
threshold, and the extremal component construction whose largest eigenvalue
equals rho(r, b).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    join,
    matching_complement,
)

__all__ = [
    "ThresholdParams",
    "DegenerateConstructionError",
    "threshold_params",
    "lwy_threshold",
    "prior_1factor_thresholds",
    "build_extremal",
    "extremal_partition",
]


class DegenerateConstructionError(ValueError):
    """The extremal construction is undefined for these parameters (odd r, eta < 3)."""


@dataclass(frozen=True)
class ThresholdParams:
    r: int
    b: int
    ceil_rb: int
    epsilon: int
    eta: int
    parity_case: str
    parity_offset: int  # 1 if r is odd, else 0
    rho: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _parity(k: int) -> str:
    return "even" if k % 2 == 0 else "odd"


def _check_rb(r: int, b: int) -> None:
    if r < 3:
        raise ValueError(f"degree r must be at least 3, got {r}")
    if b < 1 or b % 2 == 0:
        raise ValueError(f"b must be a positive odd integer, got {b}")
    if b >= r:
        raise ValueError(f"b must be less than r, got b={b}, r={r}")


def threshold_params(r: int, b: int) -> ThresholdParams:
    """All derived threshold quantities for a degree r and odd bound b < r."""
    _check_rb(r, b)
    ceil_rb = (r + b - 1) // b
    epsilon = 2 if r % 2 == ceil_rb % 2 else 1
    eta = ceil_rb - epsilon
    x = r % 2
    # eta inherits the parity of r
    if eta % 2 != x:
        raise AssertionError(f"eta parity broken at r={r}, b={b}")
    return ThresholdParams(
        r=r,
        b=b,
        ceil_rb=ceil_rb,
        epsilon=epsilon,
        eta=eta,
        parity_case=f"{_parity(r)}-{_parity(ceil_rb)}",
        parity_offset=x,
        rho=(r - 2 - x + math.sqrt((r + 2 + x) ** 2 - 4 * eta)) / 2,
    )


def lwy_threshold(r: int, b: int) -> float:
    """The Lu-Wu-Yang lower bound on lambda_3 for r-regular even-order graphs
    without an odd [1,b]-factor."""
    _check_rb(r, b)
    ceil_rb = (r + b - 1) // b
    if r % 2 == 0 and ceil_rb % 2 == 0:
        return r - (ceil_rb - 2) / (r + 1) + 1 / ((r + 1) * (r + 2))
    if r % 2 == 0:
        return r - (ceil_rb - 1) / (r + 1) + 1 / ((r + 1) * (r + 2))
    if ceil_rb % 2 == 0:
        return r - (ceil_rb - 1) / (r + 1) + 1 / (r + 2) ** 2
    return r - (ceil_rb - 2) / (r + 1) + 1 / (r + 2) ** 2


def _largest_cubic_root_bisect(lo: float, hi: float, width: float = 1e-12) -> float:
    # largest root of x^3 - x^2 - 6x + 2 lies in [2, 3] where f is increasing
    f = lambda x: x**3 - x**2 - 6 * x + 2
    while hi - lo > width:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def prior_1factor_thresholds(r: int) -> tuple:
    """(Brouwer-Haemers, Cioaba-Gregory-Haemers) 1-factor thresholds for degree r."""
    if r < 3:
        raise ValueError(f"degree r must be at least 3, got {r}")
    if r % 2 == 0:
        bh = r - 1 + 3 / (r + 1)
        cgh = (r - 2 + math.sqrt(r**2 + 12)) / 2
    else:
        bh = r - 1 + 3 / (r + 2)
        cgh = (
            _largest_cubic_root_bisect(2.0, 3.0)
            if r == 3
            else (r - 3 + math.sqrt((r + 1) ** 2 + 16)) / 2
        )
    return bh, cgh


def build_extremal(p: ThresholdParams) -> Graph:
    """The extremal component H on r+1 (r even) or r+2 (r odd) vertices with
    largest adjacency eigenvalue exactly rho(r, b).

    r even: clique of size r+1-eta joined to a matching complement on eta
    vertices. r odd: cycle complement on eta vertices joined to a matching
    complement on r+2-eta vertices; undefined when eta < 3 since a cycle
    needs at least three vertices.
    """
    r, eta = p.r, p.eta
    if r % 2 == 0:
        h = join(complete_graph(r + 1 - eta), matching_complement(eta))
    else:
        if eta < 3:
            raise DegenerateConstructionError(
                f"no extremal construction for odd r={r} with eta={eta} < 3"
            )
        h = join(complement(cycle_graph(eta)), matching_complement(r + 2 - eta))

    expected_n = r + 1 + p.parity_offset
    if h.n != expected_n:
        raise AssertionError(f"extremal graph has {h.n} vertices, expected {expected_n}")
    if 2 * len(h.edges) != r * expected_n - eta:
        raise AssertionError(
            f"extremal graph has {len(h.edges)} edges, expected {(r * expected_n - eta) / 2}"
        )
    degs = h.degrees()
    if degs.count(r - 1) != eta or degs.count(r) != expected_n - eta:
        raise AssertionError(f"extremal degree profile broken: {sorted(degs)}")
    return h


def extremal_partition(p: ThresholdParams) -> tuple:
    """The two construction blocks of the extremal graph, in join order.

    For eta = 0 the second block would be empty, so the single full block is
    returned instead.
    """
    r, eta = p.r, p.eta
    if r % 2 == 0:
        if eta == 0:
            return (tuple(range(r + 1)),)
        split = r + 1 - eta
        return (tuple(range(split)), tuple(range(split, r + 1)))
    if eta < 3:
        raise DegenerateConstructionError(
            f"no extremal construction for odd r={r} with eta={eta} < 3"
        )
    return (tuple(range(eta)), tuple(range(eta, r + 2)))
