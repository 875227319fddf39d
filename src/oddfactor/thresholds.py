"""Closed-form spectral thresholds for odd [1,b]-factors and the extremal
graphs that attain them.

The central quantity is the threshold rho(r, b) on the third-largest
adjacency eigenvalue of an r-regular graph: below it an odd [1,b]-factor is
guaranteed. Its four parity branches (parity of r crossed with parity of
ceil(r/b)) collapse to a single form in terms of the derived quantity eta,
which is the one computed here. Also here: the older Brouwer-Haemers and
Cioaba-Gregory-Haemers 1-factor thresholds, the Lu-Wu-Yang odd-[1,b]
threshold, and the extremal component whose largest eigenvalue equals
rho(r, b). That component is K_order minus a sparse missing-pair set; only
this module reads such a set, and it hands the set out checked, with the
certified integer quotient of its degree classes.

rho and the Lu-Wu-Yang bound depend on (r, eta) alone, and each has one
private closed form in (r, eta), which threshold_params, lwy_threshold and
the bound table all call. The bound table sets rho against the other bounds
for every (r, b) up to r_max, one SweepClass per (r, eta) class: it
computes the 1-factor bounds once per r, rho and the Lu-Wu-Yang bound once
per class, and sweep_to_csv formats each of them once. The table builds
no graph and eigensolves nothing: lambda_1 of the extremal component is
rho, since the component's quotient has rho's trace and discriminant for
every r (the tests prove it, and that rho < lwy exactly on the eta = 0
rows). verify sharpness reports the component of one (r, b) from its
checked missing-pair set and certified quotient, and builds no graph either.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import Graph, _check_order, complete_minus

__all__ = [
    "R_MAX",
    "ThresholdParams",
    "DegenerateConstructionError",
    "threshold_params",
    "lwy_threshold",
    "prior_1factor_thresholds",
    "extremal_missing",
    "build_extremal",
    "SweepClass",
    "SWEEP_CSV_HEADER",
    "bound_sweep",
    "sweep_to_csv",
]


class DegenerateConstructionError(ValueError):
    """The extremal construction is undefined for these parameters (odd r, eta < 3)."""


class ThresholdParams(NamedTuple):
    r: int
    b: int
    ceil_rb: int
    epsilon: int
    eta: int
    parity_case: str
    parity_offset: int  # 1 if r is odd, else 0
    rho: float


def _parity(k: int) -> str:
    return "even" if k % 2 == 0 else "odd"


# the largest degree accepted: floats hold every integer up to it exactly
R_MAX = 2**53


def _check_rb(r: int, b: int) -> None:
    if r < 3:
        raise ValueError(f"degree r must be at least 3, got {r}")
    if r > R_MAX:
        raise ValueError(f"degree r must be at most 2**53 = {R_MAX}, got {r}")
    if b < 1 or b % 2 == 0:
        raise ValueError(f"b must be a positive odd integer, got {b}")
    if b >= r:
        raise ValueError(f"b must be less than r, got b={b}, r={r}")


def _eta_terms(r: int, b: int) -> tuple:
    """(ceil(r/b), epsilon, eta) for a degree r and odd bound b < r, which
    the caller has checked."""
    ceil_rb = (r + b - 1) // b
    epsilon = 2 if r % 2 == ceil_rb % 2 else 1
    return ceil_rb, epsilon, ceil_rb - epsilon


def _rho(r: int, eta: int) -> float:
    """rho(r, b) in its (r, eta) form, with x = r mod 2."""
    x = r % 2
    return (r - 2 - x + math.sqrt((r + 2 + x) ** 2 - 4 * eta)) / 2


def _lwy(r: int, eta: int) -> float:
    """The Lu-Wu-Yang bound in its (r, eta) form."""
    corr = 1 / ((r + 1) * (r + 2)) if r % 2 == 0 else 1 / (r + 2) ** 2
    return r - eta / (r + 1) + corr


def threshold_params(r: int, b: int) -> ThresholdParams:
    """All derived threshold quantities for a degree r and odd bound b < r."""
    _check_rb(r, b)
    ceil_rb, epsilon, eta = _eta_terms(r, b)
    return ThresholdParams(
        r, b, ceil_rb, epsilon, eta, f"{_parity(r)}-{_parity(ceil_rb)}", r % 2, _rho(r, eta)
    )


def lwy_threshold(p: ThresholdParams) -> float:
    """The Lu-Wu-Yang lower bound on lambda_3 for r-regular even-order graphs
    without an odd [1,b]-factor, in the eta form of its four parity branches."""
    return _lwy(p.r, p.eta)


def prior_1factor_thresholds(r: int) -> tuple:
    """(Brouwer-Haemers, Cioaba-Gregory-Haemers) 1-factor thresholds for degree r."""
    _check_rb(r, 1)  # b = 1 passes for every r >= 3, so this checks r alone
    if r % 2 == 0:
        bh = r - 1 + 3 / (r + 1)
        cgh = (r - 2 + math.sqrt(r**2 + 12)) / 2
    else:
        bh = r - 1 + 3 / (r + 2)
        # r = 3: the largest root of x^3 - x^2 - 6x + 2, in trigonometric form
        cgh = (
            1 / 3 + 2 * math.sqrt(19) / 3 * math.cos(math.acos(19**-1.5) / 3)
            if r == 3
            else (r - 3 + math.sqrt((r + 1) ** 2 + 16)) / 2
        )
    return bh, cgh


def extremal_missing(p: ThresholdParams) -> tuple:
    """The extremal component H as (order, missing, quotient): H is K_order
    without the pairs (u, v), u < v, in the tuple `missing`, and quotient is
    _missing_quotient(p, order, missing), which checks the set first.

    r even: K_{r+1} minus a perfect matching on its last eta vertices, that
    is, a clique of size r+1-eta joined to a matching complement on eta
    vertices. r odd: K_{r+2} minus a cycle on its first eta vertices and a
    perfect matching on the other r+2-eta, that is, a cycle complement
    joined to a matching complement; undefined when eta < 3 since a cycle
    needs at least three vertices.
    """
    r, eta = p.r, p.eta
    order = _check_order(r + 1 + p.parity_offset)
    if r % 2 == 0:
        # K_{r+1} minus a perfect matching on its last eta vertices
        missing = [(i, i + 1) for i in range(r + 1 - eta, r + 1, 2)]
    else:
        if eta < 3:
            raise DegenerateConstructionError(
                f"no extremal construction for odd r={r} with eta={eta} < 3"
            )
        # K_{r+2} minus a cycle on 0..eta-1 and a perfect matching on the rest
        missing = [(i, i + 1) for i in range(eta - 1)] + [(0, eta - 1)]
        missing += [(i, i + 1) for i in range(eta, r + 2, 2)]
    return order, tuple(missing), _missing_quotient(p, order, missing)


def _missing_quotient(p: ThresholdParams, order: int, missing) -> tuple:
    """(equitable, rows, top root, certified) for K_order minus `missing`.

    Raises AssertionError unless the pairs are distinct, 0 <= u < v < order,
    and leave r*order - eta edge ends: eta vertices of degree r-1 and the
    rest of degree r. These at most two degree classes, numbered by their
    smallest vertex, are the paper's blocks. The partition is equitable when
    every vertex misses as many pairs inside its class as the class's
    smallest vertex, whose row is the class's quotient row.

    On a connected graph the top root of an equitable quotient is lambda_1
    (Godsil and Royle, Algebraic Graph Theory, ch. 9). It is certified to be
    rho(r, b), and then equals p.rho, when the partition is equitable and,
    with x = r mod 2, the rows [[a, b], [c, d]] have trace r - 2 - x and
    (a - d)^2 + 4bc = (r + 2 + x)^2 - 4 eta; with one class, when its entry is r.
    """
    r, eta = p.r, p.eta
    if len(set(missing)) != len(missing):
        raise AssertionError(f"extremal missing pairs repeat: {missing}")
    lost = [0] * order
    for u, v in missing:
        if not 0 <= u < v < order:
            raise AssertionError(f"extremal missing pair {(u, v)} is not u < v < {order}")
        lost[u] += 1
        lost[v] += 1
    # the eta vertices of degree r - 1 miss order - r pairs, the rest one fewer;
    # that profile fixes the edge count, since the pairs lost sum to 2|missing|
    if lost.count(order - r) != eta or lost.count(order - 1 - r) != order - eta:
        degs = sorted(order - 1 - k for k in lost)
        raise AssertionError(f"extremal degree profile broken: {degs}")
    inner = [0] * order
    for u, v in missing:
        if lost[u] == lost[v]:
            inner[u] += 1
            inner[v] += 1
    # vertex 0 heads the first class, of size n0, vertex f the other one
    k0 = lost[0]
    n0 = eta if k0 == order - r else order - eta
    # one inner count per class
    equitable = len(set(zip(lost, inner))) == 1 + (n0 < order)
    a = n0 - 1 - inner[0]
    if n0 == order:
        return equitable, [[a]], float(a), equitable and a == r
    f = lost.index(2 * (order - r) - 1 - k0)
    n1 = order - n0
    b, c, d = n1 - k0 + inner[0], n0 - lost[f] + inner[f], n1 - 1 - inner[f]
    q = [[a, b], [c, d]]
    x = p.parity_offset
    disc = (a - d) ** 2 + 4 * b * c
    certified = equitable and a + d == r - 2 - x and disc == (r + 2 + x) ** 2 - 4 * eta
    return equitable, q, (a + d + math.sqrt(disc)) / 2, certified


def build_extremal(p: ThresholdParams) -> Graph:
    """The extremal component H on r+1 (r even) or r+2 (r odd) vertices with
    largest adjacency eigenvalue exactly rho(r, b), built as a Graph from
    the set extremal_missing(p) has checked.
    """
    order, missing, _ = extremal_missing(p)
    return complete_minus(order, set(missing))


SWEEP_CSV_HEADER = "r,b,ceil_rb,epsilon,eta,rho,lwy,cgh,bh,lambda1_H"


class SweepClass(NamedTuple):
    r: int
    eta: int
    rho: float
    lwy: float
    cgh: float
    bh: float
    lambda1_H: float | None  # None when the construction is degenerate
    rows: tuple  # (b, ceil_rb, epsilon) of each b of the class, b increasing


def bound_sweep(r_max: int) -> list:
    """One SweepClass per (r, eta) class with 3 <= r <= r_max, in (r, b)
    order; its rows are the odd b < r with that eta, which are consecutive
    since eta falls as b grows. Each row derives its own ceil(r/b), epsilon
    and eta. The r range is checked once, here: every b is generated odd and
    below r. The 1-factor bounds depend on r alone and are computed once per
    r, and rho and lwy depend on (r, eta) alone and are computed once per
    class, from their closed forms in (r, eta). Each SweepClass is built
    once, when its class closes: at the next eta or at the end of r.

    lambda1_H, the largest eigenvalue of the extremal component, is rho:
    the top root of the component's equitable quotient, whose trace and
    discriminant are rho's for every r (tests/test_thresholds.py proves it).
    It is None where the construction is degenerate (odd r, eta < 3). The
    table holds about r_max**2 / 4 rows, so the cap on r_max guards memory:
    an r_max whose largest component (order r_max + 1 + r_max % 2) exceeds
    ORDER_MAX is refused, although no component is built.
    """
    if r_max < 3:
        raise ValueError(f"r_max must be at least 3, got {r_max}")
    _check_order(r_max + 1 + r_max % 2)
    found = []
    for r in range(3, r_max + 1):
        bh, cgh = prior_1factor_thresholds(r)
        last_eta = None
        for b in range(1, r, 2):
            ceil_rb, epsilon, eta = _eta_terms(r, b)
            if eta != last_eta:
                if last_eta is not None:
                    found.append(SweepClass(r, last_eta, rho, lwy, cgh, bh, lam1, tuple(rows)))
                last_eta, rows = eta, []
                rho, lwy = _rho(r, eta), _lwy(r, eta)
                lam1 = None if r % 2 and eta < 3 else rho
            rows.append((b, ceil_rb, epsilon))
        found.append(SweepClass(r, last_eta, rho, lwy, cgh, bh, lam1, tuple(rows)))
    return found


def sweep_to_csv(classes: list) -> str:
    """The classes, a list, as CSV under SWEEP_CSV_HEADER, one line per row:
    the integer columns as they are, every bound to 9 decimals, and an empty
    lambda1_H cell where the construction is degenerate. Each class's
    bounds and eta are formatted once, into a tail shared by its rows. A
    formatted bound is reused only for the very same float object, which
    bound_sweep hands out once per r (cgh, bh) and once per class (rho as
    lambda1_H): equal floats such as 0.0 and -0.0 still print apart.

    Then one flat pass writes every row. Its r, b, ceil_rb and epsilon
    cells are read from a table of the decimal strings of 0..max r, built
    once per call; bound_sweep puts every row int in 0..r. A row int outside
    the table raises KeyError rather than print a cell other than its str().
    The cells must be ints: a float or bool equal to one prints as that int.
    """
    top = max([c.r for c in classes], default=0)
    dec = dict(enumerate(map(str, range(top + 1))))
    cgh = bh = object()  # the bounds `prior` holds; none before the first class
    blocks = []
    for c in classes:
        if c.cgh is not cgh or c.bh is not bh:
            cgh, bh = c.cgh, c.bh
            prior = f"{cgh:.9f},{bh:.9f}"
        rho = f"{c.rho:.9f}"
        lam1 = "" if c.lambda1_H is None else rho if c.lambda1_H is c.rho else f"{c.lambda1_H:.9f}"
        blocks.append((dec[c.r], f"{c.eta},{rho},{c.lwy:.9f},{prior},{lam1}", c.rows))
    lines = [SWEEP_CSV_HEADER]
    lines += [
        f"{r},{dec[b]},{dec[ceil_rb]},{dec[epsilon]},{tail}"
        for r, tail, rows in blocks for b, ceil_rb, epsilon in rows
    ]
    return "\n".join(lines) + "\n"
