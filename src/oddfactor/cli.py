"""Command-line front end.

Subcommands: construct, spectrum, threshold, check, find-factor, and the
verify family (sharpness, case2, sweep, campaign). Results go to stdout,
diagnostics to stderr. Exit codes: 0 success/holds/found, 3 no factor or
criterion violated, 2 usage or input error, 4 theorem contradiction
(including the two factor deciders disagreeing on a graph).

Graphs enter as edge-list files ('-' for stdin) or as inline construction
specs: K5, C7, E4, M6 (matching complement), H:r=5,b=1 (extremal graph).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .factor import (
    DEFAULT_MAX_EDGES,
    DEFAULT_MAX_N,
    check_amahashi,
    find_odd_factor,
    subset_guard,
    verify_certificate,
)
from .graphs import (
    Graph,
    GraphError,
    parse_edge_list,
    serialize_edge_list,
    to_dot,
)
from .spectral import adjacency_matrix, eigenvalues_sym
from .thresholds import (
    DegenerateConstructionError,
    build_extremal,
    lwy_threshold,
    prior_1factor_thresholds,
    threshold_params,
)
from .verify import (
    TheoremViolation,
    bound_sweep,
    case2_polynomial_check,
    randomized_theorem_campaign,
    sharpness_check,
    sweep_to_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_THEOREM = 4

_CONSTRUCT_RE = re.compile(r"^([KCEM])(\d+)$")
_H_RE = re.compile(r"^H:r=(\d+),b=(\d+)$")


def parse_construction(text: str) -> Graph:
    """Inline graph mini-spec: K5, C7, E4, M6, or H:r=5,b=1."""
    from .graphs import standard_graph

    m = _CONSTRUCT_RE.match(text)
    if m:
        kind = {
            "K": "complete",
            "C": "cycle",
            "E": "empty",
            "M": "matching_complement_part",
        }[m.group(1)]
        return standard_graph(kind, int(m.group(2)))
    m = _H_RE.match(text)
    if m:
        return build_extremal(threshold_params(int(m.group(1)), int(m.group(2))))
    raise ValueError(f"unrecognized construction spec {text!r}")


def _read_graph(source: str) -> Graph:
    """'-' reads stdin; an existing path is parsed as an edge list; anything
    else is tried as a construction spec."""
    if source == "-":
        return parse_edge_list(sys.stdin.read())
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    return parse_construction(source)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _round_floats(obj, digits: int):
    if isinstance(obj, float):
        return round(obj, digits) + 0.0  # normalize -0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _json_line(payload: dict, digits: int) -> str:
    return json.dumps(_round_floats(payload, digits)) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddfactor",
        description="Spectral thresholds and exact deciders for odd [1,b]-factors in regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a standard or extremal graph")
    p.add_argument("spec", nargs="?", help="construction spec (K5, C7, E4, M6, H:r=5,b=1)")
    p.add_argument("--r", type=int, help="degree for the extremal graph")
    p.add_argument("--b", type=int, help="odd bound for the extremal graph")
    p.add_argument("--format", choices=["edges", "dot"], default="edges")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("spectrum", help="adjacency eigenvalues of a graph")
    p.add_argument("input", nargs="?", default="-", help="edge-list file, '-', or construction spec")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--digits", type=int, default=9)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("threshold", help="threshold parameters and bound values")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--digits", type=int, default=9)

    p = sub.add_parser(
        "check",
        help="test the odd-component criterion: 'holds' from a verified factor, "
        "a violation from the enumeration of all vertex subsets",
    )
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--digits", type=int, default=9)

    p = sub.add_parser("find-factor", help="exact polynomial decider for an odd [1,b]-factor")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    p.add_argument("--digits", type=int, default=9)

    p = sub.add_parser("verify", help="run the verification harness")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = vsub.add_parser("sharpness", help="extremal graph attains the threshold")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--b", type=int, required=True)
    v.add_argument("--digits", type=int, default=9)

    v = vsub.add_parser("case2", help="quotient polynomial nonpositive at the threshold")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--b", type=int, required=True)
    v.add_argument("--digits", type=int, default=9)

    v = vsub.add_parser("sweep", help="bound comparison CSV over all (r, b)")
    v.add_argument("--r-max", type=int, default=60)
    v.add_argument("-o", "--output", default=None)

    v = vsub.add_parser("campaign", help="randomized trials of the factor implication")
    v.add_argument("--trials", type=int, default=500)
    v.add_argument("--master-seed", type=int, default=0)
    v.add_argument("--n-min", type=int, default=8)
    v.add_argument("--n-max", type=int, default=20)
    v.add_argument("--r-min", type=int, default=3)
    v.add_argument("--r-max", type=int, default=7)
    v.add_argument("--b-policy", choices=["random", "unit", "max"], default="random")
    v.add_argument("--jobs", type=int, default=1)

    return parser


def _cmd_construct(args) -> int:
    if args.spec is not None and (args.r is not None or args.b is not None):
        print("construct takes either a spec or --r/--b, not both", file=sys.stderr)
        return EXIT_USAGE
    if args.spec is not None:
        g = parse_construction(args.spec)
    elif args.r is not None and args.b is not None:
        g = build_extremal(threshold_params(args.r, args.b))
    else:
        print("construct needs a spec or both --r and --b", file=sys.stderr)
        return EXIT_USAGE
    text = serialize_edge_list(g) if args.format == "edges" else to_dot(g)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.input)
    if g.n == 0:
        print("spectrum of the empty graph on 0 vertices is undefined", file=sys.stderr)
        return EXIT_USAGE
    spec = eigenvalues_sym(adjacency_matrix(g))
    if args.format == "json":
        _emit(_json_line({"values": list(spec.values)}, args.digits), args.output)
    else:
        # rounding first prints a zero eigenvalue's rounding noise as 0, never -0
        lines = [f"{v:.{args.digits}f}" for v in _round_floats(spec.values, args.digits)]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    p = threshold_params(args.r, args.b)
    lwy = lwy_threshold(args.r, args.b)
    bh, cgh = prior_1factor_thresholds(args.r)
    payload = p.to_json_dict()
    payload.update({"lwy": lwy, "cgh": cgh, "bh": bh})
    if args.format == "json":
        sys.stdout.write(_json_line(payload, args.digits))
    else:
        d = args.digits
        for key in ("r", "b", "ceil_rb", "epsilon", "eta", "parity_case", "parity_offset"):
            print(f"{key}: {payload[key]}")
        for key in ("rho", "lwy", "cgh", "bh"):
            print(f"{key}: {payload[key]:.{d}f}")
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _read_graph(args.input)
    subset_guard(g, args.b, args.max_n)
    cert = find_odd_factor(g, args.b, max_edges=len(g.edges))
    if cert is not None:
        checked = verify_certificate(g, args.b, cert)
        if checked:
            # a verified factor means the criterion holds (Amahashi's theorem)
            sys.stdout.write(_json_line({"kind": "holds"}, args.digits))
            return EXIT_OK
        print(f"factor certificate rejected: {checked.reason}", file=sys.stderr)
    return _write_violation(g, args.b, args.max_n, args.digits)


def _cmd_find_factor(args) -> int:
    g = _read_graph(args.input)
    cert = find_odd_factor(g, args.b, max_edges=args.max_edges)
    if cert is not None:
        sys.stdout.write(_json_line(cert.to_json_dict(), args.digits))
        return EXIT_OK
    # no factor: surface the subset witness when the graph is small enough
    if g.n <= DEFAULT_MAX_N:
        return _write_violation(g, args.b, DEFAULT_MAX_N, args.digits)
    sys.stdout.write(_json_line({"kind": "none"}, args.digits))
    return EXIT_NEGATIVE


def _write_violation(g: Graph, b: int, max_n: int, digits: int) -> int:
    """No factor was found: print the smallest Amahashi witness, or report
    on stderr, with no answer on stdout, that the subset enumeration finds
    none and the two deciders contradict each other."""
    violation = check_amahashi(g, b, max_n=max_n)
    if violation is None:
        print(
            "deciders disagree: no odd [1,b]-factor was found, "
            "but no vertex subset violates o(G-S) <= b|S|",
            file=sys.stderr,
        )
        return EXIT_THEOREM
    sys.stdout.write(_json_line(violation.to_json_dict(), digits))
    return EXIT_NEGATIVE


def _cmd_verify_sharpness(args) -> int:
    d = args.digits
    try:
        report = sharpness_check(args.r, args.b)
    except DegenerateConstructionError as exc:
        p = threshold_params(args.r, args.b)
        print(f"degenerate construction: {exc}", file=sys.stderr)
        print(f"rho: {p.rho:.{d}f}")
        return EXIT_USAGE
    print(f"r: {report.r}")
    print(f"b: {report.b}")
    print(f"eta: {report.eta}")
    print(f"rho: {report.rho:.{d}f}")
    print(f"lambda1: {report.lambda1:.{d}f}")
    print(f"vertices: {report.n_vertices}")
    print(f"edges: {report.edge_count}")
    print(f"equitable: {report.equitable}")
    print(f"quotient_top: {report.quotient_top:.{d}f}")
    print(f"result: {'pass' if report.passed else 'FAIL'}")
    if not report.passed:
        for issue in report.issues:
            print(f"issue: {issue}", file=sys.stderr)
        return EXIT_THEOREM
    return EXIT_OK


def _cmd_verify_case2(args) -> int:
    d = args.digits
    report = case2_polynomial_check(args.r, args.b)
    print(f"r: {report.r}")
    print(f"b: {report.b}")
    print(f"eta: {report.eta}")
    print(f"t range: 0..{report.t_max}")
    print(f"max q(rho): {report.max_q_at_rho:.{d}f}")
    print(f"max form gap: {report.max_form_gap:.{d}e}")
    print(f"result: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_THEOREM


def _cmd_verify_sweep(args) -> int:
    rows = bound_sweep(args.r_max)
    _emit(sweep_to_csv(rows), args.output)
    bad_sharp = [row for row in rows if row.sharpness_ok is False]
    below = [row for row in rows if not row.rho_ge_lwy]
    ties = [row for row in rows if row.lwy_tie]
    if below:
        pairs = ", ".join(f"({row.r},{row.b})" for row in below[:8])
        more = "" if len(below) <= 8 else f" and {len(below) - 8} more"
        print(
            f"note: rho < lwy on {len(below)} rows (all eta=0): {pairs}{more}",
            file=sys.stderr,
        )
    if ties:
        print(f"note: rho == lwy within 1e-9 on {len(ties)} rows", file=sys.stderr)
    if bad_sharp:
        for row in bad_sharp:
            print(
                f"sharpness violated at (r={row.r}, b={row.b}): "
                f"lambda1={row.lambda1_H!r}, rho={row.rho!r}",
                file=sys.stderr,
            )
        return EXIT_THEOREM
    return EXIT_OK


def _cmd_verify_campaign(args) -> int:
    summary = randomized_theorem_campaign(
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        r_range=(args.r_min, args.r_max),
        b_policy=args.b_policy,
        master_seed=args.master_seed,
        jobs=args.jobs,
    )
    sys.stdout.write(json.dumps(summary.to_json_dict()) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "threshold":
            return _cmd_threshold(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "find-factor":
            return _cmd_find_factor(args)
        if args.command == "verify":
            if args.verify_command == "sharpness":
                return _cmd_verify_sharpness(args)
            if args.verify_command == "case2":
                return _cmd_verify_case2(args)
            if args.verify_command == "sweep":
                return _cmd_verify_sweep(args)
            if args.verify_command == "campaign":
                return _cmd_verify_campaign(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except TheoremViolation as exc:
        print(f"theorem violated: {exc}", file=sys.stderr)
        if exc.graph_text:
            print(exc.graph_text, file=sys.stderr)
        return EXIT_THEOREM
    except (GraphError, DegenerateConstructionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
