"""Command-line front end.

Subcommands: construct, spectrum, threshold, check, find-factor, and the
verify family (sharpness, case2, sweep, campaign). Results go to stdout,
diagnostics to stderr. Exit codes: 0 success/holds/found, 3 no factor or
criterion violated, 2 usage or input error, 4 theorem contradiction
(including a rejected factor certificate and the two factor deciders
disagreeing on a graph). main looks the command words up in a table of the
commands' own parsers; the top-level parser reads only an argv that names
no command or leaves arguments over, so help and usage errors are its own.

Graphs enter as edge-list files ('-' for stdin) or as inline construction
specs: K5, C7, E4, M6 (matching complement), H:r=5,b=1 (extremal graph).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import islice

# spectral loads numpy. The spectrum handler imports spectra from it, and verify's
# campaign does when it runs; every other command starts without numpy, verify
# sharpness too, which reads the integer certificate of thresholds
from .factor import (
    DEFAULT_MAX_N,
    check_amahashi,
    find_odd_factor,
    verify_certificate,
)
from .graphs import (
    Graph,
    _check_order,
    _plain,
    complete_graph,
    cycle_graph,
    empty_graph,
    matching_complement,
    parse_edge_list,
    serialize_edge_list,
    to_dot,
)
from .thresholds import (
    DegenerateConstructionError,
    bound_sweep,
    build_extremal,
    extremal_missing,
    lwy_threshold,
    prior_1factor_thresholds,
    sweep_to_csv,
    threshold_params,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_THEOREM = 4

_CONSTRUCT_RE = re.compile(r"^([KCEM])(\d+)$", re.ASCII)
_H_RE = re.compile(r"^H:r=(\d+),b=(\d+)$", re.ASCII)
_BUILDERS = {"K": complete_graph, "C": cycle_graph, "E": empty_graph, "M": matching_complement}


def parse_construction(text: str) -> Graph:
    """Inline graph mini-spec: K5, C7, E4, M6, or H:r=5,b=1."""
    m = _CONSTRUCT_RE.match(text)
    if m:
        return _BUILDERS[m.group(1)](_check_order(int(m.group(2))))
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


def _int(text: str) -> int:
    """argparse type of every integer flag: an ASCII decimal with an optional
    leading '-', the rule parse_edge_list applies to its numbers."""
    try:
        if not _plain(text):
            raise ValueError
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _digits(text: str) -> int:
    """argparse type of every --digits flag: an int in 0..DIGITS_MAX."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    if value > DIGITS_MAX:
        raise argparse.ArgumentTypeError(f"must be at most {DIGITS_MAX}, got {value}")
    return value


# a size check on find-factor's input; the decider itself is polynomial
DEFAULT_MAX_EDGES = 64
DIGITS_MAX = 17  # 17 significant digits tell any two doubles apart


def _build_parser() -> tuple:
    """The top-level parser, and each command's parser keyed by its command
    words: ("check",), ..., ("verify", "sweep")."""
    commands = {}
    parser = argparse.ArgumentParser(
        prog="oddfactor",
        description="Spectral thresholds and exact deciders for odd [1,b]-factors in regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = commands[("construct",)] = sub.add_parser(
        "construct", help="emit a standard or extremal graph"
    )
    p.add_argument("spec", help="construction spec (K5, C7, E4, M6, H:r=5,b=1)")
    p.add_argument("--format", choices=["edges", "dot"], default="edges")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = commands[("spectrum",)] = sub.add_parser(
        "spectrum", help="adjacency eigenvalues of a graph"
    )
    p.add_argument("input", nargs="?", default="-", help="edge-list file, '-', or construction spec")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--digits", type=_digits, default=9)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = commands[("threshold",)] = sub.add_parser(
        "threshold", help="threshold parameters and bound values"
    )
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--b", type=_int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--digits", type=_digits, default=9)
    p.set_defaults(func=_cmd_threshold)

    p = commands[("check",)] = sub.add_parser(
        "check",
        help="test the odd-component criterion: 'holds' from a verified factor, else a "
        "violation from the subset search up to --max-n vertices, or 'none' above it",
    )
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--b", type=_int, required=True)
    p.add_argument("--max-n", type=_int, default=DEFAULT_MAX_N)
    p.set_defaults(func=_cmd_check)

    p = commands[("find-factor",)] = sub.add_parser(
        "find-factor", help="exact polynomial decider for an odd [1,b]-factor"
    )
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--b", type=_int, required=True)
    p.add_argument("--max-edges", type=_int, default=DEFAULT_MAX_EDGES)
    p.set_defaults(func=_cmd_find_factor)

    p = sub.add_parser("verify", help="run the verification harness")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = commands[("verify", "sharpness")] = vsub.add_parser(
        "sharpness", help="extremal graph attains the threshold"
    )
    v.add_argument("--r", type=_int, required=True)
    v.add_argument("--b", type=_int, required=True)
    v.add_argument("--digits", type=_digits, default=9)
    v.set_defaults(func=_cmd_verify_sharpness)

    v = commands[("verify", "case2")] = vsub.add_parser(
        "case2", help="quotient polynomial nonpositive at the threshold"
    )
    v.add_argument("--r", type=_int, required=True)
    v.add_argument("--b", type=_int, required=True)
    v.add_argument("--digits", type=_digits, default=9)
    v.set_defaults(func=_cmd_verify_case2)

    v = commands[("verify", "sweep")] = vsub.add_parser(
        "sweep", help="bound comparison CSV over all (r, b)"
    )
    v.add_argument("--r-max", type=_int, default=60)
    v.add_argument("-o", "--output", default=None)
    v.set_defaults(func=_cmd_verify_sweep)

    v = commands[("verify", "campaign")] = vsub.add_parser(
        "campaign", help="randomized trials of the factor implication"
    )
    v.add_argument("--trials", type=_int, default=500)
    v.add_argument("--master-seed", type=_int, default=0)
    v.add_argument("--n-min", type=_int, default=8)
    v.add_argument("--n-max", type=_int, default=20)
    v.add_argument("--r-min", type=_int, default=3)
    v.add_argument("--r-max", type=_int, default=7)
    v.add_argument("--b-policy", choices=["random", "unit", "max"], default="random")
    v.add_argument("--jobs", type=_int, default=1)
    v.set_defaults(func=_cmd_verify_campaign)

    return parser, commands


def _cmd_construct(args) -> int:
    g = parse_construction(args.spec)
    text = serialize_edge_list(g) if args.format == "edges" else to_dot(g)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.input)
    if g.n == 0:
        print("spectrum of the empty graph on 0 vertices is undefined", file=sys.stderr)
        return EXIT_USAGE
    # imported only now, so that a refused input never loads numpy
    from .spectral import spectra

    spec = spectra([g])[0]
    if args.format == "json":
        _emit(_json_line({"values": list(spec)}, args.digits), args.output)
    else:
        # rounding first prints a zero eigenvalue's rounding noise as 0, never -0
        lines = [f"{v:.{args.digits}f}" for v in _round_floats(spec, args.digits)]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    p = threshold_params(args.r, args.b)
    lwy = lwy_threshold(p)
    bh, cgh = prior_1factor_thresholds(args.r)
    payload = p._asdict()
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
    # a verified factor means the criterion holds (Amahashi's theorem)
    return _decide(_read_graph(args.input), args.b, args.max_n, lambda cert: {"kind": "holds"})


def _cmd_find_factor(args) -> int:
    g = _read_graph(args.input)
    m = len(g.edges)
    if m > args.max_edges:
        raise ValueError(f"edge count {m} exceeds the search guard {args.max_edges}")
    return _decide(g, args.b, DEFAULT_MAX_N, lambda cert: {"kind": "factor", "edges": cert.edges})


def _decide(g: Graph, b: int, max_n: int, found) -> int:
    """Print found(certificate) for a verified factor; with none, the
    smallest Amahashi witness when g has at most max_n vertices, else
    {"kind": "none"}. A rejected certificate, or neither a factor nor a
    witness, is a contradiction: stderr says so, stdout stays empty."""
    cert = find_odd_factor(g, b)
    if cert is not None:
        checked = verify_certificate(g, b, cert)
        if checked:
            sys.stdout.write(json.dumps(found(cert)) + "\n")
            return EXIT_OK
        print(f"factor certificate rejected: {checked.reason}", file=sys.stderr)
        return EXIT_THEOREM
    if g.n > max_n:
        sys.stdout.write(json.dumps({"kind": "none"}) + "\n")
        return EXIT_NEGATIVE
    violation = check_amahashi(g, b, max_n=max_n)
    if violation is None:
        print(
            "deciders disagree: no odd [1,b]-factor was found, "
            "but no vertex subset violates o(G-S) <= b|S|",
            file=sys.stderr,
        )
        return EXIT_THEOREM
    payload = {"kind": "violation", "S": violation.s, "o": violation.o, "bound": violation.bound}
    sys.stdout.write(json.dumps(payload) + "\n")
    return EXIT_NEGATIVE


def _cmd_verify_sharpness(args) -> int:
    d = args.digits
    p = threshold_params(args.r, args.b)
    try:
        order, missing, (equitable, rows, root, certified) = extremal_missing(p)
    except DegenerateConstructionError as exc:
        print(f"degenerate construction: {exc}", file=sys.stderr)
        print(f"rho: {p.rho:.{d}f}")
        return EXIT_USAGE
    # a certified root is rho to the last bit, and lambda_1 of the connected
    # component, as the top root of an equitable quotient
    print(f"r: {p.r}")
    print(f"b: {p.b}")
    print(f"eta: {p.eta}")
    print(f"rho: {p.rho:.{d}f}")
    print(f"lambda1: {root:.{d}f}")
    print(f"vertices: {order}")
    print(f"edges: {order * (order - 1) // 2 - len(missing)}")
    print(f"equitable: {equitable}")
    print(f"quotient_top: {root:.{d}f}")
    print(f"result: {'pass' if certified else 'FAIL'}")
    if not certified:
        print(f"issue: integer quotient {rows} does not certify rho", file=sys.stderr)
        return EXIT_THEOREM
    return EXIT_OK


def _cmd_verify_case2(args) -> int:
    from .verify import case2_polynomial_check

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
    classes = bound_sweep(args.r_max)
    _emit(sweep_to_csv(classes), args.output)
    # rho < lwy exactly when eta = 0, for every r: proved in
    # tests/test_thresholds.py::test_rho_beats_lwy_for_every_r
    below = [c for c in classes if c.eta == 0]
    count = sum(len(c.rows) for c in below)
    if count:
        first = islice(((c.r, b) for c in below for b, _, _ in c.rows), 8)
        pairs = ", ".join(f"({r},{b})" for r, b in first)
        more = "" if count <= 8 else f" and {count - 8} more"
        print(f"note: rho < lwy on {count} rows (all eta=0): {pairs}{more}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify_campaign(args) -> int:
    from .verify import TheoremViolation, randomized_theorem_campaign

    try:
        summary = randomized_theorem_campaign(
            trials=args.trials,
            n_range=(args.n_min, args.n_max),
            r_range=(args.r_min, args.r_max),
            b_policy=args.b_policy,
            master_seed=args.master_seed,
            jobs=args.jobs,
        )
    except TheoremViolation as exc:
        print(f"theorem violated: {exc}", file=sys.stderr)
        if exc.graph_text:
            print(exc.graph_text, file=sys.stderr)
        return EXIT_THEOREM
    # always empty: the first counterexample raises TheoremViolation
    sys.stdout.write(json.dumps({**summary._asdict(), "counterexamples": []}) + "\n")
    return EXIT_OK


_PARSER, _COMMANDS = _build_parser()


def _parse(argv: list):
    """Parse argv with the parser of the command that its leading words
    name, which skips the top-level parser's own dispatch.

    The top-level parser reads argv only when it names no command or the
    command's parser leaves arguments over, so every help text, usage error
    and exit code stays the one it gives.
    """
    for k in (1, 2):
        parser = _COMMANDS.get(tuple(argv[:k]))
        if parser is not None:
            args, rest = parser.parse_known_args(argv[k:])
            if not rest:
                return args
            break
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
