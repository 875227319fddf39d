"""Command-line front end.

Subcommands: construct, spectrum, threshold, check, find-factor, and the
verify family (sharpness, case2, sweep, campaign). Results go to stdout,
diagnostics to stderr. Exit codes: 0 success/holds/found, 3 no factor or
criterion violated, 2 usage or input error, 4 theorem contradiction
(including a rejected factor certificate and the two factor deciders
disagreeing on a graph). main parses argv in two steps: when its leading
words name a command and the rest is spelled canonically (exact option
strings, one value each, at most one positional), a small reader builds the
command's Namespace from the table of its parser's actions; every other
argv goes to argparse, so help, usage errors and unusual spellings are its
own.

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
    """The top-level parser, and each command's parser with its _table,
    keyed by its command words: ("check",), ..., ("verify", "sweep")."""
    commands = {}

    def command(subparsers, words, func, help):
        # the command's parser; the function returned adds one argument to it
        p = subparsers.add_parser(words[-1], help=help)
        p.set_defaults(func=func)
        actions = []
        commands[words] = p, actions
        return lambda *names, **kwargs: actions.append(p.add_argument(*names, **kwargs))

    parser = argparse.ArgumentParser(
        prog="oddfactor",
        description="Spectral thresholds and exact deciders for odd [1,b]-factors in regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    arg = command(sub, ("construct",), _cmd_construct, "emit a standard or extremal graph")
    arg("spec", help="construction spec (K5, C7, E4, M6, H:r=5,b=1)")
    arg("--format", choices=["edges", "dot"], default="edges")
    arg("-o", "--output", default=None)

    arg = command(sub, ("spectrum",), _cmd_spectrum, "adjacency eigenvalues of a graph")
    arg("input", nargs="?", default="-", help="edge-list file, '-', or construction spec")
    arg("--format", choices=["json", "text"], default="json")
    arg("--digits", type=_digits, default=9)
    arg("-o", "--output", default=None)

    arg = command(sub, ("threshold",), _cmd_threshold, "threshold parameters and bound values")
    arg("--r", type=_int, required=True)
    arg("--b", type=_int, required=True)
    arg("--format", choices=["json", "text"], default="text")
    arg("--digits", type=_digits, default=9)

    arg = command(
        sub,
        ("check",),
        _cmd_check,
        "test the odd-component criterion: 'holds' from a verified factor, else a "
        "violation from the subset search up to --max-n vertices, or 'none' above it",
    )
    arg("input", nargs="?", default="-")
    arg("--b", type=_int, required=True)
    arg("--max-n", type=_int, default=DEFAULT_MAX_N)

    arg = command(
        sub, ("find-factor",), _cmd_find_factor, "exact polynomial decider for an odd [1,b]-factor"
    )
    arg("input", nargs="?", default="-")
    arg("--b", type=_int, required=True)
    arg("--max-edges", type=_int, default=DEFAULT_MAX_EDGES)

    p = sub.add_parser("verify", help="run the verification harness")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    arg = command(
        vsub, ("verify", "sharpness"), _cmd_verify_sharpness, "extremal graph attains the threshold"
    )
    arg("--r", type=_int, required=True)
    arg("--b", type=_int, required=True)
    arg("--digits", type=_digits, default=9)

    arg = command(
        vsub,
        ("verify", "case2"),
        _cmd_verify_case2,
        "quotient polynomial nonpositive at the threshold",
    )
    arg("--r", type=_int, required=True)
    arg("--b", type=_int, required=True)
    arg("--digits", type=_digits, default=9)

    arg = command(
        vsub, ("verify", "sweep"), _cmd_verify_sweep, "bound comparison CSV over all (r, b)"
    )
    arg("--r-max", type=_int, default=60)
    arg("-o", "--output", default=None)

    arg = command(
        vsub,
        ("verify", "campaign"),
        _cmd_verify_campaign,
        "randomized trials of the factor implication",
    )
    arg("--trials", type=_int, default=500)
    arg("--master-seed", type=_int, default=0)
    arg("--n-min", type=_int, default=8)
    arg("--n-max", type=_int, default=20)
    arg("--r-min", type=_int, default=3)
    arg("--r-max", type=_int, default=7)
    arg("--b-policy", choices=["random", "unit", "max"], default="random")
    arg("--jobs", type=_int, default=1)

    return parser, {words: (p, _table(p, actions)) for words, (p, actions) in commands.items()}


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


def _table(parser, actions: list) -> tuple:
    """What _read needs of one command, from the documented fields of the
    actions its parser was given: the namespace the parser starts from, its
    options by exact spelling, its one positional or None, and the dests it
    requires."""
    defaults = {a.dest: a.default for a in actions}
    defaults["func"] = parser.get_default("func")
    options = {s: a for a in actions for s in a.option_strings}
    positional = next((a for a in actions if not a.option_strings), None)
    return defaults, options, positional, {a.dest for a in actions if a.required}


def _read(table: tuple, argv: list):
    """The Namespace the command's parser builds from argv, when every word
    is an exact option string followed by a value that does not start with
    '-', or the one positional ('-' included), no option or positional
    comes twice, every required one comes, and every value passes its type
    and choices. Otherwise None: argparse reads the argv."""
    defaults, options, positional, required = table
    values = dict(defaults)
    seen = set()
    words = iter(argv)
    for word in words:
        action = options.get(word)
        if action is not None:
            word = next(words, "-")  # a missing value is refused as '-' is
            if word.startswith("-"):
                return None
        elif positional is None or word.startswith("-") and word != "-":
            return None
        else:
            action = positional
        if action.dest in seen:
            return None
        seen.add(action.dest)
        if action.type is not None:
            try:
                word = action.type(word)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and word not in action.choices:
            return None
        values[action.dest] = word
    return argparse.Namespace(**values) if required <= seen else None


_PARSER, _COMMANDS = _build_parser()


def _parse(argv: list):
    """Parse argv in two steps. _read takes an argv whose leading words name
    a command and whose other words are spelled canonically, and builds the
    Namespace that command's parser would, without running argparse.
    Everything else goes to the top-level parser: help, '--', '--b=1',
    abbreviated or repeated options, option values that start with '-', a
    second positional, a missing required option, a value its type or
    choices refuse, and an argv that names no command. So every spelling
    argparse accepted is still accepted, and every help text, usage error
    and exit code is still argparse's own.
    """
    for k in (1, 2):
        command = _COMMANDS.get(tuple(argv[:k]))
        if command is not None:
            args = _read(command[1], argv[k:])
            if args is not None:
                return args
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
