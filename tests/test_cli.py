import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

from oddfactor.cli import main, parse_construction
from oddfactor.factor import FactorCertificate
from oddfactor.graphs import Graph, complete_graph, cycle_graph, serialize_edge_list
from oddfactor.thresholds import build_extremal, threshold_params
from conftest import oracle_spectrum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_json(capsys):
    code, out, err = run(capsys, "threshold", "--r", "4", "--b", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == pytest.approx(3.645751311, abs=1e-9)
    assert payload["lwy"] == pytest.approx(3.633333333, abs=1e-9)
    assert payload["cgh"] == pytest.approx(3.645751311, abs=1e-9)
    assert payload["bh"] == pytest.approx(3.6, abs=1e-9)
    assert payload["eta"] == 2 and payload["parity_case"] == "even-even"


@pytest.mark.parametrize(
    "r, b, line",
    [
        (
            7,
            3,
            '{"r": 7, "b": 3, "ceil_rb": 3, "epsilon": 2, "eta": 1, "parity_case": "odd-odd", '
            '"parity_offset": 1, "rho": 6.898979486, "lwy": 6.887345679, "cgh": 6.472135955, '
            '"bh": 6.333333333}',
        ),
        (
            4,
            1,
            '{"r": 4, "b": 1, "ceil_rb": 4, "epsilon": 2, "eta": 2, "parity_case": "even-even", '
            '"parity_offset": 0, "rho": 3.645751311, "lwy": 3.633333333, "cgh": 3.645751311, '
            '"bh": 3.6}',
        ),
    ],
)
def test_threshold_json_bytes_are_pinned(capsys, r, b, line):
    # the record's fields in declaration order, then the three other bounds
    code, out, err = run(capsys, "threshold", "--r", str(r), "--b", str(b), "--format", "json")
    assert (code, out, err) == (0, line + "\n", "")


def test_threshold_text(capsys):
    code, out, err = run(capsys, "threshold", "--r", "5", "--b", "1")
    assert code == 0
    assert "rho: 4.605551275" in out
    code, out, err = run(capsys, "threshold", "--r", "4", "--b", "1", "--digits", "3")
    assert code == 0
    assert "rho: 3.646" in out.splitlines()
    code, out, err = run(capsys, "threshold", "--r", "4", "--b", "1", "--digits", "x")
    assert code == 2 and out == ""
    assert "invalid int value: 'x'" in err


def test_threshold_bad_b(capsys):
    code, out, err = run(capsys, "threshold", "--r", "4", "--b", "2")
    assert code == 2
    assert "error:" in err


def test_threshold_refuses_r_above_the_float_cap(capsys):
    # floats hold every integer up to 2**53; above it the CLI answers with a
    # usage error, where sqrt((r + 2 + x)^2 - 4 eta) once overflowed
    cap = 2**53
    for r in (cap + 1, 10**155):
        code, out, err = run(capsys, "threshold", "--r", str(r), "--b", "1")
        assert (code, out) == (2, "")
        assert err == f"error: degree r must be at most 2**53 = {cap}, got {r}\n"
    code, out, err = run(capsys, "threshold", "--r", str(cap), "--b", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[:5] == [
        f"r: {cap}", "b: 1", f"ceil_rb: {cap}", "epsilon: 2", f"eta: {cap - 2}",
    ]


def test_construct_extremal_header(capsys):
    code, out, err = run(capsys, "construct", "H:r=5,b=1")
    assert code == 0
    assert out.startswith("7 16\n")


def test_construct_specs(capsys):
    code, out, err = run(capsys, "construct", "K5")
    assert code == 0
    assert out == serialize_edge_list(complete_graph(5))
    code, out, err = run(capsys, "construct", "C7")
    assert code == 0
    assert out == serialize_edge_list(cycle_graph(7))
    code, out, err = run(capsys, "construct", "H:r=4,b=1")
    assert code == 0
    assert out.startswith("5 9\n")


def test_construct_dot(capsys):
    code, out, err = run(capsys, "construct", "K3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph g {")
    assert "0 -- 1;" in out


def test_construct_usage_errors(capsys):
    code, out, err = run(capsys, "construct")
    assert code == 2
    code, out, err = run(capsys, "construct", "K5", "--r", "4", "--b", "1")
    assert code == 2
    # H is named only by its spec
    code, out, err = run(capsys, "construct", "--r", "5", "--b", "1")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "construct", "Q8")
    assert code == 2


def test_parse_construction_helper():
    assert parse_construction("K4") == complete_graph(4)
    assert parse_construction("M4").n == 4
    with pytest.raises(ValueError):
        parse_construction("H:r=4")


def test_spectrum_from_file(capsys, tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(serialize_edge_list(complete_graph(4)))
    code, out, err = run(capsys, "spectrum", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [3.0, -1.0, -1.0, -1.0]
    assert list(payload) == ["values"]


@pytest.mark.parametrize("spec", ["K4", "C7", "M10", "H:r=8,b=3"])
def test_spectrum_prints_the_reference_values(capsys, spec):
    # at 17 digits the printed values are the reference spectrum, rounded as
    # the command rounds
    code, out, err = run(capsys, "spectrum", spec, "--digits", "17")
    assert code == 0 and err == ""
    expected = [round(v, 17) + 0.0 for v in oracle_spectrum(parse_construction(spec))]
    assert json.loads(out)["values"] == expected


def test_spectrum_from_construction_spec(capsys):
    code, out, err = run(capsys, "spectrum", "C4", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "2.000000000"


def test_spectrum_text_prints_zero_eigenvalues_unsigned(capsys):
    # M6 and H:r=5,b=1 have zero eigenvalues that the solver returns as +-1e-16
    for spec in ("M6", "H:r=5,b=1"):
        code, out, err = run(capsys, "spectrum", spec, "--format", "text")
        assert code == 0
        assert "0.000000000" in out.splitlines()
        assert "-0.000000000" not in out.splitlines()


def test_spectrum_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
    code, out, err = run(capsys, "spectrum")
    assert code == 0
    assert json.loads(out)["values"] == [1.0, -1.0]


def test_spectrum_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("2 1\n0 0\n")
    code, out, err = run(capsys, "spectrum", str(path))
    assert code == 2
    assert "error:" in err
    # int() alone would read this header as "11 1"
    path.write_text("1_1 1\n1_0 \u0663\n", encoding="utf-8")
    code, out, err = run(capsys, "spectrum", str(path))
    assert code == 2 and out == ""
    assert err == "error: header must be two integers, got '1_1 1'\n"
    code, out, err = run(capsys, "spectrum", "E0")
    assert code == 2 and out == ""
    assert "undefined" in err


def test_check_holds_and_violation(capsys, tmp_path):
    code, out, err = run(capsys, "check", "C6", "--b", "1")
    assert code == 0
    assert json.loads(out) == {"kind": "holds"}

    star = tmp_path / "k13.edges"
    star.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, err = run(capsys, "check", str(star), "--b", "1")
    assert code == 3
    payload = json.loads(out)
    assert payload == {"kind": "violation", "S": [0], "o": 3, "bound": 1}


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (
            ("find-factor", "C6", "--b", "1"),
            0,
            '{"kind": "factor", "edges": [[0, 1], [2, 3], [4, 5]]}',
        ),
        (("check", "K1", "--b", "1"), 3, '{"kind": "violation", "S": [], "o": 1, "bound": 0}'),
        (
            ("verify", "campaign", "--trials", "0"),
            0,
            '{"trials": 0, "applicable": 0, "found": 0, "inapplicable": 0, "counterexamples": []}',
        ),
    ],
)
def test_record_payload_bytes_are_pinned(capsys, argv, code, line):
    # the CLI alone turns a factor, a witness and a campaign summary into
    # JSON; this pins their keys, key order and spacing
    assert run(capsys, *argv) == (code, line + "\n", "")


def test_find_factor_exit_codes(capsys, tmp_path):
    code, out, err = run(capsys, "find-factor", "C6", "--b", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "factor"
    assert len(payload["edges"]) == 3

    star = tmp_path / "k13.edges"
    star.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, err = run(capsys, "find-factor", str(star), "--b", "1")
    assert code == 3
    assert json.loads(out)["kind"] == "violation"

    code, out, err = run(capsys, "find-factor", "K6", "--b", "1", "--max-edges", "10")
    assert code == 2
    assert out == ""
    assert "exceeds the search guard" in err

    # n = 28 > DEFAULT_MAX_N, so a missing factor is reported without a witness
    path = hub_three_c9(tmp_path)
    code, out, err = run(capsys, "find-factor", str(path), "--b", "1")
    assert code == 3
    assert out == '{"kind": "none"}\n'
    code, out, err = run(capsys, "find-factor", str(path), "--b", "3")
    assert code == 0 and json.loads(out)["kind"] == "factor"


def hub_three_c9(tmp_path):
    # a hub joined to one vertex of each of three C9: n = 28 > DEFAULT_MAX_N
    edges = [(0, 1 + 9 * k) for k in range(3)]
    edges += [(1 + 9 * k + i, 1 + 9 * k + (i + 1) % 9) for k in range(3) for i in range(9)]
    path = tmp_path / "hub3c9.edges"
    path.write_text(serialize_edge_list(Graph(28, edges)))
    return path


def test_check_answers_above_max_n(capsys, tmp_path):
    # --max-n bounds only the witness search; the polynomial decider answers
    # at every order, and a missing factor above it prints "none"
    code, out, err = run(capsys, "check", "K24", "--b", "1")
    assert code == 0 and json.loads(out) == {"kind": "holds"}
    code, out, err = run(capsys, "check", "C7", "--b", "1", "--max-n", "6")
    assert code == 3 and out == '{"kind": "none"}\n'
    path = hub_three_c9(tmp_path)
    code, out, err = run(capsys, "check", str(path), "--b", "1")
    assert code == 3 and out == '{"kind": "none"}\n'
    code, out, err = run(capsys, "check", str(path), "--b", "3")
    assert code == 0 and json.loads(out) == {"kind": "holds"}
    # an even b is still refused at every order
    code, out, err = run(capsys, "check", "K24", "--b", "2")
    assert code == 2 and out == ""
    assert "b must be a positive odd integer, got 2" in err


def test_check_never_enumerates_above_max_n(capsys, monkeypatch, tmp_path):
    def search(*args, **kwargs):
        raise AssertionError("subset search ran above --max-n")

    monkeypatch.setattr("oddfactor.cli.check_amahashi", search)
    # K_{11,13} on 24 vertices has no factor, so only the search could name a witness
    k11_13 = Graph(24, [(u, v) for u in range(11) for v in range(11, 24)])
    path = tmp_path / "k11_13.edges"
    path.write_text(serialize_edge_list(k11_13))
    code, out, err = run(capsys, "check", str(path), "--b", "1")
    assert code == 3 and out == '{"kind": "none"}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("threshold", "--r", "\u0664", "--b", "1"),
        ("threshold", "--r", "+4", "--b", "1"),
        ("threshold", "--r", "4", "--b", "1", "--digits", "1_0"),
        ("construct", "K\u0665"),
        ("construct", "H:r=\u0665,b=\u0661"),
    ],
)
def test_integers_are_ascii_decimals(capsys, argv):
    # int() also reads '_', '+' and non-ASCII digits; the CLI takes the
    # numbers parse_edge_list takes
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""


def test_integer_flags_keep_argparse_words(capsys):
    code, out, err = run(capsys, "threshold", "--r", "x", "--b", "1")
    assert code == 2 and out == ""
    assert "argument --r: invalid int value: 'x'" in err
    # a negative value still parses and reaches the library's own check
    code, out, err = run(capsys, "threshold", "--r", "-4", "--b", "1")
    assert code == 2 and out == ""
    assert "degree r must be at least 3" in err


def test_decider_contradiction_is_reported(capsys, monkeypatch):
    # a factor decider that wrongly says "no" on C6, where the criterion holds
    monkeypatch.setattr("oddfactor.cli.find_odd_factor", lambda g, b: None)
    for command in ("find-factor", "check"):
        code, out, err = run(capsys, command, "C6", "--b", "1")
        assert code == 4
        assert out == ""
        assert "deciders disagree" in err


def test_find_factor_rejects_bogus_certificate(capsys, monkeypatch):
    # a factor decider whose certificate pairs i with i + n/2, chords the
    # cycle does not have; a rejected certificate is a contradiction at every
    # order, above the subset search's max_n too, and no subset is searched
    def bogus(g, b):
        chords = tuple((i, i + g.n // 2) for i in range(g.n // 2))
        return FactorCertificate(edges=chords, degrees=(1,) * g.n)

    def no_search(*args, **kwargs):
        raise AssertionError("the subset search ran")

    monkeypatch.setattr("oddfactor.cli.find_odd_factor", bogus)
    monkeypatch.setattr("oddfactor.cli.check_amahashi", no_search)
    for spec in ("C6", "C30"):
        for command in ("find-factor", "check"):
            code, out, err = run(capsys, command, spec, "--b", "1")
            assert code == 4, (spec, command)
            assert out == ""
            assert err.startswith("factor certificate rejected: "), err
            assert err.count("\n") == 1


# the argument shapes perfbench/workloads.py sends
_BENCHMARK_ARGV = [
    ("find-factor", "-", "--b", "1", "--max-edges", "6"),
    ("check", "-", "--b", "1", "--max-n", "6"),
    ("verify", "campaign", "--trials", "2", "--master-seed", "7", "--jobs", "1"),
]


def test_benchmark_argument_shapes(capsys, monkeypatch):
    # a dropped or renamed flag fails here rather than in a benchmark run
    import io

    text = serialize_edge_list(cycle_graph(6))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *_BENCHMARK_ARGV[0])
    assert code == 0 and json.loads(out)["kind"] == "factor"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *_BENCHMARK_ARGV[1])
    assert code == 0 and json.loads(out) == {"kind": "holds"}
    code, out, err = run(capsys, *_BENCHMARK_ARGV[2])
    assert code == 0 and json.loads(out)["trials"] == 2


def test_only_eigensolving_commands_load_numpy():
    # modules loaded before the import (site hooks) do not count, nor the
    # alias multiprocessing gives __main__; the last stdout line is the report;
    # each eigensolving command, given as argv, runs last in its own process
    code = """
import json, sys
before = set(sys.modules)
def third_party():
    loaded = {m.split(".")[0] for m in set(sys.modules) - before}
    return sorted(loaded - set(sys.stdlib_module_names) - {"__mp_main__", "oddfactor"})
from oddfactor.cli import main
seen = [third_party()]
for argv in (
    ["threshold", "--r", "5", "--b", "1"],
    ["construct", "H:r=5,b=1"],
    ["check", "C6", "--b", "1"],
    ["find-factor", "C6", "--b", "1"],
    ["verify", "sweep", "--r-max", "6"],
    ["verify", "case2", "--r", "7", "--b", "1"],
    ["verify", "sharpness", "--r", "4", "--b", "1"],
    ["verify", "sharpness", "--r", "11", "--b", "3"],
):
    assert main(argv) == 0, argv
seen.append(third_party())
assert main(sys.argv[1:]) == 0
seen.append(third_party())
print(json.dumps(seen))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for eigensolving in (["spectrum", "K3"], ["verify", "campaign", "--trials", "3"]):
        out = subprocess.run(
            [sys.executable, "-c", code, *eigensolving],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert json.loads(out.splitlines()[-1]) == [[], [], ["numpy"]], eigensolving


def test_only_a_parallel_campaign_loads_multiprocessing():
    # the last stdout line is the report; sweep writes its CSV before it
    code = """
import json, sys
pool = ("multiprocessing", "concurrent")
def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & set(pool))
from oddfactor.cli import main
assert main(["verify", "sweep", "--r-max", "6"]) == 0
assert main(["verify", "campaign", "--trials", "4", "--jobs", "1"]) == 0
seen = [loaded()]
# one block of trials runs serially whatever --jobs says
assert main(["verify", "campaign", "--trials", "4", "--jobs", "2"]) == 0
seen.append(loaded())
assert main(["verify", "campaign", "--trials", "65", "--jobs", "2"]) == 0
seen.append(loaded())
print(json.dumps(seen))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [[], [], ["multiprocessing"]]


def test_no_command_needs_dataclasses():
    # every result record is a typing.NamedTuple, so no command loads dataclasses
    code = """
import sys
sys.modules["dataclasses"] = None
from oddfactor.cli import main
for argv in (
    ["find-factor", "C6", "--b", "1"],
    ["check", "K6", "--b", "1"],
    ["threshold", "--r", "7", "--b", "3"],
    ["verify", "sweep", "--r-max", "10"],
    ["verify", "case2", "--r", "7", "--b", "1"],
    ["verify", "sharpness", "--r", "8", "--b", "3"],
    ["verify", "campaign", "--trials", "70", "--master-seed", "3"],
    ["spectrum", "C5"],
    ["construct", "H:r=8,b=3"],
):
    assert main(argv) == 0, argv
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)


def test_sweep_and_threshold_run_without_verify():
    # the bound table lives in thresholds, beside the closed forms it compares
    code = """
import sys
sys.modules["oddfactor.verify"] = None
from oddfactor.cli import main
for argv in (
    ["verify", "sweep", "--r-max", "10"],
    ["threshold", "--r", "7", "--b", "3"],
    ["verify", "sharpness", "--r", "11", "--b", "3"],
):
    assert main(argv) == 0, argv
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)


def test_refused_spectrum_input_exits_2_without_numpy():
    # the input is read and refused before spectral, and with it numpy, loads
    code = """
import sys
sys.modules["numpy"] = None
from oddfactor.cli import main
sys.exit(main(["spectrum", "-"]))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for text in ("2049 0\n", "0 0\n"):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, input=text, capture_output=True, text=True
        )
        assert out.returncode == 2, (text, out.stderr)
        assert out.stdout == "" and len(out.stderr.splitlines()) == 1, (text, out.stderr)


def test_module_all_lists_exactly_its_public_definitions():
    # the perfbench tracer wraps the functions each module's __all__ names
    for layer in ("graphs", "spectral", "thresholds", "factor", "verify"):
        module = importlib.import_module(f"oddfactor.{layer}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], layer
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert sorted(defined - set(module.__all__)) == [], layer


def test_negative_digits_and_trials_exit_2(capsys):
    for argv in (
        ("threshold", "--r", "5", "--b", "1", "--digits", "-1"),
        ("spectrum", "K3", "--digits", "-2"),
        ("verify", "campaign", "--trials", "-3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "non-negative" in err


def _must_not_run(*args, **kwargs):
    raise AssertionError("an order above ORDER_MAX reached an allocating callee")


# each argv names an order just above graphs.ORDER_MAX = 2048; the patched
# callees would allocate at that order, so a pass shows the refusal comes first
_ABOVE_THE_CAP = [
    *[
        (("construct", f"{kind}2049"), None, ["oddfactor.cli._BUILDERS"], 2049)
        for kind in "KCEM"
    ],
    *[
        ((command, "-", *flags), "2049 0\n", ["oddfactor.graphs.Graph._canonical"], 2049)
        for command, flags in (
            ("spectrum", ()),
            ("find-factor", ("--b", "1")),
            ("check", ("--b", "1")),
        )
    ],
    (
        ("construct", "H:r=2047,b=1"),
        None,
        ["oddfactor.thresholds.complete_minus", "oddfactor.thresholds._missing_quotient"],
        2049,
    ),
    (
        ("verify", "sharpness", "--r", "2047", "--b", "1"),
        None,
        ["oddfactor.thresholds._missing_quotient"],
        2049,
    ),
    (
        ("verify", "sweep", "--r-max", "2047"),
        None,
        ["oddfactor.thresholds.prior_1factor_thresholds", "oddfactor.thresholds._lwy"],
        2049,
    ),
    # case2 allocates nothing of that size; its loop runs about r times
    (("verify", "case2", "--r", "2047", "--b", "1"), None, [], 2049),
    (
        ("verify", "campaign", "--trials", "1", "--n-max", "2050"),
        None,
        ["oddfactor.verify.random_regular"],
        2050,
    ),
]


@pytest.mark.parametrize(
    "argv, stdin, callees, order", _ABOVE_THE_CAP, ids=[" ".join(c[0]) for c in _ABOVE_THE_CAP]
)
def test_orders_above_the_cap_are_refused_first(capsys, monkeypatch, argv, stdin, callees, order):
    import io

    for callee in callees:
        stub = {k: _must_not_run for k in "KCEM"} if callee.endswith("_BUILDERS") else _must_not_run
        monkeypatch.setattr(callee, stub)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: order {order} exceeds the cap ORDER_MAX = 2048\n"


def test_orders_at_the_cap_are_accepted(capsys):
    # E2048 is the one spec at the cap that stays cheap: no edges, no eigensolve
    code, out, err = run(capsys, "construct", "E2048")
    assert (code, out, err) == (0, "2048 0\n", "")


_DIGITS_COMMANDS = [
    ("spectrum", "K3"),
    ("threshold", "--r", "4", "--b", "1"),
    ("verify", "sharpness", "--r", "4", "--b", "1"),
    ("verify", "case2", "--r", "5", "--b", "1"),
]


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS, ids=" ".join)
def test_digits_above_17_are_refused(capsys, argv):
    # the text formats print f"{v:.{d}f}", a string of d characters per value
    code, out, err = run(capsys, *argv, "--digits", "18")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: argument --digits: must be at most 17, got 18")
    code, out, err = run(capsys, *argv, "--digits", "17")
    assert code == 0 and err == "" and out


def test_usage_errors(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert code == 2
    code, out, err = run(capsys, "threshold", "--r", "4")
    assert code == 2
    # check and find-factor print no floats, so they take no --digits
    for command in ("check", "find-factor"):
        code, out, err = run(capsys, command, "C6", "--b", "1", "--digits", "3")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --digits 3" in err


# one valid call of each command, which _read reads whole
_VALID_CALLS = [
    ("construct", "C6"),
    ("spectrum", "C6"),
    ("threshold", "--r", "5", "--b", "1"),
    ("check", "C6", "--b", "1"),
    ("find-factor", "C6", "--b", "1"),
    ("verify", "sharpness", "--r", "5", "--b", "1"),
    ("verify", "case2", "--r", "7", "--b", "1"),
    ("verify", "sweep", "--r-max", "6"),
    ("verify", "campaign", "--trials", "3"),
]

# argv that _read leaves to argparse, one for each kind of word it refuses
_REFUSALS = [
    ("check", "C6", "--b=1"),
    ("find-factor", "C6", "--b", "1", "--max", "6"),
    ("check", "C6", "--b", "-1"),
    ("check", "C6", "--b", "1", "--b", "1"),
    ("verify", "sweep", "-o", "a.csv", "--output", "b.csv"),
    ("verify", "sweep", "-o", "-"),
    ("find-factor", "--b", "1", "-h"),
    ("check", "--b", "1", "--", "C6"),
    ("check", "C6", "C8", "--b", "1"),
    ("spectrum", "C6", "-"),
    ("threshold", "--r", "4"),
    ("construct", "--format", "dot"),
    ("check", "C6", "--b", "x"),
    ("threshold", "--r", "4", "--b", "1", "--digits", "18"),
    ("spectrum", "C6", "--format", "yaml"),
    ("check", "C6", "--b"),
    ("check", "C6", "--b", "1", "--digits", "3"),
    ("verify", "sweep", "--bogus"),
]

_DISPATCH_CORPUS = [
    (),
    ("-h",),
    ("no-such-command", "C6"),
    ("verify",),
    ("verify", "-h"),
    ("check", "-h"),
    ("check", "C6"),
    ("check", "C6", "--b", "x"),
    ("check", "C6", "--b=1"),
    ("check", "C6", "--b", "1", "--digits", "3"),
    ("check", "C6", "C8", "--b", "1"),
    ("check", "--b", "1", "--", "C6"),
    ("verify", "sweep", "--bogus"),
    *_REFUSALS,
    *_VALID_CALLS,
]


def test_command_dispatch_matches_the_top_level_parser(capsys, monkeypatch, tmp_path):
    # an empty command table sends every argv through the top-level parser
    monkeypatch.chdir(tmp_path)
    direct = [run(capsys, *argv) for argv in _DISPATCH_CORPUS]
    monkeypatch.setattr("oddfactor.cli._COMMANDS", {})
    assert [run(capsys, *argv) for argv in _DISPATCH_CORPUS] == direct
    assert [code for code, _, _ in direct[:13]] == [2, 0, 2, 2, 0, 0, 2, 2, 0, 2, 2, 0, 2]
    codes = [code for code, _, _ in direct[13 : 13 + len(_REFUSALS)]]
    assert codes == [0, 0, 2, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]


def test_valid_calls_skip_the_top_level_parser(capsys, monkeypatch):
    def top_level(*args, **kwargs):
        raise AssertionError("a valid call reached the top-level parser")

    monkeypatch.setattr("oddfactor.cli._PARSER.parse_args", top_level)
    for argv in _VALID_CALLS:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, argv


def test_canonical_calls_run_no_argparse_parser(capsys, monkeypatch):
    # every parse_args call goes through parse_known_args, so this stops a
    # canonical argv that silently falls back to argparse
    import argparse
    import io

    def no_parse(*args, **kwargs):
        raise AssertionError("a canonical argv reached argparse")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", no_parse)
    for argv in [*_VALID_CALLS, *_BENCHMARK_ARGV]:
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_edge_list(cycle_graph(6))))
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, argv


def _command_of(argv):
    """The command words argv starts with and the rest, as cli._parse splits them."""
    from oddfactor.cli import _COMMANDS

    for k in (1, 2):
        if tuple(argv[:k]) in _COMMANDS:
            return _COMMANDS[tuple(argv[:k])], list(argv[k:])
    raise AssertionError(f"{argv} names no command")


@pytest.mark.parametrize("argv", _REFUSALS, ids=" ".join)
def test_reader_refuses_unusual_spellings(argv):
    from oddfactor.cli import _read

    (_, table), rest = _command_of(argv)
    assert _read(table, rest) is None


def test_reader_matches_each_command_parser():
    # the oracle: whatever Namespace _read builds, the command's own parser
    # builds too, reading every word; on each Python version CI runs
    import random

    from oddfactor.cli import _COMMANDS, _read

    pool = [
        "1", "3", "7", "0", "6", "17", "18", "C6", "K4", "text", "json", "edges", "dot",
        "random", "max", "-", "", "--b=1", "--max", "-h", "--", "-1", "+3", "1_0", "\u0663",
    ]
    for words, (parser, table) in _COMMANDS.items():
        rng = random.Random(f"reader/{' '.join(words)}")
        flags = sorted(table[1])

        def value(action):
            if rng.random() < 0.3:
                return rng.choice(pool)
            return rng.choice(action.choices or (["1", "3", "17"] if action.type else ["C6", "-"]))

        accepted = 0
        for _ in range(3000):
            # some of the command's flags, each with a value, then up to two
            # more words anywhere: a positional, a flag again, or a stray word
            argv = []
            for flag in rng.sample(flags, rng.randrange(len(flags) + 1)):
                argv += [flag, value(table[1][flag])]
            for _ in range(rng.randrange(3)):
                argv.insert(rng.randrange(len(argv) + 1), rng.choice(pool + flags))
            args = _read(table, argv)
            if args is not None:
                accepted += 1
                assert parser.parse_known_args(argv) == (args, []), (words, argv)
        assert 100 < accepted < 3000, (words, accepted)


def test_determinism(capsys, monkeypatch):
    # the parsers and each command's table are built once per process, at
    # import, so main builds neither, and interleaved calls must not leak
    # state into each other
    monkeypatch.setattr("oddfactor.cli._build_parser", None)
    monkeypatch.setattr("oddfactor.cli._table", None)
    commands = [
        ("threshold", "--r", "7", "--b", "3", "--format", "json"),
        ("construct", "H:r=5,b=1"),
        ("spectrum", "M6", "--format", "text"),
        ("check", "C7", "--b", "1"),
        ("find-factor", "H:r=4,b=1", "--b", "1"),
        ("check", "K4", "--b", "3", "--max-n", "4"),
        ("find-factor", "C6", "--b", "1"),
    ]
    rounds = []
    for _ in range(2):
        rounds.append([run(capsys, *argv)[:2] for argv in commands])
    assert rounds[0] == rounds[1]
    assert [code for code, _ in rounds[0]] == [0, 0, 0, 3, 3, 0, 0]


def test_verify_sharpness(capsys):
    code, out, err = run(capsys, "verify", "sharpness", "--r", "5", "--b", "1")
    assert code == 0
    assert "result: pass" in out
    assert "lambda1: 4.605551275" in out
    # eta = 0: the extremal graph is K5 and its quotient has a single block
    code, out, err = run(capsys, "verify", "sharpness", "--r", "4", "--b", "3")
    assert code == 0
    assert "quotient_top: 4.000000000" in out
    assert "result: pass" in out


def test_verify_sharpness_prints_the_eigensolved_graph(capsys):
    # lambda1 and quotient_top print the certified root; at the default 9
    # digits that is the dense eigensolve of the built graph, on every pair
    pairs = 0
    for r in range(3, 61):
        for b in range(1, r, 2):
            p = threshold_params(r, b)
            if r % 2 == 1 and p.eta < 3:
                continue
            g = build_extremal(p)
            lam1 = f"{oracle_spectrum(g)[0]:.9f}"
            code, out, err = run(capsys, "verify", "sharpness", "--r", str(r), "--b", str(b))
            assert (code, err) == (0, ""), (r, b)
            assert out.splitlines() == [
                f"r: {r}",
                f"b: {b}",
                f"eta: {p.eta}",
                f"rho: {p.rho:.9f}",
                f"lambda1: {lam1}",
                f"vertices: {g.n}",
                f"edges: {len(g.edges)}",
                "equitable: True",
                f"quotient_top: {lam1}",
                "result: pass",
            ], (r, b)
            pairs += 1
    assert pairs == 609


def test_verify_sharpness_degenerate(capsys):
    code, out, err = run(capsys, "verify", "sharpness", "--r", "9", "--b", "3")
    assert code == 2
    assert "degenerate" in err
    assert out.startswith("rho: ")


def test_verify_case2(capsys):
    code, out, err = run(capsys, "verify", "case2", "--r", "5", "--b", "1")
    assert code == 0
    assert "result: pass" in out


def test_verify_sweep(capsys):
    code, out, err = run(capsys, "verify", "sweep", "--r-max", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,b,ceil_rb,epsilon,eta,rho,lwy,cgh,bh,lambda1_H"
    assert len(lines) == 1 + sum(len(range(1, r, 2)) for r in range(3, 9))
    assert "rho < lwy" in err  # the eta=0 rows are reported on stderr


def test_verify_sweep_note_names_up_to_eight_rows(capsys):
    # --r-max 10 and 11 have exactly eight eta=0 rows: all named, no "and 0 more"
    eight = (
        "note: rho < lwy on 8 rows (all eta=0): "
        "(4,3), (6,3), (6,5), (8,5), (8,7), (10,5), (10,7), (10,9)\n"
    )
    eleven = (
        "note: rho < lwy on 11 rows (all eta=0): "
        "(4,3), (6,3), (6,5), (8,5), (8,7), (10,5), (10,7), (10,9) and 3 more\n"
    )
    for r_max, note in (("10", eight), ("11", eight), ("12", eleven)):
        code, out, err = run(capsys, "verify", "sweep", "--r-max", r_max)
        assert (code, err) == (0, note), r_max


def test_verify_sweep_stdout_is_pinned(capsys):
    # the digest of the 9999-row table as the cell-by-cell formatter wrote it
    code, out, err = run(capsys, "verify", "sweep", "--r-max", "200")
    assert code == 0 and out.count("\n") == 1 + 9999
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "503caeba32f8c71b4d52fe4533aeec1ea8ca58225582f668e429bba9880622eb"
    assert err == (
        "note: rho < lwy on 2549 rows (all eta=0): "
        "(4,3), (6,3), (6,5), (8,5), (8,7), (10,5), (10,7), (10,9) and 2541 more\n"
    )


def test_verify_sweep_to_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "verify", "sweep", "--r-max", "5", "-o", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("r,b,ceil_rb")


def test_verify_campaign(capsys):
    code, out, err = run(
        capsys, "verify", "campaign", "--trials", "20", "--master-seed", "9"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 20
    assert payload["applicable"] + payload["inapplicable"] == 20
    assert payload["found"] == payload["applicable"]
    assert payload["counterexamples"] == []


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--r-min", "7", "--r-max", "3"), "r range is empty"),
        (("--n-min", "20", "--n-max", "8"), "no even n in [20, 8]"),
        (("--jobs", "0"), "jobs must be at least 1"),
        (("--jobs", "-2"), "jobs must be at least 1"),
    ],
)
@pytest.mark.parametrize("trials", ["3", "0"])
def test_verify_campaign_rejects_bad_arguments(capsys, trials, extra, message):
    code, out, err = run(capsys, "verify", "campaign", "--trials", trials, *extra)
    assert code == 2
    assert out == ""
    assert message in err
    assert "randrange" not in err


def test_campaign_counterexample_exits_4(capsys, monkeypatch):
    from oddfactor.verify import TheoremViolation

    def boom(**kwargs):
        raise TheoremViolation("forced", graph_text="4 0\n")

    monkeypatch.setattr("oddfactor.verify.randomized_theorem_campaign", boom)
    code, out, err = run(capsys, "verify", "campaign", "--trials", "1")
    assert code == 4
    assert "theorem violated" in err
    assert "4 0" in err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "construct" in out
