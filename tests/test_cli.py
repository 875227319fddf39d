import json
import math
import os
import subprocess
import sys

import pytest

from oddfactor import serialize_edge_list, complete_graph, cycle_graph
from oddfactor.cli import main, parse_construction


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


def test_threshold_text(capsys):
    code, out, err = run(capsys, "threshold", "--r", "5", "--b", "1")
    assert code == 0
    assert "rho: 4.605551275" in out


def test_threshold_bad_b(capsys):
    code, out, err = run(capsys, "threshold", "--r", "4", "--b", "2")
    assert code == 2
    assert "error:" in err


def test_construct_extremal_header(capsys):
    code, out, err = run(capsys, "construct", "--r", "5", "--b", "1")
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


def test_decider_contradiction_is_reported(capsys, monkeypatch):
    # a factor decider that wrongly says "no" on C6, where the criterion holds
    monkeypatch.setattr("oddfactor.cli.find_odd_factor", lambda g, b, max_edges: None)
    for command in ("find-factor", "check"):
        code, out, err = run(capsys, command, "C6", "--b", "1")
        assert code == 4
        assert out == ""
        assert "deciders disagree" in err


def test_cli_imports_only_numpy_beyond_stdlib():
    # modules loaded before the import (site hooks) do not count, nor the
    # alias multiprocessing gives __main__
    code = (
        "import json, sys; before = set(sys.modules); import oddfactor.cli; "
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'__mp_main__'})))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == ["numpy", "oddfactor"]


def test_usage_errors(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert code == 2
    code, out, err = run(capsys, "threshold", "--r", "4")
    assert code == 2


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, "threshold", "--r", "7", "--b", "3", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_sharpness(capsys):
    code, out, err = run(capsys, "verify", "sharpness", "--r", "5", "--b", "1")
    assert code == 0
    assert "result: pass" in out
    assert "lambda1: 4.605551275" in out


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


def test_campaign_counterexample_exits_4(capsys, monkeypatch):
    from oddfactor.verify import TheoremViolation

    def boom(**kwargs):
        raise TheoremViolation("forced", graph_text="4 0\n")

    monkeypatch.setattr("oddfactor.cli.randomized_theorem_campaign", boom)
    code, out, err = run(capsys, "verify", "campaign", "--trials", "1")
    assert code == 4
    assert "theorem violated" in err
    assert "4 0" in err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "construct" in out
