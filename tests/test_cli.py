"""The command-line surface: every documented example, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from prflags.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_polygon_dom_true(capsys):
    code, out = run(capsys, "polygon", "dom", "--h", "2", "--a", "2,0", "--b", "1,1")
    assert code == 0 and out.strip() == "true"


def test_polygon_dom_false(capsys):
    code, out = run(capsys, "polygon", "dom", "--h", "2", "--a", "1,1", "--b", "2,0")
    assert code == 1 and out.strip() == "false"


def test_polygon_eval(capsys):
    code, out = run(capsys, "polygon", "eval", "--h", "2", "--d", "2,1", "--x", "2")
    assert code == 0 and out.strip() == "3/2"


def test_polygon_star(capsys):
    code, out = run(capsys, "polygon", "star", "--h", "2", "--a", "2", "--b", "1")
    assert code == 0
    assert json.loads(out) == {"h": 2, "d": [2, 1]}


def test_polygon_slopes(capsys):
    code, out = run(capsys, "polygon", "slopes", "--h", "2", "--d", "2,1")
    assert code == 0
    data = json.loads(out)
    assert data["slopes"] == {"1/2": 1, "1": 1}
    assert data["breakpoints"] == [[0, "0"], [1, "1/2"], [2, "3/2"]]


def test_polygon_malformed_list(capsys):
    code, _ = run(capsys, "polygon", "eval", "--h", "2", "--d", "2,x", "--x", "1")
    assert code == 2


def test_pr_hdg(capsys):
    code, out = run(capsys, "pr", "hdg", "--e", "3", "--parts", "3,1")
    assert code == 0
    assert json.loads(out) == {"h": 2, "d": [2, 1, 1]}


def test_pr_exists(capsys):
    code, out = run(capsys, "pr", "exists", "--parts", "3", "--mu", "1,1,1")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "pr", "exists", "--parts", "3", "--mu", "1,1,0")
    assert code == 1 and out.strip() == "false"


def test_pr_oracle(capsys):
    code, out = run(capsys, "pr", "oracle", "--parts", "3", "--mu", "1,1,1")
    assert code == 0 and out.strip() == "true"


def test_pr_construct_infeasible(capsys):
    code, out = run(capsys, "pr", "construct", "--parts", "3", "--mu", "3,0,0")
    assert code == 1 and "infeasible" in out and "prefix 1" in out


def test_pr_construct_json(capsys):
    code, out = run(capsys, "pr", "construct", "--parts", "3,1", "--mu", "2,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["e"] == 3 and data["dim"] == 4
    assert len(data["flag"]) == 4


def test_e3_enum(capsys):
    code, out = run(capsys, "e3", "enum", "--h", "2", "--mu", "1,1,1")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all("delta" in json.loads(l) for l in lines)


def test_e3_enum_csv(capsys):
    code, out = run(capsys, "e3", "enum", "--h", "2", "--mu", "1,1,1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta1,delta2,delta3,alpha1,alpha2,beta1,beta2"
    assert len(lines) == 5


def test_e3_enum_polarized(capsys):
    code, out = run(capsys, "e3", "enum", "--polarized", "1")
    assert code == 0
    assert len([l for l in out.splitlines() if l]) == 4


def test_e3_phi_round_trip(capsys):
    code, out = run(
        capsys, "e3", "phi", "--h", "2", "--mu", "1,1,1",
        "--delta", "2,1,0", "--alpha", "2,0", "--beta", "2,0",
    )
    assert code == 0
    assert json.loads(out) == {"delta": [2, 1, 0], "alpha": [2, 0], "beta": [2, 0]}


def test_e3_normal_form_admissible(capsys):
    code, out = run(
        capsys, "e3", "normal-form", "--h", "2", "--mu", "1,1,1",
        "--delta", "2,1,0", "--alpha", "2,0", "--beta", "2,0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3 and len(data["flag"]) == 4


def test_e3_normal_form_inadmissible(capsys):
    code, out = run(
        capsys, "e3", "normal-form", "--h", "2", "--mu", "1,1,1",
        "--delta", "2,1,0", "--alpha", "1,1", "--beta", "1,1",
    )
    assert code == 1 and "not admissible" in out


def test_strat_dot_golden(capsys):
    code, out = run(capsys, "strat", "dot", "--h", "2", "--mu", "1,1,1")
    assert code == 0
    assert out.startswith("digraph strata {")
    assert out.count("->") == 4


def test_strat_closure(capsys):
    code, out = run(
        capsys, "strat", "closure", "--h", "2", "--mu", "1,1,1",
        "--delta", "1,1,1", "--alpha", "1,1", "--beta", "1,1",
    )
    assert code == 0
    assert len([l for l in out.splitlines() if l]) == 4


def test_lift_demo(capsys):
    code, out = run(capsys, "lift", "demo")
    assert code == 0
    data = json.loads(out)
    assert data["to"] == {"delta": [1, 1, 1], "alpha": [1, 1], "beta": [1, 1]}
    assert data["omega"]


def test_lift_verify(capsys):
    code, out = run(capsys, "lift", "verify", "--seed", "3", "--cases", "10")
    assert code == 0 and "failures=0" in out


def test_usage_error_exit_code(capsys):
    assert main(["polygon", "frobnicate", "--h", "2"]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pr", "exists", "--parts", "2,1", "--mu", "2,1", "--p", "4"],
        ["e3", "enum", "--h", "3", "--mu", "1,2,1"],
        ["e3", "enum", "--polarized", "-1"],
    ],
    ids=["non-prime-p", "unsorted-mu", "negative-genus"],
)
def test_malformed_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err


def test_cli_output_is_stable(capsys):
    a = run(capsys, "e3", "enum", "--h", "2", "--mu", "1,1,1")
    b = run(capsys, "e3", "enum", "--h", "2", "--mu", "1,1,1")
    assert a == b


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prflags.cli", "polygon", "dom", "--h", "2",
         "--a", "2,0", "--b", "1,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"
