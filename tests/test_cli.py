"""The command-line surface: every documented example, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from prflags.cli import main
from prflags.e3 import enum_Yadm, enum_Ypol
from prflags.verify import _sorted_mus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _readme_command_lines():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("prflags ")]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line(capsys, line):
    # each line of README's command-line block exits 0 and prints what its
    # comment shows, when the comment is "prints: ..." or a JSON value
    command, _, comment = line.partition("#")
    code, out = run(capsys, *command.split()[1:])
    assert code == 0
    comment = comment.strip()
    if comment.startswith("prints:"):
        assert out.strip() == comment[len("prints:"):].strip()
        return
    try:
        want = json.loads(comment)
    except ValueError:
        return
    assert json.loads(out) == want


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


def test_every_stratification_strat_can_ask_for_is_non_empty():
    # strat dot / closure build their poset from these sets with no empty case
    for h in range(6):
        for mu in _sorted_mus(h):
            assert enum_Yadm(h, mu), (h, mu)
    assert [len(enum_Ypol(g)) for g in range(4)] == [1, 4, 10, 20]


def test_strat_closure(capsys):
    code, out = run(
        capsys, "strat", "closure", "--h", "2", "--mu", "1,1,1",
        "--delta", "1,1,1", "--alpha", "1,1", "--beta", "1,1",
    )
    assert code == 0
    assert len([l for l in out.splitlines() if l]) == 4


def test_strat_closure_polarized(capsys):
    # --polarized g stands for h = 2g and mu = (g, g, g), as it does for strat dot
    point = ("--delta", "1,1,1", "--alpha", "1,1", "--beta", "1,1")
    code, out = run(capsys, "strat", "closure", "--polarized", "1", *point)
    assert code == 0
    assert (code, out) == run(capsys, "strat", "closure", "--h", "2", "--mu", "1,1,1", *point)
    assert len([l for l in out.splitlines() if l]) == 4


@pytest.mark.parametrize("action", ["phi", "normal-form"])
def test_e3_point_commands_refuse_polarized(capsys, action):
    argv = ["e3", action, "--polarized", "1", "--h", "2", "--mu", "1,1,1",
            "--delta", "2,1,0", "--alpha", "2,0", "--beta", "2,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --polarized applies to e3 enum only" in captured.err


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


_MU_LENGTH_ARGV = [
    ["e3", "enum", "--h", "2", "--mu", "1,1"],
    ["e3", "enum", "--h", "2", "--mu", "1,1,1,1"],
    ["strat", "dot", "--h", "2", "--mu", "1,1"],
    ["strat", "dot", "--h", "2", "--mu", "1,1,1,1"],
]
_MU_LENGTH_IDS = ["enum-mu-2-entries", "enum-mu-4-entries", "dot-mu-2-entries", "dot-mu-4-entries"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pr", "exists", "--parts", "2,1", "--mu", "2,1", "--p", "4"],
        ["e3", "enum", "--h", "3", "--mu", "1,2,1"],
        ["e3", "enum", "--polarized", "-1"],
        ["e3", "phi", "--h", "2", "--mu", "1,1,1",
         "--delta", "9,1,0", "--alpha", "2,0", "--beta", "2,0"],
        ["e3", "normal-form", "--h", "2", "--mu", "1,1,1",
         "--delta", "2,1", "--alpha", "2,0", "--beta", "2,0"],
        ["pr", "exists", "--parts", "2,1", "--mu", "2,1", "--p", "131"],
        ["e3", "normal-form", "--h", "2", "--mu", "2,1,1",
         "--delta", "2,1,1", "--alpha", "2,1", "--beta", "1,1", "--p", "257"],
        ["lift", "verify", "--cases", "-1"],
        ["lift", "verify", "--p", "5", "--cases", "4"],
        ["verify", "all", "--max-dim", "-1"],
        ["polygon", "dom", "--h", "-1", "--a", "1", "--b", "1"],
        ["polygon", "slopes", "--h", "2", "--d", "3,1"],
        ["polygon", "eval", "--h", "2", "--d", "2,1", "--x", "5"],
        ["polygon", "eval", "--h", "2", "--d", "1", "--x", "abc"],
        ["polygon", "eval", "--h", "2", "--d", "1", "--x", "1/0"],
        ["pr", "exists", "--parts", "3", "--mu", "1,1"],
        ["pr", "construct", "--parts", "3", "--mu", "1,1"],
        ["pr", "oracle", "--parts", "3", "--mu", "1,1"],
        ["pr", "exists", "--parts", "3", "--mu", "2,-1,2"],
        ["pr", "hdg", "--parts", "3", "--h", "-2"],
        ["pr", "exists", "--parts", "3,3", "--h", "1", "--mu", "1,1,1"],
        *_MU_LENGTH_ARGV,
    ],
    ids=["non-prime-p", "unsorted-mu", "negative-genus", "delta-out-of-range",
         "delta-wrong-length", "prime-above-127", "prime-257", "negative-cases", "lift-verify-p",
         "negative-max-dim", "negative-h", "d-entry-above-h", "x-outside-polygon",
         "x-not-rational", "x-zero-denominator",
         "exists-mu-wrong-length", "construct-mu-wrong-length", "oracle-mu-wrong-length",
         "negative-mu-entry", "pr-negative-h", "h-below-parts", *_MU_LENGTH_IDS],
)
def test_malformed_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", _MU_LENGTH_ARGV, ids=_MU_LENGTH_IDS)
def test_mu_of_wrong_length_names_mu(capsys, argv):
    assert main(argv) == 2
    n = len(argv[argv.index("--mu") + 1].split(","))
    assert "usage error: mu must have 3 entries, got %d" % n in capsys.readouterr().err


def test_negative_genus_names_its_flag(capsys):
    assert main(["e3", "enum", "--polarized", "-1"]) == 2
    assert "usage error: --polarized: expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["polygon", "dom", "--h", "2", "--a", "2,0"],
        ["polygon", "eval", "--h", "2", "--d", "2,1"],
        ["pr", "exists", "--parts", "3"],
        ["e3", "enum", "--mu", "1,1,1"],
        ["strat", "dot", "--mu", "1,1,1"],
        ["pr", "hdg", "--parts", "-1"],
        ["pr", "hdg", "--parts", "0", "--e", "0"],
        ["pr", "exists", "--parts", "-1", "--mu", "1,1,1"],
    ],
    ids=["dom-without-b", "eval-without-x", "exists-without-mu", "enum-without-h",
         "dot-without-h", "negative-part", "zero-e", "exists-negative-part"],
)
def test_missing_flag_or_bad_parts_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cap, code, line", [("x", 2, "usage error:"), ("-1", 2, "usage error:"),
                                             ("0", 1, "error: enumeration")])
def test_enum_cap_errors_exit_cleanly(capsys, monkeypatch, cap, code, line):
    monkeypatch.setenv("PRFLAGS_ENUM_CAP", cap)
    assert main(["pr", "oracle", "--parts", "3", "--mu", "1,1,1"]) == code
    err = capsys.readouterr().err
    assert err.startswith(line)
    assert "Traceback" not in err


def test_closure_of_inadmissible_point_is_a_domain_error(capsys):
    # (2,1,0)|(1,1)|(1,1) lies in Y but is not admissible, so not in the poset
    argv = ["strat", "closure", "--h", "2", "--mu", "1,1,1",
            "--delta", "2,1,0", "--alpha", "1,1", "--beta", "1,1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: point not in poset" in err
    assert "Traceback" not in err


_int_lists = st.lists(st.integers(-1, 4), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)


@st.composite
def _point_argv(draw):
    command = draw(st.sampled_from([["e3", "phi"], ["e3", "normal-form"], ["strat", "closure"]]))
    argv = command + ["--h", str(draw(st.integers(0, 3)))]
    for flag in ("--mu", "--delta", "--alpha", "--beta"):
        argv += [flag, draw(_int_lists)]
    if command[0] == "e3":
        argv += ["--p", str(draw(st.sampled_from([2, 3, 5])))]
    return argv


@settings(max_examples=60, deadline=None)
@given(_point_argv())
def test_point_commands_never_raise(argv):
    assert main(argv) in (0, 1, 2)


_small_lists = st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs))
)


@st.composite
def _pr_argv(draw):
    action = draw(st.sampled_from(["hdg", "exists", "construct", "oracle"]))
    return ["pr", action, "--parts", draw(_small_lists), "--mu", draw(_small_lists),
            "--p", str(draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 127, 131, 257])))]


@settings(max_examples=60, deadline=None)
@given(_pr_argv())
def test_pr_commands_never_raise(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@st.composite
def _other_argv(draw):
    """argv for every command outside pr and the point commands."""
    command = draw(st.sampled_from(
        ["polygon", "e3 enum", "strat dot", "strat closure", "lift"]))
    if command == "polygon":
        argv = ["polygon", draw(st.sampled_from(["dom", "star", "eval", "slopes"])),
                "--h", str(draw(st.integers(-1, 3)))]
        for flag in ("--a", "--b", "--d"):
            argv += [flag, draw(_small_lists)]
        return argv + ["--x", draw(st.sampled_from(["0", "1/2", "3", "-1", "x", "1/0"]))]
    if command == "lift":
        argv = ["lift", draw(st.sampled_from(["demo", "verify"])),
                "--seed", str(draw(st.integers(0, 3))),
                "--cases", str(draw(st.integers(-1, 2)))]
        if draw(st.booleans()):  # lift verify refuses it
            argv += ["--p", str(draw(st.sampled_from([2, 3, 5])))]
        return argv
    argv = command.split()
    if draw(st.booleans()):
        argv += ["--polarized", str(draw(st.integers(-1, 1)))]
    else:
        argv += ["--h", str(draw(st.integers(-1, 2))), "--mu", draw(_small_lists)]
    if command == "strat closure":
        for flag in ("--delta", "--alpha", "--beta"):
            argv += [flag, draw(_small_lists)]
    if command == "e3 enum":
        argv += ["--format", draw(st.sampled_from(["json", "csv"])),
                 "--p", str(draw(st.sampled_from([2, 3, 5])))]
    else:
        argv += ["--format", draw(st.sampled_from(["dot", "json"]))]
    return argv


@settings(max_examples=60, deadline=None)
@given(_other_argv())
def test_other_commands_never_raise(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


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
