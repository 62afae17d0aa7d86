"""Command-line interface tests: output format, exit codes, determinism.

The CLI contract is byte-exact: plain ``pieri`` prints only the rendered
polynomial, JSON mode emits the coefficient together with the unspecialized
terms and optional certificate, invalid input exits 1, and internal
consistency failures exit 2.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqpieri
from eqpieri import cli
from eqpieri.cli import main
from eqpieri.schubert import Space, enumerate_symbols, pieri_bound


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pieri_plain_output_is_exactly_the_polynomial(capsys):
    code, out, err = run_cli(
        capsys, "pieri", "--type", "C", "--n", "4", "--m", "3",
        "--lambda", "2,4,8", "--mu", "1,3,5", "--p", "5",
    )
    assert code == 0
    assert out == "4*t1^2\n"
    assert err == ""


def test_pieri_console_script_matches_module_entry():
    # the child imports the same package as this process, installed or not
    src = str(Path(eqpieri.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "eqpieri.cli", "pieri", "--type", "C",
         "--n", "4", "--m", "3", "--lambda", "2,4,8", "--mu", "1,3,5",
         "--p", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4*t1^2\n"


def test_pieri_json_has_coefficient_terms_and_certificate(capsys):
    code, out, _ = run_cli(
        capsys, "pieri", "--type", "C", "--n", "4", "--m", "3",
        "--lambda", "2,4,8", "--mu", "1,3,5", "--p", "5",
        "--json", "--certify",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"coefficient", "terms", "certificate"}
    assert payload["coefficient"]["terms"] == [{"coeff": 4, "exp": [2, 0, 0, 0]}]
    assert [term["I"] for term in payload["terms"]] == [[], [2], [4], [2, 4]]
    for term in payload["terms"]:
        assert term["unspecialized"]["nvars"] == 8
        assert len(term["unspecialized"]["terms"]) == 4
    assert payload["certificate"]["ok"] is True
    assert payload["certificate"]["degree"] == 2


def test_pieri_json_certificate_is_null_without_certify(capsys):
    code, out, _ = run_cli(
        capsys, "pieri", "--type", "A", "--n", "8", "--m", "3",
        "--lambda", "1,4,8", "--mu", "1,3,6", "--p", "5", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"] is None
    assert [term["I"] for term in payload["terms"]] == [None]


def test_pieri_json_certificate_of_a_zero_coefficient_shows_its_expansion(capsys):
    # an ok certificate carries its expansion, the zero polynomial included;
    # only a failed one has none
    code, out, err = run_cli(
        capsys, "pieri", "--type", "C", "--n", "3", "--m", "2",
        "--lambda", "2,6", "--mu", "1,2", "--p", "1", "--json", "--certify",
    )
    assert (code, err) == (0, "")
    assert out == "\n".join([
        "{",
        '  "coefficient": {',
        '    "nvars": 3,',
        '    "terms": []',
        "  },",
        '  "terms": [],',
        '  "certificate": {',
        '    "ok": true,',
        '    "lie_type": "C",',
        '    "n": 3,',
        '    "degree": 0,',
        '    "scale": 1,',
        '    "expansion": {',
        '      "nvars": 3,',
        '      "terms": []',
        "    },",
        '    "failure": null',
        "  }",
        "}",
        "",
    ])


def test_invalid_symbol_exits_one_with_message(capsys):
    code, out, err = run_cli(
        capsys, "pieri", "--type", "C", "--n", "4", "--m", "3",
        "--lambda", "2,4,9", "--mu", "1,3,5", "--p", "5",
    )
    assert code == 1
    assert out == ""
    assert "outside" in err


def test_isotropy_violation_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "pieri", "--type", "C", "--n", "4", "--m", "2",
        "--lambda", "1,8", "--mu", "1,2", "--p", "1",
    )
    assert code == 1
    assert "isotropy" in err


def test_bad_flag_usage_exits_one(capsys):
    space = ["--n", "4", "--m", "2", "--lambda", "1,2"]
    for argv in (["pieri", "--type", "E", *space, "--mu", "1,2", "--p", "1"],
                 ["pieri", "--type", "C", *space, "--mu", "1,2", "--p", "1",
                  "--threads", "2"],
                 ["expand", "--type", "B", *space, "--p", "1", "--chat", "2"],
                 ["verify", "--suite", "small"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv


@pytest.mark.parametrize("text", ["2,,4,8", "2,4,8,", ",2,4,8", "2, ,4,8"])
def test_an_empty_piece_of_a_symbol_is_a_usage_error(capsys, text):
    # the symbol without the empty piece, 2,4,8, is valid: nothing is dropped
    with pytest.raises(SystemExit) as info:
        main(["pieri", "--type", "C", "--n", "4", "--m", "3",
              "--lambda", text, "--mu", "1,3,5", "--p", "5"])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"eqpieri pieri: error: argument --lambda: "
                   f"{text!r} is not a comma-separated symbol\n")


@pytest.mark.parametrize("text", ["", " "])
def test_a_blank_symbol_is_the_empty_symbol_of_m_zero(capsys, text):
    code, out, err = run_cli(
        capsys, "pieri", "--type", "C", "--n", "3", "--m", "0",
        "--lambda", text, "--mu", text, "--p", "0",
    )
    assert (code, out, err) == (0, "1\n", "")


def test_tilde_outside_type_d_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "pieri", "--type", "B", "--n", "3", "--m", "2",
        "--lambda", "3,6", "--mu", "1,6", "--p", "1", "--tilde",
    )
    assert code == 1
    assert "second special class" in err


def test_expand_lists_every_nonzero_coefficient(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--type", "B", "--n", "3", "--m", "2",
        "--lambda", "3,6", "--p", "3",
    )
    assert code == 0
    assert out.splitlines() == [
        "{1,6}: t1^2 + t1*t3",
        "{2,5}: t1*t2 + t2^2",
        "{1,5}: -2*t1 - t2",
        "{2,3}: -t1 - t2",
        "{1,3}: 1",
    ]


def test_expand_tilde_uses_the_second_family(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--type", "D", "--n", "3", "--m", "2",
        "--lambda", "3,5", "--p", "1", "--tilde",
    )
    assert code == 0
    assert out.splitlines() == ["{1,5}: 1", "{2,4}: 1"]
    code, out, _ = run_cli(
        capsys, "expand", "--type", "D", "--n", "3", "--m", "2",
        "--lambda", "3,5", "--p", "1",
    )
    assert code == 0
    assert out.splitlines() == ["{3,5}: -t1 - t3", "{2,4}: 1"]


def test_type_d_expand_at_scale_prints_its_pinned_output(capsys):
    # OG(5,20) at degree 14 runs the orthogonal_restriction branch on the
    # larger even orthogonal spaces that no small case reaches
    code, out, err = run_cli(
        capsys, "expand", "--type", "D", "--n", "10", "--m", "5",
        "--lambda", "1,2,3,7,16", "--p", "14",
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 36
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b6a4cbd74cb83c9ee2ed513336fd74a5a6f1e832d60f5ae2310d878e87389bdd"
    )


def test_restrict_matches_worked_values(capsys):
    code, out, _ = run_cli(
        capsys, "restrict", "--type", "D", "--n", "4", "--m", "4",
        "--lambda", "2,3,4,8", "--p", "1",
    )
    assert code == 0
    assert out == "-t2 - t3\n"
    code, out, _ = run_cli(
        capsys, "restrict", "--type", "A", "--n", "5", "--m", "2",
        "--lambda", "1,2", "--p", "3",
    )
    assert code == 0
    assert out == ("-t1^3 + t1^2*t3 + t1^2*t4 + t1^2*t5"
                   " - t1*t3*t4 - t1*t3*t5 - t1*t4*t5 + t3*t4*t5\n")


def test_oracle_agrees_with_pieri_on_a_drop_case(capsys):
    argv_tail = ["--type", "B", "--n", "3", "--m", "2",
                 "--lambda", "3,6", "--mu", "1,6", "--p", "3"]
    code, from_rule, _ = run_cli(capsys, "pieri", *argv_tail)
    assert code == 0
    code, from_oracle, _ = run_cli(capsys, "oracle", *argv_tail)
    assert code == 0
    assert from_rule == from_oracle == "t1^2 + t1*t3\n"


def test_diagram_describes_the_reduction(capsys):
    code, out, _ = run_cli(
        capsys, "diagram", "--type", "B", "--n", "3", "--m", "2",
        "--lambda", "3,6", "--mu", "1,6", "--p", "3",
    )
    assert code == 0
    assert "branch: halving" in out
    assert "arrow: yes" in out


def test_enumerate_counts_and_order(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--type", "A", "--n", "4", "--m", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "{3,4}"
    assert lines[-1] == "{1,2}"
    code, out, _ = run_cli(
        capsys, "enumerate", "--type", "D", "--n", "3", "--m", "3", "--json",
    )
    payload = json.loads(out)
    assert payload["space"] == "OG(3,6)"
    assert len(payload["symbols"]) == 8
    assert payload["symbols"][0] == [3, 5, 6]


# OG(2,8): n = 4, m = 2, special classes in degrees 0..5, the second one at p = 2
OG28 = ["--type", "D", "--n", "4", "--m", "2", "--lambda", "4,8", "--mu", "3,7"]
OG27 = ["--type", "B", "--n", "3", "--m", "2", "--lambda", "3,6", "--mu", "1,6"]


def command_argv(command, space, *tail):
    """The space flags and symbols ``command`` takes: expand and restrict take no mu."""
    symbols = space if command in ("pieri", "oracle", "diagram") else space[:-2]
    return [*symbols, *tail]


RANGE_CASES = [
    (command, command_argv(command, OG28, "--p", p), 1, "", "special-class range")
    for command in ("pieri", "expand", "oracle", "restrict", "diagram")
    for p in ("6", "-1")
]
TILDE_CASES = [
    (command, command_argv(command, space, "--p", p, "--tilde"), 1, "",
     "second special class")
    for command in ("pieri", "expand", "oracle")
    for space, p in ((OG27, "1"), (OG28, "3"))
]
DEGREE_ZERO_CASES = [
    ("oracle", [*OG28[:-1], "4,8", "--p", "0"], 0, "1\n", ""),
    ("oracle", [*OG28, "--p", "0"], 0, "0\n", ""),
    ("restrict", [*OG28[:-2], "--p", "0"], 0, "1\n", ""),
]


@pytest.mark.parametrize("command, argv, code, out, message",
                         RANGE_CASES + TILDE_CASES + DEGREE_ZERO_CASES)
def test_degree_and_tilde_contract_on_every_command(capsys, command, argv, code, out,
                                                    message):
    got_code, got_out, err = run_cli(capsys, command, *argv)
    assert (got_code, got_out) == (code, out)
    assert message in err if message else err == ""


def test_explicit_chat_and_pivot_flags_change_nothing(capsys):
    base = ["--type", "B", "--n", "3", "--m", "2",
            "--lambda", "2,7", "--mu", "1,3", "--p", "3"]
    code, default_out, _ = run_cli(capsys, "pieri", *base)
    assert code == 0
    for chat in ("2", "4"):
        code, out, _ = run_cli(capsys, "pieri", *base, "--chat", chat)
        assert code == 0
        assert out == default_out
    code, _, err = run_cli(capsys, "pieri", *base, "--chat", "3")
    assert code == 1
    assert "chat" in err


_NO_CHAT = "eqpieri: error: a dropped column only exists in the orthogonal types\n"
_NO_PIVOT = "eqpieri: error: pivot replacement only applies to symplectic spaces\n"


@pytest.mark.parametrize("argv, err", [
    # Gr(2,5): 3,5 -> 1,2 has no arrow, 3,5 -> 2,5 has one
    (["--type", "A", "--n", "5", "--m", "2", "--lambda", "3,5", "--mu", "1,2", "--p", "1",
      "--chat", "2"], _NO_CHAT),
    (["--type", "A", "--n", "5", "--m", "2", "--lambda", "3,5", "--mu", "2,5", "--p", "1",
      "--chat", "2"], _NO_CHAT),
    (["--type", "A", "--n", "5", "--m", "2", "--lambda", "3,5", "--mu", "3,5", "--p", "0",
      "--pivot", "1"], _NO_PIVOT),
    # OG(2,7): 6,7 -> 1,2 has no arrow, 2,7 -> 1,3 has one
    (["--type", "B", "--n", "3", "--m", "2", "--lambda", "6,7", "--mu", "1,2", "--p", "3",
      "--pivot", "1"], _NO_PIVOT),
    (["--type", "B", "--n", "3", "--m", "2", "--lambda", "2,7", "--mu", "1,3", "--p", "3",
      "--pivot", "1"], _NO_PIVOT),
    (["--type", "B", "--n", "3", "--m", "2", "--lambda", "2,7", "--mu", "2,7", "--p", "0",
      "--pivot", "1"], _NO_PIVOT),
    (["--type", "C", "--n", "3", "--m", "2", "--lambda", "3,6", "--mu", "3,6", "--p", "0",
      "--chat", "2"], _NO_CHAT),
    # OG(2,8) with the second special class: 4,8 -> 3,7 has the arrow, 1,2 -> 4,8 has none
    (["--type", "D", "--n", "4", "--m", "2", "--lambda", "4,8", "--mu", "3,7", "--p", "2",
      "--tilde", "--pivot", "1"], _NO_PIVOT),
    (["--type", "D", "--n", "4", "--m", "2", "--lambda", "1,2", "--mu", "4,8", "--p", "2",
      "--tilde", "--pivot", "1"], _NO_PIVOT),
])
def test_pieri_refuses_a_choice_the_type_lacks_for_every_pair(capsys, argv, err):
    assert run_cli(capsys, "pieri", *argv) == (1, "", err)


_OG27 = ["--type", "B", "--n", "3", "--m", "2"]
_SG26 = ["--type", "C", "--n", "3", "--m", "2"]
_OG28 = ["--type", "D", "--n", "4", "--m", "2"]


@pytest.mark.parametrize("argv, err", [
    # one message for every pair, whether it passes the zero gate or not
    # OG(2,7): 6,7 -> 1,2 has no arrow, 2,7 -> 1,3 has one; Q holds only 2..4
    ([*_OG27, "--lambda", "6,7", "--mu", "1,2", "--p", "3", "--chat", "9"],
     "chat = 9 outside [2, 4]"),
    ([*_OG27, "--lambda", "2,7", "--mu", "1,3", "--p", "3", "--chat", "9"],
     "chat = 9 outside [2, 4]"),
    ([*_OG27, "--lambda", "2,7", "--mu", "2,7", "--p", "0", "--chat", "2"],
     "no column is dropped from Q for these inputs"),
    ([*_OG27, "--lambda", "6,7", "--mu", "1,2", "--p", "1", "--chat", "2"],
     "no column is dropped from Q for these inputs"),
    # SG(2,6): columns 1..3 only, at p = 0 and past it
    ([*_SG26, "--lambda", "3,6", "--mu", "3,6", "--p", "0", "--pivot", "7"],
     "pivot column 7 outside [1, 3]"),
    ([*_SG26, "--lambda", "3,6", "--mu", "3,6", "--p", "1", "--pivot", "7"],
     "pivot column 7 outside [1, 3]"),
    ([*_SG26, "--lambda", "3,6", "--mu", "4,5", "--p", "3", "--pivot", "2,2"],
     "pivot columns must be distinct"),
    # OG(2,8) with the second special class, with and without the arrow
    ([*_OG28, "--lambda", "4,8", "--mu", "3,7", "--p", "2", "--tilde", "--chat", "5"],
     "chat = 5 outside [2, 4]"),
    ([*_OG28, "--lambda", "1,2", "--mu", "4,8", "--p", "2", "--tilde", "--chat", "5"],
     "chat = 5 outside [2, 4]"),
    ([*_OG28, "--lambda", "4,8", "--mu", "4,8", "--p", "0", "--chat", "2"],
     "no column is dropped from Q for these inputs"),
])
def test_pieri_refuses_a_choice_no_pair_takes_for_every_pair(capsys, argv, err):
    assert run_cli(capsys, "pieri", *argv) == (1, "", f"eqpieri: error: {err}\n")


def test_pieri_checks_a_choice_against_the_pair_only_past_the_zero_gate(capsys):
    # chat = 3 could be in Q, so the pair decides: 6,7 -> 1,2 has no arrow
    argv = [*_OG27, "--lambda", "6,7", "--mu", "1,2", "--p", "3", "--chat", "3"]
    assert run_cli(capsys, "pieri", *argv) == (0, "0\n", "")
    argv = [*_OG27, "--lambda", "2,7", "--mu", "1,3", "--p", "3", "--chat", "3"]
    assert run_cli(capsys, "pieri", *argv) == (
        1, "", "eqpieri: error: chat = 3 is not in Q = [2, 4]\n")


VERIFY_PASS = """\
Gr(2,5): 105 coefficients checked, 67 nonzero, all against localization
SG(2,6): 220 coefficients checked, 131 nonzero, all against localization
OG(2,7): 220 coefficients checked, 131 nonzero, all against localization
OG(2,8): 805 coefficients checked, 436 nonzero, all against localization
verify: PASS
"""


def test_verify_small_suite_passes(capsys):
    assert run_cli(capsys, "verify") == (0, VERIFY_PASS, "")
    assert call_main(["verify", "--seed", "0"]) == (
        1, "", "eqpieri: error: unrecognized arguments: --seed 0\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, shown output or None) for each eqpieri line of the README's sh blocks.

    A line ``# -> text`` right after a command shows its output.
    """
    text = README.read_text(encoding="utf-8")
    lines = "\n".join(re.findall(r"```sh\n(.*?)```", text, re.S)).splitlines()
    commands = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("eqpieri "):
            shown = after[len("# -> "):] + "\n" if after.startswith("# -> ") else None
            commands.append((shlex.split(line)[1:], shown))
    return commands


def test_every_readme_command_runs(capsys):
    commands = readme_commands()
    assert len(commands) == 9
    assert [shown for _, shown in commands if shown] == ["4*t1^2\n"]
    for argv, shown in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert shown is None or out == shown, (argv, out)


def test_the_readme_python_block_prints_what_it_shows(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    shown = [line.split("#", 1)[1].strip()
             for line in block.splitlines() if line.startswith("print(") and "#" in line]
    assert shown == ["4*t1^2", "sum", "True"]
    exec(block, {})
    printed = iter(capsys.readouterr().out.splitlines())
    # each shown output is a printed line, in the order of the block
    assert all(line in printed for line in shown)


# every space of torus rank <= 4, the maximal OG(n,2n) included
SMALL_SPACES = [
    Space(lie, m, n)
    for lie in "ABCD"
    for n in range(2 if lie == "D" else 1, 5)
    for m in range(0, n + 1)
]


def call_main(argv):
    """main as a process runs it: a usage error exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def coefficient_argv(draw):
    """Mostly valid input; about one draw in six may be out of range."""
    space = draw(st.sampled_from(SMALL_SPACES))
    bound = pieri_bound(space)

    def rare():
        return draw(st.integers(0, 5)) == 5

    valid = st.sampled_from(enumerate_symbols(space))
    anything = st.lists(st.integers(-1, space.ambient + 1), max_size=space.m + 1)
    text = [",".join(str(c) for c in draw(anything if rare() else valid))
            for _ in range(2)]
    p = draw(st.integers(-1, bound + 1) if rare() or bound == 0 else st.integers(1, bound))
    tilde = draw(st.booleans()) if space.lie_type == "D" else rare()
    argv = ["--type", space.lie_type, "--n", str(space.n), "--m", str(space.m),
            "--lambda", text[0], "--mu", text[1], "--p", str(p)]
    return argv + ["--tilde"] if tilde else argv


@settings(max_examples=60, deadline=None, database=None)
@given(coefficient_argv())
def test_oracle_exits_cleanly_and_agrees_with_pieri(argv):
    code, out, err = call_main(["oracle", *argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert call_main(["pieri", *argv])[:2] == (code, out)


def test_oracle_multiplies_by_the_special_class_on_lambdas_component(capsys):
    # sigma_1 = {1,3} of OG(2,4) lies on the other component than {1,2};
    # the coefficient is that of the class {1,2} on lambda's own component
    argv = ["--type", "D", "--n", "2", "--m", "2", "--lambda", "1,2", "--mu", "1,2", "--p", "1"]
    assert run_cli(capsys, "oracle", *argv) == (0, "-t1 - t2\n", "")
    assert run_cli(capsys, "pieri", *argv) == (0, "-t1 - t2\n", "")


@pytest.mark.parametrize("space", [Space("D", 2, 2), Space("D", 3, 3)],
                         ids=lambda space: space.name())
def test_oracle_on_the_maximal_space_prints_what_pieri_prints(capsys, space):
    # every lambda, mu and p, valid or not, with and without --tilde
    symbols = enumerate_symbols(space)
    codes = set()
    for p in range(-1, pieri_bound(space) + 2):
        for lam in symbols:
            for mu in symbols:
                argv = ["--type", "D", "--n", str(space.n), "--m", str(space.m),
                        "--lambda", ",".join(map(str, lam)),
                        "--mu", ",".join(map(str, mu)), "--p", str(p)]
                for tilde in ([], ["--tilde"]):
                    got = run_cli(capsys, "oracle", *argv, *tilde)
                    assert got == run_cli(capsys, "pieri", *argv, *tilde), (lam, mu, p, tilde)
                    codes.add(got[0])
    assert codes == {0, 1}


@pytest.mark.parametrize("space", [Space("D", 2, 4), Space("D", 3, 3)],
                         ids=lambda space: space.name())
def test_oracle_by_the_fundamental_class_prints_what_pieri_prints(capsys, space):
    # the oracle expands the product with the fundamental class like any other
    for lam in enumerate_symbols(space):
        for mu in enumerate_symbols(space):
            argv = ["--type", "D", "--n", str(space.n), "--m", str(space.m),
                    "--lambda", ",".join(map(str, lam)),
                    "--mu", ",".join(map(str, mu)), "--p", "0"]
            for tilde in ([], ["--tilde"]):
                got = run_cli(capsys, "oracle", *argv, *tilde)
                assert got == run_cli(capsys, "pieri", *argv, *tilde), (lam, mu, tilde)


@st.composite
def expand_argv(draw):
    """An expand command line and whether its input is valid; about one draw
    in six puts lambda, p or --tilde outside the contract."""
    space = draw(st.sampled_from(SMALL_SPACES))
    bound = pieri_bound(space)
    symbols = enumerate_symbols(space)

    def rare():
        return draw(st.integers(0, 5)) == 5

    if rare():
        lam = tuple(draw(st.lists(st.integers(-1, space.ambient + 1), max_size=space.m + 1)))
    else:
        lam = draw(st.sampled_from(symbols))
    p = draw(st.integers(-1, bound + 1) if rare() else st.integers(0, bound))
    legal = space.lie_type == "D" and p == space.n - space.m >= 1
    tilde = draw(st.booleans()) if legal else rare()
    valid = lam in symbols and 0 <= p <= bound and (legal or not tilde)
    argv = ["expand", "--type", space.lie_type, "--n", str(space.n), "--m", str(space.m),
            "--lambda", ",".join(map(str, lam)), "--p", str(p)]
    argv += draw(st.lists(st.sampled_from(["--json", "--certify"]), unique=True))
    return argv + ["--tilde"] if tilde else argv, valid


@settings(max_examples=80, deadline=None, database=None)
@given(expand_argv())
def test_expand_exits_cleanly(case):
    argv, valid = case
    code, _, err = call_main(argv)
    assert "Traceback" not in err
    assert code == (0 if valid else 1), (argv, err)


@st.composite
def rule_argv(draw):
    """A pieri, diagram or restrict command line over SMALL_SPACES; about
    one draw in six puts a symbol, p or a flag outside the contract."""
    command = draw(st.sampled_from(["pieri", "diagram", "restrict"]))
    space = draw(st.sampled_from(SMALL_SPACES))
    bound = pieri_bound(space)

    def rare():
        return draw(st.integers(0, 5)) == 5

    valid = st.sampled_from(enumerate_symbols(space))
    anything = st.lists(st.integers(-1, space.ambient + 1), max_size=space.m + 1)
    lam, mu = (",".join(map(str, draw(anything if rare() else valid))) for _ in range(2))
    p = draw(st.integers(-1, bound + 1) if rare() else st.integers(0, bound))
    argv = [command, "--type", space.lie_type, "--n", str(space.n), "--m", str(space.m),
            "--lambda", lam, "--p", str(p)]
    if command != "restrict":
        argv += ["--mu", mu]
    flags = {"pieri": ["--tilde", "--json", "--certify", "--chat", "--pivot"],
             "diagram": ["--chat", "--pivot"],
             "restrict": ["--json"]}
    choices = flags["pieri"] if rare() else flags[command]
    for flag in draw(st.lists(st.sampled_from(choices), unique=True, max_size=2)):
        argv.append(flag)
        if flag == "--chat":
            argv.append(str(draw(st.integers(-1, space.ambient + 1))))
        elif flag == "--pivot":
            argv.append(",".join(map(str, draw(anything))))
    return argv


@settings(max_examples=80, deadline=None, database=None)
@given(rule_argv())
def test_pieri_diagram_and_restrict_exit_cleanly(argv):
    code, _, err = call_main(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err


# -- direct sub-command dispatch against argparse's full top-level parse ----------

_C42 = ["--type", "C", "--n", "4", "--m", "2"]
_PIERI = ["pieri", *_C42, "--lambda", "1,2", "--mu", "1,2"]

# every sub-command valid and invalid, and the argv shapes whose handling
# argparse's top-level pass could change: help, no command, an unknown one,
# "--", "--flag=value", abbreviations, negative numbers, stray positionals
# and unknown options
DISPATCH_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["-x"], ["frobnicate"], ["Pieri", *_C42],
    ["--", *_PIERI, "--p", "1"], ["pieri"], ["pieri", "-h"], ["pieri", "--help"],
    [*_PIERI, "--p", "1"], [*_PIERI, "--p=3", "--json", "--certify"],
    ["pieri", *_C42, "--lam", "1,2", "--mu", "1,2", "--p", "2", "--cert"],
    [*_PIERI, "--p", "-1"], [*_PIERI, "--p", "1", "--tilde"], [*_PIERI, "--p", "1", "--"],
    ["pieri", "--", *_C42], [*_PIERI, "--p", "1", "stray"], ["pieri", "stray", *_C42],
    [*_PIERI, "--p", "1", "--bogus"], [*_PIERI, "--p", "1", "--bogus", "x", "y"],
    [*_PIERI, "--p", "1", "--chat", "-2", "--pivot", "3,4"], [*_PIERI],
    ["expand", *_C42, "--lambda", "2,4", "--p", "2"],
    ["expand", *_C42, "--lambda", "2,4", "--p", "2", "--certify", "--json"],
    ["expand", *_C42, "--p", "2"], ["expand", *_C42, "--lambda", "2,4", "--p", "2", "--mu", "1,2"],
    ["restrict", *_C42, "--lambda", "2,4", "--p", "1"],
    ["restrict", *_C42, "--lambda", "2,4", "--p", "1", "--tilde"],
    ["oracle", *_C42, "--lambda", "2,4", "--mu", "2,4", "--p", "1", "--json"],
    ["oracle", *_C42, "--lambda", "2,4", "--mu", "2,4", "--p", "x"],
    ["verify", "--seed", "-3"], ["verify", "--seed"], ["verify", "--suite", "small"],
    ["diagram", *_C42, "--lambda", "2,4", "--mu", "1,2", "--p", "2"],
    ["diagram", *_C42, "--lambda", "2,4", "--mu", "1,2", "--p", "2", "--pivot", "x"],
    ["enumerate", *_C42], ["enumerate", *_C42, "--json"], ["enumerate", *_C42, "--lambda", "1,2"],
    ["enumerate", "--type", "E", "--n", "4", "--m", "2"], ["enumerate", "-h", "--type", "E"],
]


def test_the_corpus_names_every_sub_command():
    assert {argv[0] for argv in DISPATCH_CORPUS if argv} >= set(cli.build_parser().commands)


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_named_sub_command_runs_as_after_the_full_parse(argv, monkeypatch):
    direct = call_main(list(argv))
    monkeypatch.setattr(cli, "_parse_args", lambda a: cli.build_parser().parse_args(a))
    assert call_main(list(argv)) == direct
