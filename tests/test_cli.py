import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kscheck import cabello18_text, parse_scenario
from kscheck.cli import run

from helpers import int_digit_limit

# A mixture written as its weights and rays.
MIXTURE_STATE = """\
mixed
w 1/2 pure 1 1 0 0
w 1/2 pure 0 0 1 -1
"""

MIXED_STATE = """\
matrix
1/4 0 0 0
0 1/4 0 0
0 0 1/4 0
0 0 0 1/4
"""

SMALL = """\
dim 2
ray a 0 1
ray b 1 0
context a b
"""


@pytest.fixture()
def cabello_file(tmp_path):
    path = tmp_path / "cabello18.ks"
    path.write_text(cabello18_text(), encoding="utf-8")
    return str(path)


@pytest.fixture()
def mixed_state_file(tmp_path):
    path = tmp_path / "mixed.state"
    path.write_text(MIXED_STATE, encoding="utf-8")
    return str(path)


@pytest.fixture()
def mixture_state_file(tmp_path):
    path = tmp_path / "mixture.state"
    path.write_text(MIXTURE_STATE, encoding="utf-8")
    return str(path)


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.ks"
    path.write_text(SMALL, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_valid_file(self, cabello_file, capsys):
        assert run(["check", cabello_file]) == 0
        assert "dim=4 rays=18 contexts=9" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ks"
        bad.write_text("dim 2\nray a 1 0\nray b 1 1\ncontext a b\n", encoding="utf-8")
        assert run(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "orthogonal" in err

    def test_missing_file(self, capsys):
        assert run(["check", "does-not-exist.ks"]) == 2
        assert "error" in capsys.readouterr().err


class TestColor:
    def test_contradiction_exits_one(self, cabello_file, capsys):
        assert run(["color", cabello_file]) == 1
        assert capsys.readouterr().out == "NO VALUATION\n"

    def test_count_zero(self, cabello_file, capsys):
        assert run(["color", cabello_file, "--count"]) == 1
        assert capsys.readouterr().out == "0\n"

    def test_no_merge_finds_a_valuation(self, cabello_file, capsys):
        assert run(["color", cabello_file, "--no-merge"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 36
        values = dict(line.split() for line in out)
        assert set(values.values()) == {"0", "1"}
        assert sum(v == "1" for v in values.values()) == 9

    def test_no_merge_count(self, cabello_file, capsys):
        assert run(["color", cabello_file, "--count", "--no-merge"]) == 0
        assert capsys.readouterr().out == "262144\n"

    def test_small_scenario_prints_assignment(self, small_file, capsys):
        assert run(["color", small_file]) == 0
        assert capsys.readouterr().out == "a 1\nb 0\n"

    def test_count_over_node_budget_exits_two(self, small_file, monkeypatch, capsys):
        import kscheck.ksengine

        monkeypatch.setattr(kscheck.ksengine, "SEARCH_NODE_BUDGET", 1)
        assert run(["color", small_file, "--count"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "after visiting 1 nodes" in captured.err


class TestParity:
    def test_certificate(self, cabello_file, capsys):
        assert run(["parity", cabello_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "PARITY CERTIFICATE"
        assert lines[1] == "context_count 9"
        assert len(lines) == 2 + 18
        assert all(line.endswith(" 2") for line in lines[2:])

    def test_no_certificate(self, small_file, capsys):
        assert run(["parity", small_file]) == 1
        assert capsys.readouterr().out == "NO PARITY CERTIFICATE\n"


class TestGraph:
    def test_dot_output(self, cabello_file, tmp_path, capsys):
        out = tmp_path / "g.dot"
        assert run(["graph", cabello_file, "--dot", str(out)]) == 0
        assert "18 vertices, 63 edges" in capsys.readouterr().out
        text = out.read_text(encoding="utf-8")
        assert text.startswith("graph orthogonality {")
        assert text.rstrip().endswith("}")
        edge_lines = [l for l in text.splitlines() if " -- " in l]
        assert len(edge_lines) == 63
        assert edge_lines == sorted(edge_lines)

    def test_small_graph_golden(self, small_file, tmp_path):
        out = tmp_path / "small.dot"
        assert run(["graph", small_file, "--dot", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            'graph orthogonality {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'
        )


class TestModel:
    def test_cabello_infeasible(self, cabello_file, mixed_state_file, capsys):
        assert run(["model", cabello_file, "--state", mixed_state_file]) == 1
        assert capsys.readouterr().out == "INFEASIBLE\n"

    def test_single_context_feasible(self, tmp_path, capsys):
        scenario = tmp_path / "single.ks"
        scenario.write_text(
            "dim 4\nray a 1 0 0 0\nray b 0 1 0 0\nray c 0 0 1 0\nray d 0 0 0 1\n"
            "context a b c d\n",
            encoding="utf-8",
        )
        state = tmp_path / "m.state"
        state.write_text(MIXED_STATE, encoding="utf-8")
        assert run(["model", str(scenario), "--state", str(state)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FEASIBLE"
        assert sorted(lines[1:]) == [
            "weight 1/4 ones a",
            "weight 1/4 ones b",
            "weight 1/4 ones c",
            "weight 1/4 ones d",
        ]


class TestProb:
    def test_single_context(self, cabello_file, mixed_state_file, capsys):
        assert run(["prob", cabello_file, "--state", mixed_state_file, "--context", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "r0001 1/4\nr0010 1/4\nr1100 1/4\nr1m00 1/4\n"

    def test_all_contexts(self, cabello_file, mixed_state_file, capsys):
        assert run(["prob", cabello_file, "--state", mixed_state_file]) == 0
        out = capsys.readouterr().out
        assert out.count("context ") == 9
        assert out.count("1/4") == 36

    def test_pure_state_file(self, cabello_file, tmp_path, capsys):
        state = tmp_path / "p.state"
        state.write_text("pure 1 1 0 0\n", encoding="utf-8")
        assert run(["prob", cabello_file, "--state", str(state), "--context", "1"]) == 0
        assert capsys.readouterr().out == "r0001 0\nr0010 0\nr1100 1\nr1m00 0\n"

    def test_context_out_of_range(self, cabello_file, mixed_state_file, capsys):
        assert run(["prob", cabello_file, "--state", mixed_state_file, "--context", "10"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_zero_vector_in_mixture_is_one_positioned_error_line(self, cabello_file, tmp_path, capsys):
        state = tmp_path / "zero.state"
        state.write_text("mixed\nw 1 pure 0 0 0 0\n", encoding="utf-8")
        assert run(["prob", cabello_file, "--state", str(state)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2, column 10: zero vector in mixture component\n"


class TestSymm:
    def test_fermion(self, capsys):
        assert run(["symm", "--a", "1,0", "--b", "0,1", "--sign", "-"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "amplitude 0 1 1\namplitude 1 0 -1\nnorm_squared 2\nparity -1\n"
        )

    def test_boson(self, capsys):
        assert run(["symm", "--a", "1 0", "--b", "0 1", "--sign", "+"]) == 0
        out = capsys.readouterr().out
        assert "parity +1" in out and "norm_squared 2" in out

    def test_rational_coordinates(self, capsys):
        assert run(["symm", "--a", "1/2,0", "--b", "0,1/3", "--sign", "+"]) == 0
        out = capsys.readouterr().out
        assert "amplitude 0 1 1/6" in out

    def test_fermion_zero_state_is_an_input_error(self, capsys):
        assert run(["symm", "--a", "1,0", "--b", "2,0", "--sign", "-"]) == 2
        assert "zero state" in capsys.readouterr().err

    def test_non_ascii_digit_is_an_input_error(self, capsys):
        assert run(["symm", "--a=\u0663,0,0", "--b", "0,1,0", "--sign", "+"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "invalid rational" in captured.err


def run_captured(argv):
    """Exit code, stdout and stderr of one run."""
    out, errs = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(errs):
        code = run(argv)
    return code, out.getvalue(), errs.getvalue()


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*\n", err)


# Rationals for --a and --b: ten short ones, and three long enough that an
# amplitude or the squared norm passes the interpreter's 4300-digit limit
# on printing, or, for the longest, the coordinate itself on parsing.
SYMM_RATIONALS = [
    "0", "1", "-1", "2", "-3", "+1", "007", "1/2", "-2/3", "2/4",
    "9" * 1200, "9" * 2200, "9" * 4400,
]
# What parse_rational rejects.
SYMM_GARBAGE = ["1/0", "0/0", "1/-2", "1.5", "1e3", "1_0", "x", "/", "--", "\u0663"]
SYMM_SEPARATORS = [",", " ", ", ", ",,", "\t", "\n", "\u2003", ";", ""]
SYMM_LINE = re.compile(r"amplitude \d+ \d+ -?\d+(/\d+)?")


@st.composite
def symm_arguments(draw):
    """--a and --b: each a well-formed list of ``n`` rationals or a fuzzed
    string, so both exit codes are common."""
    n = draw(st.integers(1, 4))
    rationals = st.sampled_from(SYMM_RATIONALS)
    well_formed = st.lists(rationals, min_size=n, max_size=n).map(", ".join)
    tokens = st.sampled_from(SYMM_RATIONALS + SYMM_GARBAGE)
    piece = st.tuples(tokens, st.sampled_from(SYMM_SEPARATORS))
    fuzzed = st.lists(piece.map("".join), max_size=4).map("".join)
    return draw(well_formed | fuzzed), draw(well_formed | fuzzed)


class TestNoPartialOutput:
    """A run that exits 2 prints nothing on stdout, even when the failure
    comes after the subcommand has printed."""

    def test_crash_after_printing(self, monkeypatch):
        import kscheck.symmetry

        def crash(state):
            raise RuntimeError("parity blew up")

        # symm imports exchange_parity from kscheck.symmetry when it runs.
        monkeypatch.setattr(kscheck.symmetry, "exchange_parity", crash)
        assert_one_error_line(*run_captured(["symm", "--a", "1,0", "--b", "0,1", "--sign", "+"]))

    @pytest.mark.skipif(int_digit_limit() == 0, reason="the interpreter has no integer digit limit")
    def test_unprintable_amplitude(self):
        # 2n digits print, but the amplitude 1 + n**2 does not.
        nines = "9" * (int_digit_limit() * 7 // 12)
        argv = ["symm", "--a", f"1,{nines}", "--b", f"{nines},1", "--sign", "+"]
        assert_one_error_line(*run_captured(argv))

    @pytest.mark.skipif(int_digit_limit() == 0, reason="the interpreter has no integer digit limit")
    def test_unprintable_probability(self, cabello_file, tmp_path):
        # The header "context 1" prints, but no weight over v . v does.
        state = tmp_path / "big.state"
        state.write_text(f"pure 1 {'9' * (int_digit_limit() * 22 // 43)} 0 1\n", encoding="utf-8")
        assert_one_error_line(*run_captured(["prob", cabello_file, "--state", str(state)]))


class TestSymmFuzz:
    @given(symm_arguments(), st.sampled_from(["+", "-"]))
    @settings(max_examples=150, deadline=None)
    def test_exits_zero_with_the_three_kinds_of_line_or_two_with_one_error(self, ab, sign):
        a, b = ab
        # The = form keeps a leading "-" from reading as an option.
        code, out, err = run_captured(["symm", f"--a={a}", f"--b={b}", "--sign", sign])
        if code != 0:
            assert_one_error_line(code, out, err)
            return
        assert err == ""
        lines = out.splitlines()
        assert len(lines) >= 3
        assert all(SYMM_LINE.fullmatch(line) for line in lines[:-2])
        assert re.fullmatch(r"norm_squared \d+(/\d+)?", lines[-2])
        assert re.fullmatch(r"parity (\+1|-1|none)", lines[-1])


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``kscheck.cli.run`` on the arguments given after -c, then prints
# which of the modules a subcommand might load are loaded.
LOADED_AFTER_RUN = """\
import sys
import kscheck.cli
kscheck.cli.run(sys.argv[1:])
watched = (
    "dataclasses", "decimal", "fractions", "kscheck.data", "kscheck.dsl", "kscheck.exactlin",
    "kscheck.ksengine", "kscheck.lattice", "kscheck.model", "kscheck.probability",
    "kscheck.qlogic", "kscheck.rational", "kscheck.scenario", "kscheck.symmetry",
)
print("loaded", *[m for m in watched if m in sys.modules])
"""

# The Fraction code: exactlin, and fractions, which imports decimal.
FRACTION_CODE = ("decimal", "fractions", "kscheck.exactlin")
# The scenario code, which every command but symm loads: the parser and
# the scenario it builds, with no search code.
SCENARIO_CODE = ("kscheck.dsl", "kscheck.qlogic", "kscheck.scenario")


def loaded_line(*modules):
    """The last line LOADED_AFTER_RUN prints when ``modules`` are loaded:
    in ``watched`` order, which is sorted."""
    return " ".join(["loaded", *sorted(modules)])


def run_bare(code, *argv):
    """Run ``code`` in an interpreter without ``site``, so that only
    kscheck's own imports load modules, and return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdStart:
    """A subcommand loads only the modules it uses."""

    def test_color_loads_neither_probability_nor_symmetry(self, cabello_file):
        out = run_bare(LOADED_AFTER_RUN, "color", cabello_file)
        assert out.splitlines() == ["NO VALUATION", loaded_line(*SCENARIO_CODE, "kscheck.ksengine")]

    @pytest.mark.parametrize("command", ["check", "color", "parity", "graph"])
    def test_integer_commands_load_no_fraction_code(self, command, cabello_file, tmp_path):
        """On a file of integer coordinates, none of them loads the
        rational grammar either, and check, which asks nothing of the
        scenario, loads no search code."""
        argv = [command, cabello_file] + (["--dot", str(tmp_path / "g.dot")] if command == "graph" else [])
        out = run_bare(LOADED_AFTER_RUN, *argv)
        engine = () if command == "check" else ("kscheck.ksengine",)
        assert out.splitlines()[-1] == loaded_line(*SCENARIO_CODE, *engine)

    def test_model_loads_probability_and_the_fraction_code(self, cabello_file, mixed_state_file):
        out = run_bare(LOADED_AFTER_RUN, "model", cabello_file, "--state", mixed_state_file)
        assert out.splitlines()[-1] == loaded_line(
            *FRACTION_CODE,
            *SCENARIO_CODE,
            "kscheck.ksengine",
            "kscheck.model",
            "kscheck.probability",
            "kscheck.rational",
        )

    def test_prob_loads_probability(self, cabello_file, mixture_state_file):
        """A mixture and its distributions need Fractions, read by the
        rational grammar, but none of exactlin's matrices, and prob runs
        no search."""
        out = run_bare(LOADED_AFTER_RUN, "prob", cabello_file, "--state", mixture_state_file, "--context", "1")
        assert out.splitlines()[-1] == loaded_line(
            "decimal", "fractions", *SCENARIO_CODE, "kscheck.probability", "kscheck.rational"
        )

    def test_symm_loads_symmetry(self):
        """symm loads symmetry and the Fraction code, and none of the
        scenario code, which it never runs."""
        out = run_bare(LOADED_AFTER_RUN, "symm", "--a=1,0", "--b=0,1", "--sign", "-")
        assert out.splitlines()[-1] == loaded_line(*FRACTION_CODE, "kscheck.rational", "kscheck.symmetry")

    def test_public_names_resolve_on_access(self):
        out = run_bare(
            """\
import sys
import kscheck
print("listed", set(kscheck.__all__) <= set(dir(kscheck)))
print("submodules", sorted(m for m in sys.modules if m.startswith("kscheck.")))
try:
    kscheck.no_such_name
except AttributeError as exc:
    print("missing", exc)
from kscheck import *
print("unbound", [name for name in kscheck.__all__ if name not in globals()])
print("same", all(globals()[name] is getattr(kscheck, name) for name in kscheck.__all__))
print("born", born is sys.modules["kscheck.probability"].born)
print("scenario", KSScenario is sys.modules["kscheck.scenario"].KSScenario)
import kscheck.ksengine
print("engine", kscheck.ksengine.KSScenario is kscheck.KSScenario)
"""
        )
        assert out.splitlines() == [
            "listed True",
            "submodules []",
            "missing module 'kscheck' has no attribute 'no_such_name'",
            "unbound []",
            "same True",
            "born True",
            "scenario True",
            "engine True",
        ]


class TestUsage:
    def test_unknown_flag(self, cabello_file, capsys):
        assert run(["color", cabello_file, "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("check", "color", "parity", "graph", "model", "prob", "symm"):
            assert re.search(rf"^\s+{command}\s", out, re.MULTILINE), command


class TestExitCodeContract:
    def test_every_command_terminates_with_0_1_or_2(self, cabello_file, mixed_state_file, tmp_path):
        invocations = [
            ["check", cabello_file],
            ["color", cabello_file],
            ["color", cabello_file, "--count"],
            ["color", cabello_file, "--no-merge"],
            ["parity", cabello_file],
            ["graph", cabello_file, "--dot", str(tmp_path / "x.dot")],
            ["model", cabello_file, "--state", mixed_state_file],
            ["prob", cabello_file, "--state", mixed_state_file],
            ["symm", "--a", "1,0", "--b", "0,1", "--sign", "+"],
            ["check", "missing.ks"],
            ["bogus"],
            [],
        ]
        for argv in invocations:
            assert run(argv) in (0, 1, 2), argv


class TestUnexpectedFailure:
    def test_crash_exits_two_with_one_error_line(self, small_file, monkeypatch, capsys):
        import kscheck.ksengine

        def crash(s):
            raise RuntimeError("search blew up\nwith a second line")

        # color imports find_valuation from kscheck.ksengine when it runs.
        monkeypatch.setattr(kscheck.ksengine, "find_valuation", crash)
        assert run(["color", small_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "RuntimeError" in captured.err

    def test_long_chain_never_exits_one(self, tmp_path, capsys):
        # A chain of 1500 disjoint dim-2 contexts has 2^1500 valuations.
        # Exit 1 would claim there is none; a search that cannot finish
        # must exit 2 with a single error line instead.
        n = 1500
        lines = ["dim 2"]
        lines += [f"ray a{k} 1 {k}\nray b{k} {k} -1" for k in range(1, n + 1)]
        lines += [f"context a{k} b{k}" for k in range(1, n + 1)]
        path = tmp_path / "chain.ks"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(["color", str(path)])
        captured = capsys.readouterr()
        if code == 0:
            assert len(captured.out.splitlines()) == 2 * n
        else:
            assert code == 2
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


class TestNoDecimalOutput:
    def test_probabilities_are_printed_as_rationals(self, cabello_file, tmp_path, capsys):
        state = tmp_path / "s.state"
        state.write_text(
            "mixed\nw 1/3 pure 1 0 0 0\nw 2/3 pure 1 1 1 1\n", encoding="utf-8"
        )
        assert run(["prob", cabello_file, "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "." not in out.replace("context", "")
        s = parse_scenario(cabello18_text())
        for line in out.splitlines():
            if line and not line.startswith("context"):
                rid, value = line.split()
                Fraction(value)  # parses exactly
