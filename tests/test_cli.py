import dataclasses
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time

import pytest

from finmetric.cli import _VERBS, _config, build_parser, main
from finmetric.spaces import Config, FiniteMetricSpace, space_to_text

# the subprocesses import finmetric from src/, installed or not
SRC_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spaces(tmp_path):
    paths = {}

    def write(name, space):
        p = tmp_path / f"{name}.txt"
        p.write_text(space_to_text(space))
        paths[name] = str(p)
        return str(p)

    write("pair", FiniteMetricSpace.equilateral(2, 1))
    write("triangle", FiniteMetricSpace.equilateral(3, 1))
    write("e5", FiniteMetricSpace.equilateral(5, 1))
    write("e6", FiniteMetricSpace.equilateral(6, 1))
    write("comb", FiniteMetricSpace([[0, 2, 2], [2, 0, 1], [2, 1, 0]]))
    write(
        "grid",
        FiniteMetricSpace([[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 1], [3, 3, 1, 0]]),
    )
    return paths, tmp_path


class TestVerdictExitCodes:
    def test_check4v_failure_prints_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check4v", "1", "2", "4")
        assert code == 1
        assert "bad quadruple (1,1,2,4)" in out

    def test_check4v_success(self, capsys):
        code, out, _ = run_cli(capsys, "check4v", "1")
        assert code == 0

    def test_usage_error_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "check4v", "not-a-number")
        assert code == 2

    def test_unknown_verb_is_2(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2


class TestBadquads:
    def test_125_table(self, capsys):
        code, out, _ = run_cli(capsys, "badquads", "1", "2", "5")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].startswith("[3,2]  (2,5,1,1)")
        assert len(lines) == 6

    def test_singleton_empty(self, capsys):
        code, out, _ = run_cli(capsys, "badquads", "1")
        assert code == 0
        assert "no bad quadruples" in out


class TestSimilar:
    def test_separator_survives_argparse(self, capsys):
        code, out, _ = run_cli(capsys, "similar", "1", "2", "--", "2", "3")
        assert code == 0 and "true" in out
        code, out, _ = run_cli(capsys, "similar", "1", "2", "--", "1", "3")
        assert code == 1 and "false" in out

    def test_missing_separator_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "similar", "1", "2", "3")
        assert code == 2

    def test_subprocess_separator(self):
        proc = subprocess.run(
            [sys.executable, "-m", "finmetric.cli", "similar", "1", "2", "--", "2", "3"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0


class TestEndOfOptions:
    # only similar reads "--" as its own separator; every other verb leaves
    # it to argparse as the POSIX end of options
    def test_urysohn_values_after_the_separator(self, capsys):
        code, out, err = run_cli(capsys, "urysohn", "--cap", "3", "--", "1", "2")
        assert (code, err) == (0, "")
        assert (code, out) == run_cli(capsys, "urysohn", "1", "2", "--cap", "3")[:2]

    @pytest.mark.parametrize("argv", [("check4v", "--", "1", "2"), ("check4v", "1", "--", "2")])
    def test_check4v_around_the_separator(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "check4v", "1", "2")[1]


class TestJsonMirrorsText:
    def test_check4v_payload(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "check4v", "1", "2", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"holds": True, "set": ["1", "2", "5"]}

    def test_badquads_payload_round_trip(self, capsys):
        _, text_out, _ = run_cli(capsys, "badquads", "1", "3", "6")
        code, json_out, _ = run_cli(capsys, "--json", "badquads", "1", "3", "6")
        payload = json.loads(json_out)
        assert len(payload["rows"]) == len(
            [l for l in text_out.splitlines() if l.strip()]
        )
        for row, line in zip(payload["rows"], text_out.splitlines()):
            assert "(" + ",".join(row["quadruple"]) + ")" in line

    def test_degree_payload(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(capsys, "--json", "degree", "--space", paths["triangle"])
        assert code == 0
        assert json.loads(out) == {"LO": 6, "iso": 6, "degree": 1}

    def test_degree_metric_orderings_given_no_values(self, capsys, spaces):
        # no values: the space's own distance set, not the general degree
        paths, _ = spaces
        code, out, _ = run_cli(capsys, "--json", "degree", "--space", paths["comb"],
                               "--metric-orderings")
        assert code == 0
        assert json.loads(out) == json.loads(run_cli(
            capsys, "--json", "degree", "--space", paths["comb"], "--metric-orderings", "1", "2",
        )[1])
        assert "mLO" in json.loads(out)

    @pytest.mark.parametrize("argv, text, payload", [
        ("degree --space {x}", "LO: 6  iso: 2  degree: 3", '{"LO": 6, "degree": 3, "iso": 2}'),
        ("degree --space {x} --metric-orderings", "mLO: 6  iso: 2  degree: 3",
         '{"degree": 3, "iso": 2, "mLO": 6}'),
        ("ultra degree --space {x}", "cLO: 4  iso: 2  degree: 2",
         '{"cLO": 4, "degree": 2, "iso": 2}'),
    ])
    def test_degree_outputs_pinned_on_the_comb(self, capsys, spaces, argv, text, payload):
        paths, _ = spaces
        argv = [tok.format(x=paths["comb"]) for tok in argv.split()]
        assert run_cli(capsys, *argv) == (0, text + "\n", "")
        assert run_cli(capsys, "--json", *argv) == (0, payload + "\n", "")

    def test_criticals(self, capsys):
        assert run_cli(capsys, "criticals", "1", "2", "3", "7") == (0, "critical: 3 7\n", "")
        assert run_cli(capsys, "--json", "criticals", "1", "2", "3", "7") == (
            0, '{"critical": ["3", "7"]}\n', "")


class TestSpaces:
    def test_iso_and_copies(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(capsys, "iso", "--space", paths["triangle"])
        assert code == 0 and out.startswith("order: 6")
        code, out, _ = run_cli(
            capsys, "copies", "--y", paths["triangle"], "--x", paths["pair"]
        )
        assert code == 0 and out.startswith("count: 3")

    def test_validate_and_complete(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("points: 3\n0 1 ?\n1 0 1\n? 1 0\n")
        code, out, _ = run_cli(capsys, "validate", "--graph", str(graph), "--mode", "l-metric", "--l", "3")
        assert code == 0
        code, out, _ = run_cli(
            capsys, "complete", "--graph", str(graph), "--mode", "sum-cap", "--cap", "10"
        )
        assert code == 0
        assert "points: 3" in out and "2" in out

    def test_katetov_and_extend(self, capsys, spaces):
        paths, _ = spaces
        code, _, _ = run_cli(
            capsys, "katetov", "--space", paths["pair"], "--values", "1,1"
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "extend", "--space", paths["pair"], "--values", "1,1"
        )
        assert code == 0 and out.startswith("points: 3")

    def test_negative_values_name_their_first_point(self, capsys, spaces):
        # a negative map has no witness pair; the payload keeps its null witness
        tri = spaces[0]["triangle"]
        got = run_cli(capsys, "katetov", "--space", tri, "--values", "1,-1,1")
        assert got == (1, "not katetov, negative value at point 1\n", "")
        got = run_cli(capsys, "--json", "katetov", "--space", tri, "--values", "1,-1,1")
        assert got == (1, '{"katetov": false, "witness": null}\n', "")
        got = run_cli(capsys, "extend", "--space", tri, "--values=-1,1,1")
        assert got == (2, "", "error: not a Katetov map, negative value at point 0\n")

    def test_amalgamate(self, capsys, spaces, tmp_path):
        tri = tmp_path / "t.txt"
        tri.write_text("points: 3\n0 1 2\n1 0 3\n2 3 0\n")
        code, out, _ = run_cli(
            capsys, "amalgamate", "1", "2", "3",
            "--y0", str(tri), "--y1", str(tri), "--x0", "0,1", "--x1", "0,1",
        )
        assert code == 0 and out.startswith("points: 4")

    def test_amalgamate_with_nothing_shared(self, capsys, tmp_path):
        # no --x0/--x1: the disjoint amalgam, cross distances the least value of S
        tri = tmp_path / "t.txt"
        tri.write_text("points: 3\n0 1 2\n1 0 3\n2 3 0\n")
        code, out, _ = run_cli(
            capsys, "--json", "amalgamate", "1", "2", "3", "--y0", str(tri), "--y1", str(tri),
        )
        assert code == 0
        rows = json.loads(out)["space"]["rows"]
        assert len(rows) == 6 and rows[0][3] == "1"


class TestUltraAndArrow:
    def test_ultra_degree(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(capsys, "ultra", "degree", "--space", paths["comb"])
        assert code == 0 and "degree: 2" in out

    def test_ultra_bigdegree(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(
            capsys, "ultra", "bigdegree", "--space", paths["pair"], "--s", "1", "2"
        )
        assert code == 0 and "big degree: 2" in out

    def test_ultra_fichet(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(capsys, "ultra", "fichet", "--space", paths["grid"], "-p", "2")
        assert code == 0 and "dimension" in out

    def test_ultra_tree_header(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(capsys, "ultra", "tree", "--space", paths["grid"])
        assert code == 0
        assert out.startswith("levels: 3 1")

    def test_arrow_r33(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(
            capsys, "arrow", "--z", paths["e6"], "--y", paths["triangle"],
            "--x", paths["pair"], "-k", "2",
        )
        assert code == 0 and "arrow holds" in out
        code, out, _ = run_cli(
            capsys, "arrow", "--z", paths["e5"], "--y", paths["triangle"],
            "--x", paths["pair"], "-k", "2",
        )
        assert code == 1 and "witness coloring" in out

    @pytest.mark.parametrize("z, y, code, text, payload", [
        ("e5", "triangle", 1, "arrow fails, witness coloring 0011101100\n",
         '{"colorings": 237, "copies": 10, "holds": false, "witness": [0, 0, 1, 1, 1, 0, 1, 1, 0, 0]}\n'),
        ("e6", "triangle", 0, "arrow holds (16384 colorings over 15 copies)\n",
         '{"colorings": 16384, "copies": 15, "holds": true, "witness": null}\n'),
        # no copy of y in z: nothing to make good, so the arrow fails with no witness
        ("triangle", "e5", 1, "arrow fails, z has no copy of y\n",
         '{"colorings": 0, "copies": 3, "holds": false, "witness": null}\n'),
    ], ids=["k5-fails", "k6-holds", "no-copy-of-y"])
    def test_arrow_bytes(self, capsys, spaces, z, y, code, text, payload):
        paths, _ = spaces
        argv = ["arrow", "--z", paths[z], "--y", paths[y], "--x", paths["pair"]]
        assert run_cli(capsys, *argv) == (code, text, "")
        assert run_cli(capsys, "--json", *argv) == (code, payload, "")


class TestColorAndCodings:
    def test_color_lambda(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(
            capsys, "color", "lambda", "--space", paths["pair"],
            "--point", "0", "--eps", "1/2",
        )
        assert code == 0 and "lambda: 0" in out

    def test_color_indiv(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(
            capsys, "color", "indiv", "--space", paths["e6"],
            "--target", paths["triangle"], "-k", "2",
        )
        assert code == 0

    def test_color_indiv_on_empty_space(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("points: 0\n")
        code, out, _ = run_cli(
            capsys, "--json", "color", "indiv", "--space", str(empty), "--target", str(empty),
        )
        assert code == 0
        assert json.loads(out)["outcomes"] == [
            {"coloring": [], "found": True, "copyIndices": [], "color": 0}
        ]

    def test_color_greedy(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(
            capsys, "color", "greedy", "--space", paths["e6"],
            "--target", paths["pair"], "--coloring", "0,0,1,1,0,1",
        )
        assert code == 0

    def test_milliken_build(self, capsys):
        code, out, _ = run_cli(capsys, "milliken", "build", "134", "--depth", "2")
        assert code == 0 and "metric: true" in out

    def test_milliken_build_inverted(self, capsys):
        code, out, _ = run_cli(
            capsys, "milliken", "build", "134", "--depth", "2", "--inverted"
        )
        assert code == 1 and "metric: false" in out

    def test_milliken_embed(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(
            capsys, "milliken", "embed", "134", "--depth", "3", "--target", paths["pair"]
        )
        assert code == 0 and "verified: true" in out

    def test_milliken_embed_empty_target(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("points: 0\n")
        code, out, _ = run_cli(
            capsys, "--json", "milliken", "embed", "134", "--depth", "2", "--target", str(empty)
        )
        assert code == 0
        assert json.loads(out) == {"found": True, "points": [], "verified": True}

    def test_hedgehog_verify(self, capsys, tmp_path):
        prefix = tmp_path / "p.txt"
        prefix.write_text("points: 3\n0 1/2 1\n1/2 0 3/4\n1 3/4 0\n")
        code, out, _ = run_cli(capsys, "hedgehog", "verify", "-m", "2", "--prefix", str(prefix))
        assert code == 0 and "labels preserved: true" in out

    def test_urysohn_small(self, capsys):
        code, out, _ = run_cli(capsys, "urysohn", "1", "--cap", "3")
        assert code == 0 and out.startswith("points:")


class TestMoreSurface:
    def test_urysohn_provenance_lines(self, capsys):
        code, out, _ = run_cli(capsys, "urysohn", "1", "--cap", "3")
        assert code == 0
        assert "# provenance" in out
        assert "(0 | 1)" in out  # first addition realizes f=1 over point 0

    def test_complete_max_mode(self, capsys, tmp_path):
        graph = tmp_path / "star.txt"
        graph.write_text("points: 3\n0 1 2\n1 0 ?\n2 ? 0\n")
        code, out, _ = run_cli(
            capsys, "complete", "--graph", str(graph), "--mode", "max"
        )
        assert code == 0
        assert out.splitlines()[2].split() == ["1", "0", "2"]

    def test_color_divide(self, capsys, tmp_path):
        f = tmp_path / "net.txt"
        f.write_text(
            "points: 2\n0 21/100\n21/100 0\n"
        )
        code, out, _ = run_cli(
            capsys, "color", "divide", "--space", str(f),
            "--centers", "0", "--radii", "2/5",
        )
        assert code == 0 and out.strip() == "coloring: 00"

    def test_color_annulus(self, capsys, tmp_path):
        # line 0, 1/10, then steps of 1/30 out to 9/10
        from fractions import Fraction

        positions = [Fraction(0), Fraction(1, 10)]
        while positions[-1] < Fraction(9, 10):
            positions.append(min(positions[-1] + Fraction(1, 30), Fraction(9, 10)))
        rows = [
            " ".join(str(abs(a - b)) for b in positions) for a in positions
        ]
        f = tmp_path / "line.txt"
        f.write_text(f"points: {len(positions)}\n" + "\n".join(rows) + "\n")
        chain = ",".join(str(i) for i in range(1, len(positions)))
        code, out, _ = run_cli(
            capsys, "color", "annulus", "--space", str(f), "--y", "0",
            "--start", "1", "--end", str(len(positions) - 1),
            "--r", "2/5", "-n", "1", "--chain", chain, "--eps", "1/30",
        )
        assert code == 0 and "witness index:" in out

    def test_orderprop_reversed_scalene(self, capsys, tmp_path):
        f = tmp_path / "sca.txt"
        f.write_text("points: 3\n0 2 3\n2 0 4\n3 4 0\n")
        code, _, _ = run_cli(
            capsys, "orderprop", "--y", str(f), "--x", str(f), "--order", "0,1,2"
        )
        assert code == 1  # the reversed ordering of y avoids the copy

    def test_hedgehog_build_reports_sizes(self, capsys, tmp_path):
        prefix = tmp_path / "p.txt"
        prefix.write_text("points: 2\n0 1/2\n1/2 0\n")
        code, out, _ = run_cli(capsys, "hedgehog", "build", "-m", "2", "--prefix", str(prefix))
        assert code == 0
        assert "base points: 2" in out

    def test_ultra_fichet_p3(self, capsys, spaces):
        paths, _ = spaces
        code, out, _ = run_cli(capsys, "ultra", "fichet", "--space", paths["comb"], "-p", "3")
        assert code == 0 and "pairs verified: 3" in out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "finmetric.cli", "check4v", "1", "2", "5"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0

    def test_budget_env_var(self, capsys, spaces, monkeypatch):
        paths, _ = spaces
        monkeypatch.setenv("FINMETRIC_BUDGET", "2")
        code, _, err = run_cli(capsys, "iso", "--space", paths["triangle"])
        assert code == 2
        assert "too large" in err

    def test_budget_env_var_reaches_four_values(self, capsys, monkeypatch):
        monkeypatch.setenv("FINMETRIC_BUDGET", "2")
        code, _, err = run_cli(capsys, "check4v", "1", "2", "5")
        assert code == 2
        assert err.startswith("error: ") and "too large" in err

    def test_budget_env_var_reaches_orderprop(self, capsys, spaces, monkeypatch):
        paths, _ = spaces
        argv = ("orderprop", "--y", paths["triangle"], "--x", paths["pair"], "--order", "0,1")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setenv("FINMETRIC_BUDGET", "2")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "ordering-property scan too large: n=3" in err

    def test_budget_env_var_sets_every_config_field(self, monkeypatch):
        monkeypatch.setenv("FINMETRIC_BUDGET", "7")
        config = _config()
        assert {getattr(config, f.name) for f in dataclasses.fields(Config)} == {7}

    def test_budget_env_var_reaches_urysohn_canonicalization(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, "urysohn", "1", "--cap", "11")
        assert code == 2
        assert err.startswith("error: canonicalization too large: n=11 > 10")
        monkeypatch.setenv("FINMETRIC_BUDGET", "64")
        code, out, _ = run_cli(capsys, "urysohn", "1", "--cap", "11")
        assert code == 0
        assert out.startswith("points: 11\n")

    def test_urysohn_cap_keeps_partial_progress(self, capsys, monkeypatch):
        monkeypatch.setenv("FINMETRIC_BUDGET", "6")
        code, out, err = run_cli(capsys, "urysohn", "1", "2", "--cap", "4")
        assert code == 2
        assert err.startswith("error: urysohn closure exceeded 6 points")
        head, provenance = out.split("# provenance\n")
        assert head.startswith("points: 6\n")
        assert len(provenance.splitlines()) == 5
        code, out, err = run_cli(capsys, "--json", "urysohn", "1", "2", "--cap", "4")
        assert code == 2
        payload = json.loads(out)
        assert payload["space"]["points"] == 6 and len(payload["log"]) == 5
        assert f"with {payload['pending']} extensions still unrealized" in err

    @pytest.mark.parametrize("values", [("1", "2", "4"), ("1/2", "1", "2")])
    def test_urysohn_prints_the_4_values_witness_as_check4v_does(self, capsys, values):
        code, out, _ = run_cli(capsys, "check4v", *values)
        assert code == 1
        witness = out.splitlines()[0].removeprefix("bad quadruple ")
        code, out, err = run_cli(capsys, "urysohn", *values, "--cap", "5")
        assert code == 2 and out == ""
        assert err == f"error: S fails the 4-values condition, witness {witness}\n"
        assert "Fraction" not in err


class TestInputErrors:
    """Malformed input exits 2 with an error line, never a traceback."""

    def test_ragged_graph_row(self, capsys, tmp_path):
        g = tmp_path / "ragged.txt"
        g.write_text("points: 3\n0 1 1\n1 0\n1 1 0\n")
        code, _, err = run_cli(capsys, "validate", "--graph", str(g))
        assert code == 2
        assert err.startswith("error: ") and "row 1" in err

    @pytest.mark.parametrize("what", ["indiv", "greedy"])
    def test_color_without_target(self, capsys, spaces, what):
        paths, _ = spaces
        code, _, err = run_cli(capsys, "color", what, "--space", paths["triangle"])
        assert code == 2
        assert err.startswith("error: ") and "--target" in err

    def test_color_lambda_point_out_of_range(self, capsys, spaces):
        paths, _ = spaces
        code, _, err = run_cli(
            capsys, "color", "lambda", "--space", paths["triangle"], "--point", "7"
        )
        assert code == 2
        assert err.startswith("error: ") and "out of range" in err

    @pytest.mark.parametrize("order", ["0,5", "0", "0,0", "-1,0", "0,1,2"])
    def test_orderprop_malformed_order(self, capsys, spaces, order):
        paths, _ = spaces
        code, out, err = run_cli(
            capsys, "orderprop", "--y", paths["triangle"], "--x", paths["pair"], f"--order={order}"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "is not an ordering of the 2 points of x" in err

    @pytest.mark.parametrize("argv, message", [
        ("milliken embed 134 --depth 4", "milliken embed needs --target"),
        ("color annulus --space {tri} --y 9", "point 9 out of range for a 3-point space"),
        ("color annulus --space {line} --start 1 --end 2 --chain=", "chain must run from start to end"),
        ("color divide --space {tri} --centers 0,9 --radii 1/3,1/3", "point 9 out of range"),
        ("color divide --space {tri} --centers 0,1 --radii 1/3", "center 1 has no radius"),
        ("amalgamate 1 --y0 {tri} --y1 {tri} --x0 0,9 --x1 0,1", "point 9 out of range"),
        ("amalgamate 1 --y0 {tri} --y1 {tri} --x0 -1 --x1 0", "point -1 out of range"),
        ("iso --space {dir}", "Is a directory"),
        ("ultra tree --space {empty}", "the empty space has no ball tree"),
        ("ultra degree --space {empty}", "the empty space has no ball tree"),
        ("ultra fichet --space {empty}", "the empty space has no ball tree"),
        ("degree --space {empty} --metric-orderings", "the empty space has an empty distance set"),
        ("orderprop --y {empty} --x {empty} --order= --ordering-class metric",
         "the empty space has an empty distance set"),
        ("degree --space {one} --metric-orderings", "error: one-point space has an empty distance set"),
        ("color indiv --space {tri} --target {tri} -k 0", "need at least 1 color, got k=0"),
        ("color indiv --space {tri} --target {tri} --sampled -2", "need at least 1 sample, got -2"),
        ("color indiv --space {tri} --target {tri} --sampled 0", "need at least 1 sample, got 0"),
        ("milliken build 134 --depth 2 --sampled 0", "need at least 1 sample, got 0"),
        ("milliken build 26712 --depth 99 --inverted --sampled 0", "need at least 1 sample, got 0"),
        ("milliken build 134 --depth 12 --sampled 1",
         "sampled metric check too large: 33542145 points > 4194304"),
        ("arrow --z {tri} --y {tri} --x {tri} -k 0", "the arrow needs k >= 1 colors"),
        ("arrow --z {tri} --y {tri} --x {tri} -l -1", "and l >= 0 values, got k=2, l=-1"),
        ("color greedy --space {tri} --target {tri} --coloring 5,5,5", "color 5 outside {0, 1}"),
        ("urysohn 1 --cap -1", "size cap must be at least 1, got -1"),
        ("milliken build 134 --depth -1", "depth must be non-negative, got -1"),
        ("milliken embed 134 --depth -1 --target {tri}", "depth must be non-negative, got -1"),
        ("milliken embed 2678 --depth 9 --target {far}", "admissible subset too large: more than 20000"),
        ("hedgehog build -m 1 --prefix {tri} --max-tree-size -1",
         "max tree size must be non-negative, got -1"),
        ("hedgehog verify -m 1 --prefix {tri} --max-tree-size -1",
         "max tree size must be non-negative, got -1"),
        ("check4v 1 2/0", "zero denominator in '2/0'"),
        ("iso --space {zero}", "zero denominator in '1/0'"),
        ("color lambda --space {tri} --point 0 --eps 1/0", "zero denominator in '1/0'"),
        ("complete --graph {tri} --cap 1/0", "zero denominator in '1/0'"),
        ("katetov --space {tri} --values 1,1,1/0", "zero denominator in '1/0'"),
        ("iso --space {abc}", "error: Invalid literal for Fraction: 'abc'\n"),
    ])
    def test_contract_inputs(self, capsys, tmp_path, argv, message):
        files = {"dir": str(tmp_path)}
        for name, text in (
            ("tri", "points: 3\n0 1 1\n1 0 1\n1 1 0\n"),
            # y = 0, start = 1 and end = 2 meet every precondition but the chain's
            ("line", "points: 3\n0 1/10 1\n1/10 0 1\n1 1 0\n"),
            ("empty", "points: 0\n"),
            ("one", "points: 1\n0\n"),
            ("far", "points: 2\n0 2\n2 0\n"),
            ("zero", "points: 2\n0 1/0\n1/0 0\n"),
            ("abc", "points: 2\n0 abc\nabc 0\n"),
        ):
            (tmp_path / f"{name}.txt").write_text(text)
            files[name] = str(tmp_path / f"{name}.txt")
        code, out, err = run_cli(capsys, *(tok.format(**files) for tok in argv.split()))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, message", [
        ("milliken build 2678 --depth 40",
         f"too large: {math.comb((3 ** 41 - 1) // 2, 2)} points > 800; use check='sampled'"),
        ("milliken embed 2678 --depth 40 --target {far}",
         "admissible subset too large: more than 20000 points"),
        ("milliken build 134 --depth 20000",
         "exhaustive metric check too large: more than 800 points; use check='sampled'"),
        ("milliken build 134 --depth 1000000000",
         "exhaustive metric check too large: more than 800 points; use check='sampled'"),
        ("milliken build 1378 --depth 1000000000 --inverted",
         "exhaustive metric check too large: more than 800 points; use check='sampled'"),
        ("milliken embed 2678 --depth 1000000000 --target {far}",
         "admissible subset too large: more than 20000 points"),
    ])
    def test_oversized_depth_refused_before_listing(self, capsys, tmp_path, argv, message):
        # depth 40 has (3^41 - 1) / 2 nodes: listing them would exhaust memory;
        # the count at depth 20000 has more digits than Python formats, and
        # 2 ** 10 ** 9 would take minutes to reckon, so neither is reckoned
        far = tmp_path / "far.txt"
        far.write_text("points: 2\n0 2\n2 0\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.format(far=far).split())
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


GOLDEN_HELP = pathlib.Path(__file__).parent / "golden" / "help"
PLAIN_VERBS = ["check4v", "badquads", "similar", "amalgamate", "validate", "complete", "iso",
               "copies", "katetov", "extend", "urysohn", "degree", "criticals", "arrow", "orderprop"]


class TestParserTable:
    """The verb table builds the documented parser."""

    @pytest.mark.parametrize("verb", [None] + PLAIN_VERBS)
    def test_help_text_is_pinned(self, capsys, monkeypatch, verb):
        # recorded with Python 3.11's argparse at COLUMNS=80
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, *([verb] if verb else []), "--help")
        assert code == 0
        assert out == (GOLDEN_HELP / f"{verb or 'finmetric'}.txt").read_text()

    @pytest.mark.parametrize("argv", [
        "color lambda --space {x} --target {x}",
        "ultra fichet --space {x} --s 1",
        "ultra tree --space {x} -p 2",
        "milliken embed 134 --depth 2 --inverted --target {x}",
        "milliken build 134 --depth 2 --target {x}",
        "ultra --space {x} tree",
    ])
    def test_subverb_rejects_other_options(self, capsys, spaces, argv):
        paths, _ = spaces
        code, out, err = run_cli(capsys, *(tok.format(x=paths["pair"]) for tok in argv.split()))
        assert code == 2 and out == ""
        assert "error: " in err

    def test_readme_cli_block_parses(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("finmetric ")]
        seen = set()
        for line in lines:
            # drop the trailing comment and the brackets around optional parts
            argv = shlex.split(line.split("#")[0].replace("[", "").replace("]", ""))[1:]
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")
            seen.add((args.verb, getattr(args, "subverb", None)))
        table = {(verb, subverb) for verb, (_, body, _) in _VERBS.items()
                 for subverb in (body if isinstance(body, dict) else [None])}
        assert seen == table


def test_import_loads_only_the_standard_library():
    """`import finmetric.cli` in a fresh interpreter loads no third-party
    module (numpy, say): the CLI's set-up time is its own import."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import finmetric.cli\n"
        "tops = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'finmetric'}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
