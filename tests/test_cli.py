"""End-to-end tests for the command line front end."""

import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import metgraph as mg
from conftest import READS, load_pairs, pair_form, serialize_graph
from metgraph.cli import _format_terms, decimal_approx, parse_graph, run

F = Fraction

GRAPHS = Path(__file__).parent.parent / "graphs"
POINTS = Path(__file__).parent / "data" / "oracle_points"

SRC = Path(mg.__file__).resolve().parent.parent

CIRCLE = str(GRAPHS / "circle.json")
BANANA = str(GRAPHS / "banana.json")
TWO_BRIDGES = str(GRAPHS / "two_bridges.json")
TESSERACT = str(GRAPHS / "tesseract.json")

# one well-formed argv token for each option of the CLI
OPTION_VALUES = {
    "--divisor": "--divisor=1,0,0",
    "--decimal": "--decimal=5",
    "--machine": "--machine",
    "--x": "--x=0:0",
    "--y": "--y=0:0",
    "--method": "--method=green",
    "--points": f"--points={POINTS / 'circle.txt'}",
}


@pytest.fixture(autouse=True)
def cold_caches():
    """A command runs in a fresh process, with nothing cached; run in
    process, each test's commands start from empty caches too."""
    mg.clear_caches()


def lines_of(capsys):
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.splitlines()


class TestScalarCommands:
    def test_tau(self, capsys):
        assert run(["tau", CIRCLE]) == 0
        assert lines_of(capsys) == ["1/6"]

    def test_tau_decimal(self, capsys):
        assert run(["tau", CIRCLE, "--decimal", "6"]) == 0
        assert lines_of(capsys) == ["1/6 0.166667"]

    def test_tau_machine(self, capsys):
        assert run(["tau", CIRCLE, "--machine"]) == 0
        assert json.loads(capsys.readouterr().out) == {"command": "tau", "value": "1/6"}

    def test_resistance(self, capsys):
        assert run(["resistance", CIRCLE, "--x", "1:1/3", "--y", "1:2/3"]) == 0
        assert lines_of(capsys) == ["5/18"]

    def test_green(self, capsys):
        assert run(["green", CIRCLE, "--x", "1:1/3", "--y", "1:2/3"]) == 0
        assert lines_of(capsys) == ["1/36"]

    def test_divisor_override(self, capsys):
        # 2 p0 on the circle: epsilon = 8 tau / (deg + 2) = 2 tau = 1/3.
        assert run(
            ["epsilon", CIRCLE, "--divisor", "0,2,0", "--method", "resistance"]
        ) == 0
        assert lines_of(capsys) == ["1/3"]

    def test_divisor_with_a_negative_first_coefficient(self, capsys):
        # argparse takes "-1,0,..." after a space for an option, so the
        # value is written with "="
        minus_one = "-1," + ",".join(["0"] * 15)
        assert run(["epsilon", TESSERACT, f"--divisor={minus_one}"]) == 0
        assert lines_of(capsys) == ["green      -49/12", "resistance -49/12", "MATCH"]
        with pytest.raises(SystemExit):
            run(["epsilon", TESSERACT, "--divisor", minus_one])
        assert "expected one argument" in capsys.readouterr().err


class TestMatrixCommands:
    def test_laplacian(self, capsys):
        assert run(["laplacian", CIRCLE]) == 0
        assert lines_of(capsys) == ["4 -2 -2", "-2 3 -1", "-2 -1 3"]

    def test_pinv(self, capsys):
        assert run(["pinv", CIRCLE]) == 0
        assert lines_of(capsys) == [
            "1/9 -1/18 -1/18",
            "-1/18 11/72 -7/72",
            "-1/18 -7/72 11/72",
        ]

    def test_value_matrix_text(self, capsys):
        assert run(["value-matrix", CIRCLE]) == 0
        out = lines_of(capsys)
        assert len(out) == 9
        assert out[0] == "z[0][0] = 1/6 + 1/4*x^2 + 1/4*y^2 - 1/2*x*y - 1/2*|x-y|"
        assert all(line.startswith("z[") for line in out)

    def test_value_matrix_machine(self, capsys):
        assert run(["value-matrix", CIRCLE, "--machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "value-matrix"
        assert doc["divisor"] == [0, 0, 0]
        assert doc["entries"][0][0] == {
            "c0": "1/6",
            "cx": "0",
            "cy": "0",
            "cxx": "1/4",
            "cyy": "1/4",
            "cxy": "-1/2",
            "cabs": "-1/2",
        }


class TestInfo:
    def test_text(self, capsys):
        assert run(["info", TWO_BRIDGES]) == 0
        assert lines_of(capsys) == [
            "vertices: 6 (p0 p1 p2 p3 p4 p5)",
            "edges: 6",
            "total length: 6",
            "adequate: yes",
            "bridges: 0 5",
            "divisor: 1,0,0,0,0,2 (degree 3)",
        ]

    def test_machine(self, capsys):
        assert run(["info", TWO_BRIDGES, "--machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["adequate"] is True
        assert doc["bridges"] == [0, 5]
        assert doc["degree"] == 3
        assert doc["edges"][0] == [0, 1, "1"]


class TestEpsilon:
    def test_both_methods_match(self, capsys):
        assert run(["epsilon", BANANA]) == 0
        assert lines_of(capsys) == ["green      12/11", "resistance 12/11", "MATCH"]

    def test_single_method(self, capsys):
        assert run(["epsilon", BANANA, "--method", "green"]) == 0
        assert lines_of(capsys) == ["12/11"]

    def test_machine(self, capsys):
        assert run(["epsilon", BANANA, "--machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "command": "epsilon",
            "method": "both",
            "green": "12/11",
            "resistance": "12/11",
            "match": True,
        }

    def test_machine_carries_each_route_s_decimal(self, capsys):
        assert run(["epsilon", TESSERACT, "--decimal", "5", "--machine"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "epsilon",
            "method": "both",
            "green": "7875/122",
            "resistance": "7875/122",
            "decimal": {"green": "64.54918", "resistance": "64.54918"},
            "match": True,
        }
        assert run(["epsilon", TESSERACT, "--method", "resistance", "--machine"]) == 0
        assert "decimal" not in json.loads(capsys.readouterr().out)
        assert run(["epsilon", TESSERACT, "--method", "resistance", "--decimal=2", "--machine"]) == 0
        assert json.loads(capsys.readouterr().out)["decimal"] == {"resistance": "64.55"}


class TestCheckAndOracle:
    def test_check_passes(self, capsys):
        assert run(["check", CIRCLE]) == 0
        out = lines_of(capsys)
        assert out == [
            "representation independence: PASS (36 comparisons)",
            "vertex formula: PASS (9 comparisons)",
        ]

    def test_check_machine(self, capsys):
        assert run(["check", TWO_BRIDGES, "--machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [rep["passed"] for rep in doc["reports"]] == [True, True]
        assert all(rep["mismatches"] == [] for rep in doc["reports"])

    def test_oracle_all_diffs_zero(self, capsys):
        points = str(POINTS / "circle.txt")
        assert run(["oracle", CIRCLE, "--points", points]) == 0
        out = lines_of(capsys)
        assert len(out) == 104
        assert all(line.endswith(" diff=0") for line in out)
        assert out[0].startswith("r[")
        assert out[1].startswith("g[")

    def test_oracle_machine(self, capsys):
        points = str(POINTS / "two_bridges.txt")
        assert run(["oracle", TWO_BRIDGES, "--points", points, "--machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["match"] is True
        assert len(doc["rows"]) == 104
        assert all(row["diff"] == "0" for row in doc["rows"])


class TestComparisonFailures:
    """A failed comparison exits 1, in text and under --machine; each
    failure is forced by replacing one function in the CLI's namespace."""

    def test_epsilon_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(mg.cli, "epsilon_via_resistance", lambda g, divisor: F(1, 7))
        assert run(["epsilon", BANANA]) == 1
        assert lines_of(capsys) == ["green      12/11", "resistance 1/7", "MISMATCH"]
        assert run(["epsilon", BANANA, "--machine"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": "epsilon",
            "method": "both",
            "green": "12/11",
            "resistance": "1/7",
            "match": False,
        }

    def test_check_failure(self, monkeypatch, capsys):
        check_reports = mg.cli._check_reports

        def failing(g, divisor):
            first, second = check_reports(g, divisor)
            wrong = mg.invariants.CheckMismatch("vertices (0, 1)", F(1, 3), F(1, 2))
            return first, mg.CheckReport(second.name, second.comparisons, (wrong,))

        monkeypatch.setattr(mg.cli, "_check_reports", failing)
        assert run(["check", CIRCLE]) == 1
        assert lines_of(capsys) == [
            "representation independence: PASS (36 comparisons)",
            "vertex formula: FAIL (9 comparisons)",
            "  vertices (0, 1): expected 1/3, got 1/2",
        ]
        assert run(["check", CIRCLE, "--machine"]) == 1
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [rep["passed"] for rep in reports] == [True, False]
        assert reports[1]["mismatches"] == [
            {"location": "vertices (0, 1)", "expected": "1/3", "got": "1/2"}
        ]

    def test_oracle_nonzero_diff(self, monkeypatch, capsys):
        resistance_point = mg.cli.resistance_point
        monkeypatch.setattr(
            mg.cli, "resistance_point", lambda g, x, y: resistance_point(g, x, y) + 1
        )
        argv = ["oracle", CIRCLE, "--points", str(POINTS / "circle.txt")]
        assert run(argv) == 1
        out = lines_of(capsys)
        assert len(out) == 104
        assert all(line.startswith("r[") and line.endswith(" diff=1") for line in out[::2])
        assert all(line.startswith("g[") and line.endswith(" diff=0") for line in out[1::2])
        assert run([*argv, "--machine"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["match"] is False
        assert [row["diff"] for row in doc["rows"]] == ["1", "0"] * 52


# the text form's unit for each coefficient of the --machine form
UNITS = {"c0": "", "cx": "x", "cy": "y", "cxx": "x^2", "cyy": "y^2", "cxy": "x*y", "cabs": "|x-y|"}


def text_terms(text: str) -> dict:
    """The nonzero coefficients of one entry's text form, by unit."""
    tokens = re.split(r" ([+-]) ", text)
    terms = {}
    for sign, term in zip(["+", *tokens[1::2]], tokens[::2]):
        coef, _, unit = term.partition("*")
        terms[unit] = F(coef) if sign == "+" else -F(coef)
    return {unit: c for unit, c in terms.items() if c}


@pytest.mark.parametrize("name", ["circle", "joint_circles", "banana", "tesseract", "two_bridges"])
def test_value_matrix_text_and_machine_agree(name, capsys):
    path = str(GRAPHS / f"{name}.json")
    assert run(["value-matrix", path]) == 0
    text = lines_of(capsys)
    assert run(["value-matrix", path, "--machine"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    cells = [(i, j, entry) for i, row in enumerate(entries) for j, entry in enumerate(row)]
    assert len(text) == len(cells)
    for line, (i, j, entry) in zip(text, cells):
        head, _, rhs = line.partition(" = ")
        assert head == f"z[{i}][{j}]"
        assert text_terms(rhs) == {UNITS[k]: F(c) for k, c in entry.items() if F(c)}


class TestExactOutput:
    """Exact mode must never leak floating point formatting."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau", CIRCLE],
            ["pinv", CIRCLE],
            ["value-matrix", CIRCLE],
            ["epsilon", BANANA],
            ["green", TWO_BRIDGES, "--x", "0:1/3", "--y", "5:1/7"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_decimal_point_digits(self, argv, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert not any(
            a.isdigit() and b == "." and c.isdigit()
            for a, b, c in zip(out, out[1:], out[2:])
        )


class TestErrors:
    def check_error(self, argv, capsys, needle):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert needle in captured.err

    def test_missing_file(self, capsys):
        self.check_error(["tau", "no-such-file.json"], capsys, "no-such-file.json")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        self.check_error(["tau", str(path)], capsys, "invalid JSON")

    def test_nonpositive_length_names_field(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "edges": [{"from": 0, "to": 1, "length": 0}],
                }
            )
        )
        self.check_error(["tau", str(path)], capsys, "edges[0].length")

    def test_float_length_rejected(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "edges": [{"from": 0, "to": 1, "length": 0.5}],
                }
            )
        )
        self.check_error(["tau", str(path)], capsys, "edges[0].length")

    @pytest.mark.parametrize("length", ["0.5", "1e3"])
    def test_decimal_and_exponent_length_strings_rejected(self, length, tmp_path, capsys):
        path = tmp_path / "decimal.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "edges": [{"from": 0, "to": 1, "length": length}],
                }
            )
        )
        self.check_error(["tau", str(path)], capsys, "edges[0].length")

    def test_exponent_offset_rejected(self, capsys):
        self.check_error(
            ["resistance", CIRCLE, "--x", "0:1e-2", "--y", "0:0"], capsys, "--x"
        )

    def test_integer_past_the_digit_limit_rejected(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"vertices": ["a", "b"], "edges": [{"from": 0, "to": 1, "length": 1'
            + "0" * 4999
            + "}]}"
        )
        self.check_error(["tau", str(path)], capsys, "invalid JSON")

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau"],
            ["epsilon"],
            ["pinv", "--machine"],
            ["value-matrix", "--machine"],
            ["info"],
            ["laplacian"],
            ["pinv"],
            ["resistance", "--x", "0:0", "--y", "1:0"],
            ["green", "--x", "0:0", "--y", "1:0"],
        ],
        ids=" ".join,
    )
    def test_result_past_the_digit_limit_exits_2(self, argv, tmp_path, capsys):
        # each length reads in, but tau, L+ and the Green values have more
        # digits than CPython converts to a string
        rng = random.Random(0)

        def ratio():
            low, high = 10**2999, 10**3000
            return f"{rng.randrange(low, high)}/{rng.randrange(low, high)}"

        edges = [{"from": a, "to": (a + 1) % 3, "length": ratio()} for a in range(3)]
        path = tmp_path / "triangle.json"
        path.write_text(
            json.dumps({"vertices": ["a", "b", "c"], "edges": edges, "divisor": [1, 0, 0]})
        )
        assert run([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: an exact result has more than {sys.get_int_max_str_digits()} digits, "
            "past Python's limit for integer string conversion\n"
        )

    def test_vertex_index_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "range.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "edges": [{"from": 0, "to": 2, "length": 1}],
                }
            )
        )
        self.check_error(["tau", str(path)], capsys, "edges[0].to")

    def test_disconnected_graph(self, tmp_path, capsys):
        path = tmp_path / "disc.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b", "c", "d"],
                    "edges": [
                        {"from": 0, "to": 1, "length": 1},
                        {"from": 2, "to": 3, "length": 1},
                    ],
                }
            )
        )
        self.check_error(["tau", str(path)], capsys, "connect")

    def test_wrong_divisor_length(self, capsys):
        self.check_error(
            ["epsilon", CIRCLE, "--divisor", "1,2"], capsys, "expected 3 coefficients"
        )

    def test_bad_point_token(self, capsys):
        self.check_error(
            ["resistance", CIRCLE, "--x", "nonsense", "--y", "0:0"], capsys, "--x"
        )

    @pytest.mark.parametrize("edge", ["0_1", "\u0661", "1\u0660", " 1"])
    def test_edge_index_is_ascii_digits_only(self, edge, capsys):
        # int() takes "_" separators, other scripts' digits and whitespace
        self.check_error(
            ["resistance", CIRCLE, "--x", f"{edge}:1/2", "--y", "0:0"],
            capsys,
            f"--x: bad edge index {edge!r}",
        )

    def test_points_file_edge_index_is_ascii_digits_only(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_text("1:1/2 0:1/3\n0_1:1/2 \u0661:1/3\n", encoding="utf-8")
        self.check_error(
            ["oracle", CIRCLE, "--points", str(path)], capsys, ":2: bad edge index '0_1'"
        )

    def test_point_outside_edge(self, capsys):
        self.check_error(
            ["resistance", CIRCLE, "--x", "0:7", "--y", "0:0"], capsys, "offset"
        )

    def test_degree_minus_two(self, capsys):
        self.check_error(["epsilon", CIRCLE, "--divisor=-2,0,0"], capsys, "degree -2")

    def test_oracle_malformed_points_file(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_text("0:1/3 0:1/4 0:1/5\n")
        self.check_error(
            ["oracle", CIRCLE, "--points", str(path)], capsys, "expected two"
        )

    def test_oracle_empty_points_file(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_text("# nothing here\n")
        self.check_error(
            ["oracle", CIRCLE, "--points", str(path)], capsys, "no point pairs"
        )

    def test_graph_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"vertices": ["p\xe9", "q"], "edges": []}')
        self.check_error(["tau", str(path)], capsys, "not UTF-8")

    def test_oracle_points_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_bytes(b"0:1/3 1:1/4\n\xff\xfe\n")
        self.check_error(["oracle", CIRCLE, "--points", str(path)], capsys, "not UTF-8")

    # A points-file line ends at a line feed only, and its tokens are
    # separated by ASCII spaces and tabs only; str.splitlines() and
    # str.split() also took form feeds, U+001C and the like as line ends
    # and any Unicode space as a separator.
    def test_points_file_form_feed_ends_no_line(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_text("0:0 0:1/4\f0:0 0:1/3\n", encoding="utf-8")
        self.check_error(
            ["oracle", CIRCLE, "--points", str(path)], capsys, ":1: expected two EDGE:OFFSET"
        )

    def test_points_file_no_break_space_separates_no_tokens(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_text("0:0\u00a00:1/2\n", encoding="utf-8")
        self.check_error(
            ["oracle", CIRCLE, "--points", str(path)], capsys, ":1: expected two EDGE:OFFSET"
        )

    def test_points_file_error_names_its_true_line(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        # U+001C inside the comment on line 1 must not start a line 2
        path.write_text("# pairs\x1c 0:0 0:1/3\n0:0 zz\n", encoding="utf-8")
        self.check_error(
            ["oracle", CIRCLE, "--points", str(path)], capsys, ":2: expected EDGE:OFFSET, got 'zz'"
        )

    def test_points_file_carriage_return_ends_no_line_alone(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        path.write_bytes(b"0:0 0:1/4\r0:0 0:1/3\n")
        self.check_error(
            ["oracle", CIRCLE, "--points", str(path)], capsys, ":1: expected two EDGE:OFFSET"
        )

    def test_points_file_takes_crlf_line_ends_and_tabs(self, tmp_path, capsys):
        crlf, lf = tmp_path / "crlf.txt", tmp_path / "lf.txt"
        crlf.write_bytes(b"# pairs\r\n0:0\t0:1/4\r\n\t 1:1/3 0:1/3 \r\n\r\n")
        lf.write_bytes(b"0:0 0:1/4\n1:1/3 0:1/3\n")
        assert mg.cli._read_point_pairs(str(crlf)) == mg.cli._read_point_pairs(str(lf))
        assert run(["oracle", CIRCLE, "--points", str(crlf)]) == 0
        out = capsys.readouterr().out
        assert run(["oracle", CIRCLE, "--points", str(lf)]) == 0
        assert capsys.readouterr().out == out

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        self.check_error(["tau", str(path)], capsys, "nested too deeply")

    def test_graph_over_the_size_bound(self, tmp_path, capsys):
        def write(n, pairs):
            path = tmp_path / f"{n}-{len(pairs)}.json"
            edges = [{"from": a, "to": b, "length": 1} for a, b in pairs]
            path.write_text(json.dumps({"vertices": [f"v{k}" for k in range(n)], "edges": edges}))
            return str(path)

        max_vertices, max_edges = mg.cli.MAX_VERTICES, mg.cli.MAX_EDGES
        path_graph = [(k, k + 1) for k in range(max_vertices - 1)]
        parallels = [(0, 1)] * (max_edges - len(path_graph))
        assert run(["info", write(max_vertices, path_graph + parallels)]) == 0
        capsys.readouterr()
        too_many_vertices = path_graph + [(max_vertices - 1, max_vertices)]
        self.check_error(
            ["info", write(max_vertices + 1, too_many_vertices)], capsys, "at most"
        )
        self.check_error(
            ["info", write(2, [(0, 1)] * (max_edges + 1))], capsys, "at most"
        )

    def test_unknown_command_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            run(["frobnicate", CIRCLE])

    def test_bad_divisor_syntax_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["epsilon", CIRCLE, "--divisor", "1,x,3"])
        assert exit_info.value.code == 2
        assert "expected comma-separated integers, got '1,x,3'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", OPTION_VALUES)
    @pytest.mark.parametrize("command", READS)
    def test_a_command_accepts_only_the_options_it_reads(self, command, option, capsys):
        # the options the command requires follow the one under test
        argv = [command, CIRCLE, OPTION_VALUES[option]]
        argv += [OPTION_VALUES[flag] for flag in ("--x", "--y", "--points")
                 if flag in READS[command] and flag != option]
        if option == "--machine" or option in READS[command]:
            assert run(argv) == 0
            return
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last == f"metgraph: error: unrecognized arguments: {OPTION_VALUES[option]}"

    @pytest.mark.parametrize("divisor", ["\u0662,0,0", "2_0,0,0", "0,\uff12,0"])
    def test_divisor_coefficients_are_ascii_digits_only(self, divisor, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["epsilon", CIRCLE, "--divisor", divisor])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"expected comma-separated integers, got {divisor!r}" in err

    def test_divisor_coefficients_may_be_padded_and_signed(self, capsys):
        assert run(["epsilon", CIRCLE, "--divisor= 0 , +2,0 ", "--method", "resistance"]) == 0
        assert lines_of(capsys) == ["1/3"]

    @pytest.mark.parametrize("digits", ["\u0663", "1_0", " 3 "])
    def test_decimal_digits_are_ascii_digits_only(self, digits, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["tau", CIRCLE, f"--decimal={digits}"])
        assert exit_info.value.code == 2
        assert f"expected an integer, got {digits!r}" in capsys.readouterr().err

    def test_negative_decimal_digits_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            run(["tau", CIRCLE, "--decimal", "-1"])

    def test_decimal_digits_past_the_bound_exit_2_before_any_decimal_work(
        self, capsys, monkeypatch
    ):
        def no_decimal_work(*args):
            raise AssertionError("a decimal approximation was computed")

        monkeypatch.setattr(mg.cli, "decimal_approx", no_decimal_work)
        bound = mg.cli.MAX_DECIMAL_DIGITS
        parsed = mg.cli.build_parser().parse_args(["tau", CIRCLE, "--decimal", str(bound)])
        assert parsed.decimal == bound
        for digits in (bound + 1, 10**11):
            with pytest.raises(SystemExit) as exit_info:
                run(["tau", CIRCLE, "--decimal", str(digits)])
            assert exit_info.value.code == 2
            assert f"decimal digit count must be in 0..{bound}" in capsys.readouterr().err


class TestParseSerialize:
    def test_round_trip(self, banana):
        divisor = mg.Divisor((1, 1, 0, 0))
        text = serialize_graph(banana, divisor)
        g2, d2 = parse_graph(text)
        assert g2 == banana
        assert d2 == divisor

    def test_serialize_integer_lengths_as_integers(self, segment):
        doc = json.loads(serialize_graph(segment))
        assert doc["edges"][0]["length"] == 1
        assert "divisor" not in doc

    def test_missing_divisor_defaults_to_zero(self):
        g, divisor = parse_graph(Path(CIRCLE).read_text())
        assert divisor == mg.Divisor.zero(3)

    def test_fixture_files_parse(self):
        for name in ("circle", "joint_circles", "banana", "two_bridges", "tesseract"):
            g, divisor = parse_graph((GRAPHS / f"{name}.json").read_text())
            assert mg.validate_adequate(g)
            assert len(divisor) == g.n_vertices


class TestRendering:
    def test_decimal_approx_rounds_half_even(self):
        assert decimal_approx(F(1, 8), 2) == "0.12"
        assert decimal_approx(F(3, 8), 2) == "0.38"

    def test_decimal_approx_negative(self):
        assert decimal_approx(F(-1, 6), 3) == "-0.167"

    def test_decimal_approx_huge_terms(self):
        value = F(10**40 + 1, 3 * 10**40)
        assert decimal_approx(value, 4) == "0.3333"

    def test_format_entry_zero(self):
        assert _format_terms(pair_form(0, 0).coefficients()) == "0"

    def test_format_entry_signs(self):
        entry = pair_form(0, 0, c0=F(-1, 2), cx=F(1, 3), cabs=F(-2))
        assert _format_terms(entry.coefficients()) == "-1/2 + 1/3*x - 2*|x-y|"


class TestModuleEntryPoints:
    # without the installed ``metgraph`` script the CLI is reached through
    # ``python -m``; a wrong invocation must not look like a silent success
    @pytest.mark.parametrize("module", ["metgraph", "metgraph.cli"])
    def test_python_dash_m_runs_the_cli(self, module, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def run_module(*args):
            return subprocess.run(
                [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env
            )

        ok = run_module("check", CIRCLE)
        assert ok.returncode == 0
        assert ok.stdout.splitlines() == [
            "representation independence: PASS (36 comparisons)",
            "vertex formula: PASS (9 comparisons)",
        ]
        missing = run_module("check", str(tmp_path / "missing.json"))
        assert missing.returncode == 2
        assert missing.stdout == ""
        assert "error:" in missing.stderr

    @pytest.mark.parametrize("module", ["metgraph", "metgraph.cli"])
    def test_python_dash_m_runs_clean_under_warnings_as_errors(self, module):
        # runpy warns when the module it runs is imported already; under
        # -W error that warning alone would make the command exit 1
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "check", CIRCLE],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.splitlines()) == 2


    def test_malformed_files_exit_2_without_a_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        latin1, deep = tmp_path / "latin1.json", tmp_path / "deep.json"
        latin1.write_bytes(b'{"vertices": ["p\xe9"]}')
        deep.write_text("[" * 200000 + "]" * 200000)
        for path in (latin1, deep):
            proc = subprocess.run(
                [sys.executable, "-m", "metgraph", "info", str(path)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args, lines_read, head",
        [
            # the tesseract's 1024 text entries are more than a pipe holds, so
            # the command is still writing when the reader closes after one line
            (["value-matrix", str(GRAPHS / "tesseract.json")], 1, b"z[0][0] = "),
            # the reader is gone before the interpreter starts; a buffered
            # stdout would hold this one line until interpreter shutdown
            (["tau", CIRCLE], 0, b""),
        ],
        ids=["long", "short"],
    )
    def test_closed_stdout_exits_2_with_one_error_line(self, args, lines_read, head, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "metgraph", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        read = b"".join(proc.stdout.readline() for _ in range(lines_read))
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert read.startswith(head)
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_import_loads_only_what_results_need(self):
        # a cold command pays for every module it imports: no dataclasses
        # (which brings inspect, ast and dis) and no heapq
        code = (
            "import sys, metgraph.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'heapq'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_check_command_evaluates_the_vertex_pairs_once(monkeypatch, capsys):
    # both reports read one walk, which fills the canonical vertex-pair values
    walks = []
    walk = mg.invariants._representation_report

    def counted(g, matrix, table=None):
        walks.append(g)
        return walk(g, matrix, table)

    monkeypatch.setattr(mg.invariants, "_representation_report", counted)
    assert run(["check", TWO_BRIDGES]) == 0
    assert len(walks) == 1
    assert len(lines_of(capsys)) == 2


# -- the CI's value-matrix and check pins, replayed in process -----------------
# Each digest is copied unedited from .github/workflows/tests.yml, where it
# is the sha256 of the command's stdout; the grids are the seeded documents
# of bench/inputs.py that the workflow writes.

ZEROS = ",".join(["0"] * 15)
VALUE_MATRIX_PINS = {
    "tesseract --divisor=-1,0,...": (
        "tesseract",
        ["--machine", f"--divisor=-1,{ZEROS}"],
        "df5da6b83bed079bdfeb4f0b1721dc7a80c7363c24a5042877ad1da16689c857",
    ),
    "tesseract --divisor=-3,0,...": (
        "tesseract",
        ["--machine", f"--divisor=-3,{ZEROS}"],
        "c31a284ecc1849804151620622e216d9bf8cfbf354d6eb2fce529772c96394e0",
    ),
    "tesseract --divisor=0,0,...": (
        "tesseract",
        ["--machine", f"--divisor=0,{ZEROS}"],
        "6dc12305204baa617b8c316150a1318d59ccca667508b06fb9298a3aa6ade4c0",
    ),
    "8x8 machine": (
        8, ["--machine"], "17e4966205122e67bf697948af5ebf46a48d334dc0ce45d00667c8b46702532e"
    ),
    "8x8 text": (8, [], "86ef0b4a0f7b83f3838e970e158e3c08c5b1f25e59422e05421a8f683d235d96"),
    "10x10 machine": (
        10, ["--machine"], "fdbbf2e011e1f4b5fbc98ed6d7a83d05e9e88d7d39e09f13627279b5112c3149"
    ),
}


@pytest.fixture(scope="module")
def pinned_graphs(tmp_path_factory):
    """Paths of the tesseract and of the CI's seeded 8x8 and 10x10 grids."""
    spec = importlib.util.spec_from_file_location("inputs", SRC.parent / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    paths, grids = {"tesseract": TESSERACT}, tmp_path_factory.mktemp("grids")
    for k in (8, 10):
        path = paths[k] = grids / f"grid{k}.json"
        path.write_text(inputs.grid_document(k, random.Random(0)))
    return paths


def stdout_digest(argv, capsys):
    status = run(argv)
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    return hashlib.sha256(captured.out.encode()).hexdigest(), captured.out


@pytest.mark.parametrize("pin", VALUE_MATRIX_PINS)
def test_value_matrix_ci_pins(pin, pinned_graphs, capsys):
    graph, flags, digest = VALUE_MATRIX_PINS[pin]
    assert stdout_digest(["value-matrix", str(pinned_graphs[graph]), *flags], capsys)[0] == digest


@pytest.mark.parametrize("k,counts", [(8, (50176, 4096)), (10, (129600, 10000))])
def test_check_ci_counts(k, counts, pinned_graphs, capsys):
    _, out = stdout_digest(["check", str(pinned_graphs[k]), "--machine"], capsys)
    found = [(r["name"], r["comparisons"], r["passed"]) for r in json.loads(out)["reports"]]
    names = ("representation independence", "vertex formula")
    assert found == [(name, count, True) for name, count in zip(names, counts)]


@pytest.mark.parametrize(
    "k,digest",
    [
        (8, "47db4755a78570e765dbca73d9e2a95a75fc0ec9dceb466f20ebd4583fe93802"),
        (10, "95640b2936b07c5c7719e584ae7b8b639d85775beb7c82c8b0823101bb223622"),
    ],
)
def test_epsilon_ci_pins(k, digest, pinned_graphs, capsys):
    found, out = stdout_digest(["epsilon", str(pinned_graphs[k]), "--machine"], capsys)
    doc = json.loads(out)
    assert doc["green"] == doc["resistance"] and doc["match"] is True
    assert found == digest


@pytest.mark.parametrize("form", ["machine", "text"])
def test_pinv_ci_pins(form, pinned_graphs, capsys):
    flags, digest = {
        "machine": (
            ["--machine"], "47c8e5909f415ef3f5561b5bbe3113236ae2022015267542b8faca3c5f45d077"
        ),
        "text": ([], "05b19c7b7126e6a287928fab321c3a3ceab654eaef05450b4a41a9bdeacfdf5b"),
    }[form]
    assert stdout_digest(["pinv", str(pinned_graphs[10]), *flags], capsys)[0] == digest


def test_pinv_of_wide_operands_is_pinned(capsys):
    # an 8x8 grid whose lengths are ratios p/q of two distinct four-digit
    # primes from a seeded pool of 28, so the lcm of all length numerators
    # is wide; recorded when L+ was eliminated scaled by that lcm, where the
    # command took about 4 s, and pinned in CI under a 60 s timeout
    path = Path(__file__).parent / "data" / "prime_ratio_8x8.json"
    digest = "a2430c197751c0c231a4a55633adff86aaebc0f2f15c53f3fa778400d1276939"
    assert stdout_digest(["pinv", str(path), "--machine"], capsys)[0] == digest


def test_check_of_wide_operands_gives_the_ci_counts(capsys):
    # the same grid through both checks, one walk over operands with many
    # different denominators, as the workflow runs it under a 60 s timeout
    path = Path(__file__).parent / "data" / "prime_ratio_8x8.json"
    _, out = stdout_digest(["check", str(path), "--machine"], capsys)
    found = [(r["name"], r["comparisons"], r["passed"]) for r in json.loads(out)["reports"]]
    assert found == [("representation independence", 50176, True), ("vertex formula", 4096, True)]


# (command, graph, --x, --y, printed value), as pinned in the workflow
POINT_PINS = [
    ("green", TESSERACT, "0:1", "3:0", "73483/714432"),
    ("resistance", TESSERACT, "0:1", "3:0", "15/32"),
    ("green", TESSERACT, "0:1/3", "7:2/3", "48943/803736"),
    ("resistance", TESSERACT, "0:1/3", "7:2/3", "83/108"),
    ("green", TESSERACT, "0:1/4", "0:2/3", "9684341/34292736"),
    ("resistance", TESSERACT, "0:1/4", "0:2/3", "1495/4608"),
    ("green", TWO_BRIDGES, "0:1/3", "5:3/4", "-127/300"),
    ("resistance", TWO_BRIDGES, "0:1/3", "5:3/4", "29/12"),
]


@pytest.mark.parametrize("command,graph,x,y,value", POINT_PINS)
def test_point_ci_pins(command, graph, x, y, value, capsys):
    assert stdout_digest([command, graph, "--x", x, "--y", y], capsys)[1] == value + "\n"


# -- the oracle command ----------------------------------------------------------
# sha256 of stdout for each standing graph's frozen points file, text and
# --machine form, recorded before the command shared refinements between pairs

ORACLE_PINS = {
    "banana": (
        "25232720a57ef1625c3311696b6b4d0b59d60a43854dbcb5632b6167164a3728",
        "c86c23d1a9b853f46320890dcecf6ccbe6f224857bf31608181a818ad7b124d6",
    ),
    "circle": (
        "e93ea1430f4c88799d3b7f1624d14ea7759ec00b7a68bdec5831835014d31814",
        "d447f02b51ece3f441479072bc7f291f1b4e111c0f11d703dcc5112117f517ef",
    ),
    "joint_circles": (
        "261a8d1ad36489a4436c9f3b0050ee0c725cefc97051a28088b39aadb501d8da",
        "dd140fcd4e30acc1b8c41bf8af084f89284c03838cc1e65e37e89bbaa13488a2",
    ),
    "tesseract": (
        "da5b030e778a48ba26546ba9e0eab93076e7faecfea3c044a48d9bf9e340b47c",
        "1786bc6ae3e463e59ccb02d64fe839e38f34f194c186eec319efea6fc5e6fa04",
    ),
    "two_bridges": (
        "f9e87b6727f68283f08efaaa2b9df08201e69f96039846eb4d2bc6faf837262b",
        "f1bea1d4af0315fc481924003a3b1d12667cdbcca646c87223e65f64b72c6aaa",
    ),
}
# vertex counts of the refinements the oracle builds for 200 seeded tesseract
# pairs: their 257 distinct cuts are more than one refinement of at most
# MAX_VERTICES = 100 vertices can hold, so the pairs' cut sets are packed
# into four refinements in turn
LONG_FILE_SIZES = [100, 100, 100, 91]


def oracle_argv(name, points=None):
    points = points or POINTS / f"{name}.txt"
    return ["oracle", str(GRAPHS / f"{name}.json"), "--points", str(points)]


@pytest.fixture(scope="module")
def long_tesseract_points(tmp_path_factory):
    """A points file of 200 seeded tesseract pairs, a tenth of their points
    at an edge end."""
    rng, lines = random.Random(24), []
    for _ in range(200):
        tokens = []
        for _ in range(2):
            q = rng.randrange(2, 10)
            offset = F(rng.randrange(2)) if rng.random() < 0.1 else F(rng.randrange(1, q), q)
            tokens.append(f"{rng.randrange(32)}:{offset}")
        lines.append(" ".join(tokens))
    path = tmp_path_factory.mktemp("points") / "tesseract_long.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("name", ORACLE_PINS)
def test_oracle_pins(name, capsys):
    text, machine = ORACLE_PINS[name]
    assert stdout_digest(oracle_argv(name), capsys)[0] == text
    mg.clear_caches()
    assert stdout_digest([*oracle_argv(name), "--machine"], capsys)[0] == machine


def count_refinements(monkeypatch) -> list:
    """Record the arguments of every ``adequate_refinement`` call the oracle makes."""
    calls, refine = [], mg.oracle.adequate_refinement
    monkeypatch.setattr(
        mg.oracle, "adequate_refinement", lambda g, cuts: calls.append(cuts) or refine(g, cuts)
    )
    return calls


@pytest.mark.parametrize("name", ORACLE_PINS)
def test_oracle_builds_one_refinement_per_cut_set(name, monkeypatch, capsys):
    # a standing points file's cut sets (31 to 50 distinct ones among its 52
    # pairs) fit under the vertex bound together, so one refinement, cut at
    # every point of the file, answers every pair
    calls = count_refinements(monkeypatch)
    assert run(oracle_argv(name)) == 0
    assert len(lines_of(capsys)) == 104
    g, _ = parse_graph((GRAPHS / f"{name}.json").read_text())
    points = [pt for pair in load_pairs(name) for pt in pair]
    assert calls == [mg.oracle._cuts(g, points)]


def test_oracle_keeps_one_refinement_alive(long_tesseract_points, monkeypatch, capsys):
    # at each refinement's construction, every earlier one and its network
    # are already freed, and none outlives the command
    refs, alive_at_build, subdivided = [], [], mg.oracle.SubdividedGraph

    def tracked(*args):
        alive_at_build.append(sum(ref() is not None for ref in refs))
        sub = subdivided(*args)
        refs.extend((weakref.ref(sub), weakref.ref(sub.network)))
        return sub

    monkeypatch.setattr(mg.oracle, "SubdividedGraph", tracked)
    assert run(oracle_argv("tesseract", long_tesseract_points)) == 0
    assert len(lines_of(capsys)) == 400
    assert alive_at_build == [0] * len(LONG_FILE_SIZES)
    assert all(ref() is None for ref in refs)


def test_oracle_batches_stay_within_the_vertex_bound(long_tesseract_points, monkeypatch):
    g, _ = parse_graph(Path(TESSERACT).read_text())
    d = mg.Divisor(tuple(range(16)))
    pairs = mg.cli._read_point_pairs(str(long_tesseract_points))
    sizes, refine = [], mg.oracle.adequate_refinement

    def measured(g, cuts):
        refined, relabeling = refine(g, cuts)
        sizes.append(refined.n_vertices)
        return refined, relabeling

    monkeypatch.setattr(mg.oracle, "adequate_refinement", measured)
    values = mg.oracle._pair_values(g, d, pairs, mg.cli.MAX_VERTICES)
    assert sizes == LONG_FILE_SIZES
    assert max(sizes) <= mg.cli.MAX_VERTICES
    assert values == [
        (mg.oracle_resistance(g, x, y), mg.oracle_green(g, d, x, y)) for x, y in pairs
    ]


def test_oracle_leaves_only_the_input_graph_in_the_network_cache(capsys):
    assert run(oracle_argv("tesseract")) == 0
    lines_of(capsys)
    assert mg.network.cache_info().currsize == 1
    g, _ = parse_graph(Path(TESSERACT).read_text())
    hits = mg.network.cache_info().hits
    mg.network(g)
    assert mg.network.cache_info().hits == hits + 1


def test_oracle_prints_a_repeated_pair_twice(tmp_path, monkeypatch, capsys):
    path = tmp_path / "points.txt"
    path.write_text("0:1/3 1:1/4\n0:1/3 1:1/4\n")
    calls = count_refinements(monkeypatch)
    assert run(["oracle", CIRCLE, "--points", str(path)]) == 0
    out = lines_of(capsys)
    assert len(out) == 4 and out[:2] == out[2:]
    # arcs of 7/12 and 17/12 on the circle of length 2
    assert out[0] == "r[0:1/3 1:1/4] closed=119/288 oracle=119/288 diff=0"
    assert len(calls) == 1


def tesseract_points_with_bad_third_pair(tmp_path):
    path = tmp_path / "points.txt"
    first_two = (POINTS / "tesseract.txt").read_text().splitlines()[1:3]
    path.write_text("\n".join([*first_two, "2:9/2 0:0", "1:1/2 2:1/2"]) + "\n")
    return path


def test_oracle_reports_the_first_invalid_point(tmp_path, monkeypatch, capsys):
    calls = count_refinements(monkeypatch)
    argv = oracle_argv("tesseract", tesseract_points_with_bad_third_pair(tmp_path))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: offset 9/2 outside [0, 1] on edge 2\n")
    assert calls == []


@pytest.mark.parametrize("bad_third_pair", [False, True])
def test_oracle_rejects_degree_minus_two_first(bad_third_pair, tmp_path, capsys):
    # the first pair's g meets the divisor before the third pair is read
    points = tesseract_points_with_bad_third_pair(tmp_path) if bad_third_pair else None
    minus_two = "-2," + ",".join(["0"] * 15)
    assert run([*oracle_argv("tesseract", points), f"--divisor={minus_two}"]) == 2
    captured = capsys.readouterr()
    error = "error: divisor degree -2 admits no admissible measure\n"
    assert (captured.out, captured.err) == ("", error)


@pytest.fixture
def builds(monkeypatch):
    """Calls of the value matrix's row build and of the resistance triangle's."""
    counts = {"value matrix": 0, "triangle": 0}
    for key, module, name in (
        ("value matrix", mg.green, "build_value_matrix"),
        ("triangle", mg.potential, "resistance_triangle"),
    ):
        original = getattr(module, name)

        def counted(*args, _key=key, _original=original):
            counts[_key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["epsilon", TESSERACT], (0, 0)),
        (["epsilon", TESSERACT, "--method", "green"], (0, 0)),
        (["epsilon", TESSERACT, "--method", "resistance"], (0, 0)),
        (["green", TESSERACT, "--x", "0:1/3", "--y", "7:2/3"], (0, 1)),
        (["resistance", TESSERACT, "--x", "0:1/3", "--y", "7:2/3"], (0, 1)),
        (oracle_argv("tesseract"), (0, 1)),
        (["value-matrix", TESSERACT], (1, 0)),
        (["check", TESSERACT], (1, 0)),
    ],
    ids=["epsilon", "epsilon-green", "epsilon-resistance", "green", "resistance", "oracle",
         "value-matrix", "check"],
)
def test_commands_build_only_the_quadratic_table_they_read(argv, expected, builds, capsys):
    # epsilon takes its values from O(m) pieces; green, resistance and the
    # oracle's closed forms read the resistance triangle; only value-matrix
    # and check read the value matrix's rows
    assert run(argv) == 0
    capsys.readouterr()
    assert (builds["value matrix"], builds["triangle"]) == expected


MINUS_TWO = mg.Divisor((-2,) + (0,) * 15)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda g: mg.value_matrix(g, MINUS_TWO),
        lambda g: mg.evaluate_green(g, MINUS_TWO, (0, F(1, 3)), (7, F(2, 3))),
        lambda g: mg.check_representation_independence(g, MINUS_TWO),
        lambda g: mg.check_vertex_formula(g, MINUS_TWO),
    ],
    ids=["value_matrix", "evaluate_green", "check_representation_independence",
         "check_vertex_formula"],
)
def test_library_refuses_degree_minus_two_before_pinv(refuse):
    g, _ = parse_graph(Path(TESSERACT).read_text())
    with pytest.raises(mg.BadDegree):
        refuse(g)
    assert "pinv" not in mg.network(g).__dict__


@pytest.mark.parametrize(
    "argv",
    [
        ["epsilon", TESSERACT, "--method", "both"],
        ["check", TESSERACT],
        ["value-matrix", TESSERACT],
        ["green", TESSERACT, "--x", "0:1/3", "--y", "7:2/3"],
        oracle_argv("tesseract"),
    ],
    ids=["epsilon", "check", "value-matrix", "green", "oracle"],
)
def test_commands_refuse_degree_minus_two_before_pinv(argv, capsys):
    # epsilon reads the degree first; the other four reach it through c_mu,
    # which each reads before tau, and so before L+
    minus_two = ",".join(map(str, MINUS_TWO.coefficients))
    assert run([*argv, f"--divisor={minus_two}"]) == 2
    captured = capsys.readouterr()
    error = "error: divisor degree -2 admits no admissible measure\n"
    assert (captured.out, captured.err) == ("", error)
    g, _ = parse_graph(Path(TESSERACT).read_text())
    assert "pinv" not in mg.network(g).__dict__
