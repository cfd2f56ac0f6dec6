"""End-to-end tests for the command line front end."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metgraph as mg
from conftest import serialize_graph
from metgraph.cli import decimal_approx, format_entry, parse_graph, run

F = Fraction

GRAPHS = Path(__file__).parent.parent / "graphs"
POINTS = Path(__file__).parent / "data" / "oracle_points"

SRC = Path(mg.__file__).resolve().parent.parent

CIRCLE = str(GRAPHS / "circle.json")
BANANA = str(GRAPHS / "banana.json")
TWO_BRIDGES = str(GRAPHS / "two_bridges.json")
TESSERACT = str(GRAPHS / "tesseract.json")


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
        with pytest.raises(SystemExit):
            run(["tau", CIRCLE, "--divisor", "1,x,3"])

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
        assert format_entry(mg.EdgePairFunction(0, 0)) == "0"

    def test_format_entry_signs(self):
        entry = mg.EdgePairFunction(0, 0, c0=F(-1, 2), cx=F(1, 3), cabs=F(-2))
        assert format_entry(entry) == "-1/2 + 1/3*x - 2*|x-y|"


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
    # both reports compare against the same canonical vertex-pair values
    tables = []
    build = mg.invariants._vertex_table

    def counted(g, matrix):
        tables.append(g)
        return build(g, matrix)

    monkeypatch.setattr(mg.invariants, "_vertex_table", counted)
    assert run(["check", TWO_BRIDGES]) == 0
    assert len(tables) == 1
    assert len(lines_of(capsys)) == 2
