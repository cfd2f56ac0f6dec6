"""Hostile input through the command line, as properties.

Hypothesis draws small graph documents (at most 6 vertices and 8 edges),
mostly well formed but with hostile parts: wrong JSON types, bools and
floats where integers are due, zero, negative and malformed lengths,
unknown vertices, loops, parallel edges, divisors of degree -2, and files
that are not JSON or not UTF-8 at all.  Each runs in process through
every command, ``oracle`` with a drawn points file, and every run must
end in one of the CLI's three outcomes: exit 0; exit 1 with a
``MISMATCH`` or ``FAIL`` line; or exit 2 with nothing on stdout and one
``error:`` line on stderr.  No run may raise, and ``info`` at exit 0
prints six lines.

Three more properties draw the rest of the input.  The argv options
(``--divisor``, ``--decimal``, ``--method``, ``--x`` and ``--y``), each
drawn for the commands that read it, get signs, spaces, separators, other
scripts' digits, wrong counts and integers past CPython's 4300-digit
string limit; argparse rejecting one of them itself is a fourth outcome:
``SystemExit(2)``, nothing on stdout, and stderr ending in one
``metgraph <command>: error:`` line.  An option a command does not read,
with any such value, must end in the top-level parser's error:
``SystemExit(2)``, nothing on stdout, and stderr ending in
``metgraph: error: unrecognized arguments:`` and the option.  ``oracle``
reads drawn points files: pair lines mixed with wrong token counts, bad
offsets, edges past the graph, comments, blank lines, bytes that are not
UTF-8, and no pair at all.

stdout is UTF-8 and strict, as a real terminal or pipe is, so text the
command could not print shows here as the exception it would raise.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import metgraph as mg
from conftest import READS

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"

COMMANDS = (
    "info", "laplacian", "pinv", "tau", "resistance", "green", "value-matrix", "epsilon", "check"
)

# one draw in six: a file that is no graph document, or a hostile point
rare = st.integers(0, 5).map(lambda k: k == 0)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["from", "to", "length"]), st.integers(0, 2), max_size=2),
)
LABELS = st.sampled_from(["", " ", "a\nb", "é", "\ud800", "v0", "0"])
LENGTHS = st.sampled_from(["1", "2", "1/2", "3/2", "2/3", 1, 3])
BAD_LENGTHS = st.one_of(
    st.sampled_from(
        ["0", "0/3", "-1", "-1/2", 0, -2, "1/0", "1e3", "1.5", " 1", "1_0", "٣", "", "/", "p/q"]
        + ["1//2", "1/-2", "1" * 5000]
    ),
    st.floats(),
    st.booleans(),
    JUNK,
)
# offsets at, inside and past the ends of edges whose lengths are LENGTHS;
# the first four lie on every such edge
OFFSETS = st.one_of(
    st.sampled_from(["0", "1/4", "1/3", "1/2"]),
    st.sampled_from(["2/3", "1", "3/2", "2", "3", "7/2", "-1/2"]),
)
RAW_FILES = st.one_of(
    st.sampled_from([b"", b"{", b"[1,", b"null", b"[" * 5000 + b"]" * 5000, b'{"edges": 1e999}']),
    st.binary(max_size=12),
)


@st.composite
def graph_files(draw, max_hostile: int = 2) -> bytes:
    """The bytes of one graph file; with ``max_hostile=0`` a well-formed
    graph document."""
    if max_hostile and draw(rare):
        return draw(RAW_FILES)
    # at most two fields are hostile, each with odds 1 in 8, so that a
    # hostile part is seldom hidden behind an earlier one
    hostile = draw(st.integers(0, max_hostile))

    def pick(good, bad):
        nonlocal hostile
        if hostile and draw(st.integers(1, 8)) == 1:
            hostile -= 1
            return draw(bad)
        return good

    n = pick(draw(st.integers(2, 6)), st.just(1))
    labels = [pick(f"v{k}", LABELS) for k in range(n)]
    vertices = pick(labels, st.one_of(st.lists(LABELS, max_size=6), JUNK))
    # a spanning path and chords keep a document connected and adequate,
    # unless the path is dropped or loops and parallel edges are added
    pairs = pick([(k, k + 1) for k in range(n - 1)], st.just([]))
    chords = [(a, b) for b in range(n) for a in range(b - 1)]
    if chords:
        pairs += draw(st.lists(st.sampled_from(chords), unique=True, max_size=6 - len(pairs)))
    vertex = st.integers(0, n - 1)
    pairs += pick([], st.lists(st.tuples(vertex, vertex), min_size=1, max_size=2))
    bad_end = st.one_of(st.sampled_from([n, -1, True, 1.0, "0"]), JUNK)
    edges = []
    for tail, head in pairs:
        edge = {
            "from": pick(tail, bad_end),
            "to": pick(head, bad_end),
            "length": pick(draw(LENGTHS), BAD_LENGTHS),
        }
        if pick(False, st.just(True)):
            del edge[draw(st.sampled_from(sorted(edge)))]
        edges.append(pick(edge, JUNK))
    doc = {"vertices": vertices, "edges": pick(edges, JUNK)}
    coefficient = st.integers(-3, 3)
    divisor = draw(st.lists(coefficient, min_size=n, max_size=n))
    kind = pick(draw(st.sampled_from(["file", "none"])), st.sampled_from(["degree -2", "hostile"]))
    if kind == "degree -2":
        divisor[-1] += -2 - sum(divisor)
    elif kind == "hostile":
        divisor = draw(
            st.one_of(
                st.lists(coefficient, max_size=7),
                st.lists(
                    st.one_of(coefficient, st.booleans(), st.floats()), min_size=n, max_size=n
                ),
                JUNK,
            )
        )
    if kind != "none":
        doc["divisor"] = divisor
    text = json.dumps(pick(doc, JUNK))
    return text.encode("utf-8")


@st.composite
def point_tokens(draw) -> str:
    if draw(rare):
        return draw(
            st.sampled_from(["", "0", "0:", ":1", "x:1", "0:1/0", "0:0.5", "0:٣", "1:1:1", "0 :1"])
        )
    edge = draw(st.sampled_from([-1, 8])) if draw(rare) else draw(st.integers(0, 2))
    return f"{edge}:{draw(OFFSETS)}"


# an integer at CPython's limit for int <-> str conversion, 4300 digits
AT_LIMIT = "9" * 4300
# each of these options is drawn well formed unless ``rare`` says otherwise
HOSTILE_COEFFICIENTS = st.sampled_from(
    ["+1", "-0", " 1", "1 ", "1_0", "٣", "１", "", "1.0", "1e3", "0x1", "--1"]
    + [AT_LIMIT, "-" + AT_LIMIT, "9" * 5000]
)
HOSTILE_DECIMALS = st.sampled_from(
    ["-1", "+3", " 3", "3 ", "", "1_0", "٣", "3.0", "1e3", "100000", "100001", "9" * 5000]
)
HOSTILE_METHODS = st.sampled_from(["", "Green", "both ", "all", "-1"])
# tokens no point_tokens draw makes: argv may hold a lone surrogate, as a
# byte that is not UTF-8 decodes to under surrogateescape
HOSTILE_POINTS = st.sampled_from(
    ["0:1:", "٠:1", "0:+1/2", "0:1/-2", "0:½", " 0:1", "0:1 ", "\udcff:1", "0:" + "9" * 5000]
    + ["0:1/" + AT_LIMIT, f"0:{AT_LIMIT}/{AT_LIMIT}"]
)


@st.composite
def options(draw, command: str, n: int) -> list[str]:
    """Options for ``command`` on a graph of ``n`` vertices, each one it
    reads present or not, in the = form, so that no value is read as an
    option."""
    def either(good, hostile):
        return draw(hostile) if draw(rare) else draw(good)

    argv = []
    if "--divisor" in READS[command] and draw(st.booleans()):
        coefficients = draw(st.lists(st.integers(-3, 3).map(str), min_size=n, max_size=n))
        if draw(rare):
            coefficients = draw(st.sampled_from([coefficients[1:], coefficients + ["0"]]))
        if coefficients and draw(st.booleans()):
            # one coefficient or, rarely, all of them, whose sum may then
            # pass a limit that each one keeps
            hostile, every = draw(HOSTILE_COEFFICIENTS), range(len(coefficients))
            for k in every if draw(rare) else [draw(st.sampled_from(every))]:
                coefficients[k] = hostile
        argv.append("--divisor=" + draw(st.sampled_from([",", ", ", " , "])).join(coefficients))
    if "--decimal" in READS[command] and draw(st.booleans()):
        argv.append(f"--decimal={either(st.integers(0, 12).map(str), HOSTILE_DECIMALS)}")
    if draw(st.booleans()):
        argv.append("--machine")
    if command == "epsilon" and draw(st.booleans()):
        methods = st.sampled_from(["green", "resistance", "both"])
        argv.append(f"--method={either(methods, HOSTILE_METHODS)}")
    if command in ("resistance", "green"):
        for name in ("x", "y"):
            argv.append(f"--{name}={either(point_tokens(), HOSTILE_POINTS)}")
    return argv


# each option a command may not read, with the values it is drawn with
FOREIGN_VALUES = {
    "--divisor": st.one_of(
        st.lists(st.integers(-3, 3).map(str), min_size=1, max_size=4).map(",".join),
        HOSTILE_COEFFICIENTS,
    ),
    "--decimal": st.one_of(st.integers(0, 12).map(str), HOSTILE_DECIMALS),
    "--x": st.one_of(point_tokens(), HOSTILE_POINTS),
    "--y": st.one_of(point_tokens(), HOSTILE_POINTS),
    "--method": st.one_of(st.sampled_from(["green", "resistance", "both"]), HOSTILE_METHODS),
    "--points": st.sampled_from(["points.txt", "", "-"]),
}


@st.composite
def foreign_options(draw, command: str) -> str:
    """One option that ``command`` does not read, with a value, in the = form."""
    option = draw(st.sampled_from([o for o in FOREIGN_VALUES if o not in READS[command]]))
    return f"{option}={draw(FOREIGN_VALUES[option])}"


# points that lie on every edge of a drawn well-formed graph: edge 0 is
# always there, and edge 1 whenever n > 2
ON_EDGES = st.builds(
    "{}:{}".format, st.integers(0, 1), st.sampled_from(["0", "1/4", "1/3", "1/2"])
)


@st.composite
def points_files(draw) -> bytes:
    """The bytes of one points file: pair lines, mostly well formed, with
    comments and blank lines among them."""
    if draw(rare):
        return draw(
            st.one_of(
                st.sampled_from([b"", b"\n\n", b"# no pairs\n", b"0:0 0:1/2\n\xff\n"]),
                st.binary(max_size=12),
            )
        )

    # at most one token is hostile, so that it is seldom hidden behind another
    hostile = draw(st.booleans())

    def token():
        nonlocal hostile
        if not (hostile and draw(rare)):
            return draw(ON_EDGES)
        hostile = False
        return draw(HOSTILE_POINTS) if draw(st.booleans()) else draw(point_tokens())

    pair = st.sampled_from(["{} {}", "  {}\t{}  "])
    lines = [draw(pair).format(token(), token()) for _ in range(draw(st.integers(1, 3)))]
    blank = st.sampled_from(["", " ", "\t", "# pairs", "  # 0:0 1:0", "#"])
    for _ in range(draw(st.integers(0, 2))):
        if draw(rare):
            line = " ".join(token() for _ in range(draw(st.sampled_from([1, 3]))))
        else:
            line = draw(blank)
        lines.insert(draw(st.integers(0, len(lines))), line)
    # a lone surrogate from HOSTILE_POINTS is written as the byte it stands for
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode("utf-8", "surrogateescape")


def run_captured(argv: list[str]) -> tuple[int | SystemExit, str, str]:
    """``cli.run`` in process, with a strict UTF-8 stdout and a stderr that
    escapes what it cannot encode, as Python's own does.  The status is the
    ``SystemExit`` itself when argparse rejects the argv."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace", newline="\n")
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = mg.cli.run(argv)
        except SystemExit as exc:
            status = exc
    out.flush()
    err.flush()
    return status, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def assert_one_outcome(status: int | SystemExit, out: str, err: str, command=None) -> None:
    """One of the three outcomes; argparse's rejection too, given the
    ``command`` whose options may be rejected."""
    if command is not None and isinstance(status, SystemExit):
        assert status.code == 2 and out == "", (status.code, out)
        assert err.endswith("\n") and err.splitlines()[-1].startswith(
            f"metgraph {command}: error: "
        ), err
    elif status == 0:
        assert err == ""
    elif status == 1:
        assert any(line == "MISMATCH" or ": FAIL (" in line for line in out.splitlines()), out
    else:
        assert status == 2, status
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    """One file, rewritten for each example: hypothesis rejects
    function-scoped fixtures such as ``tmp_path``."""
    return tmp_path_factory.mktemp("cli_properties") / "graph.json"


# the example count and deadline come from the loaded profile (conftest.py)
@given(data=graph_files(), x=point_tokens(), y=point_tokens())
def test_every_command_ends_in_one_outcome(graph_file, data, x, y):
    graph_file.write_bytes(data)
    for command in COMMANDS:
        argv = [command, str(graph_file)]
        if command in ("resistance", "green"):
            # the = form, so that a token such as -1:0 is not read as an option
            argv += [f"--x={x}", f"--y={y}"]
        mg.clear_caches()
        status, out, err = run_captured(argv)
        assert_one_outcome(status, out, err)
        if command == "info" and status == 0:
            # one line per field, whatever the labels hold
            assert len(out.splitlines()) == out.count("\n") == 6, out


def test_lone_surrogate_in_a_vertex_label_is_an_input_error(graph_file):
    # found by the property above: JSON's \ud800 escape makes a label that
    # ``info`` printed, raising UnicodeEncodeError on a UTF-8 stdout
    graph_file.write_bytes(
        b'{"vertices": ["v0", "\\ud800"], "edges": [{"from": 0, "to": 1, "length": "2"}]}'
    )
    assert run_captured(["info", str(graph_file)]) == (
        2,
        "",
        "error: vertices[1]: '\\ud800' is not text: it holds a lone surrogate\n",
    )


@pytest.mark.parametrize(
    "label,rule",
    [
        ("a b", "whitespace"),
        ("a\u3000b", "whitespace"),
        ("\u2028", "whitespace"),
        ("x\u202ey", "a format character"),
        ("\u200b", "a format character"),
        ("soft\u00adhyphen", "a format character"),
    ],
    ids=["space", "ideographic-space", "line-separator", "right-to-left-override",
         "zero-width-space", "soft-hyphen"],
)
def test_whitespace_or_format_character_in_a_vertex_label_is_an_input_error(
    graph_file, label, rule
):
    # info joins the labels with spaces: ["a b", "c"] and ["a", "b c"] both
    # printed "vertices: 2 (a b c)", and U+202E reversed the rest of that
    # line on screen, each with exit 0
    doc = {"vertices": ["v0", label], "edges": [{"from": 0, "to": 1, "length": "2"}]}
    graph_file.write_text(json.dumps(doc), encoding="utf-8")
    assert run_captured(["info", str(graph_file)]) == (
        2,
        "",
        f"error: vertices[1]: {label!r} holds {rule}\n",
    )


@pytest.mark.parametrize("labels,k", [(["a b", "c"], 0), (["a", "b c"], 1)])
def test_labels_that_would_print_alike_are_both_rejected(graph_file, labels, k):
    doc = {"vertices": labels, "edges": [{"from": 0, "to": 1, "length": "2"}]}
    graph_file.write_text(json.dumps(doc), encoding="utf-8")
    assert run_captured(["info", str(graph_file)]) == (
        2,
        "",
        f"error: vertices[{k}]: {labels[k]!r} holds whitespace\n",
    )


def test_a_printable_label_past_ascii_is_accepted(graph_file):
    doc = {"vertices": ["café", "ω"], "edges": [{"from": 0, "to": 1, "length": "2"}]}
    graph_file.write_text(json.dumps(doc), encoding="utf-8")
    status, out, _ = run_captured(["info", str(graph_file)])
    assert status == 0 and out.splitlines()[0] == "vertices: 2 (café ω)"


@pytest.mark.parametrize(
    "label", ["a\nbridges: 9", "\u001b[2J", "\u0085"], ids=["newline", "escape", "next-line"]
)
def test_control_character_in_a_vertex_label_is_an_input_error(graph_file, label):
    # a newline forged a line of ``info``'s output, and an escape sequence
    # reached the terminal, each with exit 0
    doc = {"vertices": ["v0", label], "edges": [{"from": 0, "to": 1, "length": "2"}]}
    graph_file.write_text(json.dumps(doc), encoding="utf-8")
    assert run_captured(["info", str(graph_file)]) == (
        2,
        "",
        f"error: vertices[1]: {label!r} holds a control character\n",
    )


@given(graph=graph_files(max_hostile=0), data=st.data())
def test_every_option_ends_in_one_outcome(graph_file, graph, data):
    graph_file.write_bytes(graph)
    n = len(json.loads(graph)["vertices"])
    for command in COMMANDS:
        argv = [command, str(graph_file), *data.draw(options(command, n), label=command)]
        mg.clear_caches()
        status, out, err = run_captured(argv)
        assert_one_outcome(status, out, err, command)


@given(data=st.data())
def test_an_option_a_command_does_not_read_is_refused_by_the_top_parser(graph_file, data):
    # argparse refuses it before the graph file is read
    graph_file.write_text((GRAPHS / "circle.json").read_text(), encoding="utf-8")
    for command in COMMANDS:
        foreign = data.draw(foreign_options(command), label=command)
        required = ["--x=0:0", "--y=0:0"] if command in ("resistance", "green") else []
        status, out, err = run_captured([command, str(graph_file), *required, foreign])
        assert isinstance(status, SystemExit) and status.code == 2 and out == "", (status, out)
        # stderr escapes a lone surrogate, as the value may hold one
        shown = foreign.encode("utf-8", "backslashreplace").decode()
        assert err.splitlines()[-1] == f"metgraph: error: unrecognized arguments: {shown}", err


# one graph file in six may be hostile, as the property above draws them
@given(graph=rare.flatmap(lambda k: graph_files(2 if k else 0)), points=points_files())
def test_oracle_ends_in_one_outcome(graph_file, graph, points):
    points_file = graph_file.with_name("points.txt")
    graph_file.write_bytes(graph)
    points_file.write_bytes(points)
    mg.clear_caches()
    status, out, err = run_captured(["oracle", str(graph_file), f"--points={points_file}"])
    assert_one_outcome(status, out, err)


def test_a_divisor_degree_past_the_digit_limit_is_an_input_error(graph_file):
    # found by the options property: two coefficients at CPython's
    # 4300-digit limit sum to a degree of 4301 digits, which ``info``
    # printed with str(), raising ValueError
    graph_file.write_text((GRAPHS / "circle.json").read_text(), encoding="utf-8")
    for machine in ([], ["--machine"]):
        argv = ["info", str(graph_file), f"--divisor={AT_LIMIT},{AT_LIMIT},0", *machine]
        assert run_captured(argv) == (
            2,
            "",
            "error: an exact result has more than 4300 digits, "
            "past Python's limit for integer string conversion\n",
        )
