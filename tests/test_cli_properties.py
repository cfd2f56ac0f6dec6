"""Hostile graph files through the command line, as a property.

Hypothesis draws small graph documents (at most 6 vertices and 8 edges),
mostly well formed but with hostile parts: wrong JSON types, bools and
floats where integers are due, zero, negative and malformed lengths,
unknown vertices, loops, parallel edges, divisors of degree -2, and files
that are not JSON or not UTF-8 at all.  Each runs through ``info``,
``tau``, ``epsilon``, ``check`` and ``green`` in process, and every run must
end in one of the CLI's three outcomes: exit 0; exit 1 with a ``MISMATCH``
or ``FAIL`` line; or exit 2 with nothing on stdout and one ``error:`` line
on stderr.  No run may raise, and ``info`` at exit 0 prints six lines.

stdout is UTF-8 and strict, as a real terminal or pipe is, so text the
command could not print shows here as the exception it would raise.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, strategies as st

import metgraph as mg

COMMANDS = ("info", "tau", "epsilon", "check", "green")

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
def graph_files(draw) -> bytes:
    """The bytes of one graph file."""
    if draw(rare):
        return draw(RAW_FILES)
    # at most two fields are hostile, each with odds 1 in 8, so that a
    # hostile part is seldom hidden behind an earlier one
    hostile = draw(st.integers(0, 2))

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


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """``cli.run`` in process, with a strict UTF-8 stdout and a stderr that
    escapes what it cannot encode, as Python's own does."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace", newline="\n")
    with redirect_stdout(out), redirect_stderr(err):
        status = mg.cli.run(argv)
    out.flush()
    err.flush()
    return status, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def assert_one_outcome(status: int, out: str, err: str) -> None:
    if status == 0:
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
        if command == "green":
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
