"""Command line front end.

Reads a graph description from a JSON file and prints exact rational
results.  All output stays in integers and p/q tokens unless a decimal
approximation is explicitly requested, and ``--machine`` switches every
command to a single JSON document on stdout.

Each command is one handler in ``_COMMANDS``, beside its help text and
the options it reads; ``build_parser`` gives each command those options
and ``--machine``, from the argparse keywords in ``_OPTIONS``, so argparse
refuses an option a command does not read.  A handler takes the graph,
its divisor and the parsed arguments, prints nothing, and returns
``(status, doc, lines)``: the exit status, the JSON document (None where
it is costly and ``--machine`` is off), and the text lines, which may be
a lazy iterable rendered only when printed.  ``run`` alone prints, ``doc``
under ``--machine`` and ``lines`` otherwise, and flushes, inside the same
error handling as the work, so a write that fails, as on a closed stdout,
ends the command like any other input or output error.
Handlers look library functions up by their global names when called, so
a tracer that patches those names in this module sees every call.

Exit codes: 0 on success, 1 when a consistency or oracle comparison fails,
2 on any input or output error, a graph over the size bound included.

``cli`` is a package so that ``python -m metgraph.cli`` runs its
``__main__`` module: the ``metgraph`` package imports ``cli``, and runpy
warns when a plain module it is asked to run is imported already.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from ..errors import GraphFormatError, MetgraphError
from ..graph import (
    Divisor,
    Edge,
    GraphPoint,
    MetrizedGraph,
    _INTEGER,
    as_fraction,
    bridges,
    validate_adequate,
)
from ..green import EdgePairFunction, evaluate_green, value_matrix
from ..invariants import _check_reports, epsilon_via_green, epsilon_via_resistance
from ..linalg import laplacian, pinv
from ..oracle import _pair_values
from ..potential import resistance_point, swap_xy, tau_constant


# The largest graph a command accepts.  At the bound, the seeded 10x10 grid
# plus 20 seeded chords (100 vertices, 200 edges) takes about 0.5 s of CPU
# time for ``check`` and 0.35 s for ``epsilon`` while it built the value
# matrix, and the 10x10 grid alone about 0.45 to 0.55 s for ``check``, each
# a whole process with start-up (medians of 5 runs, which spread by about
# 10%; 2-core Intel Xeon, Python 3.11).  The value matrix, the checks and
# the resistance triangle of the point commands grow with the square of
# the edge count.
MAX_VERTICES = 100
MAX_EDGES = 200
# The most digits ``--decimal`` accepts; a count near 10**11 asks Decimal
# for more memory than a host has.
MAX_DECIMAL_DIGITS = 100_000


# ---------------------------------------------------------------------------
# parsing


def _parse_rational(value, field: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise GraphFormatError(
            f"{field}: expected an integer or a 'p/q' string, got {value!r}"
        )
    try:
        return as_fraction(value, field)
    except MetgraphError as exc:
        raise GraphFormatError(str(exc)) from None


def _parse_index(value, field: str, n: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{field}: expected a vertex index, got {value!r}")
    if not 0 <= value < n:
        raise GraphFormatError(f"{field}: vertex index {value} outside 0..{n - 1}")
    return value


def _read_text(path: str, newline: str | None = None) -> str:
    """The file at ``path`` as UTF-8 text, line ends translated as ``open``
    does for ``newline``; bytes that are not UTF-8 raise
    ``GraphFormatError``, and an unreadable file ``OSError``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_graph(text: str) -> tuple[MetrizedGraph, Divisor]:
    """Parse the JSON graph format into a graph plus its divisor.

    The divisor key is optional and defaults to all zeros.  Errors carry
    the path of the offending field.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise GraphFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top level: expected an object")
    vertices = doc.get("vertices")
    if (
        not isinstance(vertices, list)
        or not vertices
        or not all(isinstance(v, str) for v in vertices)
    ):
        raise GraphFormatError("vertices: expected a nonempty list of strings")
    for k, v in enumerate(vertices):
        # JSON's \ud800 escape makes a lone surrogate, which UTF-8 cannot encode
        if any("\ud800" <= c <= "\udfff" for c in v):
            raise GraphFormatError(f"vertices[{k}]: {v!r} is not text: it holds a lone surrogate")
        # ``info`` prints the labels joined by spaces: a control character
        # (Unicode category Cc: U+0000 to U+001F and U+007F to U+009F) would
        # forge output lines or send the terminal an escape sequence,
        # whitespace would make two lists of labels print alike, and a
        # format character (category Cf, such as U+202E, which reverses the
        # rest of a line) would reorder the line on screen
        if any(c < " " or "\x7f" <= c <= "\x9f" for c in v):
            raise GraphFormatError(f"vertices[{k}]: {v!r} holds a control character")
        if any(c.isspace() for c in v):
            raise GraphFormatError(f"vertices[{k}]: {v!r} holds whitespace")
        # ASCII has no format character, so only a label past it loads the
        # Unicode table
        if not v.isascii():
            from unicodedata import category

            if any(category(c) == "Cf" for c in v):
                raise GraphFormatError(f"vertices[{k}]: {v!r} holds a format character")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list) or not raw_edges:
        raise GraphFormatError("edges: expected a nonempty list")
    n = len(vertices)
    edges = []
    for k, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise GraphFormatError(f"edges[{k}]: expected an object")
        tail = _parse_index(item.get("from"), f"edges[{k}].from", n)
        head = _parse_index(item.get("to"), f"edges[{k}].to", n)
        length = _parse_rational(item.get("length"), f"edges[{k}].length")
        if length.numerator <= 0:
            raise GraphFormatError(f"edges[{k}].length: must be positive, got {length}")
        edges.append(Edge(tail, head, length))
    raw_divisor = doc.get("divisor")
    if raw_divisor is None:
        divisor = Divisor.zero(n)
    else:
        ok = isinstance(raw_divisor, list) and len(raw_divisor) == n
        ok = ok and all(
            isinstance(a, int) and not isinstance(a, bool) for a in raw_divisor
        )
        if not ok:
            raise GraphFormatError(f"divisor: expected a list of {n} integers")
        divisor = Divisor(tuple(raw_divisor))
    try:
        graph = MetrizedGraph(tuple(vertices), tuple(edges))
    except MetgraphError as exc:
        raise GraphFormatError(str(exc)) from None
    return graph, divisor


def _parse_integer(text: str) -> int:
    """``text`` as an int if it is ASCII digits with an optional sign, the
    integer form of ``as_fraction``; ``ValueError`` otherwise.  ``int``
    alone would also take "_" separators, other scripts' digits and
    surrounding whitespace."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _parse_point_token(token: str, field: str) -> GraphPoint:
    edge_part, sep, offset_part = token.partition(":")
    if not sep:
        raise GraphFormatError(f"{field}: expected EDGE:OFFSET, got {token!r}")
    try:
        edge = _parse_integer(edge_part)
    except ValueError:
        raise GraphFormatError(f"{field}: bad edge index {edge_part!r}") from None
    try:
        offset = as_fraction(offset_part, field)
    except MetgraphError:
        raise GraphFormatError(f"{field}: malformed offset {offset_part!r}") from None
    return GraphPoint(edge, offset)


def _divisor_option(text: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_integer(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _decimal_option(text: str) -> int:
    try:
        digits = _parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not 0 <= digits <= MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(f"decimal digit count must be in 0..{MAX_DECIMAL_DIGITS}")
    return digits


# ---------------------------------------------------------------------------
# rendering


def _exact(value: Fraction | int) -> str:
    """``value`` as 'p' or 'p/q'.  Every exact value the CLI prints goes
    through here, so one whose numerator or denominator has more digits than
    CPython converts to a string (4300 by default) raises ``MetgraphError``
    naming that limit, and the command exits 2 instead of with a traceback."""
    try:
        return str(value)
    except ValueError:
        raise MetgraphError(
            f"an exact result has more than {sys.get_int_max_str_digits()} digits, "
            "past Python's limit for integer string conversion"
        ) from None


def decimal_approx(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits + len(str(abs(value.numerator))) + len(str(value.denominator)) + 5
        quantum = Decimal(1).scaleb(-digits)
        approx = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
            quantum, rounding=ROUND_HALF_EVEN
        )
    return str(approx)


def _render_value(value: Fraction, args) -> str:
    if args.decimal is None:
        return _exact(value)
    return f"{_exact(value)} {decimal_approx(value, args.decimal)}"


_TERM_UNITS = (None, "x", "y", "x^2", "y^2", "x*y", "|x-y|")


def _format_terms(coefficients: Sequence[Fraction]) -> str:
    # zero and sign are read from the numerator, where a Fraction keeps its
    # sign: int tests cost less than Fraction comparisons and abs
    pieces = [(coef, unit) for coef, unit in zip(coefficients, _TERM_UNITS) if coef.numerator]
    if not pieces:
        return "0"
    out = []
    for k, (coef, unit) in enumerate(pieces):
        negative = coef.numerator < 0
        magnitude = -coef if k > 0 and negative else coef
        text = _exact(magnitude) if unit is None else f"{_exact(magnitude)}*{unit}"
        if k > 0:
            text = (" - " if negative else " + ") + text
        out.append(text)
    return "".join(out)


# ---------------------------------------------------------------------------
# commands


def _cmd_info(g, divisor, args):
    adequate = validate_adequate(g)
    bridge_list = sorted(bridges(g))
    doc = {
        "command": "info",
        "vertices": list(g.vertices),
        "edges": [[e.tail, e.head, _exact(e.length)] for e in g.edges],
        "total_length": _exact(g.total_length),
        "adequate": adequate,
        "bridges": bridge_list,
        "divisor": list(divisor.coefficients),
        "degree": divisor.degree,
    }
    lines = [
        f"vertices: {g.n_vertices} ({' '.join(g.vertices)})",
        f"edges: {g.n_edges}",
        f"total length: {_exact(g.total_length)}",
        f"adequate: {'yes' if adequate else 'no'}",
        f"bridges: {' '.join(map(str, bridge_list)) or '-'}",
        # each coefficient was read in under the digit limit; their sum
        # may pass it
        f"divisor: {','.join(map(str, divisor.coefficients))} (degree {_exact(divisor.degree)})",
    ]
    return 0, doc, lines


def _cmd_matrix(g, divisor, args):
    """``laplacian`` and ``pinv``: one row per line."""
    matrix = laplacian(g) if args.command == "laplacian" else pinv(g)
    rows = [[_exact(x) for x in matrix.row(i)] for i in range(matrix.n_rows)]
    return 0, {"command": args.command, "rows": rows}, (" ".join(row) for row in rows)


def _cmd_value(g, divisor, args):
    """``tau``, ``resistance`` and ``green``: one exact value."""
    if args.command == "tau":
        value = tau_constant(g)
    else:
        x = _parse_point_token(args.x, "--x")
        y = _parse_point_token(args.y, "--y")
        if args.command == "resistance":
            value = resistance_point(g, x, y)
        else:
            value = evaluate_green(g, divisor, x, y)
    doc = {"command": args.command, "value": _exact(value)}
    if args.decimal is not None:
        doc["decimal"] = decimal_approx(value, args.decimal)
    return 0, doc, [_render_value(value, args)]


def _cmd_value_matrix(g, divisor, args):
    # each edge pair's seven reduced Fractions are made once, for either
    # output: z_ji's are z_ij's with x and y swapped
    matrix = value_matrix(g, divisor)
    edges = range(matrix.size)
    upper = {(i, j): matrix.entry(i, j).coefficients() for i in edges for j in edges[i:]}
    coefficients = [[upper[i, j] if i <= j else swap_xy(upper[j, i]) for j in edges] for i in edges]
    names = EdgePairFunction.terms
    doc = {
        "command": "value-matrix",
        "divisor": list(divisor.coefficients),
        "entries": [[dict(zip(names, map(_exact, c))) for c in row] for row in coefficients],
    } if args.machine else None
    lines = (
        f"z[{i}][{j}] = {_format_terms(c)}"
        for i, row in enumerate(coefficients)
        for j, c in enumerate(row)
    )
    return 0, doc, lines


def _cmd_epsilon(g, divisor, args):
    doc: dict = {"command": "epsilon", "method": args.method}
    lines, values = [], {}
    routes = {"green": epsilon_via_green, "resistance": epsilon_via_resistance}
    for route, epsilon in routes.items():
        if args.method in (route, "both"):
            value = values[route] = epsilon(g, divisor)
            doc[route] = _exact(value)
            text = _render_value(value, args)
            lines.append(text if args.method == route else f"{route:<10} {text}")
    if args.decimal is not None:
        doc["decimal"] = {route: decimal_approx(v, args.decimal) for route, v in values.items()}
    if args.method != "both":
        return 0, doc, lines
    match = values["green"] == values["resistance"]
    doc["match"] = match
    lines.append("MATCH" if match else "MISMATCH")
    return (0 if match else 1), doc, lines


def _cmd_check(g, divisor, args):
    reports = _check_reports(g, divisor)
    doc = {
        "command": "check",
        "reports": [
            {
                "name": rep.name,
                "comparisons": rep.comparisons,
                "passed": rep.passed,
                "mismatches": [
                    {"location": m.location, "expected": _exact(m.expected), "got": _exact(m.got)}
                    for m in rep.mismatches
                ],
            }
            for rep in reports
        ],
    }
    lines = []
    for rep in reports:
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.name}: {verdict} ({rep.comparisons} comparisons)")
        for m in rep.mismatches:
            lines.append(f"  {m.location}: expected {_exact(m.expected)}, got {_exact(m.got)}")
    return (0 if all(rep.passed for rep in reports) else 1), doc, lines


# what separates the two tokens of a points-file line
_POINT_SEPARATOR = re.compile(r"[ \t]+")


def _read_point_pairs(path: str) -> list[tuple[GraphPoint, GraphPoint]]:
    """The pairs of a points file.  Lines end at a line feed only, with a
    carriage return before it dropped, and tokens are separated by ASCII
    spaces and tabs only: any other character, such as a form feed or a
    no-break space, is part of a token, so the line is rejected, under
    its own line number."""
    pairs = []
    for lineno, line in enumerate(_read_text(path, newline="").split("\n"), start=1):
        body = line.removesuffix("\r").strip(" \t")
        if not body or body.startswith("#"):
            continue
        tokens = _POINT_SEPARATOR.split(body)
        if len(tokens) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected two EDGE:OFFSET tokens, got {body!r}"
            )
        pairs.append(tuple(_parse_point_token(token, f"{path}:{lineno}") for token in tokens))
    if not pairs:
        raise GraphFormatError(f"{path}: no point pairs found")
    return pairs


def _cmd_oracle(g, divisor, args):
    pairs = _read_point_pairs(args.points)
    # the closed forms first, pair by pair, so the first invalid point, or a
    # divisor of degree -2, is reported before any refinement is built; the
    # Green value before the resistance, so that degree -2 builds no L+
    closed_values = []
    for x, y in pairs:
        green = evaluate_green(g, divisor, x, y)
        closed_values.append((resistance_point(g, x, y), green))
    oracle_values = _pair_values(g, divisor, pairs, MAX_VERTICES)
    rows = []
    for (x, y), closed_rg, oracle_rg in zip(pairs, closed_values, oracle_values):
        for name, closed, via_oracle in zip("rg", closed_rg, oracle_rg):
            rows.append(
                {
                    "quantity": name,
                    "x": f"{x.edge}:{_exact(x.offset)}",
                    "y": f"{y.edge}:{_exact(y.offset)}",
                    "closed": _exact(closed),
                    "oracle": _exact(via_oracle),
                    "diff": _exact(closed - via_oracle),
                }
            )
    match = all(row["diff"] == "0" for row in rows)
    lines = (
        f"{row['quantity']}[{row['x']} {row['y']}] closed={row['closed']} "
        f"oracle={row['oracle']} diff={row['diff']}"
        for row in rows
    )
    return (0 if match else 1), {"command": "oracle", "rows": rows, "match": match}, lines


# name -> (handler, help text, the options it reads besides --machine, each
# named by the attribute that holds its value)
_COMMANDS = {
    "info": (_cmd_info, "summarize the graph and its divisor", ("divisor",)),
    "laplacian": (_cmd_matrix, "print the discrete Laplacian, one row per line", ()),
    "pinv": (_cmd_matrix, "print the Laplacian pseudoinverse, one row per line", ()),
    "tau": (_cmd_value, "print the tau constant", ("decimal",)),
    "resistance": (_cmd_value, "resistance between two points", ("decimal", "x", "y")),
    "green": (_cmd_value, "Green function value at two points", ("divisor", "decimal", "x", "y")),
    "value-matrix": (
        _cmd_value_matrix, "closed form of the Green function per edge pair", ("divisor",)
    ),
    "epsilon": (_cmd_epsilon, "epsilon invariant of the divisor", ("divisor", "decimal", "method")),
    "check": (_cmd_check, "run the built-in consistency checks", ("divisor",)),
    "oracle": (
        _cmd_oracle, "compare closed forms against the subdivision oracle", ("divisor", "points")
    ),
}

# option, named by its flag without the dashes -> its argparse keywords, in
# the order a command's parser adds them; every command takes --machine
_OPTIONS = {
    "divisor": dict(
        type=_divisor_option,
        metavar="A0,A1,...",
        help="override the divisor from the file; a negative first coefficient "
        "needs the = form, as in --divisor=-1,0,0",
    ),
    "decimal": dict(
        type=_decimal_option,
        metavar="K",
        help="append K-digit decimal approximations to exact values",
    ),
    "machine": dict(action="store_true", help="emit one JSON document instead of text"),
    "x": dict(required=True, metavar="EDGE:OFFSET"),
    "y": dict(required=True, metavar="EDGE:OFFSET"),
    "method": dict(choices=("green", "resistance", "both"), default="both"),
    "points": dict(required=True, metavar="FILE", help="file with one 'i:p/q j:p/q' pair per line"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metgraph",
        description="Exact potential theory on metrized graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="path to a JSON graph file")
        for option, keywords in _OPTIONS.items():
            if option in options or option == "machine":
                p.add_argument(f"--{option}", **keywords)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        g, divisor = parse_graph(_read_text(args.graph))
        if g.n_vertices > MAX_VERTICES or g.n_edges > MAX_EDGES:
            raise GraphFormatError(
                f"graph has {g.n_vertices} vertices and {g.n_edges} edges; at most "
                f"{MAX_VERTICES} vertices and {MAX_EDGES} edges are accepted"
            )
        handler, _, options = _COMMANDS[args.command]
        if "divisor" in options and args.divisor is not None:
            if len(args.divisor) != g.n_vertices:
                raise GraphFormatError(
                    f"--divisor: expected {g.n_vertices} coefficients, got {len(args.divisor)}"
                )
            divisor = Divisor(args.divisor)
        status, doc, lines = handler(g, divisor, args)
        try:
            if args.machine:
                print(json.dumps(doc))
            else:
                for line in lines:
                    print(line)
            sys.stdout.flush()
        except OSError:
            # a closed stdout is an OSError too; the rest of its buffer goes to
            # devnull, or the flush at interpreter shutdown fails and exits 120
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return status
    except (MetgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
