"""Command line front end.

Reads a graph description from a JSON file and prints exact rational
results.  All output stays in integers and p/q tokens unless a decimal
approximation is explicitly requested, and ``--machine`` switches every
command to a single JSON document on stdout.

Exit codes: 0 on success, 1 when a consistency or oracle comparison fails,
2 on any input error, a graph over the size bound included.

``cli`` is a package so that ``python -m metgraph.cli`` runs its
``__main__`` module: the ``metgraph`` package imports ``cli``, and runpy
warns when a plain module it is asked to run is imported already.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from ..errors import GraphFormatError, MetgraphError
from ..graph import (
    Divisor,
    Edge,
    GraphPoint,
    MetrizedGraph,
    as_fraction,
    bridges,
    validate_adequate,
)
from ..green import EdgePairFunction, evaluate_green, value_matrix
from ..invariants import _check_reports, epsilon_via_green, epsilon_via_resistance
from ..linalg import laplacian, pinv
from ..oracle import subdivide_at_points
from ..potential import resistance_point, tau_constant


# The largest graph a command accepts.  At the bound, the seeded 10x10 grid
# plus 20 seeded chords (100 vertices, 200 edges) takes about 0.5 s of CPU
# time for ``check`` and 0.35 s for ``epsilon``, and the 10x10 grid alone
# about 0.45 to 0.55 s for ``check``, each a whole process with start-up
# (medians of 5 runs, which spread by about 10%; 2-core Intel Xeon,
# Python 3.11).  The value matrix and the checks grow with the square of
# the edge count.
MAX_VERTICES = 100
MAX_EDGES = 200


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


def _read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text; bytes that are not UTF-8 raise
    ``GraphFormatError``, and an unreadable file ``OSError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
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
        if length <= 0:
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


def serialize_graph(g: MetrizedGraph, divisor: Divisor | None = None) -> str:
    def length_of(value: Fraction):
        return value.numerator if value.denominator == 1 else str(value)

    doc = {
        "vertices": list(g.vertices),
        "edges": [
            {"from": e.tail, "to": e.head, "length": length_of(e.length)}
            for e in g.edges
        ],
    }
    if divisor is not None:
        doc["divisor"] = list(divisor.coefficients)
    return json.dumps(doc, indent=2) + "\n"


def _parse_point_token(token: str, field: str) -> GraphPoint:
    edge_part, sep, offset_part = token.partition(":")
    if not sep:
        raise GraphFormatError(f"{field}: expected EDGE:OFFSET, got {token!r}")
    try:
        edge = int(edge_part)
    except ValueError:
        raise GraphFormatError(f"{field}: bad edge index {edge_part!r}") from None
    try:
        offset = as_fraction(offset_part, field)
    except MetgraphError:
        raise GraphFormatError(f"{field}: malformed offset {offset_part!r}") from None
    return GraphPoint(edge, offset)


def _divisor_option(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _decimal_option(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if digits < 0:
        raise argparse.ArgumentTypeError("decimal digit count must be nonnegative")
    return digits


# ---------------------------------------------------------------------------
# rendering


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
        return str(value)
    return f"{value} {decimal_approx(value, args.decimal)}"


def _value_payload(value: Fraction, args) -> dict:
    payload: dict = {"value": str(value)}
    if args.decimal is not None:
        payload["decimal"] = decimal_approx(value, args.decimal)
    return payload


_TERM_UNITS = (None, "x", "y", "x^2", "y^2", "x*y", "|x-y|")


def format_entry(entry: EdgePairFunction) -> str:
    pieces = [
        (coef, unit)
        for coef, unit in zip(entry.coefficients(), _TERM_UNITS)
        if coef != 0
    ]
    if not pieces:
        return "0"
    out = []
    for k, (coef, unit) in enumerate(pieces):
        magnitude = coef if k == 0 else abs(coef)
        text = str(magnitude) if unit is None else f"{magnitude}*{unit}"
        if k > 0:
            text = (" + " if coef > 0 else " - ") + text
        out.append(text)
    return "".join(out)


def _emit(doc: dict, machine: bool, lines) -> None:
    if machine:
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def _cmd_info(g, divisor, args) -> int:
    adequate = validate_adequate(g)
    bridge_list = sorted(bridges(g))
    doc = {
        "command": "info",
        "vertices": list(g.vertices),
        "edges": [[e.tail, e.head, str(e.length)] for e in g.edges],
        "total_length": str(g.total_length),
        "adequate": adequate,
        "bridges": bridge_list,
        "divisor": list(divisor.coefficients),
        "degree": divisor.degree,
    }
    lines = [
        f"vertices: {g.n_vertices} ({' '.join(g.vertices)})",
        f"edges: {g.n_edges}",
        f"total length: {g.total_length}",
        f"adequate: {'yes' if adequate else 'no'}",
        f"bridges: {' '.join(map(str, bridge_list)) or '-'}",
        f"divisor: {','.join(str(a) for a in divisor.coefficients)} (degree {divisor.degree})",
    ]
    _emit(doc, args.machine, lines)
    return 0


def _matrix_rows(matrix) -> list[list[str]]:
    return [[str(x) for x in matrix.row(i)] for i in range(matrix.n_rows)]


def _cmd_laplacian(g, divisor, args) -> int:
    rows = _matrix_rows(laplacian(g))
    _emit({"command": "laplacian", "rows": rows}, args.machine, (" ".join(r) for r in rows))
    return 0


def _cmd_pinv(g, divisor, args) -> int:
    rows = _matrix_rows(pinv(g))
    _emit({"command": "pinv", "rows": rows}, args.machine, (" ".join(r) for r in rows))
    return 0


def _cmd_tau(g, divisor, args) -> int:
    value = tau_constant(g)
    doc = {"command": "tau", **_value_payload(value, args)}
    _emit(doc, args.machine, [_render_value(value, args)])
    return 0


def _cmd_resistance(g, divisor, args) -> int:
    x = _parse_point_token(args.x, "--x")
    y = _parse_point_token(args.y, "--y")
    value = resistance_point(g, x, y)
    doc = {"command": "resistance", **_value_payload(value, args)}
    _emit(doc, args.machine, [_render_value(value, args)])
    return 0


def _cmd_green(g, divisor, args) -> int:
    x = _parse_point_token(args.x, "--x")
    y = _parse_point_token(args.y, "--y")
    value = evaluate_green(g, divisor, x, y)
    doc = {"command": "green", **_value_payload(value, args)}
    _emit(doc, args.machine, [_render_value(value, args)])
    return 0


def _cmd_value_matrix(g, divisor, args) -> int:
    matrix = value_matrix(g, divisor)
    names = ("c0", "cx", "cy", "cxx", "cyy", "cxy", "cabs")
    entries = [
        [
            {name: str(c) for name, c in zip(names, matrix.entry(i, j).coefficients())}
            for j in range(matrix.size)
        ]
        for i in range(matrix.size)
    ]
    doc = {
        "command": "value-matrix",
        "divisor": list(divisor.coefficients),
        "entries": entries,
    }
    lines = [
        f"z[{i}][{j}] = {format_entry(matrix.entry(i, j))}"
        for i in range(matrix.size)
        for j in range(matrix.size)
    ]
    _emit(doc, args.machine, lines)
    return 0


def _cmd_epsilon(g, divisor, args) -> int:
    doc: dict = {"command": "epsilon", "method": args.method}
    lines = []
    status = 0
    if args.method in ("green", "both"):
        via_green = epsilon_via_green(g, divisor)
        doc["green"] = str(via_green)
        lines.append(
            _render_value(via_green, args)
            if args.method == "green"
            else f"green      {_render_value(via_green, args)}"
        )
    if args.method in ("resistance", "both"):
        via_resistance = epsilon_via_resistance(g, divisor)
        doc["resistance"] = str(via_resistance)
        lines.append(
            _render_value(via_resistance, args)
            if args.method == "resistance"
            else f"resistance {_render_value(via_resistance, args)}"
        )
    if args.method == "both":
        match = via_green == via_resistance
        doc["match"] = match
        lines.append("MATCH" if match else "MISMATCH")
        status = 0 if match else 1
    _emit(doc, args.machine, lines)
    return status


def _cmd_check(g, divisor, args) -> int:
    reports = _check_reports(g, divisor)
    doc = {
        "command": "check",
        "reports": [
            {
                "name": rep.name,
                "comparisons": rep.comparisons,
                "passed": rep.passed,
                "mismatches": [
                    {"location": m.location, "expected": str(m.expected), "got": str(m.got)}
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
            lines.append(f"  {m.location}: expected {m.expected}, got {m.got}")
    _emit(doc, args.machine, lines)
    return 0 if all(rep.passed for rep in reports) else 1


def _read_point_pairs(path: str) -> list[tuple[GraphPoint, GraphPoint]]:
    pairs = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected two EDGE:OFFSET tokens, got {body!r}"
            )
        pairs.append(
            (
                _parse_point_token(tokens[0], f"{path}:{lineno}"),
                _parse_point_token(tokens[1], f"{path}:{lineno}"),
            )
        )
    if not pairs:
        raise GraphFormatError(f"{path}: no point pairs found")
    return pairs


def _cmd_oracle(g, divisor, args) -> int:
    pairs = _read_point_pairs(args.points)
    rows = []
    lines = []
    status = 0
    for x, y in pairs:
        closed_r = resistance_point(g, x, y)
        sub = subdivide_at_points(g, [x, y])
        oracle_r = sub.resistance(x, y)
        closed_g = evaluate_green(g, divisor, x, y)
        oracle_g = sub.green(divisor, x, y)
        where = f"[{x.edge}:{x.offset} {y.edge}:{y.offset}]"
        for name, closed, via_oracle in (("r", closed_r, oracle_r), ("g", closed_g, oracle_g)):
            diff = closed - via_oracle
            if diff != 0:
                status = 1
            lines.append(
                f"{name}{where} closed={closed} oracle={via_oracle} diff={diff}"
            )
            rows.append(
                {
                    "quantity": name,
                    "x": f"{x.edge}:{x.offset}",
                    "y": f"{y.edge}:{y.offset}",
                    "closed": str(closed),
                    "oracle": str(via_oracle),
                    "diff": str(diff),
                }
            )
    _emit({"command": "oracle", "rows": rows, "match": status == 0}, args.machine, lines)
    return status


_COMMANDS = {
    "info": _cmd_info,
    "laplacian": _cmd_laplacian,
    "pinv": _cmd_pinv,
    "tau": _cmd_tau,
    "resistance": _cmd_resistance,
    "green": _cmd_green,
    "value-matrix": _cmd_value_matrix,
    "epsilon": _cmd_epsilon,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metgraph",
        description="Exact potential theory on metrized graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="path to a JSON graph file")
        p.add_argument(
            "--divisor",
            type=_divisor_option,
            default=None,
            metavar="A0,A1,...",
            help="override the divisor from the file",
        )
        p.add_argument(
            "--decimal",
            type=_decimal_option,
            default=None,
            metavar="K",
            help="append K-digit decimal approximations to exact values",
        )
        p.add_argument(
            "--machine",
            action="store_true",
            help="emit one JSON document instead of text",
        )

    descriptions = {
        "info": "summarize the graph and its divisor",
        "laplacian": "print the discrete Laplacian, one row per line",
        "pinv": "print the Laplacian pseudoinverse, one row per line",
        "tau": "print the tau constant",
        "resistance": "resistance between two points",
        "green": "Green function value at two points",
        "value-matrix": "closed form of the Green function per edge pair",
        "epsilon": "epsilon invariant of the divisor",
        "check": "run the built-in consistency checks",
        "oracle": "compare closed forms against the subdivision oracle",
    }
    parsers = {}
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=descriptions[name])
        common(p)
        parsers[name] = p
    for name in ("resistance", "green"):
        parsers[name].add_argument("--x", required=True, metavar="EDGE:OFFSET")
        parsers[name].add_argument("--y", required=True, metavar="EDGE:OFFSET")
    parsers["epsilon"].add_argument(
        "--method",
        choices=("green", "resistance", "both"),
        default="both",
    )
    parsers["oracle"].add_argument(
        "--points",
        required=True,
        metavar="FILE",
        help="file with one 'i:p/q j:p/q' pair per line",
    )
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
        if args.divisor is not None:
            if len(args.divisor) != g.n_vertices:
                raise GraphFormatError(
                    f"--divisor: expected {g.n_vertices} coefficients, got {len(args.divisor)}"
                )
            divisor = Divisor(args.divisor)
        return _COMMANDS[args.command](g, divisor, args)
    except (MetgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
