"""Code lines per module of the metgraph package, its public names and
the public members of the classes it exports.

A code line is a line of ``src/metgraph`` that holds a token other than a
comment and is not part of a docstring: blank lines, comment lines and
docstrings do not count, while a line holding code and a trailing comment
does.  The public names are the top-level names of the imported package
that do not start with an underscore, submodules included.  The public
members are, for each public name that is a class, the names its own
namespace (``vars(cls)``) defines that do not start with an underscore,
written ``Class.member``.

    python tools/code_size.py             # this checkout
    python tools/code_size.py OTHER       # OTHER, this checkout and the change

OTHER is the root of a second checkout, for example a clone of the parent
commit; against it the names and members removed (``-``) and added (``+``)
are listed.  Both are read by importing each package in a child process,
so neither checkout needs to be installed.
"""

from __future__ import annotations

import ast
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that make no line a code line on their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}

_NAMES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import metgraph
names = sorted(n for n in dir(metgraph) if not n.startswith("_"))
members = sorted(
    f"{n}.{m}"
    for n in names
    if isinstance(getattr(metgraph, n), type)
    for m in vars(getattr(metgraph, n))
    if not m.startswith("_")
)
print(json.dumps([names, members]))
"""


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def module_sizes(root: Path) -> dict[str, int]:
    package = root / "src"
    return {
        path.relative_to(package).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((package / "metgraph").rglob("*.py"))
    }


def public_names(root: Path) -> tuple[list[str], list[str]]:
    """The public names and the public members of the package at ``root``."""
    out = subprocess.run(
        [sys.executable, "-c", _NAMES, str(root / "src")],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(f"usage: {Path(__file__).name} [OTHER_CHECKOUT]", file=sys.stderr)
        return 2
    sizes, (names, members) = module_sizes(ROOT), public_names(ROOT)
    if not argv:
        width = max(map(len, sizes))
        for module, count in sizes.items():
            print(f"{module:<{width}}  {count:5}")
        print(f"{'code lines':<{width}}  {sum(sizes.values()):5}")
        print(f"{'public names':<{width}}  {len(names):5}")
        print(f"{'public members':<{width}}  {len(members):5}")
        return 0
    other = Path(argv[0]).resolve()
    before, (names_before, members_before) = module_sizes(other), public_names(other)
    modules = sorted(before.keys() | sizes.keys())
    width = max(map(len, modules))
    print(f"{'':<{width}}  {'other':>5}  {'this':>5}  {'change':>6}")
    rows = [(module, before.get(module, 0), sizes.get(module, 0)) for module in modules]
    rows.append(("code lines", sum(before.values()), sum(sizes.values())))
    rows.append(("public names", len(names_before), len(names)))
    rows.append(("public members", len(members_before), len(members)))
    for label, a, b in rows:
        print(f"{label:<{width}}  {a:5}  {b:5}  {b - a:+6}")
    for old, new in ((names_before, names), (members_before, members)):
        for name in sorted(set(old) - set(new)):
            print(f"- {name}")
        for name in sorted(set(new) - set(old)):
            print(f"+ {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
