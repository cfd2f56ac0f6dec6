"""Every top-level public name of metgraph, and every public member of a
class it exports, has a reader outside the tests.

A reader is the package's own code (``__init__``, which only exports, left
out), the benchmark's code, or README's code: its inline code spans and
code blocks.  In code, a name is read as a name or an attribute that is
loaded, an imported name or module, or, in the benchmark, a string that
names a module or a function, as its tracer's layer table does.  A name
that is only assigned or defined, as a class body defines its members, is
not read.  Docstrings and comments read nothing, so a name that only they
mention has no reader.
"""

import ast
import re
from functools import cache
from pathlib import Path

import metgraph as mg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metgraph"


def docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of every module, class and function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def names_read(path: Path, strings: bool) -> set[str]:
    """The names a module's code reads; with ``strings``, also the dotted
    names that whole string constants spell."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = docstrings(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and re.fullmatch(r"[\w.]+", node.value)
        ):
            found.update(node.value.split("."))
    return found


def readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```", text, re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for span in code for name in re.findall(r"\w+", span)}


@cache
def readers() -> frozenset[str]:
    found = readme_names()
    for path in PACKAGE.rglob("*.py"):
        if path != PACKAGE / "__init__.py":
            found |= names_read(path, strings=False)
    for path in (ROOT / "bench").glob("*.py"):
        found |= names_read(path, strings=True)
    return frozenset(found)


PUBLIC = {name: getattr(mg, name) for name in dir(mg) if not name.startswith("_")}


def test_every_public_name_has_a_reader():
    assert sorted(PUBLIC.keys() - readers()) == []


def test_every_public_member_has_a_reader():
    unread = [
        f"{name}.{member}"
        for name, cls in PUBLIC.items()
        if isinstance(cls, type)
        for member in vars(cls)
        if not member.startswith("_") and member not in readers()
    ]
    assert unread == []


def test_a_docstring_is_no_reader(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Mentions only_in_docstring."""\n'
        "import a.b\n"
        "from c import d as e\n"
        "# only_in_comment\n"
        "def f():\n"
        '    """only_in_function_docstring"""\n'
        '    return g.h(i, "j.k", "not a name")\n'
        "class C:\n"
        "    defined = 1\n"
        "    def member(self):\n"
        "        self.stored = self.loaded\n"
    )
    read = {"a", "b", "c", "d", "g", "h", "i", "self", "loaded"}
    assert names_read(module, strings=False) == read
    assert names_read(module, strings=True) == read | {"j", "k"}
