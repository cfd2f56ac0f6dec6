"""``tools/code_size.py``: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_size.py"
spec = importlib.util.spec_from_file_location("code_size", TOOL)
code_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_size)


def test_blank_comment_and_docstring_lines_do_not_count():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "text = '''a string\n"
        "over two lines'''\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "    def f(self):\n"
        "        '''Function docstring.'''\n"
        "        return (x,\n"
        "                x)\n"
    )
    assert code_size.code_lines(source) == 7


def test_the_package_is_counted_module_by_module():
    sizes = code_size.module_sizes(TOOL.parent.parent)
    assert "metgraph/__init__.py" in sizes and "metgraph/cli/__init__.py" in sizes
    assert all(count > 0 for count in sizes.values())


def test_members_removed_and_added_are_listed(tmp_path, capsys):
    # a second checkout whose package exports one name the package lacks
    # and a ValueMatrix with one member the package's lacks
    package = tmp_path / "src" / "metgraph"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "class ValueMatrix:\n"
        "    def entry(self): ...\n"
        "    def gone(self): ...\n"
        "    def _private(self): ...\n"
        "def old_name(): ...\n"
    )
    names, members, options = code_size.public_api(tmp_path)
    assert (names, members) == (["ValueMatrix", "old_name"], ["ValueMatrix.entry", "ValueMatrix.gone"])
    # a checkout with no cli module has no CLI options
    assert options == []
    assert code_size.main([str(tmp_path)]) == 0
    listed = [line for line in capsys.readouterr().out.splitlines() if line[:2] in ("- ", "+ ")]
    assert "- old_name" in listed and "- ValueMatrix.gone" in listed
    assert "+ ValueMatrix.size" in listed and "+ tau_constant" in listed
    assert "- ValueMatrix.entry" not in listed and "+ ValueMatrix.entry" not in listed
    assert "+ tau --decimal" in listed and "+ oracle --points" in listed


def test_the_cli_options_are_the_pairs_its_parser_accepts():
    _, _, options = code_size.public_api(TOOL.parent.parent)
    assert len(options) == 26
    assert "epsilon --method" in options and "tau --machine" in options
    assert "tau --divisor" not in options and "pinv --decimal" not in options
    assert "resistance --divisor" not in options
    assert not any(option.endswith(("--help", "-h")) for option in options)


def test_cli_options_removed_and_added_are_listed(tmp_path, capsys):
    # a second checkout whose one command takes --divisor and --decimal
    package = tmp_path / "src" / "metgraph"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import argparse\n"
        "def build_parser():\n"
        "    parser = argparse.ArgumentParser()\n"
        "    tau = parser.add_subparsers().add_parser('tau')\n"
        "    tau.add_argument('graph')\n"
        "    tau.add_argument('--divisor')\n"
        "    tau.add_argument('--decimal')\n"
        "    return parser\n"
    )
    assert code_size.public_api(tmp_path)[2] == ["tau --decimal", "tau --divisor"]
    assert code_size.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out if line.startswith("cli options")] == [
        ["cli", "options", "2", "26", "+24"]
    ]
    listed = [line for line in out if " --" in line and line[:2] in ("- ", "+ ")]
    assert "- tau --divisor" in listed and "+ tau --machine" in listed
    assert "+ tau --decimal" not in listed and len(listed) == 1 + 25
