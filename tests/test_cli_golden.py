"""The CLI's exact output as a golden corpus.

``data/cli_golden.json`` maps each command line, run from the repository
root, to the sha256 of its stdout and of its stderr and to its exit code.
The test replays every command line through ``cli.run`` in process; an
argparse error is recorded as the code of its ``SystemExit``.

A change that means to alter an output re-records the corpus with

    python tests/test_cli_golden.py

and names the command lines whose digests changed.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "cli_golden.json"

STANDING = ("circle", "banana", "joint_circles", "two_bridges", "tesseract")
COMMANDS = (
    "info", "laplacian", "pinv", "tau", "resistance", "green",
    "value-matrix", "epsilon", "check", "oracle",
)


def first_pair(name: str) -> list[str]:
    """The first frozen oracle pair of a standing graph, as --x and --y."""
    lines = (ROOT / "tests" / "data" / "oracle_points" / f"{name}.txt").read_text().splitlines()
    x, y = next(line.split() for line in lines if line.strip() and not line.startswith("#"))
    return ["--x", x, "--y", y]


def command_lines() -> list[list[str]]:
    """The command lines the corpus records, in order."""
    argvs = []
    for name in STANDING:
        graph = f"graphs/{name}.json"
        for command in COMMANDS:
            extra = {
                "resistance": first_pair(name),
                "green": first_pair(name),
                "oracle": ["--points", f"tests/data/oracle_points/{name}.txt"],
            }.get(command, [])
            argvs += [[command, graph, *extra], [command, graph, *extra, "--machine"]]
        for command in ("tau", "epsilon", "green"):
            extra = first_pair(name) if command == "green" else []
            for machine in ([], ["--machine"]):
                argvs.append([command, graph, *extra, "--decimal", "30", *machine])
        for method in ("green", "resistance", "both"):
            for machine in ([], ["--machine"]):
                argvs.append(["epsilon", graph, "--method", method, *machine])
    tesseract = "graphs/tesseract.json"
    points = [
        ("0:1/3", "7:2/3"),  # valid
        ("0:2", "0:0"), ("0:-1/3", "0:0"), ("0:0", "32:0"), ("99:1/2", "0:0"),  # out of range
        ("0:0.5", "0:0"), ("0:1e3", "0:0"), ("1/2", "0:0"), ("a:1/2", "0:0"),  # malformed
        ("0:1/0", "0:0"), ("0:", "0:0"), (":1/2", "0:0"), ("0:0", "0:1/2/3"),
    ]
    for command in ("resistance", "green"):
        for x, y in points:
            for machine in ([], ["--machine"]):
                argvs.append([command, tesseract, "--x", x, "--y", y, *machine])
    argvs += [
        ["tau", "tests/data/not_json.json"],
        ["info", "tests/data/not_json.json", "--machine"],
        ["tau", "tests/data/past_bound.json"],
        ["check", "tests/data/past_bound.json", "--machine"],
        ["tau", "graphs/missing.json"],
        ["epsilon", "graphs/circle.json", "--divisor", "1,0"],
        ["green", "graphs/circle.json", "--divisor", "1,0,0,0", "--x", "0:0", "--y", "1:1/2"],
        ["value-matrix", "graphs/tesseract.json", "--divisor", "1", "--machine"],
        ["green", "graphs/circle.json", "--divisor=-2,0,0", "--x", "0:0", "--y", "1:1/2"],
        ["oracle", "graphs/circle.json", "--points", "graphs/circle.json"],
        ["oracle", "graphs/circle.json", "--points", "tests/data/oracle_points/tesseract.txt"],
        ["tau"],
    ]
    return argvs


def outcome(argv: list[str]) -> dict:
    """Digests of stdout and stderr, and the exit code, of one command line."""
    from metgraph import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def test_cli_golden_corpus(monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) >= 200
    changed = [line for line, expected in corpus.items() if outcome(shlex.split(line)) != expected]
    assert changed == []


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    corpus = {shlex.join(argv): outcome(argv) for argv in command_lines()}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{len(corpus)} command lines recorded in {CORPUS.relative_to(ROOT)}")
