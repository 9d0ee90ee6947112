"""README.md as a test: its examples run as written, and its table from the
paper to the code names functions and tests that exist."""

import ast
import re
from pathlib import Path

import pytest

import nifcheck
from nifcheck.cli import PROPERTIES, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "nifcheck"  # the examples' paths start here


def transcripts():
    """(arguments, printed lines) of every ``$ nifcheck`` block."""
    out = []
    for block in re.findall(r"```\n\$ nifcheck (.*?)```", README, re.S):
        command, *lines = block.rstrip("\n").split("\n")
        out.append((command.split(), lines))
    return out


def paper_rows():
    """The cells of each row of the paper-to-code table."""
    section = README.split("### From the paper to the code\n")[1].split("\n#")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in row.strip("| ").split(" | ")] for row in rows[2:]]


def names(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_readme_has_three_transcripts():
    assert len(transcripts()) == 3


@pytest.mark.parametrize("argv, lines", transcripts(), ids=[" ".join(a) for a, _ in transcripts()])
def test_transcript_prints_what_the_readme_shows(argv, lines, monkeypatch, capsys):
    monkeypatch.chdir(PACKAGE)
    main(argv)
    assert capsys.readouterr().out.splitlines() == lines


def test_python_example_prints_what_its_comments_say(monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    monkeypatch.chdir(PACKAGE)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#")[1].strip() for line in code.splitlines() if "print(" in line]
    assert len(printed) == len(comments) == 3
    for shown, comment in zip(printed, comments):
        if comment == "interned tree id":
            assert int(shown) >= 0
        else:
            assert comment in nifcheck.OUTCOMES and shown == comment


def test_paper_table_names_existing_functions_and_tests():
    rows = paper_rows()
    assert len(rows) >= 8
    defined = {}
    for row in rows:
        notion, properties, deciders, tests = row
        assert notion
        assert set(names(properties)) <= set(PROPERTIES)
        assert names(deciders) and names(tests)
        for name in names(deciders):
            assert callable(getattr(nifcheck, name, None)), name
        for test in names(tests):
            path, *scope = test.split("::")
            if path not in defined:
                tree = ast.parse((ROOT / "tests" / path).read_text())
                defined[path] = {
                    (outer.name, inner.name)
                    for outer in tree.body
                    if isinstance(outer, ast.ClassDef)
                    for inner in outer.body
                    if isinstance(inner, ast.FunctionDef)
                } | {(node.name,) for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert tuple(scope) in defined[path], test
