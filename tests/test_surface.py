"""The public surface: README §Library lists exactly ``lrdistill.__all__``, the
README's library and CLI examples run as written, and ``kernels`` is the one
module that calls a ``numpy.linalg`` eigensolver."""

import ast
import glob
import os
import re
import shlex

import lrdistill

from conftest import SOLVERS, run_cli

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
PACKAGE = os.path.dirname(lrdistill.__file__)


def _readme_section(title: str) -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _code_block(title: str, lang: str) -> str:
    """The first ``lang`` fenced block of README section ``title``."""
    return _readme_section(title).split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_library_section_lists_the_public_names():
    listed = re.findall(r"`(\w+)`", _readme_section("Library"))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(lrdistill.__all__)
    assert all(hasattr(lrdistill, name) for name in lrdistill.__all__)


def test_readme_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_code_block("Library quick start", "python"), "README.md", "exec"), {})


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    # in order, since later commands read the files that earlier ones write
    monkeypatch.chdir(tmp_path)
    for line in _code_block("CLI", "sh").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        target = None
        if ">" in words:
            words, target = words[:words.index(">")], words[words.index(">") + 1]
        assert words[0] == "lrdistill", line
        code, out, err = run_cli(capsys, *words[1:])
        assert code == 0 and out, (line, err)
        if target:
            (tmp_path / target).write_text(out, encoding="utf-8")


def _eigensolver_uses(path: str) -> list[str]:
    """``<x>.linalg.<solver>`` attributes and ``from numpy.linalg import <solver>`` in a module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in SOLVERS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            uses.append(f"line {node.lineno}: linalg.{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            uses += [f"line {node.lineno}: import {a.name}" for a in node.names
                     if a.name in SOLVERS]
    return uses


def test_only_kernels_calls_numpy_eigensolvers():
    uses = {os.path.basename(path): _eigensolver_uses(path)
            for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))}
    assert {name for name, found in uses.items() if found} == {"kernels.py"}, uses
