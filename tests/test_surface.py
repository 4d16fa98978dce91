"""The public surface: README §Library lists exactly ``lrdistill.__all__``, and
``kernels`` is the one module that calls a ``numpy.linalg`` eigensolver."""

import ast
import glob
import os
import re

import lrdistill

from conftest import SOLVERS

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
PACKAGE = os.path.dirname(lrdistill.__file__)


def test_readme_library_section_lists_the_public_names():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(lrdistill.__all__)
    assert all(hasattr(lrdistill, name) for name in lrdistill.__all__)


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
