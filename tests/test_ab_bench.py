"""The A/B tool's in-process check (``tools/ab_bench.py --pairs 0``), run as a script."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_bench.py")


def check_only(base, head):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, TOOL, base, head, "--workload", "witness-exhaust",
                           "--pairs", "0"], cwd=ROOT, env=env, capture_output=True, text=True)


def test_this_tree_against_itself_prints_the_same_bytes_and_solves():
    done = check_only(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["outputs_identical"] is True and result["runs"] == []
    calls = result["linalg_calls_per_op"]
    assert calls["base"] == calls["head"]


def test_one_revision_against_itself_archives_each_side_apart():
    try:
        subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, check=True,
                       capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout with a commit")
    done = check_only("HEAD", "HEAD")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["outputs_identical"] is True
    assert result["trees"]["base"]["sha"] == result["trees"]["head"]["sha"]


def test_a_changed_report_names_the_op_whose_output_differs(tmp_path):
    src = tmp_path / "head" / "src"
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "lrdistill" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert '"analyze-report/1"' in text
    cli.write_text(text.replace('"analyze-report/1"', '"analyze-report/x"'), encoding="utf-8")
    done = check_only(ROOT, str(tmp_path / "head"))
    assert done.returncode == 1
    assert re.search(r"outputs differ .*: analyze \S+ --budget 2000 ", done.stderr), done.stderr
    assert done.stdout == ""
