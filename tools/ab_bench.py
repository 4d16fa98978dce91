"""A/B of two source trees: an in-process output and solve-count check, then
interleaved runs of the benchmark's own runner.

    python3 tools/ab_bench.py BASE HEAD [--workload docs-large] [--pairs 10]
        [--seconds 35] [--seed 0] [--out BENCH_<sha>.json]

BASE and HEAD are each a checkout directory (its ``src/lrdistill`` is
loaded) or a git revision of this repository (its ``src/`` is archived to a
temporary directory).

**Check.** Both packages are first imported into this one process under
different module names, sharing the interpreter, numpy and BLAS (pinned to
one thread before numpy loads). The workload's documents and CLI calls come
from ``bench/workloads.py``, imported read-only (no bytecode is written
there). Each tree runs the workload's warm-up cycle and cycle 0 of
``cli.main(argv)``; the tool exits 1, naming the first op whose stdout
differs between the trees. One more cycle 0 per tree counts the
``numpy.linalg`` calls per op. ``--pairs 0`` stops here.

**Pairs.** Each pair runs this repository's ``bench/run.py --trace 0`` once
per tree, in a child process whose working directory is the tree's root, so
every run measures the end-to-end metrics that ``BENCHMARK.json`` bounds,
``peak_rss_mb`` and ``setup_s`` included, which one process importing both
trees cannot. The side that runs first alternates between pairs. The
children get this tool's environment as it was started, without the BLAS
pinning of the check.

Both sides get the same bytecode condition, that of a fresh checkout run
with ``PYTHONDONTWRITEBYTECODE=1``: each tree's ``src`` is copied to a
temporary directory without its ``__pycache__``, and the children run with
``PYTHONDONTWRITEBYTECODE=1``. So every import compiles ``lrdistill`` from
source, and neither side reads bytecode that a checkout kept from an
earlier run, while numpy's installed bytecode serves both. (A fresh
``PYTHONPYCACHEPREFIX`` would also hide numpy's bytecode: on a 2-core
x86_64 host it put ``setup_s`` at 0.33 s instead of 0.08 s and
``peak_rss_mb`` on ``docs-large`` about 3 MB higher on both sides.)

Prints the result and, with ``--out``, writes it as JSON: the check's
``outputs_identical`` and ``linalg_calls_per_op``, every run's two result
lines, and for each metric both sides' median and quartiles and the number
of pairs in which HEAD was better. Exits 1 if any run's outputs failed the
workload's checks.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

CHILD_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

# Pinned as in bench/run.py, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(ROOT, "bench", "run.py")
COUNTED = ("eigh", "eigvalsh", "eig", "svd")


def _git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _sha(checkout: str) -> str | None:
    """HEAD's short SHA of a clean checkout, None if it is dirty or not a git checkout."""
    try:
        if _git("status", "--porcelain", "--", "src", cwd=checkout):
            return None
        return _git("rev-parse", "--short", "HEAD", cwd=checkout)
    except (OSError, subprocess.CalledProcessError):
        return None


def source_tree(spec: str, scratch: str, label: str) -> tuple[str, str | None]:
    """(directory holding ``lrdistill/``, short SHA or None) for a checkout or a revision;
    a revision is archived into a directory named by ``label``, so both sides may name one."""
    if os.path.isdir(os.path.join(spec, "src", "lrdistill")):
        return os.path.join(spec, "src"), _sha(spec)
    sha = _git("rev-parse", "--short", spec)
    target = os.path.join(scratch, f"{label}-archive")
    os.makedirs(target)
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", target], input=archive, check=True)
    return os.path.join(target, "src"), sha


def load_package(src: str, name: str):
    """Import ``src/lrdistill`` as the top-level package ``name`` and return its ``cli``."""
    init = os.path.join(src, "lrdistill", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def bench_workloads():
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
    return workloads


def run_cycle(cli, ops) -> tuple[float, list[str]]:
    """Seconds for one cycle of ``cli.main`` calls, and each call's stdout."""
    outputs = []
    start = perf_counter()
    for argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {rc}")
        outputs.append(out.getvalue())
    return perf_counter() - start, outputs


def count_calls(cli, ops) -> dict[str, float]:
    """``numpy.linalg`` calls per op over one cycle."""
    calls = Counter()
    originals = {fn: getattr(np.linalg, fn) for fn in COUNTED}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn] += 1
            return originals[fn](*args, **kwargs)
        return wrapper

    try:
        for fn in COUNTED:
            setattr(np.linalg, fn, counted(fn))
        run_cycle(cli, ops)
    finally:
        for fn, original in originals.items():
            setattr(np.linalg, fn, original)
    return {fn: calls[fn] / len(ops) for fn in COUNTED}


def check(trees: dict, workload: str, seed: int, scratch: str) -> dict:
    """``numpy.linalg`` calls per op of each tree, once both print the same bytes for
    every op of the warm-up cycle and cycle 0; exits naming the first op that differs."""
    plan = bench_workloads().prepare(workload, seed, scratch)

    def ops_of(i):
        fresh = plan["fresh_seed"]
        extra = [] if fresh is None else ["--seed", str(fresh + i + 1)]
        return [list(op["argv"]) + extra for op in plan["cycle"]]

    ops = ops_of(-1) + ops_of(0)
    clis = {label: load_package(src, f"lrdistill_{label}") for label, (src, _) in trees.items()}
    outputs = {label: run_cycle(cli, ops)[1] for label, cli in clis.items()}
    for argv, base, head in zip(ops, outputs["base"], outputs["head"]):
        if base != head:
            raise SystemExit(f"outputs differ between base and head on: {' '.join(argv)}")
    return {label: count_calls(cli, ops_of(0)) for label, cli in clis.items()}


def run_bench(tree: str, args) -> tuple[dict, dict]:
    """The details and result lines of one ``bench/run.py --trace 0`` run from ``tree``."""
    argv = [sys.executable, RUNNER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=CHILD_ENV, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    details, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return details, result


def summary(values: list[float]) -> dict:
    """Median and quartiles; one value is all three."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", default="docs-large")
    parser.add_argument("--pairs", type=int, default=10, help="0 runs the check only")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error(f"--pairs must be at least 0, got {args.pairs}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        trees = {label: source_tree(spec, scratch, label)
                 for label, spec in (("base", args.base), ("head", args.head))}
        calls = check(trees, args.workload, args.seed, scratch)
        roots = {label: os.path.join(scratch, label) for label in trees}
        for label, (src, _) in trees.items():
            shutil.copytree(src, os.path.join(roots[label], "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(args.pairs):
            for position, label in enumerate(("base", "head") if i % 2 == 0 else ("head", "base")):
                details, result = run_bench(roots[label], args)
                runs.append({"pair": i, "side": label, "first": position == 0,
                             "details": details, "result": result})
                print(f"pair {i} {label}: {json.dumps(result)}", file=sys.stderr, flush=True)
    metrics = {}
    for name, direction in better.items() if runs else ():
        values = {label: [run["result"]["metrics"][name]["value"] for run in runs
                          if run["side"] == label] for label in trees}
        sign = 1.0 if direction == "higher" else -1.0
        metrics[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "better": direction,
            **{label: summary(v) for label, v in values.items()},
            "head_better_pairs": sum(sign * (h - b) > 0
                                     for b, h in zip(values["base"], values["head"])),
        }
    correct = all(run["result"]["correct"] for run in runs)
    result = {
        "tool": "tools/ab_bench.py",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "trees": {label: {"spec": spec, "sha": trees[label][1]}
                  for label, spec in (("base", args.base), ("head", args.head))},
        "outputs_identical": True,
        "linalg_calls_per_op": calls,
        "bytecode": "src copied without __pycache__, PYTHONDONTWRITEBYTECODE=1",
        "correct": correct,
        "metrics": metrics,
        "env": {"python": platform.python_version(), "machine": platform.machine(),
                "nproc": os.cpu_count()},
        "runs": runs,
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
