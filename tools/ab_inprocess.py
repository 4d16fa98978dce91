"""Interleaved in-process A/B of two source trees on one benchmark workload.

    python3 tools/ab_inprocess.py BASE HEAD [--workload witness-exhaust]
        [--rounds 20] [--seed 0] [--out BENCH_<sha>.json]

BASE and HEAD are each a checkout directory (its ``src/lrdistill`` is
loaded) or a git revision of this repository (its ``src/`` is archived to a
temporary directory). Both packages are imported into this one process
under different module names, so they share the interpreter, numpy and
BLAS, and the host's speed changes hit them alike.

The workload's documents and CLI calls come from ``bench/workloads.py``,
imported read-only (no bytecode is written there). After one untimed
warm-up cycle per tree, each round times one whole cycle of
``cli.main(argv)`` per tree, the order alternating between rounds, and
fails unless both trees print byte-identical output for every op. One more
untimed cycle per tree counts the ``numpy.linalg`` calls per op.

Prints the result and, with ``--out``, writes it as JSON: per-cycle
medians and quartiles in ms, the base/head ratio of the medians, the
number of rounds HEAD was faster, and the call counts.

Ten rounds cannot resolve ``ensemble-small`` on a shared 2-core host. For a
change whose sampling code was its parent's, a 10-round run read base/head
0.889 (HEAD faster in 0 of 10 rounds), and a 20-round run right after it
read 1.03 (HEAD faster in 11 of 20). A claim on that workload needs many
more rounds than ten.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

# Pinned as in bench/run.py, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def source_tree(spec: str, scratch: str) -> tuple[str, str | None]:
    """(directory holding ``lrdistill/``, short SHA or None) for a checkout or a revision."""
    if os.path.isdir(os.path.join(spec, "src", "lrdistill")):
        return os.path.join(spec, "src"), _sha(spec)
    sha = _git("rev-parse", "--short", spec)
    target = os.path.join(scratch, sha)
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


def summary(seconds: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles([1000.0 * s for s in seconds], n=4)
    return {"median_ms": q2, "q1_ms": q1, "q3_ms": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", default="witness-exhaust")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error(f"--rounds must be at least 2 for the quartiles, got {args.rounds}")
    workloads = bench_workloads()
    with tempfile.TemporaryDirectory() as scratch:
        trees = {label: source_tree(spec, scratch)
                 for label, spec in (("base", args.base), ("head", args.head))}
        clis = {label: load_package(src, f"lrdistill_{label}")
                for label, (src, _) in trees.items()}
        plan = workloads.prepare(args.workload, args.seed, scratch)

        def ops_of(i):
            seed = plan["fresh_seed"]
            extra = [] if seed is None else ["--seed", str(seed + i + 1)]
            return [list(op["argv"]) + extra for op in plan["cycle"]]

        for cli in clis.values():
            run_cycle(cli, ops_of(-1))
        times = {label: [] for label in clis}
        head_faster = 0
        for i in range(args.rounds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            outputs = {}
            for label in order:
                gc.collect()
                seconds, outputs[label] = run_cycle(clis[label], ops_of(i))
                times[label].append(seconds)
            if outputs["base"] != outputs["head"]:
                raise SystemExit(f"round {i}: outputs differ between base and head")
            head_faster += times["head"][-1] < times["base"][-1]
        calls = {label: count_calls(cli, ops_of(0)) for label, cli in clis.items()}
    cycle = {label: summary(times[label]) for label in clis}
    result = {
        "tool": "tools/ab_inprocess.py",
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "ops_per_cycle": len(plan["cycle"]),
        "trees": {label: {"spec": spec, "sha": trees[label][1]}
                  for label, spec in (("base", args.base), ("head", args.head))},
        "cycle_ms": cycle,
        "base_over_head_median": cycle["base"]["median_ms"] / cycle["head"]["median_ms"],
        "head_faster_rounds": head_faster,
        "outputs_identical": True,
        "linalg_calls_per_op": calls,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
