"""Interleaved A/B of two source trees through the benchmark's own runner.

    python3 tools/ab_bench.py BASE HEAD [--workload docs-large] [--pairs 10]
        [--seconds 35] [--seed 0] [--out BENCH_<sha>.json]

BASE and HEAD are each a checkout directory or a git revision of this
repository, as for ``tools/ab_inprocess.py``, whose ``source_tree`` builds
them. Each pair runs this repository's ``bench/run.py --trace 0`` once per
tree, in a child process whose working directory is the tree's root, so
every run measures the end-to-end metrics that ``BENCHMARK.json`` bounds,
``peak_rss_mb`` and ``setup_s`` included, which one process importing both
trees cannot. The side that runs first alternates between pairs.

Both sides get the same bytecode condition, that of a fresh checkout run
with ``PYTHONDONTWRITEBYTECODE=1``: each tree's ``src`` is copied to a
temporary directory without its ``__pycache__``, and the children run with
``PYTHONDONTWRITEBYTECODE=1``. So every import compiles ``lrdistill`` from
source, and neither side reads bytecode that a checkout kept from an
earlier run, while numpy's installed bytecode serves both. (A fresh
``PYTHONPYCACHEPREFIX`` would also hide numpy's bytecode: on a 2-core
x86_64 host it put ``setup_s`` at 0.33 s instead of 0.08 s and
``peak_rss_mb`` on ``docs-large`` about 3 MB higher on both sides.)

Prints the result and, with ``--out``, writes it as JSON: every run's two
result lines, and for each metric both sides' median and quartiles and the
number of pairs in which HEAD was better. Exits 1 if any run's outputs
failed the workload's checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab_inprocess import ROOT, source_tree  # noqa: E402

RUNNER = os.path.join(ROOT, "bench", "run.py")


def run_bench(tree: str, env: dict, args) -> tuple[dict, dict]:
    """The details and result lines of one ``bench/run.py --trace 0`` run from ``tree``."""
    argv = [sys.executable, RUNNER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
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
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as scratch:
        trees = {label: source_tree(spec, scratch)
                 for label, spec in (("base", args.base), ("head", args.head))}
        roots = {label: os.path.join(scratch, label) for label in trees}
        for label, (src, _) in trees.items():
            shutil.copytree(src, os.path.join(roots[label], "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(args.pairs):
            for position, label in enumerate(("base", "head") if i % 2 == 0 else ("head", "base")):
                details, result = run_bench(roots[label], env, args)
                runs.append({"pair": i, "side": label, "first": position == 0,
                             "details": details, "result": result})
                print(f"pair {i} {label}: {json.dumps(result)}", file=sys.stderr, flush=True)
    metrics = {}
    for name, direction in better.items():
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
