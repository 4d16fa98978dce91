"""lrdistill benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload docs-large --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout; it imports ``lrdistill`` from the
checkout's ``src`` and nowhere else. The run builds its input documents from
the seed with plain numpy (``workloads.py``), starts one worker process that
calls ``lrdistill.cli.main(argv)`` in a closed loop for ``--seconds`` and
checks every output (``worker.py``), and times ``import lrdistill.cli`` in
fresh interpreters before and after the worker (``setup_s``). With
``--trace 1`` the worker alternates untraced and traced cycles and reports
per-layer metrics (``tracer.py``) instead of end-to-end ones.

Standard output ends with two JSON lines: the run's details (environment,
``p50_ms``, tail percentile, ``fail_frac``), then the result
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
``BENCHMARK.json`` bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: BLAS threads in every child process: fixed, and never above the core count.
BLAS_THREADS = 1
#: Fresh interpreters timed for ``setup_s``: half before the worker and half
#: after it, so that the median spans the run, not one moment of the machine.
SETUP_RUNS = 10
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import lrdistill.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(env: dict, runs: int) -> list[float]:
    """Seconds to ``import lrdistill.cli`` in each of ``runs`` fresh interpreters."""
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return times


def git_sha(root: str) -> str:
    """HEAD of ``root/.git`` read from its files; checkouts without one say so."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(root, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lrdistill", "cli.py")):
        print(f"error: {root} holds no src/lrdistill; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env(src)

    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=os.path.join(root, ".bench_work"))
    try:
        plan = workloads.prepare(args.workload, args.seed, os.path.relpath(workdir, root))
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        setup_runs = 0 if args.trace else SETUP_RUNS // 2
        # The first import of a fresh checkout also writes bytecode: not timed.
        setup = measure_setup(env, setup_runs + 1)[1:]
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path,
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", src],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode == 0:
            setup += measure_setup(env, setup_runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(done.stdout.strip().splitlines()[-1])

    untraced = report["untraced"]
    details = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": report["python"],
            "numpy": report["numpy"],
            "blas": report["blas"],
            "blas_threads": BLAS_THREADS,
            "git_sha": git_sha(root),
        },
        "loop": "closed, 1 client",
        "cycles": report["cycles"],
        "fail_frac": {
            "value": report["failed"] / report["attempted"],
            "unit": "1",
            "failed": report["failed"],
            "attempted": report["attempted"],
        },
        "failures": report["failures"],
        # Printed but not bounded: on a host whose speed flips between two
        # levels every few seconds, the median of a run flips with it.
        "p50_ms": {"value": untraced["p50_ms"], "unit": "ms"},
        "tail_ms": {
            "percentile": untraced["tail_percentile"],
            "samples_beyond": untraced["tail_samples_beyond"],
            "samples": untraced["ops"],
        },
        "setup_s_samples": setup,
    }
    if args.trace:
        details["traced"] = report["traced"]
        details["untraced"] = untraced
        metrics = report["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "tail_ms": {"value": untraced["tail_ms"], "unit": "ms"},
            "ops_per_s": {"value": untraced["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(details))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
