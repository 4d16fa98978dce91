"""The timed process: drives ``lrdistill.cli.main(argv)`` in a closed loop.

One client, no extra threads: each op starts when the previous one has
returned. Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``
and BLAS threads pinned; prints one JSON object with the raw results.

    python3 bench/worker.py --plan PLAN.json --seconds S --trace 0|1 --src SRC
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

from tracer import Tracer, per_layer_metrics
from workloads import check_output


def call_cli(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """One op: seconds spent in ``cli.main``, its return value, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted as a failed op
            rc = exc
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


class Loop:
    """Runs ops, checks each output and keeps every latency."""

    def __init__(self, cli, package):
        self.cli = cli
        self.package = package
        self.reference: dict[tuple, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies = {False: [], True: []}  # keyed by "traced"
        self.output_bytes = 0
        self.cycles = 0
        self.tracer = Tracer()

    def op(self, argv: list[str], check: dict, traced: bool, timed: bool = True):
        # Untimed ops get a throwaway tracer, so per-op layer figures cover
        # exactly the timed traced ops.
        tracer = self.tracer if timed else Tracer()
        if traced:
            tracer.install(self.package)
        try:
            elapsed, rc, out, err = call_cli(self.cli, argv)
        finally:
            tracer.uninstall()
        self.attempted += 1
        if timed:
            self.latencies[traced].append(elapsed)
            if traced:
                self.output_bytes += len(out.encode())
        error = self._error(argv, check, rc, out, err)
        if error:
            self.failures.append(f"{' '.join(argv)}: {error}")

    def _error(self, argv, check, rc, out, err) -> str | None:
        if rc != 0:
            return f"exit {rc!r}; stderr: {err.strip()[:300]}"
        if err:
            return f"unexpected stderr: {err.strip()[:300]}"
        key = tuple(argv)
        if key in self.reference:
            return None if out == self.reference[key] else "output differs from an earlier run"
        self.reference[key] = out
        return check_output(check, out)


def run(plan: dict, seconds: float, trace: bool, cli, package) -> Loop:
    loop = Loop(cli, package)
    cycle, fresh_seed = plan["cycle"], plan["fresh_seed"]

    def ops_of(i):
        for op in cycle:
            argv = list(op["argv"])
            if fresh_seed is not None:
                argv += ["--seed", str(fresh_seed + i + 1)]
            yield argv, op["check"]

    # Warm-up: one untimed cycle, so lazy imports and caches are settled.
    for argv, check in ops_of(-1):
        loop.op(argv, check, traced=False, timed=False)
    gc.collect()
    deadline = perf_counter() + seconds
    i = 0
    # Whole cycles only, so every run keeps the workload's op mix. A traced
    # run alternates untraced and traced cycles to measure the overhead.
    while perf_counter() < deadline or i * len(cycle) < plan["min_ops"] or i < 2:
        traced = trace and i % 2 == 1
        for argv, check in ops_of(i):
            loop.op(argv, check, traced)
        gc.collect()
        i += 1
    loop.cycles = i
    if fresh_seed is not None:
        # Repeat the first timed op: its bytes must not change.
        for argv, check in ops_of(0):
            loop.op(argv, check, traced=trace, timed=False)
    return loop


def end_to_end(latencies: list[float]) -> dict:
    """p50 and tail latency, and completed ops per busy second."""
    ordered = sorted(latencies)
    n = len(ordered)
    # Highest percentile with at least ten samples beyond it.
    tail_index = max(n - 11, 0)
    return {
        "p50_ms": 1000.0 * statistics.median(ordered),
        "tail_ms": 1000.0 * ordered[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples_beyond": n - tail_index - 1,
        "ops_per_s": n / sum(ordered),
        "ops": n,
    }


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory that must hold lrdistill")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    import lrdistill
    import lrdistill.cli as cli

    if not os.path.realpath(lrdistill.__file__).startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: imported {lrdistill.__file__}, not the checkout's", file=sys.stderr)
        return 2

    loop = run(plan, args.seconds, bool(args.trace), cli, lrdistill)
    report = {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:10],
        "cycles": loop.cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "untraced": end_to_end(loop.latencies[False]),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": blas_info(),
    }
    if args.trace:
        traced = end_to_end(loop.latencies[True])
        report["traced"] = traced
        report["per_layer"] = per_layer_metrics(
            loop.tracer, traced["ops"], loop.output_bytes)
        report["per_layer"]["trace.overhead_frac"] = {
            "value": report["untraced"]["ops_per_s"] / traced["ops_per_s"] - 1.0,
            "unit": "ratio",
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
