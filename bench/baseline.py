"""Reproduce the ROADMAP Baseline table: eigensolver counts and wall times.

    python3 bench/baseline.py

Each row is timed once untraced (wall
times are one-off readings, printed next to the table's and never gated)
and, where the table gives counts, run again under the tracer; the script
exits 1 if any traced count differs from the table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)
# Same BLAS pinning as run.py; it must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import lrdistill  # noqa: E402
from lrdistill import cli, distill, sampling, states  # noqa: E402
from lrdistill.channels import channel_from_dict  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    flagged_depolarizing_complement_doc,
    haar_vector,
    pure_state_doc,
)

SEED = 0


def _pure(dims) -> states.TripartitePureState:
    rng = np.random.default_rng(SEED)
    return states.TripartitePureState(dims, haar_vector(rng, int(np.prod(dims))))


def _separability_of_ab(psi: states.TripartitePureState):
    # The table's reading includes taking rho_AB from |psi><psi|.
    rho_ab = states.partial_trace(psi.density_matrix(), (0, 1))
    return distill.separability_verdict(rho_ab)


def _flagged_complement() -> states.DensityMatrix:
    return channel_from_dict(flagged_depolarizing_complement_doc(3, 0.5)).choi


def _cli(workdir: str, *argv: str):
    path = os.path.join(workdir, "haar_8_8_16.json")
    if not os.path.exists(path):
        rng = np.random.default_rng(SEED)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pure_state_doc(haar_vector(rng, 1024), (8, 8, 16)), fh)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            rc = cli.main([argv[0], path, *argv[1:]])
        finally:
            sys.stdout = stdout
    if rc != 0:
        raise RuntimeError(f"lrdistill {' '.join(argv)} exited {rc}")


def _import_wall() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import lrdistill"], check=True,
                   env=dict(os.environ, PYTHONPATH=SRC))
    return perf_counter() - start


def rows(workdir: str) -> list[dict]:
    """Table rows: name, table reading, call, and expected counts.

    Counts are keyed ``(numpy.linalg function, span name or None for all)``.
    """
    classify_counts = {("eigh", None): 23, ("eigvalsh", None): 14}
    return [
        {"name": "classify, dims (2,4,3)", "table_ms": 4.8,
         "setup": lambda: _pure((2, 4, 3)), "call": distill.classify,
         "counts": classify_counts},
        {"name": "classify, dims (8,8,16)", "table_ms": 645.0,
         "setup": lambda: _pure((8, 8, 16)), "call": distill.classify,
         "counts": classify_counts},
        {"name": "separability_verdict, AB of (8,8,16), AB taken from |psi><psi|",
         "table_ms": 986.0, "setup": lambda: _pure((8, 8, 16)), "call": _separability_of_ab,
         "counts": {("eigh", None): 11, ("eigvalsh", None): 9}},
        {"name": "run_experiment (4,8,6) x 200", "table_ms": 2100.0,
         "setup": lambda: sampling.EnsembleSpec(4, 8, 6, 200, seed=SEED),
         "call": sampling.run_experiment,
         "counts": {("eigh", None): 600, ("eigvalsh", None): 600}},
        {"name": "CLI analyze, (8,8,16) pure state", "table_ms": 1700.0,
         "setup": lambda: workdir, "call": lambda d: _cli(d, "analyze"), "counts": None},
        {"name": "CLI filter --side B, (8,8,16)", "table_ms": 800.0,
         "setup": lambda: workdir, "call": lambda d: _cli(d, "filter", "--side", "B"),
         "counts": None},
        {"name": "python -c \"import lrdistill\"", "table_ms": 270.0,
         "wall": _import_wall, "counts": None},
        {"name": "witness search, flagged-depolarizing complement, d=3, 2000 trials",
         "table_ms": 256.0, "setup": _flagged_complement,
         "call": lambda rho: distill.find_one_way_witness(rho, budget=2000, seed=SEED),
         "counts": {("eigh", "distill.saturation_search"): 2003,
                    ("eigh", "distill.find_one_way_witness"): 2005}},
    ]


def traced_counts(row: dict) -> dict:
    arg = row["setup"]()
    with Tracer().install(lrdistill) as tracer:
        row["call"](arg)
    return {key: tracer.counts[key] for key in row["counts"]}


def measure(row: dict) -> dict:
    if "wall" in row:
        wall = row["wall"]()
    else:
        arg = row["setup"]()
        start = perf_counter()
        row["call"](arg)
        wall = perf_counter() - start
    out = {"name": row["name"], "wall_ms": 1000.0 * wall, "table_ms": row["table_ms"]}
    if row["counts"] is not None:
        got = traced_counts(row)
        out["counts"] = {_label(k): v for k, v in got.items()}
        out["table_counts"] = {_label(k): v for k, v in row["counts"].items()}
        out["counts_match"] = got == row["counts"]
    return out


def _label(key) -> str:
    fn, span = key
    return fn if span is None else f"{fn} in {span}"


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as workdir:
        results = [measure(row) for row in rows(workdir)]
    for res in results:
        print(json.dumps(res))
    return 0 if all(r.get("counts_match", True) for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
