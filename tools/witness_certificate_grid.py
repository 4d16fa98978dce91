"""Exactness grid of the witness search's certificate, ``kernels.ratio_bound``.

    python3 tools/witness_certificate_grid.py [--trials 300000]

Each case is an amplitude factor from the grid below and ``BATCH`` Gaussian
trial vectors on A, drawn from ``SEED`` and the case's index. Cases cycle
through the grid, in an order drawn from ``SEED``, until ``--trials`` trials
have been checked, so a run is fixed by its trial count.
The grid's factor families are those of ``tests/conftest.py``, which the
tier-1 tests sample too, so the tool needs the ``test`` extra (pytest):

* ``flagged_complement_factor``, d = 2, 3, 4 and q = 0.1, 0.5, 0.9, made
  ``perturbed`` by a relative Gaussian perturbation of size 0, 1e-12, 1e-8,
  1e-5 or 1e-3, with A's basis either kept or changed by a matrix of
  condition number 30, at scales 1e-150, 1 and 1e150;
* each of ``DECLINING_FACTORS`` (L2, L2(Ay) and singular P), whose every
  trial has rank < m but whose bound declines, at the same scales.

Each trial's K = sum_a conj(v_a) F[a] is formed as the witness search forms
it. For each case and rank_tol in 1e-12, 1e-10 and 1e-8, a *mismatch* is a
trial with ``gram_ranks(K, rank_tol) == m`` although ``ratio_bound(F) <=
rank_tol`` certified that none has; a *violation* is a trial whose
``eigvalsh`` lambda_min / lambda_max of its Gram matrix exceeds the bound.
Prints one JSON summary and exits 1 if either count is nonzero.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]
from conftest import (DECLINING_FACTORS, conditioned, flagged_complement_factor,  # noqa: E402
                      gaussian, perturbed, trial_ratios)
from lrdistill.kernels import gram_ranks, ratio_bound  # noqa: E402

SEED = 0
BATCH = 256
TOLS = (1e-12, 1e-10, 1e-8)
SCALES = (1e-150, 1.0, 1e150)
COMPLEMENTS = list(itertools.product((2, 3, 4), (0.1, 0.5, 0.9), (0.0, 1e-12, 1e-8, 1e-5, 1e-3),
                                     (1.0, 30.0), SCALES))
GRID = [("complement", *case) for case in COMPLEMENTS] + [
    (family, None, None, None, None, scale) for family in DECLINING_FACTORS for scale in SCALES]


def factor_of(case: tuple, rng: np.random.Generator) -> np.ndarray:
    family, d, q, size, cond, scale = case
    if family in DECLINING_FACTORS:
        return scale * DECLINING_FACTORS[family](rng)
    factor = perturbed(flagged_complement_factor(d, q), size, rng)
    change = np.diag(np.logspace(0, np.log10(cond), d)) @ np.linalg.qr(gaussian(rng, d, d))[0]
    return scale * np.einsum("ac,cbr->abr", change, factor)


def run(trials: int) -> dict:
    per_tol = {tol: {"certified_cases": 0, "declined_cases_with_a_full_rank_trial": 0,
                     "mismatches": 0} for tol in TOLS}
    done = cases = violations = 0
    worst = 0.0  # largest ratio / bound over the cases with a finite bound
    order = np.random.default_rng(SEED).permutation(len(GRID))
    while done < trials:
        rng = np.random.default_rng([SEED, cases])
        factor = factor_of(GRID[order[cases % len(GRID)]], rng)
        v = gaussian(rng, BATCH, factor.shape[0])
        k, ratios = conditioned(factor, v), trial_ratios(factor, v)
        bound = ratio_bound(factor)
        violations += int(np.sum(ratios > bound))
        if np.isfinite(bound):
            worst = max(worst, float(np.max(ratios)) / bound)
        for tol, tally in per_tol.items():
            full = gram_ranks(k, tol) == min(k.shape[1:])
            if bound <= tol:
                tally["certified_cases"] += 1
                tally["mismatches"] += int(np.sum(full))
            elif full.any():
                tally["declined_cases_with_a_full_rank_trial"] += 1
        done, cases = done + BATCH, cases + 1
    return {"tool": "tools/witness_certificate_grid.py", "seed": SEED, "batch": BATCH,
            "grid_points": len(GRID), "trials": done, "cases": cases,
            "violations": violations, "largest_ratio_over_bound": worst,
            "rank_tol": {f"{tol:g}": tally for tol, tally in per_tol.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=300_000)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be positive")
    result = run(args.trials)
    print(json.dumps(result, indent=2))
    mismatches = sum(tally["mismatches"] for tally in result["rank_tol"].values())
    return 1 if mismatches or result["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
