"""Exactness grid of the witness search's certificate, ``kernels.ratio_bound``.

    python3 tools/witness_certificate_grid.py [--trials 300000]

Each case is an amplitude factor from the grid below and ``BATCH`` Gaussian
trial vectors on A, drawn from ``SEED`` and the case's index. Cases cycle
through the grid, in an order drawn from ``SEED``, until ``--trials`` trials
have been checked, so a run is fixed by its trial count.
The grid:

* the purified complement of the flagged-depolarizing channel, d = 2, 3, 4 and
  q = 0.1, 0.5, 0.9, plus a relative Gaussian perturbation of size 0, 1e-12,
  1e-8, 1e-5 or 1e-3, with A's basis either kept or changed by a matrix of
  condition number 30, at scales 1e-150, 1 and 1e150;
* a factor whose kernel is quadratic in the trial vector (a Kronecker L_2
  block, d_A = 2), at the same scales;
* the block L_2(A y) with A a Gaussian 2 x 3 matrix (d_A = 3): every K has
  rank 2 < m = 3, and K = 0 on A's null space, so the bound's trace form T
  is singular to rounding (lambda_min / lambda_max about 1e-17), at the
  same scales;
* slices W[0] = [c, 0, x_0], W[1] = [0, c, x_1] and W[2] = [0, 0, x_2],
  rotated on both sides and with A's basis changed (d_A = 3): every K has
  rank 2 < m = 3 and a linear kernel polynomial, (y_1, -y_0, 0) before the
  changes, whose P is singular to rounding, at the same scales.

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

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
from lrdistill import complement_channel, flagged_depolarizing_channel, purify  # noqa: E402
from lrdistill.kernels import gram_ranks, ratio_bound  # noqa: E402

SEED = 0
BATCH = 256
TOLS = (1e-12, 1e-10, 1e-8)
SCALES = (1e-150, 1.0, 1e150)
COMPLEMENTS = list(itertools.product((2, 3, 4), (0.1, 0.5, 0.9), (0.0, 1e-12, 1e-8, 1e-5, 1e-3),
                                     (1.0, 30.0), SCALES))
GRID = [("complement", *case) for case in COMPLEMENTS] + [
    (family, None, None, None, None, scale) for family in ("L2", "L2(Ay)", "singular P")
    for scale in SCALES]


def gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def complement_factor(d: int, q: float) -> np.ndarray:
    """The factor the witness search takes for the complement's Choi state."""
    psi = purify(complement_channel(flagged_depolarizing_channel(d, q)).choi)
    return psi.amplitudes.reshape(psi.dims)


def factor_of(case: tuple, rng: np.random.Generator) -> np.ndarray:
    family, d, q, size, cond, scale = case
    if family == "singular P":
        w = np.zeros((3, 4, 3), dtype=complex)
        w[0, :, 0] = w[1, :, 1] = gaussian(rng, 4)
        w[:, :, 2] = gaussian(rng, 3, 4)
        rot = np.linalg.qr(gaussian(rng, 4, 4))[0]
        return scale * np.einsum("ac,pq,cqm,mr->apr", gaussian(rng, 3, 3), rot, w,
                                 gaussian(rng, 3, 3))
    if family in ("L2", "L2(Ay)"):  # K(v) = V [L_2(z); 0] R, kernel (z_1^2, -z_0 z_1, z_0^2)
        l2 = np.array([[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]], dtype=complex)
        if family == "L2(Ay)":  # z = A y: slice a is sum_c A[c, a] L_2[c]
            l2 = np.einsum("ca,cij->aij", gaussian(rng, 2, 3), l2)
        iso = np.linalg.qr(gaussian(rng, 5, 5))[0][:, :2]
        return scale * np.einsum("pi,aij,jr->apr", iso, l2, gaussian(rng, 3, 3))
    factor = complement_factor(d, q)
    noise = gaussian(rng, *factor.shape)
    factor = factor + size * noise * (np.linalg.norm(factor) / np.linalg.norm(noise))
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
        d_a, d_b, r = factor.shape
        v = gaussian(rng, BATCH, d_a)
        k = (v.conj() @ factor.reshape(d_a, -1)).reshape(BATCH, d_b, r)
        kh = np.conj(np.swapaxes(k, 1, 2))
        lams = np.linalg.eigvalsh(kh @ k if d_b > r else k @ kh)
        ratios = lams[:, 0] / lams[:, -1]
        bound = ratio_bound(factor)
        violations += int(np.sum(ratios > bound))
        if np.isfinite(bound):
            worst = max(worst, float(np.max(ratios)) / bound)
        for tol, tally in per_tol.items():
            full = gram_ranks(k, tol) == min(d_b, r)
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
