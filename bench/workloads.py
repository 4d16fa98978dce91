"""The benchmark's workloads: input documents, the CLI calls made on them,
and the checks applied to every output.

Documents are built here with plain numpy, never through ``lrdistill``, so
two commits under comparison receive byte-identical inputs. The output
checks use only ``json`` and arithmetic on quantities fixed by the input
dimensions, never the code under test.

A plan is a JSON-ready dict:

* ``cycle``: the ops repeated in a closed loop, each ``{"argv", "check"}``;
* ``fresh_seed``: ``None``, or a base seed; cycle ``i`` of the run then
  gets ``--seed base+i+1`` appended (the warm-up is cycle -1), so no two
  timed ops repeat;
* ``min_ops``: timed ops the run makes at least, so that ``tail_ms`` has
  ten samples beyond it (and, for ``docs-large``, lands on ``analyze``).
"""

from __future__ import annotations

import json
import os

import numpy as np

#: Workload name -> one line on why it is in the benchmark.
WHY = {
    "docs-large": "analyze on a Haar (8,8,16) state plus filter A/B on a 64x64 matrix: "
    "large state validation and large JSON encoding",
    "witness-exhaust": "analyze --budget 2000 on the flagged-depolarizing complement: "
    "the witness search makes ~2000 small eigensolves and always exhausts",
    "ensemble-small": "sample 4 8 6 20 with a fresh seed per op: many small validations, "
    "the only workload that runs sampling",
}

WITNESS_D = 3
WITNESS_BUDGET = 2000
ENSEMBLE_DIMS = (4, 8, 6)
ENSEMBLE_N = 20

# Ranks fixed by the dimensions of a Haar state (probability one):
# rank(X) = min(dim X, dim of the rest).
HAAR_8_8_16_RANKS = {"AB": 16, "A": 8, "B": 8, "E": 16}
HAAR_8_8_16_SEPARABILITY_RANKS = {"AB": 16, "A": 8, "B": 8, "AE": 8, "E": 16}
AB_OF_4_16_8 = {"rank": 8, "A": 4, "B": 16}
# Complement of the d=3 flagged-depolarizing channel: Choi rank 2d over
# dims (d, d^2 + 1); its purifying register has the same rank as AB.
WITNESS_RANKS = {"AB": 2 * WITNESS_D, "A": WITNESS_D, "B": WITNESS_D**2 + 1, "E": 2 * WITNESS_D}


def haar_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _matrix_doc(matrix: np.ndarray, dims) -> dict:
    matrix = (matrix + matrix.conj().T) / 2.0
    return {"dims": list(dims), "matrix": [_pairs(row) for row in matrix]}


def pure_state_doc(amplitudes: np.ndarray, dims) -> dict:
    return {"dims": list(dims), "vector": _pairs(amplitudes)}


def ab_reduction_doc(amplitudes: np.ndarray, dims) -> dict:
    """rho_AB = M M^dagger with M the amplitudes as a (d_A d_B) x d_E matrix."""
    d_a, d_b, d_e = dims
    m = amplitudes.reshape(d_a * d_b, d_e)
    return _matrix_doc(m @ m.conj().T, (d_a, d_b))


def flagged_depolarizing_complement_doc(d: int, q: float) -> dict:
    """Channel document for the complement of the flagged-depolarizing channel.

    The channel's Choi state is (|W><W| (+) [(1-q)|W><W| + q 1/d^2]) / 2 in
    two orthogonal output blocks, W the maximally entangled vector. Purify it
    with one ``eigh`` and keep the input and purifying registers.
    """
    omega = np.zeros(d * d, dtype=np.complex128)
    omega[:: d + 1] = 1.0 / np.sqrt(d)
    proj = np.outer(omega, omega.conj()).reshape(d, d, d, d)
    j4 = np.zeros((d, 2 * d, d, 2 * d), dtype=np.complex128)
    j4[:, :d, :, :d] = 0.5 * proj
    j4[:, d:, :, d:] = 0.5 * ((1.0 - q) * proj + q * np.eye(d * d).reshape(d, d, d, d) / d**2)
    evals, evecs = np.linalg.eigh(j4.reshape(2 * d * d, 2 * d * d))
    keep = evals > 1e-10 * evals[-1]
    amp = (evecs[:, keep] * np.sqrt(evals[keep])).reshape(d, 2 * d, -1)
    k = amp.shape[2]
    rho_ae = np.einsum("abe,cbf->aecf", amp, amp.conj()).reshape(d * k, d * k)
    return {"d_in": d, "d_out": k, "choi": _matrix_doc(rho_ae, (d, k))}


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def prepare(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's documents under ``workdir`` and return its plan."""
    rng = np.random.default_rng(seed)
    if workload == "docs-large":
        psi = _write(workdir, "haar_8_8_16.json",
                     pure_state_doc(haar_vector(rng, 8 * 8 * 16), (8, 8, 16)))
        rho = _write(workdir, "ab_4_16_8.json",
                     ab_reduction_doc(haar_vector(rng, 4 * 16 * 8), (4, 16, 8)))
        cycle = [
            {"argv": ["analyze", psi], "check": {"kind": "analyze-haar"}},
            {"argv": ["filter", rho, "--side", "A"], "check": {"kind": "filter", "side": "A"}},
            {"argv": ["filter", rho, "--side", "B"], "check": {"kind": "filter", "side": "B"}},
        ]
        return {"workload": workload, "cycle": cycle, "fresh_seed": None, "min_ops": 36}
    if workload == "witness-exhaust":
        cycle = []
        for i in range(3):
            q = float(rng.uniform(0.1, 0.9))
            k = int(rng.integers(0, 2**31))
            path = _write(workdir, f"flagged_complement_{i}.json",
                          flagged_depolarizing_complement_doc(WITNESS_D, q))
            cycle.append({
                "argv": ["analyze", path, "--budget", str(WITNESS_BUDGET), "--seed", str(k)],
                "check": {"kind": "analyze-witness"},
            })
        return {"workload": workload, "cycle": cycle, "fresh_seed": None, "min_ops": 24}
    if workload == "ensemble-small":
        argv = ["sample", *(str(d) for d in ENSEMBLE_DIMS), str(ENSEMBLE_N)]
        return {
            "workload": workload,
            "cycle": [{"argv": argv, "check": {"kind": "sample"}}],
            "fresh_seed": int(rng.integers(0, 2**31)),
            "min_ops": 24,
        }
    raise ValueError(f"unknown workload {workload!r}")


def check_output(check: dict, text: str) -> str | None:
    """Return why ``text`` is wrong for ``check``, or None if it passes."""
    try:
        return _check(check, json.loads(text))
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    except (KeyError, TypeError) as exc:
        return f"report lacks a field: {exc!r}"


def _check(check: dict, doc: dict) -> str | None:
    kind = check["kind"]
    if kind == "analyze-haar":
        return (_expect(doc["input"]["dims"], [8, 8, 16], "input dims")
                or _expect(doc["report"]["ranks"], HAAR_8_8_16_RANKS, "ranks")
                or _expect(doc["separability_AB"]["ranks"], HAAR_8_8_16_SEPARABILITY_RANKS,
                           "separability ranks"))
    if kind == "analyze-witness":
        search = doc["report"]["reductions"]["AB"]["witness_search"]
        return (_expect(doc["input"]["kind"], "channel", "input kind")
                or _expect(doc["report"]["ranks"], WITNESS_RANKS, "ranks")
                or _expect(search["found"], False, "witness found")
                or _expect(search["trials_used"], WITNESS_D + WITNESS_BUDGET, "trials_used"))
    if kind == "filter":
        return _check_filter(doc, check["side"])
    if kind == "sample":
        freqs = doc["frequencies"]
        return (_expect(len(doc["samples"]), ENSEMBLE_N, "sample count")
                or _expect(len(freqs), 4, "frequency count")
                or _expect(freqs, {k: 1.0 for k in freqs}, "frequencies"))
    raise ValueError(f"unknown check {kind!r}")


def _check_filter(doc: dict, side: str) -> str | None:
    out = doc["filter"]
    rank_side = AB_OF_4_16_8[side]
    error = (_expect(doc["input"]["dims"], [4, 16], "input dims")
             or _expect(out["side"], side, "side")
             or _expect(out["rank"], AB_OF_4_16_8["rank"], "rank")
             or _expect(out["rank_side"], rank_side, "rank_side"))
    if error:
        return error
    if abs(out["p_succ"] - out["lambda_min"] * rank_side) > 1e-12:
        return f"p_succ {out['p_succ']!r} != lambda_min * rank_side"
    bound, rate = doc["low_rank_bound"], doc["filtered_hashing_rate"]
    low_rank = AB_OF_4_16_8["rank"] < rank_side
    if (bound is not None) != low_rank:
        return f"low_rank_bound is {bound!r} although rank < rank_side is {low_rank}"
    if bound is not None and not rate >= bound > 0.0:
        return f"filtered_hashing_rate {rate!r} < low_rank_bound {bound!r}"
    return None


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"
