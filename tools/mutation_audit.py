"""Mutation audit: does tier-1 notice when a cutoff moves or a checked formula breaks?

    python3 tools/mutation_audit.py

It audits two kinds of mutant. The first moves a tolerance cutoff, or a
guard next to one, and shows that the edge tests pin it. The second breaks
a behaviour that a random-state sweep, a table row or a closed-form test
checks, and shows that tier-1 still fails on it. Each such behaviour is
checked by one test, so a test may be folded into another only while the
audit still kills the mutant that stands for it.

``MUTANTS`` lists one-line mutants as (file under ``src/lrdistill``, old
text, new text, note, tests), where ``tests`` names the test or tests that
stand for the behaviour the mutant breaks. For each one the tool copies
what tier-1 reads (``src/``, ``tests/``, ``tools/``, ``bench/``,
``pyproject.toml``, ``README.md`` and ``BENCHMARK.json``) to a temporary
directory, replaces the old text (which must occur exactly once) with the
new one there, and runs the tier-1 command of ROADMAP.md with ``-x`` on the
named tests in that copy; the checkout itself is never changed. A mutant is
*killed* when a named test fails, and then that test is recorded as
``killed_by``; a mutant that ``import lrdistill`` fails on is killed before
any test runs, with ``killed_by`` set to ``import lrdistill``. Any other
failure of pytest to run stops the audit. A mutant that its named tests pass
is *survived*: the test that should stand for the behaviour does not. An
*equivalent* mutant, whose note gives the reason it cannot change a result,
names no test; all of tier-1 runs on it and must pass.

Writes ``MUTANTS.json`` at the root of the checkout, with no timings, so a
rerun on the same tree writes the same file, and exits 1 if any mutant
survived or an equivalent one was killed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "MUTANTS.json")
TOLERANCES = "tests/test_tolerances.py"
ACCEPTANCE = "tests/test_acceptance.py::test_criterion_"

#: (file, old, new, note, tests): the node ids of the tests that stand for the behaviour the
#: mutant breaks. An equivalent mutant's note starts with "equivalent:" and gives the reason;
#: it names no test and runs all of tier-1.
MUTANTS = [
    ("states.py", "PptVerdict(witness >= -tol,", "PptVerdict(witness >= -10 * tol,",
     "is_ppt: a tenfold looser PPT cutoff", [f"{TOLERANCES}::test_ppt_verdict_at_the_cutoff_edge"]),
    ("states.py", "PptVerdict(witness >= -tol,", "PptVerdict(witness > -tol,",
     "is_ppt: a witness equal to -ppt_tol counts as NPT",
     [f"{TOLERANCES}::test_a_witness_equal_to_the_ppt_cutoff_is_ppt"]),
    ("states.py", "abs(witness) < 10.0 * tol", "abs(witness) < 1.0 * tol",
     "PptVerdict.marginal: flags only |witness| < ppt_tol",
     [f"{TOLERANCES}::test_ppt_verdict_at_the_cutoff_edge"]),
    ("states.py", "TRACE_TOL = 1e-10", "TRACE_TOL = 1e-6",
     "validation: a trace 1e4 times looser", [f"{TOLERANCES}::test_validation_at_the_cutoff_edge"]),
    ("states.py", "EIGENVALUE_FLOOR = -1e-10", "EIGENVALUE_FLOOR = -1e-6",
     "validation: an eigenvalue floor 1e4 times lower",
     [f"{TOLERANCES}::test_validation_at_the_cutoff_edge"]),
    ("states.py", "NORM_TOL = 1e-12", "NORM_TOL = 1e-8",
     "validation: a pure-state norm 1e4 times looser",
     [f"{TOLERANCES}::test_validation_at_the_cutoff_edge"]),
    ("distill.py", "POSITIVE_RATE_TOL = 1e-9", "POSITIVE_RATE_TOL = 1e-3",
     "classify: a hashing rate must exceed 1e-3 to certify both_one_way",
     [f"{TOLERANCES}::test_both_one_way_rate_at_the_positive_rate_cutoff"]),
    ("kernels.py", "lams > rank_tol * lam_max", "lams > rank_tol * np.abs(lam_max)",
     "equivalent: _retained's lam_max is np.max(..., initial=0.0), which is never negative", []),
    ("kernels.py", "HERMITICITY_TOL = 1e-10", "HERMITICITY_TOL = 1e-6",
     "hermitian_part: a Hermiticity check 1e4 times looser",
     ["tests/test_states.py::test_asymmetry_above_the_tolerance_is_rejected"]),
    ("distill.py", "if r >= r_second:", "if r > r_second:",
     "_witness_search: the search also runs when rank(state) = rank(marginal)",
     ["tests/test_distill.py::test_classify_werner_holevo_purification"]),
    ("kernels.py", "lam_p = lams[:-1, 0] - c * n_sq", "lam_p = lams[:-1, 0]",
     "ratio_bound: P's eigenvalues without their allowance for the eigensolve's rounding",
     ["tests/test_kernels.py::test_ratio_bound_subtracts_the_eigensolves_rounding"]),
    ("kernels.py", "lam_t = lams[-1, 0] - c * tau", "lam_t = lams[-1, 0]",
     "ratio_bound: the T eigenvalue without its allowance for the eigensolve's rounding",
     ["tests/test_kernels.py::test_ratio_bound_subtracts_the_eigensolves_rounding"]),
    ("distill.py", "lam_min * r_side * (log2(r_side) - log2(r))",
     "lam_min * r * (log2(r_side) - log2(r))",
     "_rate_bound: rank(state) in place of rank(marginal) as the factor",
     ["tests/test_distill.py::test_rate_bound_tilted"]),
    ("kernels.py", "not 0.0 < value < 1.0", "not 0.0 < value <= 1.0",
     "validated_tolerance: a value of 1 is accepted",
     [f"{TOLERANCES}::test_rank_tol_outside_the_unit_interval_is_a_bad_parameter"]),
    ("states.py", "except (TypeError, ValueError, OverflowError) as exc:",
     "except (TypeError, ValueError) as exc:",
     "_pairs_to_complex: an int beyond float range escapes as OverflowError",
     ["tests/test_cli.py::test_malformed_input_exits_2[matrix-int-beyond-float-analyze]"]),
    ("errors.py", "class NotHermitianError(StateFormatError):",
     "class NotHermitianError(NumericsError):",
     "NotHermitianError: a non-Hermitian document is a numerical failure, so it exits 3",
     ["tests/test_cli.py::test_malformed_input_exits_2[matrix-not-hermitian-analyze]"]),
    ("distill.py", "(target_rank == min(", "(budget > 50 and target_rank == min(",
     "witness search: the ratio bound is tried only at budgets above the default of 50",
     ["tests/test_distill.py::test_search_eigensolver_count",
      "tests/test_cli.py::test_a_run_that_draws_nothing_never_loads_numpy_random"]),
    ("distill.py", "spectrum.support_projector()", "np.eye(y.shape[0], dtype=complex)",
     "local_filter: the support projector is the identity even on a rank-deficient marginal",
     [f"{ACCEPTANCE}2_filter_inequality_chain"]),
    # Behaviours that the acceptance suite, a table or a closed-form test checks once.
    ("sampling.py", "np.random.SeedSequence(entropy=spec.seed, spawn_key=(k,))",
     "np.random.SeedSequence(spawn_key=(k,))",
     "run_experiment: each sample's state ignores the seed, so a rerun differs",
     [f"{ACCEPTANCE}9_cli_determinism"]),
    ("sampling.py", "for k in range(spec.n_samples):", "for k in range(spec.n_samples - 1):",
     "run_experiment: one sample fewer than asked for", [f"{ACCEPTANCE}3_random_state_experiment"]),
    ("states.py", 'np.einsum("a,abcd,c->bd", v.conj(), tensor, v)',
     'np.einsum("a,abad,a->bd", v.conj(), tensor, v)',
     "conditional_marginal: the sum of the diagonal blocks, weighted by |phi_a|^2",
     [f"{ACCEPTANCE}8_conditioned_marginal_rank_bound"]),
    ("distill.py", "np.tensordot(y, psi.amplitudes.reshape(psi.dims), (1, idx))",
     "np.tensordot(y, psi.amplitudes.reshape(psi.dims), (0, idx))",
     "local_filter: applies Y^T, which does not flatten a complex marginal",
     [f"{ACCEPTANCE}2_filter_inequality_chain"]),
    ("distill.py", "lam_min = spectrum.min_positive()",
     "lam_min = float(spectrum.eigenvalues[0])",
     "local_filter: lambda_max in place of lambda_min, so p_succ exceeds 1",
     [f"{ACCEPTANCE}2_filter_inequality_chain"]),
    ("distill.py", "lam_min * r_side * (log2(r_side) - log2(r))",
     "r_side * (log2(r_side) - log2(r))",
     "_rate_bound: drops the factor lambda_min", [f"{ACCEPTANCE}2_filter_inequality_chain"]),
    ("distill.py", "lam_min * r_side * (log2(r_side) - log2(r))",
     "lam_min * r_side * (log2(r) - log2(r_side))",
     "_rate_bound: the sign flipped, so the bound is negative",
     [f"{ACCEPTANCE}4_flagged_depolarizing_regression"]),
    ("distill.py", "return self.filtered_spectrum.eigenvalues.size", "return self.marginal.rank",
     "FilterOutcome.rank: reports the marginal's rank as the filtered state's",
     [f"{ACCEPTANCE}2_filter_inequality_chain"]),
    ("distill.py", "if not red.separability.ppt.is_ppt)", "if red.separability.ppt.is_ppt)",
     "classification: the PPT reductions are listed as the NPT ones",
     [f"{ACCEPTANCE}6_classifier_end_to_end"]),
    ("channels.py", '"ca,cbad->bd"', '"ac,cbad->bd"',
     "ChoiChannel.apply: applies the channel to the transpose of its input",
     ["tests/test_channels.py::test_identity_channel_apply"]),
    ("channels.py", "j_depol = (1.0 - q) * j_identity + q * np.eye(d * d) / (d * d)",
     "j_depol = q * j_identity + (1.0 - q) * np.eye(d * d) / (d * d)",
     "flagged_depolarizing_channel: q and 1 - q swapped in the depolarizing block",
     ["tests/test_channels.py::test_flagged_depolarizing_choi_is_the_plain_one"]),
    ("states.py", "purify(rho, rank_tol).reduction((0, 2))",
     "purify(rho, rank_tol).reduction((0, 1))",
     "complement: returns the state itself instead of its complement",
     [f"{ACCEPTANCE}4_flagged_depolarizing_regression"]),
    ("sampling.py", "rows = [SAMPLE_COLUMNS]", "rows = []",
     "EnsembleReport.to_csv: no header row",
     ["tests/test_sampling.py::test_experiment_csv_columns_are_the_json_fields"]),
    ("sampling.py", "return all(s == min(self.spec.d_b, self.spec.d_e)",
     "return any(s == min(self.spec.d_b, self.spec.d_e)",
     "SampleRecord.schmidt_ok: one column of full Schmidt rank passes; random samples have all "
     "or none, so only a record with a changed Schmidt rank tells the two apart",
     ["tests/test_sampling.py::test_a_record_derives_its_verdicts_from_its_ranks"]),
    ("states.py", "if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:",
     "if not isinstance(value, Integral) or value < 0:",
     "validated_count: True is taken as the seed or budget 1",
     [f"{TOLERANCES}::test_a_bad_seed_is_rejected",
      f"{TOLERANCES}::test_a_bad_budget_is_rejected"]),
    ("states.py", "integer >= 0, got {value!r}\")\n    return int(value)",
     "integer >= 0, got {value!r}\")\n    return value",
     "validated_count: a numpy integer is stored as given",
     [f"{TOLERANCES}::test_an_integral_numpy_setting_is_stored_as_int"]),
    # Cutoff and guard equality cases, and the batch cap, that a test pins at the edge.
    ("distill.py", "if r < r_side else None", "if r <= r_side else None",
     "_rate_bound: a zero bound at rank(state) = rank(marginal), where it does not apply",
     ["tests/test_distill.py::test_rate_bound_full_rank_errors"]),
    ("distill.py", "red.hashing_rate > POSITIVE_RATE_TOL", "red.hashing_rate >= POSITIVE_RATE_TOL",
     "rates: a hashing rate equal to POSITIVE_RATE_TOL certifies both_one_way",
     [f"{TOLERANCES}::test_a_hashing_rate_equal_to_the_positive_rate_cutoff_is_not_positive"]),
    ("distill.py", "ratio_bound(factor) <= rank_tol", "ratio_bound(factor) < rank_tol",
     "witness search: a ratio bound equal to rank_tol proves nothing, so the Haar loop runs",
     ["tests/test_distill.py::test_a_ratio_bound_equal_to_rank_tol_certifies"]),
    ("distill.py", "_BATCH = 64", "_BATCH = 65",
     "witness search: Haar batches hold 65 trials",
     ["tests/test_distill.py::test_hit_at_a_batch_boundary"]),
    ("states.py", "if 16 * entries > np.iinfo(np.intp).max:",
     "if entries > np.iinfo(np.intp).max:",
     "validated_size: the size guard counts entries, not bytes, so numpy's ValueError exits 3",
     ["tests/test_cli.py::test_sample_with_an_unallocatable_size_exits_2[bytes]"]),
    ("cli.py", "    except MemoryError as exc:  # numpy's message names the allocation's size, "
     "shape and dtype\n        print(f\"error: out of memory: {exc}\", file=sys.stderr)\n"
     "        return 2\n", "",
     "main: without its MemoryError clause, a failed allocation is an internal error (exit 3)",
     ["tests/test_cli.py::test_sample_with_an_unallocatable_size_exits_2[memory]"]),
    # The report writer walks tuples as it walks lists; a sample's Schmidt ranks are a tuple.
    ("cli.py", "if type(value) in (list, tuple) and value:", "if type(value) is list and value:",
     "_indented: a tuple goes to json.dumps without an indent, so it is written on one line",
     ["tests/test_json_writer.py::test_every_golden_payload_is_written_like_json_dumps"]),
    # A mutant that stops the package from importing is killed before any test runs.
    ("errors.py", "class InputError(LrdistillError):", "class InputError(LrdistillErrorX):",
     "errors: InputError's base is an undefined name, so import lrdistill fails",
     ["tests/test_cli.py::test_every_error_class_has_one_exit_code"]),
    # What a run loads: a search that needs no Haar trial builds no generator.
    ("distill.py", "    d_a = factor.shape[0]\n",
     "    d_a, rng = factor.shape[0], make_rng()\n    make_rng = lambda: rng\n",
     "_saturation_search: builds its generator at the top, before the basis vectors, so "
     "every search loads numpy.random",
     ["tests/test_distill.py::test_a_certified_search_draws_nothing",
      "tests/test_distill.py::test_exhausted_search_matches_loop_oracle",
      "tests/test_distill.py::test_batched_search_matches_loop_oracle",
      "tests/test_cli.py::test_a_run_that_draws_nothing_never_loads_numpy_random"]),
    ("states.py", "if sequence and not isinstance(value, Integral) and isinstance(",
     "if sequence and isinstance(",
     "validated_seed: an integer seed is first checked against SeedSequence, which loads "
     "numpy.random",
     ["tests/test_cli.py::test_a_run_that_draws_nothing_never_loads_numpy_random"]),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def run_mutant(file: str, old: str, new: str, tests: list[str]) -> tuple[bool, str | None]:
    """(killed, the first failing test) of ``tests``, or of tier-1 if none, on a temporary
    copy with one mutation; a mutant that ``import lrdistill`` fails on is killed by that."""
    with tempfile.TemporaryDirectory(prefix="lrdistill-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        # tests/test_surface.py reads README.md; tests/test_ab_bench.py runs tools/ab_bench.py,
        # which reads BENCHMARK.json and bench/workloads.py
        for name in ("src", "tests", "tools", "bench"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=ignore)
        for name in ("pyproject.toml", "README.md", "BENCHMARK.json"):
            shutil.copy(os.path.join(ROOT, name), tmp)
        path = os.path.join(tmp, "src", "lrdistill", file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(TIER1 + tests, cwd=tmp, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1):  # pytest could not run, as when conftest's import fails
            imported = subprocess.run([sys.executable, "-c", "import lrdistill"], cwd=tmp,
                                      env=env, capture_output=True).returncode == 0
            if not imported:
                return True, "import lrdistill"
            raise SystemExit(f"pytest could not run ({proc.returncode}):\n"
                             f"{proc.stdout}{proc.stderr}")
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode == 1, failed.group(1) if failed else None


def main() -> int:
    results, bad = [], 0
    for file, old, new, note, tests in MUTANTS:
        killed, test = run_mutant(file, old, new, tests)
        equivalent = note.startswith("equivalent:")
        status = "killed" if killed else "equivalent" if equivalent else "survived"
        bad += status == "survived" or (killed and equivalent)
        results.append({"file": f"src/lrdistill/{file}", "old": old, "new": new, "note": note,
                        "status": status, "killed_by": test})
        print(f"{status:10} {file}: {old!r} -> {new!r}" + (f"  ({test})" if test else ""),
              flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
