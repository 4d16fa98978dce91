"""Mutation audit of the tolerance cutoffs: does tier-1 notice when one moves?

    python3 tools/mutation_audit.py

``MUTANTS`` lists one-line mutants as (file under ``src/lrdistill``, old
text, new text, note). For each one the tool copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` to a temporary directory, replaces the
old text (which must occur exactly once) with the new one there, and runs
the tier-1 command of ROADMAP.md with ``-x`` in that copy; the checkout
itself is never changed. A mutant is *killed* when a test fails, and then the first failing
test is recorded. A mutant that survives is *equivalent* when its entry
gives the reason it cannot change a result, else *survived*.

Writes ``MUTANTS.json`` at the root of the checkout and exits 1 if any
mutant survived or an equivalent one was killed. Each run takes about 20 s
per mutant on a 2-core machine, so it is not part of CI.
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

#: (file, old, new, note); a note that starts with "equivalent:" gives the reason.
MUTANTS = [
    ("states.py", "PptVerdict(witness >= -tol,", "PptVerdict(witness >= -10 * tol,",
     "is_ppt: a tenfold looser PPT cutoff"),
    ("states.py", "PptVerdict(witness >= -tol,", "PptVerdict(witness > -tol,",
     "is_ppt: a witness equal to -ppt_tol counts as NPT"),
    ("states.py", "abs(witness) < 10.0 * tol", "abs(witness) < 1.0 * tol",
     "PptVerdict.marginal: flags only |witness| < ppt_tol"),
    ("states.py", "TRACE_TOL = 1e-10", "TRACE_TOL = 1e-6",
     "validation: a trace 1e4 times looser"),
    ("states.py", "EIGENVALUE_FLOOR = -1e-10", "EIGENVALUE_FLOOR = -1e-6",
     "validation: an eigenvalue floor 1e4 times lower"),
    ("states.py", "NORM_TOL = 1e-12", "NORM_TOL = 1e-8",
     "validation: a pure-state norm 1e4 times looser"),
    ("distill.py", "POSITIVE_RATE_TOL = 1e-9", "POSITIVE_RATE_TOL = 1e-3",
     "classify: a hashing rate must exceed 1e-3 to certify both_one_way"),
    ("kernels.py", "lams > rank_tol * lam_max", "lams > rank_tol * np.abs(lam_max)",
     "equivalent: _retained's lam_max is np.max(..., initial=0.0), which is never negative"),
    ("kernels.py", "HERMITICITY_TOL = 1e-10", "HERMITICITY_TOL = 1e-6",
     "hermitian_part: a Hermiticity check 1e4 times looser"),
    ("distill.py", "if r < second.rank:", "if r <= second.rank:",
     "classify: the witness search also runs when rank(state) = rank(marginal)"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def run_mutant(file: str, old: str, new: str) -> tuple[bool, str | None]:
    """(killed, the first failing test) of tier-1 on a temporary copy with one mutation."""
    with tempfile.TemporaryDirectory(prefix="lrdistill-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=ignore)
        for name in ("pyproject.toml", "README.md"):  # README: tests/test_surface.py reads it
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
        proc = subprocess.run(TIER1, cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"tier-1 could not run ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode == 1, failed.group(1) if failed else None


def main() -> int:
    results, bad = [], 0
    for file, old, new, note in MUTANTS:
        killed, test = run_mutant(file, old, new)
        equivalent = note.startswith("equivalent:")
        status = "killed" if killed else "equivalent" if equivalent else "survived"
        bad += status == "survived" or (killed and equivalent)
        results.append({"file": f"src/lrdistill/{file}", "old": old, "new": new, "note": note,
                        "status": status, "killed_by": test})
        print(f"{status:10} {file}: {old} -> {new}" + (f"  ({test})" if test else ""),
              flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
