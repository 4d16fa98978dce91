"""Build the golden CLI corpus: fixed-seed input documents and the outputs the
CLI produced for them.

    PYTHONPATH=src python tests/golden/build_corpus.py

Input documents are built from the plain-numpy references of
``tests/conftest.py``, never through ``lrdistill``, so they do not move when
the library changes. ``CASES`` lists the CLI call made for each expected
output ``<case>.out``; ``tests/test_golden.py`` replays them and compares
with ``assert_output_close``. Regenerate the outputs only for an intended,
explained change of the reports: a run rewrites only the input documents
whose bytes change and the outputs that no longer pass that comparison, so
float rounding of another numpy or BLAS build leaves the corpus as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from functools import partial

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":  # run as a script: conftest sits one directory up
    sys.path.insert(0, os.path.dirname(HERE))
from conftest import (antisymmetric_choi, complement_matrix,  # noqa: E402
                      flagged_depolarizing_choi, gaussian_unit_vector, matrix_doc, pairs)

SEED = 20221
FLOAT_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _block_slices_vector(rng: np.random.Generator) -> np.ndarray:
    """A (3, 6, 4) vector whose slice for A's basis vector a lives on B levels 2a, 2a+1.

    Each slice has rank 2, so no basis vector of A conditions B to rank 4 =
    rank(rho_AB); a generic vector stacks the three slices and does.
    """
    amp = np.zeros((3, 6, 4), dtype=np.complex128)
    for a in range(3):
        amp[a, 2 * a : 2 * a + 2] = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    return amp.ravel() / np.linalg.norm(amp)


def documents() -> dict:
    """File name -> input document."""
    rng = np.random.default_rng(SEED)
    haar_243 = gaussian_unit_vector(rng, 2 * 4 * 3)
    haar_333 = gaussian_unit_vector(rng, 27)
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    m = gaussian_unit_vector(rng, 2 * 4 * 3).reshape(8, 3)
    blocks = _block_slices_vector(rng)
    # the complementary channel's Choi state, on C^3 (x) C^k
    complement_3 = complement_matrix(flagged_depolarizing_choi(3, 0.5), 3, 6)
    k = len(complement_3) // 3
    return {
        "haar_2_4_3.json": {"dims": [2, 4, 3], "vector": pairs(haar_243)},
        "haar_3_3_3.json": {"dims": [3, 3, 3], "vector": pairs(haar_333)},
        "ghz.json": {"dims": [2, 2, 2], "vector": pairs(ghz)},
        "wh_choi.json": matrix_doc(antisymmetric_choi(), (3, 3)),
        "flagged_depolarizing_2.json": {
            "d_in": 2, "d_out": 4,
            "choi": matrix_doc(flagged_depolarizing_choi(2, 0.5), (2, 4)),
        },
        "ab_of_haar_2_4_3.json": matrix_doc(m @ m.conj().T, (2, 4)),
        "blocks_3_6_4.json": {"dims": [3, 6, 4], "vector": pairs(blocks)},
        "flagged_complement_3.json": {
            "d_in": 3, "d_out": k, "choi": matrix_doc(complement_3, (3, k)),
        },
    }


#: Case name -> CLI arguments; the first file argument names an input document.
CASES = {
    "analyze_haar_2_4_3": ["analyze", "haar_2_4_3.json"],
    "analyze_haar_3_3_3": ["analyze", "haar_3_3_3.json", "--seed", "7"],
    "analyze_ghz": ["analyze", "ghz.json"],
    "analyze_ghz_pretty": ["analyze", "ghz.json", "--format", "pretty"],
    "analyze_wh_choi": ["analyze", "wh_choi.json"],
    "analyze_flagged_depolarizing_2": [
        "analyze", "flagged_depolarizing_2.json", "--budget", "200"],
    "analyze_blocks_3_6_4": ["analyze", "blocks_3_6_4.json"],
    "analyze_flagged_complement_3": [
        "analyze", "flagged_complement_3.json", "--budget", "130"],
    "filter_A": ["filter", "ab_of_haar_2_4_3.json", "--side", "A"],
    "filter_B": ["filter", "ab_of_haar_2_4_3.json", "--side", "B"],
    "sample_4_8_6_20": ["sample", "4", "8", "6", "20", "--seed", "11"],
    "sample_2_4_3_30_csv": ["sample", "2", "4", "3", "30", "--seed", "5", "--format", "csv"],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the CLI on ``argv``, input names resolved here."""
    from lrdistill.cli import main

    args = [os.path.join(HERE, a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text: str):
    """``json.loads`` that rejects NaN and the infinities, which strict JSON has not."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_json_close(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: got {got!r}, expected a float"
        assert abs(got - want) <= FLOAT_TOL, f"{path}: got {got!r}, expected {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: got {got!r}, expected {want!r}"


def assert_text_close(got: str, want: str):
    """Equal text apart from floats, which may differ by FLOAT_TOL."""
    assert _NUMBER.split(got) == _NUMBER.split(want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if any(c in w for c in ".eE"):
            assert abs(float(g) - float(w)) <= FLOAT_TOL, (g, w)
        else:
            assert g == w


def assert_output_close(argv: list[str], got: str, want: str):
    """The golden comparison of the CLI's stdout on ``argv``: a JSON report field by field
    (discrete fields exactly, floats within FLOAT_TOL), ``--format`` text token by token."""
    if "--format" in argv:
        assert_text_close(got, want)
    else:
        assert_json_close(strict_json(got), json.loads(want))


def _output_unchanged(argv: list[str], text: str, old: str) -> bool:
    try:
        assert_output_close(argv, text, old)
    except (AssertionError, ValueError):  # ValueError: an old output that is not JSON
        return False
    return True


def _write_if_changed(path: str, text: str, unchanged) -> None:
    """Write ``text`` to ``path`` unless ``unchanged`` holds for the file already there."""
    if os.path.exists(path):
        with open(path, encoding="utf-8", newline="") as fh:
            if unchanged(fh.read()):
                return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main() -> None:
    for name, doc in documents().items():
        text = json.dumps(doc)
        _write_if_changed(os.path.join(HERE, name), text, text.__eq__)
    for name, argv in CASES.items():
        code, text = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: lrdistill {' '.join(argv)} exited {code}")
        _write_if_changed(os.path.join(HERE, name + ".out"), text,
                          partial(_output_unchanged, argv, text))


if __name__ == "__main__":
    main()
