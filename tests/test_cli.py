import argparse
import json
import subprocess
import sys
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrdistill import cli, errors
from lrdistill.cli import build_parser, main
from lrdistill.errors import InputError
from lrdistill.states import (DensityMatrix, TripartitePureState, bell_state, complex_pairs,
                              ghz_state)

from conftest import (bell_with_trivial_env, complement_matrix, fail_solver,
                      flagged_depolarizing_choi, gaussian_unit_vector, haar_state, matrix_doc,
                      run_cli, tilted_state)

ALL_EXAMPLES = ["bell", "ghz", "maximally-mixed", "werner-holevo", "wh-choi", "flagged-depolarizing"]


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


def test_example_analyze_roundtrip(tmp_path, capsys):
    for name in ALL_EXAMPLES:
        code, out, err = run_cli(capsys, "example", name)
        assert code == 0, err
        path = write_state(tmp_path, f"{name}.json", json.loads(out))
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 0, (name, err)
        doc = json.loads(out)
        assert doc["schema"] == "analyze-report/1"


def test_analyze_ghz(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_state().to_json_dict())
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["classification"] == "FULLY_UNDISTILLABLE_SEPARABLE"
    assert doc["separability_AB"]["verdict"] == "separable"
    assert doc["config"]["version"]


def test_analyze_bell_with_env(tmp_path, capsys):
    path = write_state(tmp_path, "bellenv.json", bell_with_trivial_env().to_json_dict())
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["classification"] == "SOME_REDUCTION_2WAY_DISTILLABLE"
    assert report["npt_reductions"] == ["AB"]
    assert report["low_rank_bound_B"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_bipartite_purifies_first(tmp_path, capsys):
    path = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["dims"] == [2, 2, 1]
    assert report["ranks"] == {"AB": 1, "A": 2, "B": 2, "E": 1}


BELL_DOC = bell_state().to_json_dict()
GHZ_DOC = ghz_state().to_json_dict()
ROWS = BELL_DOC["matrix"]

#: Malformed documents -> (what the diagnostic names after "error: ", the document).
MALFORMED_DOCS = {
    # a malformed dimension field, or a violated invariant (here a trace of 2), is named
    "matrix-dims-string": ("dims", {**BELL_DOC, "dims": "ab"}),
    "matrix-dims-nested": ("dims", {**BELL_DOC, "dims": [[2], [2]]}),
    "matrix-dims-null": ("dims", {**BELL_DOC, "dims": None}),
    "matrix-dims-fraction": ("dims", {**BELL_DOC, "dims": [2.5, 2]}),
    "vector-dims-bools": ("dims", {"dims": [True, True, True], "vector": [[1.0, 0.0]]}),
    "vector-dims-null": ("dims", {**GHZ_DOC, "dims": None}),
    "channel-d_in-string": ("d_in", {"d_in": "x", "d_out": 2, "choi": BELL_DOC}),
    "channel-d_out-list": ("d_out", {"d_in": 2, "d_out": [2], "choi": BELL_DOC}),
    "matrix-trace-2": ("trace", {"dims": [2], "matrix": complex_pairs(np.eye(2))}),
    # the diagnostic need only start with "error: "
    "matrix-string": ("", {**BELL_DOC, "matrix": "[[1, 0]]"}),
    "matrix-ragged": ("", {**BELL_DOC, "matrix": [ROWS[0], ROWS[1][:2], ROWS[2], ROWS[3]]}),
    "matrix-3d": ("", {**BELL_DOC, "matrix": [ROWS, ROWS]}),
    "matrix-empty": ("", {**BELL_DOC, "matrix": []}),
    "matrix-three-dims": ("", {**BELL_DOC, "dims": [2, 2, 1]}),
    # rho[0, 3] - conj(rho[3, 0]) = 1e-9, above the 1e-10 Hermiticity tolerance
    "matrix-not-hermitian": ("", {**BELL_DOC,
                                  "matrix": [[*ROWS[0][:3], [0.5 + 1e-9, 0.0]], *ROWS[1:]]}),
    "dims-huge-int": ("", {**BELL_DOC, "dims": [10**400, 1]}),
    "vector-dict": ("", {**GHZ_DOC, "vector": {"0": [1.0, 0.0]}}),
    "vector-string": ("", {**GHZ_DOC, "vector": "1, 0"}),
    "vector-short": ("", {**GHZ_DOC, "vector": GHZ_DOC["vector"][:-1]}),
    "vector-empty": ("", {**GHZ_DOC, "vector": []}),
    "choi-list": ("", {"d_in": 2, "d_out": 2, "choi": ROWS}),
    "choi-dims-not-d_in-d_out": ("", {"d_in": 2, "d_out": 3, "choi": BELL_DOC}),
    "matrix-nan": ("", {**BELL_DOC, "matrix": [[[float("nan"), 0.0], *ROWS[0][1:]], *ROWS[1:]]}),
    "vector-nan": ("", {**GHZ_DOC, "vector": [[float("nan"), 0.0], *GHZ_DOC["vector"][1:]]}),
    "vector-without-dims": ("", {"vector": GHZ_DOC["vector"]}),
    "vector-nested": ("", {**GHZ_DOC, "vector": [GHZ_DOC["vector"][:4], GHZ_DOC["vector"][4:]]}),
    "top-level-array": ("", [BELL_DOC]),
    "top-level-number": ("", 3),
    "no-state-key": ("", {"dims": [2, 2]}),
    "matrix-not-pairs": ("", {"dims": [2, 2], "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    # numbers at the edge of float range: an int json.load accepts but float() cannot hold,
    # and finite entries whose Hermitian part, trace or norm would overflow
    "matrix-int-beyond-float": ("", {**BELL_DOC,
                                     "matrix": [[[10**400, 0], *ROWS[0][1:]], *ROWS[1:]]}),
    "vector-int-beyond-float": ("", {**GHZ_DOC,
                                     "vector": [[10**400, 0], *GHZ_DOC["vector"][1:]]}),
    "matrix-diagonal-pm-1e308": ("", {"dims": [2, 2], "matrix": complex_pairs(
        np.diag([1e308, -1e308, 0.5, 0.5]))}),
    "matrix-offdiagonal-1e308": ("", {"dims": [2, 2], "matrix": complex_pairs(
        np.diag([0.5, 0.0, 0.0, 0.5]) + np.diag([0.0, 1e308, 0.0], 1)
        + np.diag([0.0, 1e308, 0.0], -1))}),
    "vector-1e308": ("", {**GHZ_DOC, "vector": [[1e308, 0.0], *GHZ_DOC["vector"][1:]]}),
    # files that json.load itself rejects, as raw bytes
    "bytes-truncated": ("", b'{"dims": [2, 2], "matrix": '),
    "bytes-not-utf8": ("", b'{"dims": [2, 2], "matrix": "\xff"}'),
    "bytes-nested-200000-deep": ("", b"[" * 200000 + b"]" * 200000),
    "bytes-dims-5000-digits": ("", b'{"dims": [' + b"9" * 5000 + b', 1], "matrix": []}'),
}

#: Tolerance flags outside (0, 1) on a well-formed document ("DOC" is its path).
BAD_TOLERANCE_ARGS = {
    **{f"analyze-rank-tol-{v}": ("analyze", "DOC", "--rank-tol", v)
       for v in ("nan", "inf", "1", "0", "-1")},
    **{f"analyze-ppt-tol-{v}": ("analyze", "DOC", "--ppt-tol", v) for v in ("nan", "inf")},
    "filter-rank-tol-nan": ("filter", "DOC", "--side", "A", "--rank-tol", "nan"),
    **{f"sample-rank-tol-{v}": ("sample", "2", "4", "3", "2", "--rank-tol", v)
       for v in ("nan", "2")},
}

#: A negative seed or budget, which ``cli.main`` rejects before the command runs.
BAD_SEED_AND_BUDGET_ARGS = {
    f"{cmd[0]}-{flag[2:]}-negative": (*cmd, flag, "-1")
    for cmd in (("analyze", "DOC"), ("sample", "2", "4", "3", "2"))
    for flag in ("--seed", "--budget")
}

#: case -> (what the diagnostic names, document, argv): every one must exit 2 with
#: nothing on stdout.
FUZZ_CASES = {
    **{f"{name}-{argv[0]}": (named, doc, argv) for name, (named, doc) in MALFORMED_DOCS.items()
       for argv in (("analyze", "DOC"), ("filter", "DOC", "--side", "A"))},
    **{name: ("", GHZ_DOC, argv)
       for name, argv in {**BAD_TOLERANCE_ARGS, **BAD_SEED_AND_BUDGET_ARGS}.items()},
}


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    named, doc, argv = FUZZ_CASES[case]
    path = write_state(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, *(path if arg == "DOC" else arg for arg in argv))
    assert code == 2, err
    assert out == ""
    assert err.startswith(f"error: {named}")


def test_every_error_class_has_one_exit_code():
    # cli.main exits 2 on an InputError and 3 on a NumericsError; only the bases and
    # RankNotLowError, which filter reports as a note, are in neither family
    families = {"LrdistillError", "InputError", "NumericsError", "RankNotLowError"}
    for name, cls in vars(errors).items():
        if isinstance(cls, type) and issubclass(cls, Exception) and name not in families:
            assert issubclass(cls, errors.InputError) != issubclass(cls, errors.NumericsError), name
    assert issubclass(errors.NotHermitianError, errors.StateFormatError)


#: Numbers at and beyond the edges of float range, and plain ones.
_NUMBERS = st.one_of(
    st.integers(-10**400, 10**400),
    st.sampled_from([1.7e308, -1.7e308, float("nan"), float("inf"), float("-inf"), 5e-324, 1.0]),
    st.floats(),
)
#: Any JSON value: those numbers, values of the wrong type, and lists of them.
_VALUES = st.recursive(_NUMBERS | st.booleans() | st.none() | st.text(max_size=3),
                       lambda inner: st.lists(inner, max_size=4), max_leaves=16)
_DIMS = st.lists(st.integers(1, 2), min_size=1, max_size=3)


def _pairs(*shape):
    """Lists nested to ``shape`` whose leaves are [re, im] pairs of ``_NUMBERS``."""
    lists = st.lists(_NUMBERS, min_size=2, max_size=2)
    for n in reversed(shape):
        lists = st.lists(lists, min_size=n, max_size=n)
    return lists


#: Documents of each schema whose arrays fit their dims, so that the constructors see the
#: numbers; then any object of the schema keys, and any JSON value.
_MATRIX_DOCS = _DIMS.flatmap(lambda dims: st.fixed_dictionaries(
    {"dims": st.just(dims), "matrix": _pairs(prod(dims), prod(dims))}))
_DOCS = st.one_of(
    _MATRIX_DOCS,
    _DIMS.flatmap(lambda dims: st.fixed_dictionaries(
        {"dims": st.just(dims), "vector": _pairs(prod(dims))})),
    st.fixed_dictionaries({"d_in": st.integers(1, 2), "d_out": st.integers(1, 2),
                           "choi": _MATRIX_DOCS}),
    st.fixed_dictionaries({}, optional=dict.fromkeys(
        ("dims", "matrix", "vector", "choi", "d_in", "d_out"), _VALUES)),
    _VALUES,
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_DOCS)
def test_the_reader_returns_a_state_or_raises_an_input_error(tmp_path, doc):
    # Any other exception, or any warning (an error under pytest), fails the example.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        _, state = cli._load_state(str(path))
    except InputError:
        return
    assert isinstance(state, (DensityMatrix, TripartitePureState))


def test_an_unexpected_exception_exits_3(capsys, monkeypatch):
    def boom(args):
        raise TypeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "example", boom)
    assert run_cli(capsys, "example", "bell") == (3, "", "internal error: TypeError: boom\n")


def test_integral_float_dimensions_are_accepted(tmp_path, capsys):
    path = write_state(tmp_path, "bell.json", {**BELL_DOC, "dims": [2.0, 2]})
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0, err
    assert json.loads(out)["input"]["dims"] == [2, 2]


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/state.json")
    assert code == 2


def test_analyze_rejects_csv(tmp_path, capsys):
    path = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    code, _, err = run_cli(capsys, "analyze", path, "--format", "csv")
    assert code == 2


def test_filter_reports(tmp_path, capsys):
    path = write_state(tmp_path, "tilted.json", matrix_doc(tilted_state().matrix, (2, 2)))
    code, out, _ = run_cli(capsys, "filter", path, "--side", "B")
    assert code == 0
    report = json.loads(out)
    assert report["filter"]["p_succ"] == pytest.approx(0.2, abs=1e-9)
    assert report["low_rank_bound"] == pytest.approx(0.2, abs=1e-9)
    assert report["filtered_hashing_rate"] == pytest.approx(0.2, abs=1e-9)


def test_filter_full_rank_notes_bound(tmp_path, capsys):
    doc = {
        "dims": [2, 2],
        "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    path = write_state(tmp_path, "mixed.json", doc)
    code, out, _ = run_cli(capsys, "filter", path, "--side", "B")
    assert code == 0
    report = json.loads(out)
    assert report["low_rank_bound"] is None
    assert "does not apply" in report["low_rank_bound_note"]
    assert report["filter"]["p_succ"] == pytest.approx(1.0, abs=1e-9)


def test_sample_bad_spec(capsys):
    code, out, err = run_cli(capsys, "sample", "2", "4", "4", "10")
    assert code == 2
    assert "d_E < d_B" in err


# numpy refuses an array whose size in bytes exceeds intp's maximum: "elements" overflows
# it by its count of entries alone, "bytes" only by the 16 bytes of each complex entry.
# "memory" fits intp, but its 2 EiB of real parts exceed the address space of any 64-bit
# CPU (at most 2^57 bytes), so numpy's MemoryError comes before any page is touched.
@pytest.mark.parametrize("dims, message", [
    (("2", "1" + "0" * 30, "1"), "exceeds the largest array size"),
    (("2", str(2**30), str(2**29)), "exceeds the largest array size"),
    (("2", str(2**29), str(2**28)), "out of memory: Unable to allocate 2.00 EiB"),
], ids=["elements", "bytes", "memory"])
def test_sample_with_an_unallocatable_size_exits_2(capsys, dims, message):
    code, out, err = run_cli(capsys, "sample", *dims, "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("d", [10**10, 30000], ids=["elements", "bytes"])
def test_example_with_an_unallocatable_dimension_exits_2(capsys, d):
    # the check comes before any allocation: at d = 30000 the Choi matrix's
    # (2 d^2)^2 entries fit intp, but not its bytes, and d^2 entries alone take 14 GB
    code, out, err = run_cli(capsys, "example", "flagged-depolarizing", "--d", str(d))
    assert code == 2 and out == ""
    assert "exceeds the largest array size" in err


def test_sample_csv(capsys):
    code, out, _ = run_cli(capsys, "sample", "2", "3", "2", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5 and lines[0].startswith("index,")


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "example", "bell", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dims"] == [2, 2]


def test_an_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "example", "bell", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}")


def test_commands_take_only_the_flags_they_read(tmp_path, capsys):
    path = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    for args in (
        ("filter", path, "--side", "A", "--seed", "1"),
        ("filter", path, "--side", "A", "--budget", "3"),
        ("sample", "2", "3", "2", "3", "--ppt-tol", "1e-9"),
        ("example", "bell", "--budget", "3"),
        ("example", "bell", "--format", "json"),
    ):
        code, out, err = run_cli(capsys, *args)
        assert code == 2, args
        assert out == "" and "unrecognized arguments" in err


def test_omitted_flags_keep_their_defaults_in_the_config(tmp_path, capsys):
    path = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    code, out, _ = run_cli(capsys, "filter", path, "--side", "A", "--rank-tol", "1e-8")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["rank_tol"] == 1e-8
    assert (config["ppt_tol"], config["seed"], config["witness_budget"]) == (1e-9, 0, 50)


def test_help_and_version_return_zero(capsys):
    assert main(["--version"]) == 0
    assert main(["sample", "--help"]) == 0
    assert main([]) == 2


def test_help_names_the_root_parsers_default_for_every_flag(monkeypatch):
    parsers = [build_parser()]
    # defaults no help text spells out, to tell a help built from the root from a copied one
    changed = {"rank_tol": 1e-7, "ppt_tol": 1e-6, "seed": 11, "witness_budget": 7}
    for name, default in changed.items():
        flag, _, *rest = cli._FLAGS[name]
        monkeypatch.setitem(cli._FLAGS, name, (flag, default, *rest))
    parsers.append(build_parser.__wrapped__())
    assert parsers[1].get_default("witness_budget") == 7
    for parser in parsers:
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in subs.choices.items():
            text = " ".join(sub.format_help().split())  # one line at any terminal width
            for action in sub._actions:
                default = parser.get_default(action.dest)
                if default not in (None, argparse.SUPPRESS):  # None: --output; SUPPRESS: --help
                    assert f"(default {default})" in text, (name, action.dest)
            if name == "example":
                assert "(default 2)" in text and "(default 0.5)" in text


def test_pretty_formats(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_state().to_json_dict())
    for args in (
        ("analyze", path, "--format", "pretty"),
        ("filter", path, "--side", "A", "--format", "pretty"),
        ("sample", "2", "3", "2", "3", "--format", "pretty"),
    ):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.endswith("\n") and "{" not in out


def test_subprocess_entry_point(tmp_path):
    # end-to-end through ``python -m lrdistill.cli`` in a child process, twice for determinism;
    # -W error makes any warning fail the child, which pytest's filterwarnings does not reach
    cmd = [sys.executable, "-W", "error", "-m", "lrdistill.cli",
           "sample", "2", "3", "2", "5", "--seed", "1"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stderr == b""
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["frequencies"]["witness_found"] == 1.0


#: Prints whether ``import numpy`` alone loads ``numpy.random`` (numpy < 2.0 does), then
#: runs each step of argv[1] in order and prints, after each, whether ``numpy.random`` is
#: loaded and the AB witness search's trials (None where the step runs no search report).
NUMPY_RANDOM_PROBE = """
import contextlib, io, json, sys
import numpy
numpy_loads_random = "numpy.random" in sys.modules
from lrdistill import cli, distill, states
results = []
for step in json.loads(sys.argv[1]):
    if step[0] == "find_one_way_witness":
        with open(step[1], encoding="utf-8") as fh:
            rho = states.density_matrix_from_dict(json.load(fh))
        trials = distill.find_one_way_witness(rho, seed=0).trials_used
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(step) == 0, step
        report = json.loads(out.getvalue()).get("report", {})
        trials = report.get("reductions", {}).get("AB", {}).get("witness_search", {}).get(
            "trials_used")
    results.append(["numpy.random" in sys.modules, trials])
print(json.dumps({"numpy_loads_random": numpy_loads_random, "steps": results}))
"""


def test_a_run_that_draws_nothing_never_loads_numpy_random(tmp_path):
    # A witness search builds its generator at its first Haar batch: on a Haar state a
    # basis vector hits first, and on the d=3 flagged complement the ratio bound rules out
    # every trial first, so neither loads numpy.random (nor hashlib, which it pulls in).
    # An integer seed is checked without it. sample draws its states: the control.
    psi = haar_state((2, 4, 3), 0)
    pure = write_state(tmp_path, "haar.json", psi.to_json_dict())
    mixed = write_state(tmp_path, "ab.json", psi.reduction((0, 1)).to_json_dict())
    comp = write_state(tmp_path, "complement.json", matrix_doc(
        complement_matrix(flagged_depolarizing_choi(3, 0.5), 3, 6), (3, 10)))
    steps = [["analyze", pure], ["filter", pure, "--side", "A"], ["filter", pure, "--side", "B"],
             ["analyze", comp, "--budget", "2000"], ["find_one_way_witness", mixed],
             ["sample", "2", "3", "2", "1"]]
    done = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE, json.dumps(steps)],
                          capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout)
    if probe["numpy_loads_random"]:
        pytest.skip("import numpy alone loads numpy.random before numpy 2.0")
    assert probe["steps"] == [[False, 1], [False, None], [False, None],
                              [False, 3 + 2000], [False, 1], [True, None]]


def test_states_are_validated_only_at_the_input_boundary(tmp_path, capsys, monkeypatch,
                                                          validations):
    monkeypatch.setattr(TripartitePureState, "density_matrix", None)  # |psi><psi| is never built
    rng = np.random.default_rng(4)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    psi = write_state(tmp_path, "psi.json", {
        "dims": [2, 4, 3], "vector": [[z.real, z.imag] for z in v / np.linalg.norm(v)]})
    rho = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    for args, expected in (
        (("analyze", psi), 0),
        (("filter", psi, "--side", "B"), 0),
        (("filter", rho, "--side", "A"), 1),
        (("analyze", rho), 1),
    ):
        validations.clear()
        code, _, err = run_cli(capsys, *args)
        assert code == 0, err
        assert len(validations) == expected, args


def test_witness_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    # Bell on AB, |0> on E: the AB witness search runs
    path = write_state(tmp_path, "bellenv.json", bell_with_trivial_env().to_json_dict())
    fail_solver(monkeypatch, "eigvalsh", stacked_only=True)  # the witness search's batch solve
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3 and out == ""
    assert "did not converge" in err


def test_a_failed_validation_solve_exits_3(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    fail_solver(monkeypatch, "eigvalsh")
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3 and out == ""
    assert err.startswith("internal error: eigensolver did not converge")


def test_eigensolver_calls_per_command(tmp_path, capsys, solver_calls):
    # the documents of the docs-large benchmark workload: a Haar (8,8,16) pure
    # state and rho_AB of a Haar (4,16,8) state
    rng = np.random.default_rng(0)
    psi = TripartitePureState((8, 8, 16), gaussian_unit_vector(rng, 1024))
    pure = write_state(tmp_path, "haar.json", psi.to_json_dict())
    m = gaussian_unit_vector(rng, 512).reshape(64, 8)
    gram = m @ m.conj().T
    rho = DensityMatrix((4, 16), (gram + gram.conj().T) / 2)
    mixed = write_state(tmp_path, "ab.json", rho.to_json_dict())
    for args, want in (
        # the three one-party marginals, two partial transposes, the basis batch
        (("analyze", pure), {"eigvalsh": 6}),
        # eigvalsh: input validation and the filtered state's r x r E-marginal;
        # eigh: the purification and the side marginal
        (("filter", mixed, "--side", "A"), {"eigh": 2, "eigvalsh": 2}),
        (("filter", mixed, "--side", "B"), {"eigh": 2, "eigvalsh": 2}),
    ):
        solver_calls.clear()
        assert run_cli(capsys, *args)[0] == 0
        assert solver_calls == want, args


@pytest.mark.parametrize("args, message", [
    (("sample", "4", "8", "6", "20", "--budget", "-1"), "budget must be an integer >= 0, got -1"),
    (("sample", "4", "8", "6", "20", "--seed", "-1"), "seed must be an integer >= 0"),
    (("analyze", "RHO", "--budget", "-1"), "budget must be an integer >= 0, got -1"),
    (("analyze", "RHO", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    (("sample", "4", "8", "6", "20", "--rank-tol", "2"), "rank_tol must lie in (0, 1), got 2.0"),
    (("analyze", "RHO", "--rank-tol", "2"), "rank_tol must lie in (0, 1), got 2.0"),
    (("analyze", "RHO", "--ppt-tol", "0"), "ppt_tol must lie in (0, 1), got 0.0"),
    (("filter", "RHO", "--side", "A", "--rank-tol", "1.5"),
     "rank_tol must lie in (0, 1), got 1.5"),
])
def test_a_bad_setting_exits_2_before_any_solve(tmp_path, capsys, solver_calls, args, message):
    rho = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    solver_calls.clear()
    code, out, err = run_cli(capsys, *(rho if a == "RHO" else a for a in args))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)
    assert solver_calls == {}


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_state().to_json_dict())
    calls = [
        ("--help",),
        ("--version",),
        ("filter", path),  # usage error: --side is required
        ("analyze", "--seed", "5", path),
        ("analyze", path),
        ("example", "flagged-depolarizing", "--q", "0.3"),
        ("example", "flagged-depolarizing"),
    ]

    def outcomes(fresh: bool):
        results = []
        for args in calls:
            if fresh:
                build_parser.cache_clear()
            results.append(run_cli(capsys, *args))
        return results

    build_parser.cache_clear()
    shared = outcomes(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert shared == outcomes(fresh=True)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0]
    assert "--side" in shared[2][2]
    seeds = [json.loads(out)["config"]["seed"] for _, out, _ in shared[3:5]]
    assert seeds == [5, 0]
    assert shared[5][1] != shared[6][1]


def test_importing_the_cli_builds_no_parser():
    probe = "import lrdistill.cli as c; print(c.build_parser.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"
