import json
import subprocess
import sys

import numpy as np
import pytest

from lrdistill.cli import main
from lrdistill.states import DensityMatrix, TripartitePureState, bell_state, ghz_state

ALL_EXAMPLES = ["bell", "ghz", "maximally-mixed", "werner-holevo", "wh-choi", "flagged-depolarizing"]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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
    v = np.zeros(8)
    v[0] = v[6] = 1 / np.sqrt(2)
    doc = {"dims": [2, 2, 2], "vector": [[x, 0.0] for x in v]}
    path = write_state(tmp_path, "bellenv.json", doc)
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


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2], "matrix": ')
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err
    assert out == ""


def test_analyze_invalid_state(tmp_path, capsys):
    # trace is 2: violates an invariant, named in the diagnostic
    doc = {"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    path = write_state(tmp_path, "bad.json", doc)
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "trace" in err


BELL_DOC = bell_state().to_json_dict()

#: Documents whose dimension fields are malformed, with the field the diagnostic names.
MALFORMED_DIMS = {
    "matrix-dims-string": ("dims", {**BELL_DOC, "dims": "ab"}),
    "matrix-dims-nested": ("dims", {**BELL_DOC, "dims": [[2], [2]]}),
    "matrix-dims-null": ("dims", {**BELL_DOC, "dims": None}),
    "matrix-dims-fraction": ("dims", {**BELL_DOC, "dims": [2.5, 2]}),
    "vector-dims-bools": ("dims", {"dims": [True, True, True], "vector": [[1.0, 0.0]]}),
    "vector-dims-null": ("dims", {**ghz_state().to_json_dict(), "dims": None}),
    "channel-d_in-string": ("d_in", {"d_in": "x", "d_out": 2, "choi": BELL_DOC}),
    "channel-d_out-list": ("d_out", {"d_in": 2, "d_out": [2], "choi": BELL_DOC}),
}


@pytest.mark.parametrize("command", [("analyze",), ("filter", "--side", "A")])
@pytest.mark.parametrize("case", sorted(MALFORMED_DIMS))
def test_malformed_dimensions_exit_2(tmp_path, capsys, case, command):
    field, doc = MALFORMED_DIMS[case]
    path = write_state(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, command[0], path, *command[1:])
    assert code == 2, err
    assert out == ""
    assert err.startswith(f"error: {field}")


GHZ_DOC = ghz_state().to_json_dict()
ROWS = BELL_DOC["matrix"]

#: Malformed documents beyond the dimension fields above.
MALFORMED_DOCS = {
    "matrix-string": {**BELL_DOC, "matrix": "[[1, 0]]"},
    "matrix-ragged": {**BELL_DOC, "matrix": [ROWS[0], ROWS[1][:2], ROWS[2], ROWS[3]]},
    "matrix-3d": {**BELL_DOC, "matrix": [ROWS, ROWS]},
    "matrix-empty": {**BELL_DOC, "matrix": []},
    "matrix-three-dims": {**BELL_DOC, "dims": [2, 2, 1]},
    "dims-huge-int": {**BELL_DOC, "dims": [10**400, 1]},
    "vector-dict": {**GHZ_DOC, "vector": {"0": [1.0, 0.0]}},
    "vector-string": {**GHZ_DOC, "vector": "1, 0"},
    "vector-short": {**GHZ_DOC, "vector": GHZ_DOC["vector"][:-1]},
    "vector-empty": {**GHZ_DOC, "vector": []},
    "choi-list": {"d_in": 2, "d_out": 2, "choi": ROWS},
}

#: Tolerance flags outside (0, 1) on a well-formed document ("DOC" is its path).
BAD_TOLERANCE_ARGS = {
    **{f"analyze-rank-tol-{v}": ("analyze", "DOC", "--rank-tol", v)
       for v in ("nan", "inf", "1", "0")},
    **{f"analyze-ppt-tol-{v}": ("analyze", "DOC", "--ppt-tol", v) for v in ("nan", "inf")},
    "filter-rank-tol-nan": ("filter", "DOC", "--side", "A", "--rank-tol", "nan"),
    **{f"sample-rank-tol-{v}": ("sample", "2", "4", "3", "2", "--rank-tol", v)
       for v in ("nan", "2")},
}

#: case -> (document, argv): every one must exit 2 with nothing on stdout.
FUZZ_CASES = {
    **{f"{name}-{argv[0]}": (doc, argv) for name, doc in MALFORMED_DOCS.items()
       for argv in (("analyze", "DOC"), ("filter", "DOC", "--side", "A"))},
    **{name: (GHZ_DOC, argv) for name, argv in BAD_TOLERANCE_ARGS.items()},
}


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    doc, argv = FUZZ_CASES[case]
    path = write_state(tmp_path, "doc.json", doc)
    code, out, err = run_cli(capsys, *(path if arg == "DOC" else arg for arg in argv))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ")


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
    v = np.zeros(4)
    v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
    doc = {
        "dims": [2, 2],
        "matrix": [[[x * y, 0.0] for y in v] for x in v],
    }
    path = write_state(tmp_path, "tilted.json", doc)
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


def test_sample_command(capsys):
    code, out, _ = run_cli(capsys, "sample", "2", "4", "3", "25", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["frequencies"] == {
        "rank_state": 1.0,
        "rank_marginal": 1.0,
        "schmidt_full": 1.0,
        "witness_found": 1.0,
    }
    assert len(doc["samples"]) == 25


def test_sample_bad_spec(capsys):
    code, out, err = run_cli(capsys, "sample", "2", "4", "4", "10")
    assert code == 2
    assert "d_E < d_B" in err


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


def test_bad_tolerance_flag(tmp_path, capsys):
    path = write_state(tmp_path, "bell.json", bell_state().to_json_dict())
    code, _, err = run_cli(capsys, "analyze", path, "--rank-tol", "-1")
    assert code == 2


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


def test_repeat_invocations_byte_identical(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_state().to_json_dict())
    runs = [
        ("analyze", path, "--seed", "5"),
        ("filter", path, "--side", "B"),
        ("sample", "2", "4", "3", "10", "--seed", "5"),
        ("example", "flagged-depolarizing", "--d", "2", "--q", "0.25"),
    ]
    for args in runs:
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first.encode() == second.encode()


def test_subprocess_entry_point(tmp_path):
    # end-to-end through the installed console script, twice for determinism
    cmd = [sys.executable, "-m", "lrdistill.cli", "sample", "2", "3", "2", "5", "--seed", "1"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["frequencies"]["witness_found"] == 1.0


def test_states_are_validated_only_at_the_input_boundary(tmp_path, capsys, monkeypatch):
    validations = []
    original = DensityMatrix.__post_init__
    monkeypatch.setattr(
        DensityMatrix, "__post_init__", lambda self: validations.append(1) or original(self)
    )
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
    real = np.linalg.eigvalsh

    def failing(a, *args, **kwargs):
        if np.ndim(a) == 3:  # only the witness search's batched rank solve
            raise np.linalg.LinAlgError("forced")
        return real(a, *args, **kwargs)

    v = np.zeros(8)
    v[0] = v[6] = 1 / np.sqrt(2)  # Bell on AB, |0> on E: the AB witness search runs
    doc = {"dims": [2, 2, 2], "vector": [[x, 0.0] for x in v]}
    path = write_state(tmp_path, "bellenv.json", doc)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3 and out == ""
    assert "did not converge" in err
