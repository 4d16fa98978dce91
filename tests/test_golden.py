"""Replay the golden CLI corpus (``tests/golden``).

Discrete fields (ranks, verdicts, rate statuses, flags, ``trials_used``) must
match exactly; floats must match within 1e-12. ``golden/build_corpus.py``
describes how the corpus was made. Every JSON report, and every ``example``
document, must also survive a strict JSON round trip.
"""

import json
import os
import re

import pytest

from golden.build_corpus import CASES, HERE, run_case
from lrdistill import ChoiChannel, TripartitePureState
from lrdistill.cli import _EXAMPLES, _load_state, build_parser

FLOAT_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _expected(name: str) -> str:
    with open(os.path.join(HERE, name + ".out"), encoding="utf-8") as fh:
        return fh.read()


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, text = run_case(CASES[name])
    assert code == 0
    want = _expected(name)
    if "--format" in CASES[name]:
        assert_text_close(text, want)
    else:
        assert_json_close(json.loads(text, parse_constant=_reject_constant), json.loads(want))


def test_comparison_catches_a_changed_field():
    want = json.loads(_expected("analyze_haar_2_4_3"))
    for mutate in (
        lambda d: d["report"]["ranks"].update(E=4),
        lambda d: d["report"].update(hashing_rate=d["report"]["hashing_rate"] + 1e-11),
        lambda d: d["report"]["reductions"]["AB"]["witness_search"].update(trials_used=2),
    ):
        got = json.loads(_expected("analyze_haar_2_4_3"))
        mutate(got)
        with pytest.raises(AssertionError):
            assert_json_close(got, want)
    with pytest.raises(AssertionError):
        assert_text_close("rank=3 rate=0.5\n", "rank=2 rate=0.5\n")


#: Every CLI call whose stdout is a JSON document: the golden JSON cases and each example.
JSON_CALLS = {
    **{name: argv for name, argv in CASES.items() if "--format" not in argv},
    **{f"example_{name}": ["example", name] for name in _EXAMPLES},
}


@pytest.mark.parametrize("name", sorted(JSON_CALLS))
def test_json_output_round_trips_byte_for_byte(name):
    code, text = run_case(JSON_CALLS[name])
    assert code == 0
    doc = json.loads(text, parse_constant=_reject_constant)
    assert json.dumps(doc, indent=2) + "\n" == text


def _arrays(state):
    """The dimensions and the bytes of the array that defines a state."""
    if isinstance(state, TripartitePureState):
        return state.dims, state.amplitudes.tobytes()
    return state.dims, state.matrix.tobytes()


@pytest.mark.parametrize("name", sorted(_EXAMPLES))
def test_every_example_reloads_to_bit_equal_arrays(tmp_path, name):
    argv = ["example", name]
    code, text = run_case(argv)
    assert code == 0
    path = tmp_path / "example.json"
    path.write_text(text, encoding="utf-8")
    _, loaded = _load_state(str(path))
    want = _EXAMPLES[name](build_parser().parse_args(argv))
    if isinstance(want, ChoiChannel):  # a channel reloads as its Choi state on (d_in, d_out)
        assert loaded.dims == (want.d_in, want.d_out)
        want = want.choi
    assert _arrays(loaded) == _arrays(want)
