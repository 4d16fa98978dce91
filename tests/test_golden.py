"""Replay the golden CLI corpus (``tests/golden``).

Discrete fields (ranks, verdicts, rate statuses, flags, ``trials_used``) must
match exactly; floats must match within 1e-12. ``golden/build_corpus.py``
describes how the corpus was made and holds that comparison, which its
``main()`` also uses to leave unchanged outputs alone. Every JSON report, and
every ``example`` document, must also survive a strict JSON round trip.
"""

import json
import os

import pytest

from golden.build_corpus import (CASES, HERE, assert_json_close, assert_output_close,
                                 assert_text_close, run_case, strict_json)
from lrdistill import ChoiChannel, TripartitePureState
from lrdistill.cli import _EXAMPLES, _load_state, build_parser


def _expected(name: str) -> str:
    with open(os.path.join(HERE, name + ".out"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, text = run_case(CASES[name])
    assert code == 0
    assert_output_close(CASES[name], text, _expected(name))


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
    doc = strict_json(text)
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
