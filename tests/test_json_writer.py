"""The CLI's indent-2 JSON writer against ``json.dumps(value, indent=2)``.

``cli._dump_json`` renders regular float arrays in bulk and leaves every
other value to ``json``; its output must be byte-identical to
``json.dumps(value, indent=2) + "\\n"`` for every JSON value.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from golden.build_corpus import run_case
from lrdistill import cli
from lrdistill.states import DensityMatrix, complex_pairs

from conftest import gaussian_unit_vector

from test_golden import CASES

#: Floats at the edges of ``repr``: signed zero, subnormals, huge and tiny
#: exponents, integral values and the three non-finite values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
               -1e300, 1.7976931348623157e308, 1e16, 1e-5, 2.0, -3.0, 0.1,
               math.nan, math.inf, -math.inf]

finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [x for x in EDGE_FLOATS if math.isfinite(x)])
any_floats = st.floats() | st.sampled_from(EDGE_FLOATS)


def float_arrays(elements):
    """Regular nested lists of 0 to 3 dimensions (a bare float at 0-d), empty sides included."""
    return arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                  elements=elements).map(lambda a: a.tolist())


scalars = st.none() | st.booleans() | st.integers() | any_floats | st.text(max_size=6)
leaves = scalars | float_arrays(finite_floats) | float_arrays(any_floats)
json_values = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(st.integers() | any_floats | st.booleans(), max_size=4)  # mixed lists
        | st.lists(st.lists(finite_floats, max_size=3), max_size=3)  # ragged float lists
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers() | any_floats | st.booleans() | st.none(),
                          children, max_size=3)
    ),
    max_leaves=12,
)


def assert_writes_like_json(value):
    assert cli._dump_json(value) == json.dumps(value, indent=2) + "\n"


@settings(max_examples=200)
@given(json_values)
def test_the_writer_matches_json_dumps_on_any_json_value(value):
    assert_writes_like_json(value)


@settings(max_examples=200)
@given(float_arrays(finite_floats))
def test_regular_float_arrays_match_json_dumps(value):
    assert_writes_like_json(value)
    assert_writes_like_json({"nested": [value, {"deeper": value}]})


@pytest.mark.parametrize("value", [
    [], {}, [[]], [[], []], [{}], (), [()], [1.0, 2], [True, 1.0], [1.0, [2.0]], [[1.0], 2.0],
    [[1.0, 2.0], [3.0]], [[1.0, math.nan]], {1: [1.0]}, {"a": 1, 2.5: None}, [np.float64(0.5)],
    [[0.5, np.float64(0.25)]], ["\n", "é "], {"line\nbreak": [[1.0, -0.0]]},
    [EDGE_FLOATS[:-3]], EDGE_FLOATS, -0.0, 5e-324,
])
def test_edge_values_match_json_dumps(value):
    assert_writes_like_json(value)


def test_a_regular_float_array_takes_the_bulk_path():
    rng = np.random.default_rng(3)
    pairs = complex_pairs(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert cli._float_array(pairs, "\n") == json.dumps(pairs, indent=2)
    assert cli._float_array([[1.0, 2.0], [3.0]], "\n") is None
    assert cli._float_array([1.0, math.inf], "\n") is None
    assert cli._float_array([1.0, 1], "\n") is None


def _payloads(monkeypatch, calls):
    """The payload that each CLI call hands to ``_dump_json``."""
    seen = []
    real = cli._dump_json
    monkeypatch.setattr(cli, "_dump_json", lambda payload: seen.append(payload) or real(payload))
    for argv in calls:
        assert run_case(argv)[0] == 0
    monkeypatch.undo()
    return seen


def test_every_golden_payload_is_written_like_json_dumps(monkeypatch):
    json_cases = [argv for argv in CASES.values() if "--format" not in argv]
    payloads = _payloads(monkeypatch, json_cases)
    assert len(payloads) == len(json_cases)
    for payload in payloads:
        assert_writes_like_json(payload)


def test_a_64x64_filter_payload_is_written_like_json_dumps(tmp_path, monkeypatch):
    # rho_AB of a Haar (4,16,8) state, as in the docs-large benchmark workload
    m = gaussian_unit_vector(np.random.default_rng(0), 512).reshape(64, 8)
    gram = m @ m.conj().T
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(DensityMatrix((4, 16), (gram + gram.conj().T) / 2).to_json_dict()))
    payloads = _payloads(monkeypatch, [["filter", str(path), "--side", side] for side in "AB"])
    for payload in payloads:
        assert len(payload["filter"]["filtered_state"]["matrix"]) == 64
        assert_writes_like_json(payload)
