"""Self-tests of the benchmark's tracer, output checks and baseline counts.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import baseline
import lrdistill
from lrdistill import distill
from tracer import SPANS, Tracer
from worker import call_cli
from workloads import check_output, prepare


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """One small op per command, on documents the workloads build."""
    workdir = str(tmp_path_factory.mktemp("docs"))
    large = prepare("docs-large", 7, workdir)["cycle"]
    witness = prepare("witness-exhaust", 7, workdir)["cycle"][0]["argv"]
    return [
        large[1]["argv"],
        large[2]["argv"],
        [*witness[:2], "--budget", "20", "--seed", "3"],
        ["sample", "2", "4", "3", "5", "--seed", "11"],
    ]


def _originals() -> dict:
    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("lrdistill.")}
    out = {}
    for name, (module, attr) in SPANS.items():
        owner = modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[name] = owner
    return out


def test_every_binding_of_a_traced_function_is_wrapped():
    originals = _originals()
    linalg = {fn: getattr(np.linalg, fn) for fn in ("eigh", "eigvalsh", "svd")}
    with Tracer().install(lrdistill):
        for name, mod in sys.modules.items():
            if name == "lrdistill" or name.startswith("lrdistill."):
                for attr, value in vars(mod).items():
                    hit = [n for n, fn in originals.items() if value is fn]
                    assert not hit, f"{name}.{attr} still binds the unwrapped {hit}"
        assert lrdistill.cli.classify.__traced__ is originals["distill.classify"]
        assert lrdistill.sampling._saturation_search.__traced__ is originals[
            "distill.saturation_search"]
        assert lrdistill.states.DensityMatrix.__post_init__.__traced__ is originals[
            "states.validate"]
        assert all(getattr(np.linalg, fn).__traced__ is f for fn, f in linalg.items())
    assert _originals() == originals
    assert all(getattr(np.linalg, fn) is f for fn, f in linalg.items())


def test_traced_stdout_is_byte_identical(docs):
    for argv in docs:
        _, rc, plain, _ = call_cli(lrdistill.cli, argv)
        with Tracer().install(lrdistill) as tracer:
            _, rc_traced, traced, _ = call_cli(lrdistill.cli, argv)
        assert rc == rc_traced == 0
        assert traced == plain, argv
        assert tracer.span_count("cli.main") == 1


def test_child_spans_fit_inside_their_parent(docs):
    with Tracer().install(lrdistill) as tracer:
        for argv in docs:
            call_cli(lrdistill.cli, argv)
    durations, self_times = tracer.durations(), tracer.self_times()
    children = [0.0] * len(durations)
    child_self = [0.0] * len(durations)
    for idx, par in enumerate(tracer.parent):
        if par >= 0:
            children[par] += durations[idx]
            child_self[par] += self_times[idx]
            assert tracer.start[par] <= tracer.start[idx] <= tracer.end[idx] <= tracer.end[par]
    assert len(durations) > 100
    for idx, total in enumerate(durations):
        assert child_self[idx] <= children[idx] <= total
        assert self_times[idx] >= 0.0


def test_eigensolver_counts_match_an_independent_count():
    psi = baseline._pure((2, 4, 3))
    codes = {fn: getattr(np.linalg, fn).__wrapped__.__code__ for fn in ("eigh", "eigvalsh")}
    seen = dict.fromkeys(codes, 0)

    def profile(frame, event, _arg):
        if event == "call":
            for fn, code in codes.items():
                if frame.f_code is code:
                    seen[fn] += 1

    with Tracer().install(lrdistill) as tracer:
        sys.setprofile(profile)
        try:
            distill.classify(psi)
        finally:
            sys.setprofile(None)
    assert seen["eigh"] > 0 and seen["eigvalsh"] > 0
    assert {fn: tracer.counts[(fn, None)] for fn in codes} == seen


@pytest.mark.parametrize("index", [0, 1, 2, 3, 7])
def test_traced_counts_reproduce_the_roadmap_baseline(tmp_path, index):
    row = baseline.rows(str(tmp_path))[index]
    assert baseline.traced_counts(row) == row["counts"]


def test_checks_reject_wrong_outputs(docs):
    _, _, out, _ = call_cli(lrdistill.cli, docs[1])
    check = {"kind": "filter", "side": "B"}
    assert check_output(check, out) is None
    doc = json.loads(out)
    for mutate in (
        lambda d: d["filter"].update(rank=9),
        lambda d: d["filter"].update(p_succ=d["filter"]["p_succ"] + 1e-9),
        lambda d: d.update(filtered_hashing_rate=d["low_rank_bound"] / 2),
        lambda d: d.update(low_rank_bound=None),
        lambda d: d.pop("filter"),
    ):
        bad = json.loads(out)
        mutate(bad)
        assert check_output(check, json.dumps(bad)) is not None
    assert check_output(check, out[:-10]) is not None
    assert doc["low_rank_bound"] > 0.0
