"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``); a failing
criterion fails its own test. Runtime ceilings are asserted, not just hoped
for.

This file is the one home of each random-state sweep: the filter chain, the
ensemble experiment, the classifier's soundness, the coherent-information
negation, the conditioned-marginal rank bound and CLI determinism are swept
over random states here and nowhere else. The unit files test the same code
on closed-form and structured states.
"""

import json
import time

import numpy as np
import pytest

from lrdistill import (
    coherent_information,
    complement,
    complement_channel,
    conditional_marginal,
    filtered_hashing_rate,
    find_one_way_witness,
    flagged_depolarizing_channel,
    is_ppt,
    local_filter,
    low_rank_rate_bound,
    partial_trace,
    purify,
    sample_state,
    werner_holevo_channel,
)
from lrdistill.errors import RankNotLowError
from lrdistill.states import bell_state, ghz_state

from conftest import (bell_with_trivial_env, haar_state, loop_reductions,
                      npt_witness, numerical_rank, pairs, run_cli)


def _done(number, description, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"CRITERION {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_bell_suite():
    t0 = time.perf_counter()
    bell = bell_state()
    assert coherent_information(bell) == pytest.approx(1.0, abs=1e-9)
    assert low_rank_rate_bound(bell, "B") == pytest.approx(1.0, abs=1e-9)
    verdict = is_ppt(bell)
    assert not verdict.is_ppt
    assert verdict.witness == pytest.approx(-0.5, abs=1e-9)
    _done(1, "Bell suite: hashing rate, filter bound, PPT witness", t0, 1.0)


def test_criterion_2_filter_inequality_chain():
    t0 = time.perf_counter()
    count = 0
    # (2,5,2) and (5,2,2): rank rho_B, resp. rank rho_A, is 4 of 5, so the filter's
    # support projector is not the identity
    for d_a, d_b, d_e in ((2, 3, 2), (2, 4, 3), (3, 4, 2), (2, 5, 2), (5, 2, 2)):
        for seed in range(170):
            rho = sample_state(d_a, d_b, d_e, seed=seed)
            for side, keep in (("A", (0,)), ("B", (1,))):
                out = local_filter(rho, side)
                assert 0.0 < out.p_succ <= 1.0 + 1e-9
                assert abs(out.p_succ - out.lambda_min * out.rank_side) <= 1e-9
                assert numerical_rank(out.filtered_state.matrix) == out.rank
                marginal = partial_trace(out.filtered_state, keep).matrix
                assert np.max(np.abs(marginal - out.support_projector / out.rank_side)) <= 1e-9
                try:
                    bound = low_rank_rate_bound(rho, side)
                except RankNotLowError:
                    continue
                assert bound <= filtered_hashing_rate(rho, side) + 1e-9
                count += 1
    assert count >= 500
    _done(2, f"filter inequality chain on {count} low-rank (state, side) pairs", t0, 30.0)


def test_criterion_3_random_state_experiment(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "sample", "2", "4", "3", "200", "--seed", "0")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["config"]["witness_budget"] == 50
    assert len(doc["samples"]) == 200
    assert doc["frequencies"] == {
        "rank_state": 1.0,
        "rank_marginal": 1.0,
        "schmidt_full": 1.0,
        "witness_found": 1.0,
    }
    with capsys.disabled():
        _done(3, "200-sample generic low-rank experiment, all frequencies 1.0", t0, 60.0)


def test_criterion_4_flagged_depolarizing_regression():
    t0 = time.perf_counter()
    channel = flagged_depolarizing_channel(2, 0.5)
    assert numerical_rank(channel.choi.matrix) == 5
    comp = complement_channel(channel)
    rank_j_ae = numerical_rank(comp.choi.matrix)
    rank_j_e = numerical_rank(partial_trace(comp.choi, (1,)).matrix)
    assert rank_j_ae <= 4 < 5 == rank_j_e
    for seed in (0, 1, 2):
        outcome = find_one_way_witness(comp.choi, budget=1000, seed=seed)
        assert outcome.performed and not outcome.found
    assert low_rank_rate_bound(comp.choi, "B") > 0.0
    _done(4, "flagged-depolarizing channel: ranks, no one-way witness, positive bound", t0, 30.0)


def test_criterion_5_werner_holevo_suite():
    t0 = time.perf_counter()
    channel = werner_holevo_channel()
    spectrum = np.linalg.eigvalsh(channel.choi.matrix)[::-1]
    assert np.max(np.abs(spectrum - np.array([1 / 3] * 3 + [0.0] * 6))) <= 1e-9
    assert not is_ppt(channel.choi).is_ppt
    assert abs(coherent_information(channel.choi)) <= 1e-9
    comp_spectrum = np.linalg.eigvalsh(complement_channel(channel).choi.matrix)[::-1]
    assert np.max(np.abs(spectrum - comp_spectrum)) <= 1e-8
    from lrdistill import classify

    report = classify(purify(channel.choi))
    assert report.classification == "SOME_REDUCTION_2WAY_DISTILLABLE"
    assert report.npt_reductions == ("AB", "AE")
    _done(5, "Werner-Holevo suite: spectrum, NPT, zero hashing rate, self-complement", t0, 5.0)


def test_criterion_6_classifier_end_to_end(tmp_path, capsys):
    t0 = time.perf_counter()
    ghz_path = tmp_path / "ghz.json"
    ghz_path.write_text(json.dumps(ghz_state().to_json_dict()))
    code, out, _ = run_cli(capsys, "analyze", str(ghz_path))
    assert code == 0
    assert json.loads(out)["report"]["classification"] == "FULLY_UNDISTILLABLE_SEPARABLE"

    bell_path = tmp_path / "bellenv.json"
    bell_path.write_text(json.dumps(bell_with_trivial_env().to_json_dict()))
    code, out, _ = run_cli(capsys, "analyze", str(bell_path))
    assert code == 0
    assert json.loads(out)["report"]["classification"] == "SOME_REDUCTION_2WAY_DISTILLABLE"

    state_path = tmp_path / "random.json"
    for seed in range(200):
        amp = haar_state((2, 2, 2), seed).amplitudes
        doc = {"dims": [2, 2, 2], "vector": pairs(amp)}
        state_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "analyze", str(state_path))
        assert code == 0
        report = json.loads(out)["report"]
        ppt_ab, ppt_ae = (npt_witness(reduced, (2, 2)) >= -1e-9
                          for reduced in loop_reductions(amp, (2, 2, 2), (0, 1), (0, 2)))
        expected = (
            "FULLY_UNDISTILLABLE_SEPARABLE"
            if (ppt_ab and ppt_ae)
            else "SOME_REDUCTION_2WAY_DISTILLABLE"
        )
        assert report["classification"] == expected, f"seed {seed}"
        assert report["reductions"]["AB"]["ppt"]["is_ppt"] == ppt_ab
        assert report["reductions"]["AE"]["ppt"]["is_ppt"] == ppt_ae
    with capsys.disabled():
        _done(6, "classifier soundness through the CLI on 200 random tripartite states", t0, 60.0)


def test_criterion_7_coherent_information_negation():
    t0 = time.perf_counter()
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    checked = 0
    for seed in range(300):
        d_a, d_b = dims[seed % 4]
        d_e = 1 + seed % 4
        rho = sample_state(d_a, d_b, d_e, seed=seed)
        assert abs(coherent_information(complement(rho)) + coherent_information(rho)) <= 1e-8
        checked += 1
    assert checked == 300
    _done(7, "coherent-information negation on 300 random bipartite states", t0, 30.0)


def test_criterion_8_conditioned_marginal_rank_bound():
    t0 = time.perf_counter()
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    violations = 0
    for seed in range(300):
        d_a, d_b = dims[seed % 4]
        d_e = 1 + (seed // 4) % 5
        rho = sample_state(d_a, d_b, d_e, seed=1000 + seed)
        rng = np.random.default_rng(2000 + seed)
        phi = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
        phi /= np.linalg.norm(phi)
        r_phi = numerical_rank(conditional_marginal(rho, phi))
        r = numerical_rank(rho.matrix)
        r_b = numerical_rank(partial_trace(rho, (1,)).matrix)
        if r_phi > min(r, r_b):
            violations += 1
    assert violations == 0
    _done(8, "conditioned-marginal rank bound on 300 random (state, vector) pairs", t0, 30.0)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    ghz_path = tmp_path / "ghz.json"
    ghz_path.write_text(json.dumps(ghz_state().to_json_dict()))
    invocations = [
        ("analyze", str(ghz_path), "--seed", "7"),
        ("filter", str(ghz_path), "--side", "B"),
        ("sample", "2", "4", "3", "50", "--seed", "7"),
        ("example", "flagged-depolarizing", "--d", "3", "--q", "0.5"),
        ("sample", "2", "3", "2", "10", "--format", "csv"),
    ]
    for args in invocations:
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first.encode("utf-8") == second.encode("utf-8"), args
    with capsys.disabled():
        _done(9, "repeated CLI invocations are byte-identical", t0, 30.0)
