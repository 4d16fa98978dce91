import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from lrdistill import (
    EnsembleSpec,
    partial_trace,
    run_experiment,
    sample_pure,
    sample_state,
)
from lrdistill.errors import EnsembleSpecError

from conftest import loop_partial_trace, numerical_rank


def test_sample_pure_trivial_dims():
    psi = sample_pure(1, 1, 1, seed=0)
    assert psi.dims == (1, 1, 1)
    assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-15  # the scalar state, up to phase


def test_sample_pure_normalized():
    for seed in range(10):
        psi = sample_pure(2, 3, 2, seed=seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


def test_sample_pure_deterministic():
    a = sample_pure(2, 4, 3, seed=123)
    b = sample_pure(2, 4, 3, seed=123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = sample_pure(2, 4, 3, seed=124)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_sample_pure_mean_marginal_concentrates():
    # unitary invariance forces the average A-marginal to 1/2
    total = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for seed in range(n):
        amp = sample_pure(2, 2, 2, seed=seed).amplitudes.reshape(2, 4)
        total += amp @ amp.conj().T
    assert np.max(np.abs(total / n - np.eye(2) / 2)) <= 0.02


def test_sample_state_ranks():
    rho = sample_state(2, 2, 1, seed=0)
    assert numerical_rank(rho.matrix) == 1
    rho = sample_state(2, 4, 3, seed=1)
    assert numerical_rank(rho.matrix) == 3
    assert numerical_rank(partial_trace(rho, (1,)).matrix) == 4
    rho = sample_state(2, 2, 8, seed=2)
    assert numerical_rank(rho.matrix) == 4


def test_sample_state_matches_loop_oracle():
    psi = sample_pure(2, 3, 2, seed=7)
    rho = sample_state(2, 3, 2, seed=7)
    oracle = loop_partial_trace(
        np.outer(psi.amplitudes, psi.amplitudes.conj()), (2, 3, 2), (0, 1)
    )
    assert np.max(np.abs(rho.matrix - oracle)) <= 1e-14


def test_sampled_states_are_valid():
    # DensityMatrix construction itself enforces PSD within 1e-10 and unit trace
    for seed in range(20):
        rho = sample_state(3, 3, int(1 + seed % 5), seed=seed)
        assert abs(rho.matrix.trace() - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


def test_ensemble_spec_validation():
    with pytest.raises(EnsembleSpecError):
        EnsembleSpec(d_a=0, d_b=2, d_e=1, n_samples=5)
    with pytest.raises(EnsembleSpecError):
        EnsembleSpec(d_a=2, d_b=2, d_e=1, n_samples=0)
    with pytest.raises(EnsembleSpecError):
        EnsembleSpec(d_a=2, d_b=2, d_e=1, n_samples=5, rank_tol=0.0)
    valid = dict(d_a=2, d_b=2, d_e=1, n_samples=5)
    for bad in (dict(d_a=2.5), dict(d_a=True), dict(n_samples=2.5),
                dict(rank_tol=float("nan")), dict(rank_tol=float("inf")), dict(rank_tol=1.0)):
        with pytest.raises(EnsembleSpecError):
            EnsembleSpec(**{**valid, **bad})
    with pytest.raises(EnsembleSpecError):
        sample_pure(True, 2.9, 2)


def test_sample_pure_rejects_an_unallocatable_size_before_drawing():
    # d_A d_B d_E = 2e30 > the largest intp; nothing of that size is ever allocated
    with pytest.raises(EnsembleSpecError, match="exceeds the largest array size"):
        sample_pure(2, 10**30, 1)


def test_experiment_requires_small_environment():
    with pytest.raises(EnsembleSpecError):
        run_experiment(EnsembleSpec(d_a=2, d_b=4, d_e=4, n_samples=10))


def test_experiment_generic_low_rank():
    report = run_experiment(EnsembleSpec(d_a=2, d_b=4, d_e=3, n_samples=30, seed=0))
    assert report.frequencies == {
        "rank_state": 1.0,
        "rank_marginal": 1.0,
        "schmidt_full": 1.0,
        "witness_found": 1.0,
    }
    assert len(report.samples) == 30
    for record in report.samples:
        assert record.low_rank
        assert record.witness_trials == 1  # first basis vector always works
        assert record.largest_discarded is not None
        assert record.largest_discarded < 1e-12 < record.smallest_retained


def test_experiment_trivial_alice():
    # degenerate d_A = 1: every sample is a product state with equal ranks,
    # so the saturation search trivially succeeds but certifies nothing
    report = run_experiment(EnsembleSpec(d_a=1, d_b=2, d_e=1, n_samples=10, seed=3))
    assert report.frequencies["rank_state"] == 1.0
    assert report.frequencies["rank_marginal"] == 1.0
    assert report.frequencies["witness_found"] == 1.0
    assert all(not record.low_rank for record in report.samples)
    assert all(record.rank_state == 1 == record.rank_marginal for record in report.samples)


def test_experiment_deterministic():
    spec = EnsembleSpec(d_a=2, d_b=3, d_e=2, n_samples=12, seed=42)
    a = run_experiment(spec, witness_budget=20)
    b = run_experiment(spec, witness_budget=20)
    assert a.to_json_dict() == b.to_json_dict()


def test_experiment_seed_independent_aggregates():
    for seed in range(5):
        report = run_experiment(
            EnsembleSpec(d_a=2, d_b=4, d_e=3, n_samples=20, seed=seed)
        )
        assert all(freq == 1.0 for freq in report.frequencies.values())


def test_experiment_solver_calls(solver_calls):
    report = run_experiment(EnsembleSpec(d_a=4, d_b=8, d_e=6, n_samples=10, seed=0))
    assert all(freq == 1.0 for freq in report.frequencies.values())
    # per sample: the validation of |psi><psi|, the spectra of rho_AB and
    # rho_B, and the Schmidt-rank batch, which is also the witness search's
    # basis batch
    assert solver_calls == {"eigvalsh": 4 * 10}


def test_experiment_csv_columns_are_the_json_fields():
    report = run_experiment(EnsembleSpec(d_a=2, d_b=4, d_e=3, n_samples=3, seed=2))
    samples = (replace(report.samples[0], largest_discarded=None), *report.samples[1:])
    report = replace(report, samples=samples)
    header, *rows = csv.reader(io.StringIO(report.to_csv()))
    assert len(rows) == 3
    for record, row in zip(report.samples, rows):
        doc = record.to_json_dict()
        assert header == list(doc)
        for key, cell in zip(header, row):
            value = doc[key]
            if key == "schmidt_ranks":
                assert cell == ";".join(str(k) for k in value)
            elif value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value  # repr round-trips exactly
            else:
                assert cell == str(value)


def test_a_record_derives_its_verdicts_from_its_ranks():
    report = run_experiment(EnsembleSpec(d_a=2, d_b=4, d_e=3, n_samples=3, seed=2))
    first = report.samples[0]
    assert (first.rank_state, first.rank_marginal, first.schmidt_ranks) == (3, 4, (3, 3))
    assert first.rank_state_ok and first.schmidt_ok and first.low_rank
    # rank(state) = rank(marginal) = 4 against the generic 3, and one column of Schmidt rank 2
    changed = replace(first, rank_state=4, schmidt_ranks=(2, 3))
    assert not changed.rank_state_ok and changed.rank_marginal_ok
    assert not changed.low_rank and not changed.schmidt_ok
    doc = changed.to_json_dict()
    assert doc["rank_state"] == 4 and doc["expected_rank_state"] == 3
    assert doc["schmidt_ranks"] == (2, 3)
    assert (doc["rank_state_ok"], doc["schmidt_ok"], doc["low_rank"]) == (False, False, False)
    report = replace(report, samples=(changed, *report.samples[1:]))
    header, row, *_ = csv.reader(io.StringIO(report.to_csv()))
    cells = dict(zip(header, row))
    assert (cells["rank_state"], cells["schmidt_ranks"]) == ("4", "2;3")
    assert (cells["rank_state_ok"], cells["schmidt_ok"], cells["low_rank"]) == ("False",) * 3
    assert report.frequencies == {"rank_state": 2 / 3, "rank_marginal": 1.0,
                                  "schmidt_full": 2 / 3, "witness_found": 1.0}
