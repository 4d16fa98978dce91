import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from lrdistill import (
    EnsembleSpec,
    HermitianSpectrum,
    partial_trace,
    run_experiment,
    sample_pure,
    sample_state,
)
from lrdistill.errors import BadParameterError

from conftest import loop_reductions, numerical_rank


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
    oracle = loop_reductions(psi.amplitudes, (2, 3, 2), (0, 1))[0]
    assert np.max(np.abs(rho.matrix - oracle)) <= 1e-14


def test_sampled_states_are_valid():
    # DensityMatrix construction itself enforces PSD within 1e-10 and unit trace
    for seed in range(20):
        rho = sample_state(3, 3, int(1 + seed % 5), seed=seed)
        assert abs(rho.matrix.trace() - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


def test_ensemble_spec_validation():
    # a bad rank_tol is a row of tests/test_tolerances.py::RANK_TOL_ENTRY_POINTS
    with pytest.raises(BadParameterError):
        EnsembleSpec(d_a=0, d_b=2, d_e=1, n_samples=5)
    with pytest.raises(BadParameterError):
        EnsembleSpec(d_a=2, d_b=2, d_e=1, n_samples=0)
    valid = dict(d_a=2, d_b=2, d_e=1, n_samples=5)
    for bad in (dict(d_a=2.5), dict(d_a=True), dict(n_samples=2.5)):
        with pytest.raises(BadParameterError):
            EnsembleSpec(**{**valid, **bad})
    with pytest.raises(BadParameterError):
        sample_pure(True, 2.9, 2)


def test_sample_pure_rejects_an_unallocatable_size_before_drawing():
    # d_A d_B d_E = 2e30 > the largest intp; nothing of that size is ever allocated
    with pytest.raises(BadParameterError, match="exceeds the largest array size"):
        sample_pure(2, 10**30, 1)


def test_experiment_requires_small_environment():
    with pytest.raises(BadParameterError):
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


@pytest.mark.parametrize("dims, seed", [
    ((2, 4, 3), 2),
    ((4, 8, 6), 0),
    ((1, 2, 1), 3),
], ids=["generic", "golden", "trivial-alice"])
def test_a_record_matches_its_state_by_loop_oracle(dims, seed):
    # redraw each sample and take rho_AB and rho_B = tr_A rho_AB by explicit index loops
    report = run_experiment(EnsembleSpec(*dims, n_samples=4, seed=seed))
    for k, record in enumerate(report.samples):
        psi = sample_pure(*dims, np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        rho_ab, rho_b = loop_reductions(psi.amplitudes, dims, (0, 1), (1,))
        lams = np.linalg.eigvalsh(rho_ab)[::-1]
        assert np.max(np.abs(record.spectrum.eigenvalues - lams)) <= 1e-12
        r = numerical_rank(rho_ab)
        assert record.rank_state == r == min(dims[2], dims[0] * dims[1])
        assert record.rank_marginal == numerical_rank(rho_b)
        assert abs(record.smallest_retained - lams[r - 1]) <= 1e-12
        assert abs(record.largest_discarded - lams[r]) <= 1e-12


def test_experiment_csv_columns_are_the_json_fields():
    report = run_experiment(EnsembleSpec(d_a=2, d_b=4, d_e=3, n_samples=3, seed=2))
    # the first record keeps only its 3 retained eigenvalues, so it discards none
    first = report.samples[0]
    kept = HermitianSpectrum(first.spectrum.eigenvalues[:3], None, 3)
    report = replace(report, samples=(replace(first, spectrum=kept), *report.samples[1:]))
    assert report.samples[0].largest_discarded is None
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
    rank_4 = HermitianSpectrum(np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0]), None, 4)
    changed = replace(first, spectrum=rank_4, schmidt_ranks=(2, 3))
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
