"""Settings and tolerances: every entry point rejects a bad seed, budget or
tolerance (one outside (0, 1)), and decisions near each cutoff follow the
documented rule.

The rank rule: an eigenvalue is kept when it is strictly above
``rank_tol * lambda_max``. The edge cases place eigenvalues a relative 1e-3
above and below that cutoff in a random basis, so the expected ranks come
from the construction, with a margin far above the eigensolver's rounding.
The PPT, validation and positive-rate cutoffs are pinned the same way, each
by a state whose deciding quantity has a closed form.
"""

import json

import numpy as np
import pytest

from lrdistill import (
    DensityMatrix,
    EnsembleSpec,
    TripartitePureState,
    classify,
    coherent_information,
    complement,
    complement_channel,
    filtered_hashing_rate,
    find_one_way_witness,
    flagged_depolarizing_channel,
    hermitian_eig,
    is_ppt,
    local_filter,
    low_rank_rate_bound,
    purify,
    run_experiment,
    sample_pure,
    schmidt_rank,
    separability_verdict,
    von_neumann_entropy,
    werner_holevo_channel,
)
from lrdistill.cli import main
from lrdistill.distill import POSITIVE_RATE_TOL, ReductionAnalysis
from lrdistill.errors import BadParameterError
from lrdistill.kernels import gram_ranks
from lrdistill.states import density_matrix_from_dict, ghz_state

from conftest import (derived_matrices, gaussian, gaussian_unit_vector, pairs, random_density,
                      random_isometry, run_cli)

BAD_TOLERANCES = [float("nan"), float("inf"), 0.0, 1.0, -1.0]


def _low_rank():
    return random_density(2, 4, 3, 0)


def _spec(**fields):
    return EnsembleSpec(**{"d_a": 2, "d_b": 4, "d_e": 3, "n_samples": 2, **fields})


RANK_TOL_ENTRY_POINTS = {
    "classify": lambda tol: classify(ghz_state(), rank_tol=tol),
    "local_filter": lambda tol: local_filter(_low_rank(), "B", tol),
    "low_rank_rate_bound": lambda tol: low_rank_rate_bound(_low_rank(), "B", tol),
    "filtered_hashing_rate": lambda tol: filtered_hashing_rate(_low_rank(), "B", tol),
    "find_one_way_witness": lambda tol: find_one_way_witness(_low_rank(), rank_tol=tol),
    "separability_verdict": lambda tol: separability_verdict(_low_rank(), rank_tol=tol),
    "purify": lambda tol: purify(_low_rank(), tol),
    "complement": lambda tol: complement(_low_rank(), tol),
    "von_neumann_entropy": lambda tol: von_neumann_entropy(_low_rank(), tol),
    "coherent_information": lambda tol: coherent_information(_low_rank(), tol),
    "schmidt_rank": lambda tol: schmidt_rank(np.ones(4) / 2.0, (2, 2), tol),
    "hermitian_eig": lambda tol: hermitian_eig(np.eye(2), tol),
    "complement_channel": lambda tol: complement_channel(werner_holevo_channel(), tol),
    "EnsembleSpec": lambda tol: _spec(rank_tol=tol),
}

PPT_TOL_ENTRY_POINTS = {
    "is_ppt": lambda tol: is_ppt(_low_rank(), tol),
    "classify": lambda tol: classify(ghz_state(), ppt_tol=tol),
    "separability_verdict": lambda tol: separability_verdict(_low_rank(), ppt_tol=tol),
}


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
@pytest.mark.parametrize("entry", RANK_TOL_ENTRY_POINTS)
def test_rank_tol_outside_the_unit_interval_is_a_bad_parameter(entry, tol):
    with pytest.raises(BadParameterError, match="rank_tol must lie in"):
        RANK_TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
@pytest.mark.parametrize("entry", PPT_TOL_ENTRY_POINTS)
def test_ppt_tol_outside_the_unit_interval_is_a_bad_parameter(entry, tol):
    with pytest.raises(BadParameterError, match="ppt_tol must lie in"):
        PPT_TOL_ENTRY_POINTS[entry](tol)


# --- the seed and budget rules -----------------------------------------------

BAD_SEEDS = [-1, 2.5, True, "0", None]


def _ghz_params(**settings):
    return classify(ghz_state(), **settings).to_json_dict()["params"]


def _haar_witness_state():
    """F[a] = x_a y_a^T: each basis vector of A conditions B to rank 1, a Haar trial to rank 2."""
    rng = np.random.default_rng(11)
    f = np.einsum("ab,ae->abe", gaussian(rng, 3, 3), gaussian(rng, 3, 2)).reshape(9, 2)
    return DensityMatrix((3, 3), f @ f.conj().T / np.linalg.norm(f) ** 2)


#: entry point -> (call with a seed, whether a SeedSequence is a seed there); where it
#: is, the call returns what the seed determines
SEED_ENTRY_POINTS = {
    "classify": (lambda seed: classify(ghz_state(), seed=seed), False),
    "find_one_way_witness": (lambda seed: find_one_way_witness(_haar_witness_state(), seed=seed)
                             .to_json_dict(), True),
    "EnsembleSpec": (lambda seed: _spec(seed=seed), False),
    "sample_pure": (lambda seed: sample_pure(2, 4, 3, seed).amplitudes.tolist(), True),
}

#: entry point -> call with a witness budget; a bad one raises BadParameterError. GHZ runs
#: no witness search, so in the classify row only the check at the top can fire.
BUDGET_ENTRY_POINTS = {
    "classify": lambda budget: classify(ghz_state(), witness_budget=budget),
    "find_one_way_witness": lambda budget: find_one_way_witness(_low_rank(), budget=budget),
    "run_experiment": lambda budget: run_experiment(_spec(), budget),
}

#: Settings given as numpy integers, read back from where each entry point stores them.
INTEGRAL_SETTINGS = {
    "classify-seed": lambda: _ghz_params(seed=np.int64(3))["seed"],
    "EnsembleSpec-seed": lambda: _spec(seed=np.uint8(3)).seed,
    "classify-budget": lambda: _ghz_params(witness_budget=np.int64(3))["witness_budget"],
    "run_experiment-budget": lambda: run_experiment(_spec(), np.int64(3)).witness_budget,
    # the d=2 flagged-depolarizing complement: 2 basis vectors, then every Haar trial misses
    "find_one_way_witness-budget": lambda: find_one_way_witness(
        complement_channel(flagged_depolarizing_channel(2, 0.5)).choi, budget=np.uint8(3),
    ).trials_used - 2,
}


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_a_bad_seed_is_rejected(entry, seed):
    call, _ = SEED_ENTRY_POINTS[entry]
    with pytest.raises(BadParameterError, match="seed must be an integer >= 0"):
        call(seed)


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_a_seed_sequence_is_a_seed_only_where_documented(entry):
    # where it is one, SeedSequence(0) seeds numpy's default_rng as the integer 0 does
    call, takes_sequence = SEED_ENTRY_POINTS[entry]
    if takes_sequence:
        assert call(np.random.SeedSequence(0)) == call(0)
    else:
        with pytest.raises(BadParameterError, match="seed must be an integer >= 0"):
            call(np.random.SeedSequence(0))


@pytest.mark.parametrize("budget", [-1, 2.5, True, "3", None], ids=repr)
@pytest.mark.parametrize("entry", BUDGET_ENTRY_POINTS)
def test_a_bad_budget_is_rejected(entry, budget):
    with pytest.raises(BadParameterError, match=f"budget must be an integer >= 0, got {budget!r}"):
        BUDGET_ENTRY_POINTS[entry](budget)


@pytest.mark.parametrize("case", INTEGRAL_SETTINGS)
def test_an_integral_numpy_setting_is_stored_as_int(case):
    value = INTEGRAL_SETTINGS[case]()
    assert type(value) is int and value == 3


# --- the rank cutoff at its edge -------------------------------------------

EDGE_TOLS = [1e-10, 1e-6]


def _edge_spectrum(tol):
    """Descending eigenvalues with lambda_max = 1, two of them 1e-3 either side of the cutoff."""
    return np.array([1.0, 0.3, tol * (1 + 1e-3), tol * (1 - 1e-3), 0.0])


def _expected_rank(lams, tol):
    return int(np.sum(lams > tol * lams.max()))


@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_hermitian_eig_rank_at_the_cutoff_edge(tol):
    lams = _edge_spectrum(tol)
    assert _expected_rank(lams, tol) == 3
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = random_isometry(rng, lams.size, lams.size)
        spectrum = hermitian_eig((u * lams) @ u.conj().T, tol)
        assert spectrum.rank == _expected_rank(lams, tol)
        assert spectrum.min_positive() == pytest.approx(lams[2], rel=1e-4)


def test_an_eigenvalue_equal_to_the_cutoff_is_discarded(monkeypatch):
    # 0.25 * 1.0 is exact, so the comparison sees the cutoff itself
    assert hermitian_eig(np.diag([1.0, 0.25]), 0.25).rank == 1
    assert hermitian_eig(np.diag([1.0, 0.25]), 0.25 - 1e-12).rank == 2
    # the same with a solver faked to return the cutoff, whatever LAPACK would round to
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([0.25, 1.0]))
    assert hermitian_eig(np.eye(2), 0.25, vectors=False).rank == 1


@pytest.mark.parametrize("shape", [(5, 7), (7, 5)])
@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_gram_and_schmidt_ranks_at_the_cutoff_edge(tol, shape):
    # K = U diag(sqrt(lams)) V^dagger, so K K^dagger has the edge spectrum
    lams = _edge_spectrum(tol)
    rng = np.random.default_rng(6)
    p, q = shape
    u, v = random_isometry(rng, lams.size, p), random_isometry(rng, lams.size, q)
    k = (u * np.sqrt(lams)) @ v.conj().T
    assert gram_ranks(k[None], tol)[0] == _expected_rank(lams, tol)
    vector = k.ravel() / np.linalg.norm(k)
    assert schmidt_rank(vector, shape, tol) == _expected_rank(lams, tol)


def _edge_state(tol):
    """sum_i sqrt(p_i) U_A|i> U_B|i>: both marginals have the edge spectrum p."""
    p = _edge_spectrum(tol) / _edge_spectrum(tol).sum()
    rng = np.random.default_rng(7)
    u_a, u_b = (random_isometry(rng, p.size, p.size) for _ in range(2))
    psi = ((u_a * np.sqrt(p)) @ u_b.T).ravel()
    return p, DensityMatrix((p.size, p.size), np.outer(psi, psi.conj()))


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_local_filter_rank_side_and_lambda_min_at_the_cutoff_edge(tol, side):
    p, rho = _edge_state(tol)
    out = local_filter(rho, side, tol)
    assert out.rank_side == _expected_rank(p, tol)
    assert out.lambda_min == pytest.approx(p[2], rel=1e-4)
    # the filtered state is pure, so the rate is p_succ * log2(r_side)
    assert out.hashing_rate == pytest.approx(out.p_succ * np.log2(3), rel=1e-9)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_the_filtered_state_is_exactly_hermitian_at_the_cutoff_edge(tol, side):
    # a Gram matrix of the filtered purification, even at p_succ ~ 2e-10
    filtered = local_filter(_edge_state(tol)[1], side, tol).filtered_state
    m = filtered.matrix
    assert np.array_equal(m, m.conj().T)
    assert np.isfinite(von_neumann_entropy(filtered, tol))


@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_every_derived_matrix_of_the_edge_state_is_exactly_hermitian(tol):
    for name, m in derived_matrices(_edge_state(tol)[1], tol).items():
        assert np.array_equal(m, m.conj().T), name


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_the_filter_report_reloads_to_the_bit_equal_filtered_state(tmp_path, capsys, tol, side):
    # The filtered state is a Gram matrix of the filtered purification, so it
    # passes the positivity floor even at p_succ ~ 2e-10 (rank_tol 1e-10).
    rho = _edge_state(tol)[1]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(rho.to_json_dict()))
    assert main(["filter", str(path), "--side", side, "--rank-tol", repr(tol)]) == 0
    doc = json.loads(capsys.readouterr().out)
    loaded = density_matrix_from_dict(doc["filter"]["filtered_state"])
    want = local_filter(rho, side, tol).filtered_state
    assert loaded.dims == want.dims
    assert loaded.matrix.tobytes() == want.matrix.tobytes()
    assert np.linalg.eigvalsh(loaded.matrix)[0] >= -1e-15


# --- the PPT cutoff at its edge --------------------------------------------

PPT_EDGE_TOLS = [1e-9, 1e-6]

#: t / ppt_tol for a partial-transpose eigenvalue -t: a relative 1e-3 either side
#: of the PPT cutoff (t = ppt_tol) and of the marginal flag's (t = 10 ppt_tol).
PPT_EDGE_DEPTHS = [1 - 1e-3, 1 + 1e-3, 10 * (1 - 1e-3), 10 * (1 + 1e-3)]


def _isotropic_state(t):
    """p |Phi><Phi| + (1 - p) 1/4 with p = (1 + 4t)/3, under random local unitaries.

    Its partial transpose has eigenvalues (1 + p)/4, three times, and
    (1 - 3p)/4 = -t; local unitaries leave that spectrum as it is.
    """
    p = (1 + 4 * t) / 3
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = p * np.outer(phi, phi) + (1 - p) * np.eye(4) / 4
    rng = np.random.default_rng(8)
    u = np.kron(random_isometry(rng, 2, 2), random_isometry(rng, 2, 2))
    return DensityMatrix((2, 2), u @ rho @ u.conj().T)


@pytest.mark.parametrize("depth", PPT_EDGE_DEPTHS)
@pytest.mark.parametrize("tol", PPT_EDGE_TOLS)
def test_ppt_verdict_at_the_cutoff_edge(tmp_path, capsys, tol, depth):
    t = depth * tol
    rho = _isotropic_state(t)
    want = (t < tol, t < 10 * tol)  # (is_ppt, marginal)
    verdict = is_ppt(rho, tol)
    assert (verdict.is_ppt, verdict.marginal) == want
    assert verdict.witness == pytest.approx(-t, rel=1e-6)
    for got in (separability_verdict(rho, ppt_tol=tol).ppt,
                classify(purify(rho), ppt_tol=tol).reduction_ab.separability.ppt):
        assert (got.is_ppt, got.marginal) == want
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(rho.to_json_dict()))
    code, out, err = run_cli(capsys, "analyze", str(path), "--ppt-tol", repr(tol))
    assert code == 0, err
    got = json.loads(out)["report"]["reductions"]["AB"]["ppt"]
    assert (got["is_ppt"], got["marginal"]) == want


@pytest.mark.parametrize("tol", PPT_EDGE_TOLS)
def test_a_witness_equal_to_the_ppt_cutoff_is_ppt(monkeypatch, tol):
    rho = _isotropic_state(tol)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([-tol, 0.3, 0.3, 0.4]))
    assert is_ppt(rho, tol) == (True, -tol, True)


# --- the validation cutoffs at their edge ----------------------------------


def _trace_doc(trace):
    return {"dims": [2, 2], "matrix": pairs(np.diag([0.4, 0.3, 0.2, 0.1]) * trace + 0j)}


def _floor_doc(lam_min):
    """A unit-trace matrix with smallest eigenvalue ``lam_min``, in a random basis."""
    u = random_isometry(np.random.default_rng(9), 4, 4)
    lams = np.array([0.5, 0.3, 0.2 - lam_min, lam_min])
    return {"dims": [2, 2], "matrix": pairs((u * lams) @ u.conj().T)}


def _norm_doc(norm):
    v = gaussian_unit_vector(np.random.default_rng(10), 8) * norm
    return {"dims": [2, 2, 2], "vector": pairs(v)}


#: name -> (the document at offset eta past its valid value, the documented cutoff of
#: eta, and the relative step either side of it)
VALIDATION_EDGES = {
    "trace-above-1": (lambda eta: _trace_doc(1 + eta), 1e-10, 1e-3),
    "trace-below-1": (lambda eta: _trace_doc(1 - eta), 1e-10, 1e-3),
    "eigenvalue-below-0": (lambda eta: _floor_doc(-eta), 1e-10, 1e-3),
    "norm-above-1": (lambda eta: _norm_doc(1 + eta), 1e-12, 1e-2),
    "norm-below-1": (lambda eta: _norm_doc(1 - eta), 1e-12, 1e-2),
}


@pytest.mark.parametrize("step, exit_code", [(-1, 0), (1, 2)], ids=["inside", "outside"])
@pytest.mark.parametrize("case", sorted(VALIDATION_EDGES))
def test_validation_at_the_cutoff_edge(tmp_path, capsys, case, step, exit_code):
    # every margin is >= 1e-14 absolute, against ~1e-16 of rounding
    doc, cutoff, rel = VALIDATION_EDGES[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc(cutoff * (1 + step * rel))))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == exit_code, err


# --- the positive-rate cutoff at its edge ----------------------------------


def _binary_entropy(x):
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


@pytest.mark.parametrize("depth, status", [(1 - 1e-3, "unknown"), (1 + 1e-3, "positive")])
def test_both_one_way_rate_at_the_positive_rate_cutoff(depth, status):
    # psi = a|000> + b|110> + c|101> has rho_B = diag(a^2 + c^2, b^2) and
    # rho_E = diag(a^2 + b^2, c^2): ranks 2 and 2, so no witness search runs,
    # and the AB hashing rate S(B) - S(E) = h(b^2) - h(c^2) is the best one.
    rate, c2 = depth * 1e-9, 0.2
    lo, hi = c2, 0.5  # h increases on [0, 1/2]: bisect h(b^2) - h(c^2) = rate
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _binary_entropy(mid) - _binary_entropy(c2) < rate else (lo, mid)
    b2 = lo
    amps = np.zeros(8)
    amps[[0, 6, 5]] = np.sqrt([1 - b2 - c2, b2, c2])
    report = classify(TripartitePureState((2, 2, 2), amps))
    assert report.npt_reductions == ("AB", "AE")
    assert not (report.reduction_ab.witness.performed or report.reduction_ae.witness.performed)
    want = _binary_entropy(b2) - _binary_entropy(c2)
    assert abs(want - rate) <= 1e-14
    assert abs(report.reduction_ab.hashing_rate - want) <= 1e-14
    assert report.rates["both_one_way"] == status


def test_a_hashing_rate_equal_to_the_positive_rate_cutoff_is_not_positive(monkeypatch):
    # the Werner-Holevo purification: both reductions NPT, no witness found, and an
    # AE hashing rate of 0 to rounding; only an AB rate strictly above the cutoff counts
    report = classify(purify(werner_holevo_channel().choi))
    ab = report.reduction_ab
    assert not (ab.witness.found or report.reduction_ae.witness.found)
    assert report.reduction_ae.hashing_rate < POSITIVE_RATE_TOL
    derived = ReductionAnalysis.hashing_rate.fget
    above = np.nextafter(POSITIVE_RATE_TOL, 1.0)
    for rate, status in ((POSITIVE_RATE_TOL, "unknown"), (above, "positive")):
        # the AB rate is derived from its spectra, so it is injected for that one object
        monkeypatch.setattr(ReductionAnalysis, "hashing_rate",
                            property(lambda red, rate=rate: rate if red is ab else derived(red)))
        assert ab.hashing_rate == rate and report.reduction_ae.hashing_rate < POSITIVE_RATE_TOL
        assert report.rates["both_one_way"] == status
