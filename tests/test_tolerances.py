"""Tolerances: every entry point rejects one outside (0, 1), and rank decisions
near the cutoff follow the documented rule.

The rule: an eigenvalue is kept when it is strictly above
``rank_tol * lambda_max``. The edge cases place eigenvalues a relative 1e-3
above and below that cutoff in a random basis, so the expected ranks come
from the construction, with a margin far above the eigensolver's rounding.
"""

import json

import numpy as np
import pytest

from lrdistill import (
    DensityMatrix,
    classify,
    coherent_information,
    complement,
    complement_channel,
    filtered_hashing_rate,
    find_one_way_witness,
    hermitian_eig,
    is_ppt,
    local_filter,
    low_rank_rate_bound,
    purify,
    schmidt_rank,
    separability_verdict,
    von_neumann_entropy,
    werner_holevo_channel,
)
from lrdistill.cli import main
from lrdistill.errors import BadParameterError
from lrdistill.kernels import gram_ranks
from lrdistill.states import density_matrix_from_dict, ghz_state

from conftest import derived_matrices, random_density, random_isometry

BAD_TOLERANCES = [float("nan"), float("inf"), 0.0, 1.0, -1.0]


def _low_rank():
    return random_density(2, 4, 3, 0)


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


def test_an_eigenvalue_equal_to_the_cutoff_is_discarded():
    # 0.25 * 1.0 is exact, so the comparison sees the cutoff itself
    assert hermitian_eig(np.diag([1.0, 0.25]), 0.25).rank == 1
    assert hermitian_eig(np.diag([1.0, 0.25]), 0.25 - 1e-12).rank == 2


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
