"""The paper's claims on states whose answers are known from how they were built.

A separable state is built in plain numpy as sum_i p_i |a_i b_i><a_i b_i| with
r <= min(d_A, d_B) Gaussian product terms. Such a state generically has
rank(rho) = rank(rho_A) = rank(rho_B) = r, the regime of Horodecki,
Lewenstein, Vidal & Cirac, PRA 62, 032310 (2000), in which a PPT state is
separable; the expected verdicts come from the construction, not from the
code under test.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrdistill import (
    DensityMatrix,
    TripartitePureState,
    classify,
    filtered_hashing_rate,
    is_ppt,
    local_filter,
    low_rank_rate_bound,
    purify,
    separability_verdict,
)

from lrdistill.distill import VERDICT_DISTILLABLE, VERDICT_PPT_UNDECIDED
from lrdistill.states import bell_state, maximally_mixed

from conftest import (
    complement_matrix,
    gaussian_unit_vector,
    haar_state,
    loop_partial_trace,
    loop_reductions,
    npt_witness,
    numerical_rank,
    purification_factor,
    random_choi,
    random_density,
    random_isometry,
    random_separable,
    tiles_upb_state,
)


@st.composite
def separable_states(draw):
    d_a, d_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = draw(st.integers(1, min(d_a, d_b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_separable(rng, d_a, d_b, r)


@given(rho=separable_states())
def test_separable_by_construction_gets_the_separable_verdict(rho):
    record = separability_verdict(rho)
    assert record.ppt.is_ppt
    assert record.regime_applies
    assert record.verdict == "separable"


@given(rho=separable_states())
def test_both_reductions_ppt_means_fully_undistillable_and_separable(rho):
    psi = purify(rho)
    report = classify(psi)
    assert report.reduction_ab.separability.ppt.is_ppt  # rho_AB = rho is separable
    if report.reduction_ae.separability.ppt.is_ppt:
        assert report.classification == "FULLY_UNDISTILLABLE_SEPARABLE"
        assert set(report.rates.values()) == {"zero"}
        assert separability_verdict(psi.reduction((0, 2))).verdict == "separable"
    else:
        assert report.classification == "SOME_REDUCTION_2WAY_DISTILLABLE"


@st.composite
def tripartite_states(draw):
    """Purifications of the separable states, or Haar states on a block of the
    computational basis: their witness searches run, and their marginals are
    rank-deficient in a basis that the local unitaries then rotate away."""
    if draw(st.booleans()):
        return purify(draw(separable_states()))
    dims = draw(st.tuples(*[st.integers(1, 4)] * 3))
    block = tuple(draw(st.integers(1, d)) for d in dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(dims, dtype=complex)
    sub = gaussian_unit_vector(rng, int(np.prod(block)))
    amps[tuple(slice(k) for k in block)] = sub.reshape(block)
    return TripartitePureState(dims, amps.reshape(-1))


def _decisions(report):
    """Everything in a ``classify`` report that local unitaries must leave alone."""
    doc = report.to_json_dict()
    return (
        doc["classification"],
        doc["rates"],
        doc["ranks"],
        [(rec.rank, rec.rank_a, rec.rank_b, rec.ppt.is_ppt)
         for rec in (report.reduction_ab.separability, report.reduction_ae.separability)],
    )


@given(psi=tripartite_states(), seed=st.integers(0, 2**32 - 1))
def test_classify_decisions_are_invariant_under_local_unitaries(psi, seed):
    rng = np.random.default_rng(seed)
    u_a, u_b, u_e = (random_isometry(rng, d, d) for d in psi.dims)
    amps = np.einsum(
        "ia,jb,ke,abe->ijk", u_a, u_b, u_e, psi.amplitudes.reshape(psi.dims)
    )
    rotated = TripartitePureState(psi.dims, amps.reshape(-1))
    assert _decisions(classify(rotated)) == _decisions(classify(psi))


def _swap(rho):
    """rho with its two tensor factors exchanged, in plain numpy."""
    d_a, d_b = rho.dims
    mat = rho.matrix.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2)
    return DensityMatrix((d_b, d_a), mat.reshape(d_a * d_b, d_a * d_b))


_SWAP_STATES = [
    *(pytest.param(random_separable(np.random.default_rng(seed), *dims), id=f"separable{dims}")
      for seed, dims in enumerate([(2, 3, 2), (3, 4, 3), (4, 2, 1), (3, 3, 2)])),
    *(pytest.param(random_density(*dims, seed), id=f"induced{dims}")
      for seed, dims in enumerate([(2, 4, 3), (4, 2, 3), (3, 3, 2), (2, 3, 6)])),
]


@pytest.mark.parametrize("rho", _SWAP_STATES)
def test_swapping_a_and_b_maps_side_a_results_onto_side_b(rho):
    swapped = _swap(rho)
    for side, other in (("A", "B"), ("B", "A")):
        got, want = local_filter(swapped, other), local_filter(rho, side)
        assert (got.rank, got.rank_side) == (want.rank, want.rank_side)
        for field in ("p_succ", "lambda_min", "hashing_rate"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
        assert abs(want.p_succ - want.lambda_min * want.rank_side) <= 1e-12
    got, want = separability_verdict(swapped), separability_verdict(rho)
    assert (got.rank, got.rank_a, got.rank_b) == (want.rank, want.rank_b, want.rank_a)
    assert (got.rank_e, got.ppt.is_ppt) == (want.rank_e, want.ppt.is_ppt)
    assert got.verdict == want.verdict
    for a, b in ((got.low_rank_bound_a, want.low_rank_bound_b),
                 (got.low_rank_bound_b, want.low_rank_bound_a)):
        assert (a is None and b is None) or abs(a - b) <= 1e-12


# --- Schmidt duality: a reduction of a pure state and its complementary marginal ---


@st.composite
def haar_states(draw):
    return haar_state(draw(st.tuples(*[st.integers(1, 4)] * 3)), draw(st.integers(0, 2**32 - 1)))


def _entropy(m, rank_tol=1e-10):
    """-sum lam log2 lam over the eigenvalues above rank_tol * lambda_max, in plain numpy."""
    lams = np.linalg.eigvalsh(m)
    kept = lams[lams > rank_tol * lams[-1]]
    return float(-np.sum(kept * np.log2(kept)))


@given(psi=st.one_of(tripartite_states(), haar_states()))
def test_classify_ranks_and_rates_match_the_two_party_reductions(psi):
    rho_ab, rho_ae, rho_b, rho_e = loop_reductions(psi.amplitudes, psi.dims,
                                                   (0, 1), (0, 2), (1,), (2,))
    report = classify(psi)
    ab, ae = report.reduction_ab, report.reduction_ae
    ranks = (ab.separability.rank, ae.separability.rank)
    assert ranks == (numerical_rank(rho_ab), numerical_rank(rho_ae))
    assert abs(ab.hashing_rate - (_entropy(rho_b) - _entropy(rho_ab))) <= 1e-12
    assert abs(ae.hashing_rate - (_entropy(rho_e) - _entropy(rho_ae))) <= 1e-12
    # I(A>E) = S(E) - S(AE) = S(AB) - S(B) = -I(A>B)
    assert ae.hashing_rate == -ab.hashing_rate


_MIXED_STATES = [
    pytest.param(random_separable(np.random.default_rng(3), 2, 3, 2), id="separable(2,3,2)"),
    pytest.param(random_separable(np.random.default_rng(4), 3, 3, 3), id="separable(3,3,3)"),
    pytest.param(random_density(2, 3, 2, 5), id="induced(2,3,2)"),
    pytest.param(random_density(3, 2, 4, 6), id="induced(3,2,4)"),
    pytest.param(random_choi(2, 3, 2, 7), id="choi(2,3,2)"),
    pytest.param(random_choi(2, 2, 3, 8), id="choi(2,2,3)"),
    pytest.param(bell_state(), id="bell"),
    pytest.param(maximally_mixed((2, 3)), id="maximally-mixed(2,3)"),
]


@pytest.mark.parametrize("rho", _MIXED_STATES)
def test_separability_ranks_of_e_and_ae_match_a_purification(rho):
    record = separability_verdict(rho)
    amps = purification_factor(rho.matrix, *rho.dims)
    r_e, r_ae = map(numerical_rank, loop_reductions(amps.ravel(), amps.shape, (2,), (0, 2)))
    assert record.rank == numerical_rank(rho.matrix)
    assert (record.rank_e, record.rank_ae) == (r_e, r_ae)
    assert record.rank_pattern_holds == (r_e <= r_ae)


# --- NPT by construction: a Bell pair mixed into a low-rank state ---


@st.composite
def bell_mixtures(draw):
    """p |Phi><Phi| + (1 - p) sigma in plain numpy: a Bell pair on |00>, |11> mixed
    into a random state sigma = M M^dagger / Tr of rank k."""
    d_a, d_b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    k = draw(st.integers(1, d_a * d_b - 1))
    p = draw(st.floats(0.2, 0.8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((d_a * d_b, k)) + 1j * rng.standard_normal((d_a * d_b, k))
    sigma = m @ m.conj().T
    phi = np.zeros(d_a * d_b)
    phi[0] = phi[d_b + 1] = 1 / np.sqrt(2)
    return DensityMatrix((d_a, d_b), p * np.outer(phi, phi) + (1 - p) * sigma / np.trace(sigma))


def _ranks(rho):
    """rank(rho), rank(rho_A) and rank(rho_B) by the loop oracles."""
    return (numerical_rank(rho.matrix),
            *(numerical_rank(loop_partial_trace(rho.matrix, rho.dims, (k,))) for k in (0, 1)))


@given(rho=bell_mixtures())
def test_a_state_or_its_complement_gets_a_positive_two_way_rate(rho):
    rates = []
    comp = complement_matrix(rho.matrix, *rho.dims)
    for state in (rho, DensityMatrix((rho.dims[0], len(comp) // rho.dims[0]), comp)):
        r, *side_ranks = _ranks(state)
        for side, r_side in zip("AB", side_ranks):
            if r < r_side:
                bound = low_rank_rate_bound(state, side)
                assert 0 < bound <= filtered_hashing_rate(state, side) + 1e-12
                rates.append(bound)
    r, _, r_b = _ranks(rho)
    if r != r_b:
        # rank(AE) = rank(B) and rank(E) = rank(AB): one of the two is low rank
        assert rates
    elif npt_witness(rho.matrix, rho.dims) < -1e-9:
        # rank(AB) = rank(B): the regime where NPT means 2-way distillable
        assert separability_verdict(rho).verdict == "entangled, 2-way distillable"


@given(rho=bell_mixtures())
def test_rank_below_a_marginal_rank_means_npt_and_distillable(rho):
    # Horodecki, Lewenstein, Vidal & Cirac: rank(rho) < max(r_A, r_B) implies
    # distillable, so NPT; ranks and PPT come from different solves
    comp = complement_matrix(rho.matrix, *rho.dims)
    for state in (rho, DensityMatrix((rho.dims[0], len(comp) // rho.dims[0]), comp)):
        r, r_a, r_b = _ranks(state)
        if r < max(r_a, r_b):
            assert not is_ppt(state).is_ppt
            assert separability_verdict(state).verdict == "entangled, 2-way distillable"


# --- the main theorem where it has force: a PPT entangled reduction ---


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_purified_tiles_state_has_a_two_way_distillable_complement(seed):
    # The Tiles state, under a random local unitary, is PPT and entangled, of rank
    # 4 > max(r_A, r_B) = 3: outside the regime, so AB stays undecided. By the paper's
    # theorem the two reductions are not both PPT, so AE is NPT. Its E marginal has
    # rho's spectrum, 1/4 on four levels: low_rank_bound_E = (1/4) * 4 * log2(4 / 3),
    # as AE has rank r_B = 3.
    rng = np.random.default_rng(seed)
    u = np.kron(random_isometry(rng, 3, 3), random_isometry(rng, 3, 3))
    rho = DensityMatrix((3, 3), u @ tiles_upb_state() @ u.conj().T)
    report = classify(purify(rho))
    ab, ae = report.reduction_ab.separability, report.reduction_ae.separability
    assert ab.ppt.is_ppt and ab.ppt.marginal
    assert not ab.regime_applies and ab.verdict == VERDICT_PPT_UNDECIDED
    comp = complement_matrix(rho.matrix, 3, 3)
    assert not ae.ppt.is_ppt and ae.verdict == VERDICT_DISTILLABLE
    assert abs(ae.ppt.witness - npt_witness(comp, (3, len(comp) // 3))) <= 1e-12
    assert abs(ae.low_rank_bound_b - np.log2(4 / 3)) <= 1e-12
    assert set(report.rates.values()) == {"positive"}
    # the rank criterion: no reduction is PPT with rank(rho) < max(r_A, r_B)
    for record in (ab, ae):
        assert not (record.ppt.is_ppt and record.rank < max(record.rank_a, record.rank_b))
