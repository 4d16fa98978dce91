from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdistill import (
    DensityMatrix,
    TripartitePureState,
    classify,
    coherent_information,
    complement_channel,
    conditional_marginal,
    filtered_hashing_rate,
    find_one_way_witness,
    flagged_depolarizing_channel,
    hermitian_eig,
    is_ppt,
    local_filter,
    low_rank_rate_bound,
    partial_trace,
    purify,
    sample_state,
    separability_verdict,
    werner_holevo_channel,
)
from lrdistill.distill import (
    CLASS_FULLY_UNDISTILLABLE,
    CLASS_SOME_2WAY,
    RATE_POSITIVE,
    RATE_UNKNOWN,
    RATE_ZERO,
    VERDICT_DISTILLABLE,
    VERDICT_PPT_UNDECIDED,
    VERDICT_SEPARABLE,
)
from lrdistill import distill
from lrdistill.errors import (
    BadParameterError,
    NonConvergenceError,
    RankNotLowError,
    SubsystemError,
)
from lrdistill.kernels import DEFAULT_RANK_TOL
from lrdistill.states import bell_state, ghz_state, maximally_mixed

from conftest import numerical_rank


def tilted_state():
    """sqrt(0.9)|00> + sqrt(0.1)|11> -- the worked scalar example."""
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(0.9)
    v[3] = np.sqrt(0.1)
    return DensityMatrix((2, 2), np.outer(v, v.conj()))


def bell_with_trivial_env():
    v = np.zeros(8, dtype=complex)
    v[0] = v[6] = 1 / np.sqrt(2)  # |000> + |110>: Bell on AB, |0> on E
    return TripartitePureState((2, 2, 2), v)


# --- local filter ------------------------------------------------------------


def test_filter_flat_marginal_is_identity():
    for rho in (bell_state(), maximally_mixed((2, 2))):
        out = local_filter(rho, "B")
        assert out.p_succ == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.filtered_state.matrix, rho.matrix, atol=1e-12)
        assert np.allclose(out.filter_operator, out.support_projector, atol=1e-12)


def test_filter_tilted_state_scalar_oracle():
    # marginal diag(0.9, 0.1): lambda_min = 0.1, Y = diag(1/3, 1), p = 0.2,
    # and the success branch is exactly the Bell state
    out = local_filter(tilted_state(), "B")
    assert out.lambda_min == pytest.approx(0.1, abs=1e-12)
    assert out.rank == 1 and out.rank_side == 2
    assert out.p_succ == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(out.filter_operator, np.diag([1 / 3, 1.0]), atol=1e-12)
    assert np.allclose(out.filtered_state.matrix, bell_state().matrix, atol=1e-12)


def test_filter_closed_form_success_probability():
    for seed in range(30):
        rho = sample_state(2, 3, 2, seed=seed)
        for side in ("A", "B"):
            out = local_filter(rho, side)
            assert abs(out.p_succ - out.lambda_min * out.rank_side) <= 1e-9
            assert 0.0 < out.p_succ <= 1.0 + 1e-9


def test_filter_flattens_marginal():
    for seed in range(30):
        rho = sample_state(2, 4, 3, seed=seed)
        out = local_filter(rho, "B")
        marginal = partial_trace(out.filtered_state, (1,)).matrix
        assert np.max(np.abs(marginal - out.support_projector / out.rank_side)) <= 1e-9


def test_filter_preserves_rank():
    for seed in range(10):
        rho = sample_state(2, 3, 2, seed=seed)
        out = local_filter(rho, "B")
        assert numerical_rank(out.filtered_state.matrix) == out.rank


@pytest.mark.parametrize("entry", [
    is_ppt,
    coherent_information,
    purify,
    partial(conditional_marginal, phi=[1.0, 0.0]),
    partial(local_filter, side="B"),
    find_one_way_witness,
    separability_verdict,
], ids=lambda entry: getattr(entry, "func", entry).__name__)
def test_bipartite_only_entry_points_reject_tripartite_states(entry):
    with pytest.raises(SubsystemError, match="needs a bipartite state"):
        entry(maximally_mixed((2, 2, 2)))


def test_filter_side_validation():
    with pytest.raises(BadParameterError):
        local_filter(bell_state(), "C")


# --- low-rank rate bound -------------------------------------------------------


def test_rate_bound_bell():
    assert low_rank_rate_bound(bell_state(), "B") == pytest.approx(1.0, abs=1e-12)


def test_rate_bound_tilted():
    # 0.1 * 2 * (log2(2) - log2(1)) = 0.2
    assert low_rank_rate_bound(tilted_state(), "B") == pytest.approx(0.2, abs=1e-12)


def test_rate_bound_full_rank_errors():
    with pytest.raises(RankNotLowError):
        low_rank_rate_bound(maximally_mixed((2, 2)), "B")


# --- filtered hashing rate -------------------------------------------------------


def test_hashing_rate_examples():
    assert filtered_hashing_rate(bell_state(), "B") == pytest.approx(1.0, abs=1e-12)
    assert filtered_hashing_rate(tilted_state(), "B") == pytest.approx(0.2, abs=1e-12)


def test_hashing_rate_dominates_bound():
    for seed in range(40):
        rho = sample_state(2, 4, 3, seed=seed)
        for side in ("A", "B"):
            try:
                bound = low_rank_rate_bound(rho, side)
            except RankNotLowError:
                continue
            assert bound <= filtered_hashing_rate(rho, side) + 1e-9


# --- one-way witness search -------------------------------------------------------


def test_witness_pure_entangled_found_immediately():
    out = find_one_way_witness(tilted_state(), budget=10, seed=0)
    assert out.found and out.trials_used == 1
    assert np.allclose(out.phi, [1.0, 0.0])


def test_witness_found_on_random_low_rank_state():
    rho = sample_state(2, 4, 3, seed=5)
    out = find_one_way_witness(rho, budget=50, seed=1)
    assert out.found
    # soundness recheck, independent of the search's own bookkeeping
    assert numerical_rank(conditional_marginal(rho, out.phi)) == numerical_rank(rho.matrix)


def test_witness_precondition():
    with pytest.raises(RankNotLowError):
        find_one_way_witness(maximally_mixed((2, 2)))
    with pytest.raises(RankNotLowError):
        find_one_way_witness(werner_holevo_channel().choi)  # ranks equal (3 = 3)
    with pytest.raises(BadParameterError):
        find_one_way_witness(tilted_state(), budget=-1)


def test_witness_never_found_for_antidegradable_complement():
    # the complement of the flagged-depolarizing channel has zero one-way
    # capacity, so no conditioning vector can reach rank(state); exhausting
    # the budget is the required outcome for every seed
    for d, budget, seeds in ((2, 200, (0, 1, 7)), (3, 60, (0, 11))):
        j_ae = complement_channel(flagged_depolarizing_channel(d, 0.5)).choi
        assert j_ae.dims == (d, d * d + 1)
        for seed in seeds:
            out = find_one_way_witness(j_ae, budget=budget, seed=seed)
            assert out.performed and not out.found
            assert out.trials_used == d + budget


def test_witness_deterministic():
    rho = sample_state(3, 4, 2, seed=9)
    a = find_one_way_witness(rho, budget=25, seed=3)
    b = find_one_way_witness(rho, budget=25, seed=3)
    assert a.found == b.found and a.trials_used == b.trials_used
    assert np.array_equal(a.phi, b.phi)


# --- witness search against a one-trial-at-a-time loop oracle ----------------------


def loop_conditioned_rank(matrix, dims, phi, rank_tol=DEFAULT_RANK_TOL):
    """rank Tr_A[(|phi><phi| (x) 1) rho], the marginal summed entry by entry."""
    d_a, d_b = dims
    t = np.asarray(matrix).reshape(d_a, d_b, d_a, d_b)
    marginal = np.zeros((d_b, d_b), dtype=complex)
    for b in range(d_b):
        for d in range(d_b):
            for a in range(d_a):
                for c in range(d_a):
                    marginal[b, d] += np.conj(phi[a]) * t[a, b, c, d] * phi[c]
    lams = np.linalg.eigvalsh(marginal)
    return 0 if lams[-1] <= 0 else int(np.sum(lams > rank_tol * lams[-1]))


def loop_haar_draws(rng, d, n):
    """The first n Haar trials, each drawn as d real parts then d imaginary parts."""
    draws = []
    for _ in range(n):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        draws.append(v / np.linalg.norm(v))
    return draws


def loop_saturation_search(matrix, dims, target, budget, rng):
    """Basis vectors of A, then ``budget`` Haar trials, ranked one at a time."""
    d_a = dims[0]
    for k in range(d_a):
        phi = np.zeros(d_a, dtype=complex)
        phi[k] = 1.0
        if loop_conditioned_rank(matrix, dims, phi) == target:
            return phi, k + 1
    for t, phi in enumerate(loop_haar_draws(rng, d_a, budget)):
        if loop_conditioned_rank(matrix, dims, phi) == target:
            return phi, d_a + t + 1
    return None, d_a + budget


def structured_factor(d_a, d_b, r, shape, seed):
    """Amplitude factor F of shape (d_A, d_B, r).

    ``haar``: generic. ``rank_one_slices``: F[a] = x_a y_a^T, so basis vectors
    of A condition B to rank <= 1 and generic vectors to min(d_A, d_B, r).
    ``shared_column``: F[a] = x y_a^T, so every vector conditions B to rank
    <= 1 while rank(rho) = min(d_A, r).
    """
    rng = np.random.default_rng(seed)

    def gauss(*size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    if shape == "haar":
        f = gauss(d_a, d_b, r)
    elif shape == "rank_one_slices":
        f = np.einsum("ab,ae->abe", gauss(d_a, d_b), gauss(d_a, r))
    else:
        f = np.einsum("b,ae->abe", gauss(d_b), gauss(d_a, r))
    return f / np.linalg.norm(f)


def assert_search_matches_loop_oracle(factor, budget, seed):
    d_a, d_b, r = factor.shape
    m = factor.reshape(d_a * d_b, r)
    rho = m @ m.conj().T
    lams = np.linalg.eigvalsh(rho)
    target = int(np.sum(lams > DEFAULT_RANK_TOL * lams[-1]))
    want_phi, want_trials = loop_saturation_search(
        rho, (d_a, d_b), target, budget, np.random.default_rng(seed))
    phi, trials = distill._saturation_search(
        factor, distill.gram_ranks(factor, DEFAULT_RANK_TOL), target, budget,
        np.random.default_rng(seed), DEFAULT_RANK_TOL)
    assert trials == want_trials
    assert (phi is None) == (want_phi is None)
    if phi is not None:
        assert np.array_equal(phi, want_phi)  # bit-identical
    return trials


SHAPES = ("haar", "rank_one_slices", "shared_column")


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 4)] * 3),
    shape=st.sampled_from(SHAPES),
    state_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(0, 150),
)
def test_batched_search_matches_loop_oracle(dims, shape, state_seed, seed, budget):
    assert_search_matches_loop_oracle(structured_factor(*dims, shape, state_seed), budget, seed)


@pytest.mark.parametrize("budget", [0, 1, 63, 64, 65, 130])
def test_exhausted_search_matches_loop_oracle(budget):
    factor = structured_factor(4, 3, 4, "shared_column", budget)
    assert assert_search_matches_loop_oracle(factor, budget, seed=budget) == 4 + budget


def test_witness_on_a_haar_trial_matches_loop_oracle():
    # every basis vector of A fails, so the witness is the first Haar trial that saturates
    for seed in range(5):
        factor = structured_factor(3, 4, 3, "rank_one_slices", seed)
        assert assert_search_matches_loop_oracle(factor, 70, seed) > 3


def test_find_one_way_witness_matches_loop_oracle():
    cases = [
        (complement_channel(flagged_depolarizing_channel(2, 0.5)).choi, 130, 4),
        (sample_state(2, 4, 3, seed=5), 50, 1),
        (tilted_state(), 10, 0),
    ]
    for rho, budget, seed in cases:
        target = numerical_rank(rho.matrix)
        want_phi, want_trials = loop_saturation_search(
            rho.matrix, rho.dims, target, budget, np.random.default_rng(seed))
        out = find_one_way_witness(rho, budget=budget, seed=seed)
        assert out.trials_used == want_trials
        assert out.found == (want_phi is not None)
        if out.found:
            assert np.array_equal(out.phi, want_phi)


@pytest.mark.parametrize("haar_trial", [distill._BATCH, distill._BATCH + 1])
def test_hit_at_a_batch_boundary(monkeypatch, haar_trial):
    # the rank function reports saturation only at Haar trial ``haar_trial``:
    # the last trial of the first batch, then the first trial of the second
    d_a, target, seed = 3, 2, 8
    factor = structured_factor(d_a, 4, 2, "shared_column", seed)
    batch_sizes = []

    def fake_ranks(k, rank_tol):
        first = sum(batch_sizes) + 1
        batch_sizes.append(len(k))
        trial = np.arange(first, first + len(k))
        return np.where(trial == d_a + haar_trial, target, 0)

    monkeypatch.setattr(distill, "gram_ranks", fake_ranks)
    phi, trials = distill._saturation_search(
        factor, distill.gram_ranks(factor, DEFAULT_RANK_TOL), target, 200,
        np.random.default_rng(seed), DEFAULT_RANK_TOL)
    assert trials == d_a + haar_trial
    want = loop_haar_draws(np.random.default_rng(seed), d_a, haar_trial)[-1]
    assert np.array_equal(phi, want)
    assert batch_sizes == [d_a] + [distill._BATCH] * (1 if haar_trial == distill._BATCH else 2)


def count_eigensolves(monkeypatch):
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return calls


def test_exhausted_search_eigensolver_count(monkeypatch):
    j_ae = complement_channel(flagged_depolarizing_channel(3, 0.5)).choi
    calls = count_eigensolves(monkeypatch)
    out = find_one_way_witness(j_ae, budget=2000, seed=0)
    assert not out.found and out.trials_used == 2003
    # purification, the B marginal, the basis batch and 32 Haar batches (one
    # solve per trial before batching: 2005)
    assert len(calls) <= 40


def test_search_solver_failure_is_non_convergence(monkeypatch):
    real = np.linalg.eigvalsh

    def failing(a, *args, **kwargs):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("forced")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NonConvergenceError):
        find_one_way_witness(tilted_state(), budget=5)


# --- classifier ------------------------------------------------------------------


def test_classify_ghz():
    report = classify(ghz_state())
    assert report.classification == CLASS_FULLY_UNDISTILLABLE
    assert report.npt_reductions == ()
    assert all(v == RATE_ZERO for v in report.rates.values())
    assert report.reduction_ab.ppt.is_ppt and report.reduction_ae.ppt.is_ppt


def test_classify_bell_with_trivial_env():
    report = classify(bell_with_trivial_env())
    assert report.classification == CLASS_SOME_2WAY
    assert report.npt_reductions == ("AB",)
    assert report.reduction_ab.low_rank_bound_second == pytest.approx(1.0, abs=1e-9)
    assert report.rates["both_two_way"] == RATE_POSITIVE
    assert report.rates["both_one_way"] == RATE_POSITIVE  # hashing rate 1 certifies it
    assert report.reduction_ab.witness.found


def test_classify_werner_holevo_purification():
    psi = purify(werner_holevo_channel().choi)
    report = classify(psi)
    assert report.classification == CLASS_SOME_2WAY
    assert report.npt_reductions == ("AB", "AE")
    # no one-way certificate exists: equal ranks block the witness search and
    # the coherent information vanishes on both reductions
    assert report.rates["both_one_way"] == RATE_UNKNOWN
    assert report.rates["both_two_way"] == RATE_POSITIVE
    assert not report.reduction_ab.witness.performed
    assert abs(report.reduction_ab.hashing_rate) <= 1e-9
    assert abs(report.reduction_ae.hashing_rate) <= 1e-9
    # both reductions share the antisymmetric-projector spectrum
    full = psi.density_matrix()
    for keep in ((0, 1), (0, 2)):
        spec = hermitian_eig(partial_trace(full, keep).matrix).eigenvalues
        assert np.allclose(spec, [1 / 3] * 3 + [0.0] * 6, atol=1e-9)


def test_classify_soundness_random_ensemble():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = TripartitePureState((2, 2, 2), v / np.linalg.norm(v))
        report = classify(psi, witness_budget=8, seed=seed)
        both_ppt = report.reduction_ab.ppt.is_ppt and report.reduction_ae.ppt.is_ppt
        expected = CLASS_FULLY_UNDISTILLABLE if both_ppt else CLASS_SOME_2WAY
        assert report.classification == expected


def test_classify_report_json_shape():
    doc = classify(bell_with_trivial_env()).to_json_dict()
    assert doc["schema"] == "distillability-report/1"
    assert doc["ranks"] == {"AB": 1, "A": 2, "B": 2, "E": 1}
    assert doc["low_rank_bound_B"] == pytest.approx(1.0)
    assert doc["hashing_rate"] == pytest.approx(1.0)
    assert doc["witness_phi"] is not None
    assert set(doc["rates"]) == {
        "both_two_way",
        "ab_two_way_ae_one_way",
        "ab_one_way_ae_two_way",
        "both_one_way",
    }
    assert set(doc["reductions"]) == {"AB", "AE"}


# --- rank-regime separability verdict ----------------------------------------------


def test_verdict_separable_mixture():
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    record = separability_verdict(rho)
    assert record.regime_applies and record.ppt.is_ppt
    assert record.verdict == VERDICT_SEPARABLE
    assert record.rank_pattern_holds


def test_verdict_bell():
    record = separability_verdict(bell_state())
    assert record.regime_applies and not record.ppt.is_ppt
    assert record.verdict == VERDICT_DISTILLABLE
    assert record.low_rank_bound_b == pytest.approx(1.0)


def test_verdict_maximally_mixed_out_of_regime():
    record = separability_verdict(maximally_mixed((2, 2)))
    assert not record.regime_applies
    assert record.verdict == VERDICT_PPT_UNDECIDED
    assert record.low_rank_bound_a is None and record.low_rank_bound_b is None


# --- one spectrum per operator ------------------------------------------------------


def haar_state(dims, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    return TripartitePureState(dims, v / np.linalg.norm(v))


def test_classify_eigensolver_count(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    classify(haar_state((2, 4, 3), 0))
    # rho_AB, rho_AE, rho_A, rho_B, rho_E, two partial transposes, witness trials
    assert 0 < len(calls) <= 10


def test_report_separability_matches_separability_verdict():
    for seed, dims in enumerate([(2, 4, 3), (3, 3, 3), (2, 2, 5), (3, 4, 2)]):
        psi = haar_state(dims, seed)
        from_report = classify(psi).separability_ab().to_json_dict()
        direct = separability_verdict(psi.reduction((0, 1))).to_json_dict()
        assert from_report.pop("ppt")["is_ppt"] == direct.pop("ppt")["is_ppt"]
        for key in ("low_rank_bound_A", "low_rank_bound_B"):
            got, want = from_report.pop(key), direct.pop(key)
            assert (got is None and want is None) or got == pytest.approx(want, abs=1e-12)
        assert from_report == direct
