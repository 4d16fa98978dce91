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
    is_ppt,
    local_filter,
    low_rank_rate_bound,
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

from conftest import (DECLINING_FACTORS, bell_with_trivial_env, fail_solver,
                      flagged_complement_factor, gaussian, haar_state, loop_conditioned_rank,
                      loop_reductions, numerical_rank, perturbed, tilted_state)


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


@pytest.mark.parametrize("rho", [
    pytest.param(maximally_mixed((2, 2)), id="maximally-mixed"),
    # ranks 3 = 3 = 3: the r = r_side edge, where the bound is zero but does not apply
    pytest.param(werner_holevo_channel().choi, id="wh-choi"),
])
def test_rate_bound_full_rank_errors(rho):
    for side in ("A", "B"):
        with pytest.raises(RankNotLowError):
            low_rank_rate_bound(rho, side)
        out = local_filter(rho, side)
        assert out.low_rank_bound is None
        assert out.low_rank_bound_note.endswith(f"rank(marginal {side}); bound does not apply")
    record = separability_verdict(rho)
    assert record.low_rank_bound_a is None and record.low_rank_bound_b is None


# --- filtered hashing rate -------------------------------------------------------


def test_hashing_rate_examples():
    assert filtered_hashing_rate(bell_state(), "B") == pytest.approx(1.0, abs=1e-12)
    assert filtered_hashing_rate(tilted_state(), "B") == pytest.approx(0.2, abs=1e-12)


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
    assert loop_conditioned_rank(rho.matrix, rho.dims, out.phi) == numerical_rank(rho.matrix)


def test_witness_precondition():
    with pytest.raises(RankNotLowError):
        find_one_way_witness(maximally_mixed((2, 2)))
    with pytest.raises(RankNotLowError):
        find_one_way_witness(werner_holevo_channel().choi)  # ranks equal (3 = 3)


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


def loop_haar_draws(rng, d, n):
    """The first n Haar trials, each drawn as d real parts then d imaginary parts."""
    draws = []
    for _ in range(n):
        v = gaussian(rng, d)
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
    if shape == "haar":
        f = gaussian(rng, d_a, d_b, r)
    elif shape == "rank_one_slices":
        f = np.einsum("ab,ae->abe", gaussian(rng, d_a, d_b), gaussian(rng, d_a, r))
    else:
        f = np.einsum("b,ae->abe", gaussian(rng, d_b), gaussian(rng, d_a, r))
    return f / np.linalg.norm(f)


def assert_search_matches_loop_oracle(factor, budget, seed):
    d_a, d_b, r = factor.shape
    m = factor.reshape(d_a * d_b, r)
    rho = m @ m.conj().T
    lams = np.linalg.eigvalsh(rho)
    target = int(np.sum(lams > DEFAULT_RANK_TOL * lams[-1]))
    want_phi, want_trials = loop_saturation_search(
        rho, (d_a, d_b), target, budget, np.random.default_rng(seed))
    built = []
    phi, trials = distill._saturation_search(
        factor, distill.gram_ranks(factor, DEFAULT_RANK_TOL), target, budget,
        lambda: built.append(1) or np.random.default_rng(seed), DEFAULT_RANK_TOL)
    assert trials == want_trials
    assert (phi is None) == (want_phi is None)
    if phi is not None:
        assert np.array_equal(phi, want_phi)  # bit-identical
    # The generator is built once, at the first Haar batch: never after a basis hit or at
    # budget 0. An exhaustion may be certified by ratio_bound before any draw.
    drew = want_trials > d_a
    if drew and want_phi is None:
        assert len(built) <= 1
    else:
        assert len(built) == drew
    return trials


SHAPES = ("haar", "rank_one_slices", "shared_column")


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
    assert_witness_matches_loop_oracle(
        complement_channel(flagged_depolarizing_channel(2, 0.5)).choi, 130, 4)
    assert_witness_matches_loop_oracle(sample_state(2, 4, 3, seed=5), 50, 1)
    assert_witness_matches_loop_oracle(tilted_state(), 10, 0)


def rank_one_slices_state(d_a, d_b, r, seed, last_column=1.0):
    """rho = F F^dagger with F[a] = x_a y_a^T, its last column (index r - 1) scaled."""
    factor = structured_factor(d_a, d_b, r, "rank_one_slices", seed)
    factor[:, :, -1] *= last_column
    m = factor.reshape(d_a * d_b, r) / np.linalg.norm(factor)
    return DensityMatrix((d_a, d_b), m @ m.conj().T)


def assert_witness_matches_loop_oracle(rho, budget, seed):
    target = numerical_rank(rho.matrix)
    want_phi, want_trials = loop_saturation_search(
        rho.matrix, rho.dims, target, budget, np.random.default_rng(seed))
    out = find_one_way_witness(rho, budget=budget, seed=seed)
    assert out.trials_used == want_trials
    assert out.found == (want_phi is not None)
    if out.found:
        assert np.array_equal(out.phi, want_phi)
    return target, out


@settings(max_examples=30)
@given(
    r=st.integers(2, 3),
    extra=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    state_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_haar_witness_of_rank_one_slices_matches_loop_oracle(r, extra, state_seed, seed):
    # d_A > r >= 2 and d_B > r: every basis vector of A conditions B to rank 1,
    # and the first Haar trial to the generic rank r
    d_a, d_b = r + extra[0], r + extra[1]
    target, out = assert_witness_matches_loop_oracle(
        rank_one_slices_state(d_a, d_b, r, state_seed), 70, seed)
    assert target == r and out.found and out.trials_used == d_a + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_cutoff_haar_trials_take_the_open_path(monkeypatch, seed):
    # the last column scaled by 3e-5: rho keeps rank 3, but many trials condition B to
    # lambda_min / lambda_max near rank_tol, which each batch's one eigvalsh decides;
    # the bound declines first
    bounds, batches = spy_on_search(monkeypatch)
    target, _ = assert_witness_matches_loop_oracle(
        rank_one_slices_state(4, 4, 3, seed, last_column=3e-5), 60, seed)
    assert target == 3 and len(bounds) == 1 and bounds[0] > DEFAULT_RANK_TOL
    assert batches[0] == 4 and len(batches) >= 2  # the basis batch, then the open Haar trials


@pytest.mark.parametrize("haar_trial", [64, 65, 3 * 64, 3 * 64 + 1])
def test_hit_at_a_batch_boundary(monkeypatch, haar_trial):
    # batches of 64 Haar trials: the rank function reports saturation
    # only at Haar trial ``haar_trial``, the last or first trial of a batch
    d_a, target, seed = 3, 2, 8
    factor = structured_factor(d_a, 4, 2, "shared_column", seed)
    batch_sizes = []

    def fake_ranks(k, rank_tol):
        first = sum(batch_sizes) + 1
        batch_sizes.append(len(k))
        trial = np.arange(first, first + len(k))
        return np.where(trial == d_a + haar_trial, target, 0)

    monkeypatch.setattr(distill, "gram_ranks", fake_ranks)
    basis_ranks = fake_ranks(factor, DEFAULT_RANK_TOL)
    phi, trials = distill._saturation_search(
        factor, basis_ranks, target, 500, lambda: np.random.default_rng(seed), DEFAULT_RANK_TOL)
    assert trials == d_a + haar_trial
    want = loop_haar_draws(np.random.default_rng(seed), d_a, haar_trial)[-1]
    assert np.array_equal(phi, want)
    want_sizes = {64: [64], 65: [64, 64], 192: [64, 64, 64], 193: [64, 64, 64, 64]}[haar_trial]
    assert batch_sizes == [d_a] + want_sizes


def spy_on_search(monkeypatch, value=None):
    """Record each ``ratio_bound`` value and each ranked batch; a ``value`` replaces the bound.

    The batches are the basis batch, then the Haar batches.
    """
    bounds, batches = [], []
    real_bound, real_ranks = distill.ratio_bound, distill.gram_ranks

    def bound(factor):
        bounds.append(real_bound(factor) if value is None else value)
        return bounds[-1]

    def ranks(k, *args):
        batches.append(len(k))
        return real_ranks(k, *args)

    monkeypatch.setattr(distill, "ratio_bound", bound)
    monkeypatch.setattr(distill, "gram_ranks", ranks)
    return bounds, batches


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_certified_search_matches_loop_oracle_and_the_haar_loop(d, q):
    # the flagged-depolarizing complement: the basis vectors miss, the ratio bound proves
    # that every Haar trial misses before any is drawn, and the outcome is the loop
    # oracle's and that of the Haar loop run to the end with the bound switched off
    rho = complement_channel(flagged_depolarizing_channel(d, q)).choi
    budget, seed = 100, d
    with pytest.MonkeyPatch.context() as mp:
        bounds, batches = spy_on_search(mp)
        _, out = assert_witness_matches_loop_oracle(rho, budget, seed)
    assert not out.found and out.trials_used == d + budget
    assert batches == [d] and len(bounds) == 1 and bounds[0] <= DEFAULT_RANK_TOL
    with pytest.MonkeyPatch.context() as mp:
        bounds, batches = spy_on_search(mp, value=np.inf)
        looped = find_one_way_witness(rho, budget=budget, seed=seed)
    assert batches == [d, 64, 36]
    assert looped.to_json_dict() == out.to_json_dict()


def unbuilt_rng():
    """A search's generator factory for a search that must never build its generator."""
    raise AssertionError("the search built a random generator that it needs no draw from")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_certified_search_draws_nothing(d):
    factor = flagged_complement_factor(d, 0.5)
    phi, trials = distill._saturation_search(
        factor, distill.gram_ranks(factor, DEFAULT_RANK_TOL), factor.shape[2], 2000, unbuilt_rng,
        DEFAULT_RANK_TOL)
    assert phi is None and trials == d + 2000


def test_a_ratio_bound_equal_to_rank_tol_certifies(monkeypatch):
    # the bound proves that every Haar trial misses when it is <= rank_tol, equality
    # included: the search ends after the basis batch, with no Haar batch ranked
    bounds, batches = spy_on_search(monkeypatch, value=DEFAULT_RANK_TOL)
    factor = flagged_complement_factor(3, 0.5)
    out = distill._saturation_search(
        factor, distill.gram_ranks(factor, DEFAULT_RANK_TOL), factor.shape[2], 200, unbuilt_rng,
        DEFAULT_RANK_TOL)
    assert out == (None, 3 + 200)
    assert bounds == [DEFAULT_RANK_TOL] and batches == [3]


# Haar batches hold 64 trials each, and the last one holds what is left
@pytest.mark.parametrize("budget, haar_batches", [(200, [64, 64, 64, 8]),
                                                  (705, [64] * 11 + [1])],
                         ids=["200", "705"])
@pytest.mark.parametrize("family", DECLINING_FACTORS)
def test_a_quadratic_kernel_declines_the_bound_and_the_haar_loop_runs(monkeypatch, family,
                                                                      budget, haar_batches):
    # K(v) has rank 2 < m = 3 for every v, but its kernel is quadratic in v (L2, L2(Ay))
    # or has a P singular to rounding (singular P): the bound proves nothing, and the
    # Haar loop ranks every trial of the budget
    bounds, batches = spy_on_search(monkeypatch)
    factor = DECLINING_FACTORS[family](np.random.default_rng(3))
    d_a = factor.shape[0]
    assert assert_search_matches_loop_oracle(factor, budget, seed=5) == d_a + budget
    assert len(bounds) == 1 and bounds[0] > DEFAULT_RANK_TOL
    assert batches == [d_a, *haar_batches]


@pytest.mark.parametrize("seed, trials", [(0, 253), (4, 79), (9, 166)])
def test_a_perturbed_complement_declines_the_bound_and_the_haar_loop_runs(monkeypatch, seed,
                                                                        trials):
    # the d=3 complement plus a relative 2e-5 Gaussian perturbation: lambda_min /
    # lambda_max straddles rank_tol over the Haar trials (about 0.3% reach rank m),
    # so the bound declines and the Haar loop finds the loop oracle's witness, if any
    factor = perturbed(flagged_complement_factor(3, 0.5), 2e-5, np.random.default_rng(1))
    bounds, batches = spy_on_search(monkeypatch)
    assert assert_search_matches_loop_oracle(factor, 250, seed) == trials
    assert len(bounds) == 1 and bounds[0] > DEFAULT_RANK_TOL and len(batches) >= 3


@pytest.mark.parametrize("budget, trials, counts", [
    # the purification (eigh), the B marginal and the basis batch; the ratio
    # bound (one svd, one eigvalsh) proves before any draw that all 2000 Haar
    # trials miss (34 eigvalsh with one per Haar batch, 2005 solves with one per trial)
    (2000, 2003, {"eigh": 1, "eigvalsh": 3, "svd": 1}),
    # the bound is checked at every positive budget, one batch or less included
    (50, 53, {"eigh": 1, "eigvalsh": 3, "svd": 1}),
    (64, 67, {"eigh": 1, "eigvalsh": 3, "svd": 1}),
    (65, 68, {"eigh": 1, "eigvalsh": 3, "svd": 1}),
], ids=["exhausted", "short", "one-batch", "one-batch-and-one"])
def test_search_eigensolver_count(solver_calls, budget, trials, counts):
    j_ae = complement_channel(flagged_depolarizing_channel(3, 0.5)).choi
    solver_calls.clear()
    out = find_one_way_witness(j_ae, budget=budget, seed=0)
    assert not out.found and out.trials_used == trials
    assert solver_calls == counts


def test_search_solver_failure_is_non_convergence(monkeypatch):
    fail_solver(monkeypatch, "eigvalsh", stacked_only=True)
    with pytest.raises(NonConvergenceError):
        find_one_way_witness(tilted_state(), budget=5)


def test_a_failing_ratio_bound_svd_is_non_convergence(monkeypatch):
    # the d=3 complement: the basis vectors miss, and the bound's svd fails
    j_ae = complement_channel(flagged_depolarizing_channel(3, 0.5)).choi
    fail_solver(monkeypatch, "svd")
    with pytest.raises(NonConvergenceError, match="^singular value solver did not converge"):
        find_one_way_witness(j_ae, budget=2000, seed=0)


# --- classifier ------------------------------------------------------------------


def test_classify_ghz():
    report = classify(ghz_state())
    assert report.classification == CLASS_FULLY_UNDISTILLABLE
    assert report.npt_reductions == ()
    assert all(v == RATE_ZERO for v in report.rates.values())
    assert report.reduction_ab.separability.ppt.is_ppt
    assert report.reduction_ae.separability.ppt.is_ppt


def test_classify_bell_with_trivial_env():
    report = classify(bell_with_trivial_env())
    assert report.classification == CLASS_SOME_2WAY
    assert report.npt_reductions == ("AB",)
    assert report.reduction_ab.separability.low_rank_bound_b == pytest.approx(1.0, abs=1e-9)
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
    for reduced in loop_reductions(psi.amplitudes, psi.dims, (0, 1), (0, 2)):
        spec = np.linalg.eigvalsh(reduced)[::-1]
        assert np.allclose(spec, [1 / 3] * 3 + [0.0] * 6, atol=1e-9)


@pytest.mark.parametrize("rho", [bell_state(), maximally_mixed((2, 2, 2))])
def test_classify_rejects_a_density_matrix_before_any_solve(rho, solver_calls):
    solver_calls.clear()
    with pytest.raises(SubsystemError, match="purify"):
        classify(rho)
    assert solver_calls == {}


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


def test_classify_eigensolver_count(solver_calls):
    classify(haar_state((2, 4, 3), 0))
    # rho_A, rho_B, rho_E, two partial transposes and the AB witness search's basis batch
    assert solver_calls == {"eigvalsh": 6}


def test_only_the_one_party_marginals_are_diagonalized(monkeypatch):
    # rho_AB and rho_AE take their spectra from rho_E and rho_B, so the
    # reduction analysis itself diagonalizes nothing
    shapes = []
    real = distill.solve_hermitian

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(distill, "solve_hermitian", recorded)
    classify(haar_state((2, 4, 3), 0))
    assert shapes == [(2, 2), (4, 4), (3, 3)]


def test_separability_verdict_builds_no_purification(monkeypatch, solver_calls):
    rho = haar_state((8, 8, 16), 0).reduction((0, 1))

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(distill, "purify", forbidden)
    monkeypatch.setattr(TripartitePureState, "reduction", forbidden)
    solver_calls.clear()
    record = separability_verdict(rho)
    # rho, rho_A, rho_B and the partial transpose
    assert solver_calls == {"eigvalsh": 4}
    assert (record.rank, record.rank_a, record.rank_b) == (16, 8, 8)
    assert (record.rank_e, record.rank_ae) == (16, 8)


def test_each_record_names_its_ranks_by_its_parties():
    psi = haar_state((2, 4, 3), 1)
    report = classify(psi)
    keeps = ((0, 1), (0,), (1,), (0, 2), (2,))
    want = {"".join("ABE"[k] for k in keep): numerical_rank(reduced)
            for keep, reduced in zip(keeps, loop_reductions(psi.amplitudes, psi.dims, *keeps))}
    record_ab = report.reduction_ab.separability.to_json_dict()
    record_ae = report.reduction_ae.separability.to_json_dict()
    assert list(record_ab["ranks"].items()) == [(k, want[k]) for k in ("AB", "A", "B", "AE", "E")]
    assert list(record_ae["ranks"].items()) == [(k, want[k]) for k in ("AE", "A", "E", "AB", "B")]
    assert ["low_rank_bound_A", "low_rank_bound_E"] == [k for k in record_ae if "bound" in k]
    assert want == {"AB": 3, "A": 2, "B": 4, "AE": 4, "E": 3}  # the ranks tell the labels apart


def test_report_separability_matches_separability_verdict():
    for seed, dims in enumerate([(2, 4, 3), (3, 3, 3), (2, 2, 5), (3, 4, 2)]):
        psi = haar_state(dims, seed)
        report = classify(psi)
        for reduction, keep in ((report.reduction_ab, (0, 1)), (report.reduction_ae, (0, 2))):
            from_report = reduction.separability.to_json_dict()
            direct = separability_verdict(psi.reduction(keep)).to_json_dict()
            # the bare bipartite state's parties are A and B, the AE record's A and E
            names = str.maketrans("BE", "EB") if keep == (0, 2) else {}
            direct = {key.translate(names): value for key, value in direct.items()}
            direct["ranks"] = {key.translate(names): r for key, r in direct["ranks"].items()}
            assert from_report.pop("ppt")["is_ppt"] == direct.pop("ppt")["is_ppt"]
            for key in (f"low_rank_bound_{p}" for p in reduction.label):
                got, want = from_report.pop(key), direct.pop(key)
                assert (got is None and want is None) or got == pytest.approx(want, abs=1e-12)
            assert from_report == direct
