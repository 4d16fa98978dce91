import numpy as np
import pytest

from lrdistill import (
    DensityMatrix,
    TripartitePureState,
    classify,
    complement_channel,
    filtered_hashing_rate,
    find_one_way_witness,
    flagged_depolarizing_channel,
    hermitian_eig,
    local_filter,
    low_rank_rate_bound,
    numerical_rank,
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
    conditional_marginal,
)
from lrdistill.errors import BadParameterError, RankNotLowError
from lrdistill.states import bell_state, ghz_state, maximally_mixed


def tilted_state():
    """sqrt(0.9)|00> + sqrt(0.1)|11> -- the worked scalar example."""
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(0.9)
    v[3] = np.sqrt(0.1)
    return DensityMatrix.from_pure(v, (2, 2))


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
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
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
