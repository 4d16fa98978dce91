import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdistill import (
    DensityMatrix,
    TripartitePureState,
    coherent_information,
    complement,
    conditional_marginal,
    hermitian_eig,
    is_ppt,
    partial_trace,
    partial_transpose,
    purify,
    sample_state,
    schmidt_rank,
    von_neumann_entropy,
)
from lrdistill.errors import (NonConvergenceError, NotHermitianError, NotNormalizedError,
                              StateFormatError, SubsystemError)
from lrdistill.states import (
    bell_state,
    complex_pairs,
    density_matrix_from_dict,
    ghz_state,
    maximally_mixed,
    pure_state_from_dict,
)

from conftest import (
    derived_matrices,
    fail_solver,
    gaussian_unit_vector,
    loop_partial_trace,
    loop_partial_transpose,
    numerical_rank,
    random_density,
    random_psd,
)


def product_state(rng, d_a, d_b):
    sigma = random_psd(rng, d_a, d_a)
    gamma = random_psd(rng, d_b, d_b)
    return sigma, gamma, DensityMatrix((d_a, d_b), np.kron(sigma, gamma))


# --- construction invariants -------------------------------------------------


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(StateFormatError):
        DensityMatrix((2,), np.eye(3) / 3)  # dims mismatch
    with pytest.raises(StateFormatError):
        DensityMatrix((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(StateFormatError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(StateFormatError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue


def test_a_failed_validation_solve_is_a_nonconvergence_error(monkeypatch):
    fail_solver(monkeypatch, "eigvalsh")
    with pytest.raises(NonConvergenceError, match="did not converge"):
        DensityMatrix((2, 2), np.eye(4) / 4)


def _exactly_hermitian(m) -> bool:
    return np.array_equal(m, m.conj().T)


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**32 - 1))
def test_every_derived_matrix_is_exactly_hermitian(dims, seed):
    rng = np.random.default_rng(seed)
    psi = TripartitePureState(dims, gaussian_unit_vector(rng, int(np.prod(dims))))
    for size in (1, 2, 3):
        for keep in combinations(range(3), size):
            assert _exactly_hermitian(psi.reduction(keep).matrix), keep
    # a loop partial trace carries rounding-level asymmetry into the input
    full = np.outer(psi.amplitudes, psi.amplitudes.conj())
    rho = DensityMatrix(dims[:2], loop_partial_trace(full, dims, (0, 1)))
    for name, m in derived_matrices(rho).items():
        assert _exactly_hermitian(m), name


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_asymmetry_within_the_tolerance_is_stored_as_the_exact_hermitian_part(d, seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, d, d)
    m = (m + m.conj().T) / 2
    m[0, 1] += 1e-12
    rho = DensityMatrix((d,), m)
    assert np.array_equal(rho.matrix, (m + m.conj().T) / 2)
    assert _exactly_hermitian(rho.matrix)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       asymmetry=st.floats(2e-10, 1e-3))
def test_asymmetry_above_the_tolerance_is_rejected(d, seed, asymmetry):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, d, d)
    m = (m + m.conj().T) / 2
    m[0, 1] += asymmetry
    with pytest.raises(StateFormatError, match="Hermitian"):
        DensityMatrix((d,), m)
    with pytest.raises(NotHermitianError):
        hermitian_eig(m)


def test_pure_state_norm_invariant():
    with pytest.raises(NotNormalizedError):
        TripartitePureState((2, 2, 2), np.ones(8))
    with pytest.raises(StateFormatError):
        TripartitePureState((2, 2), np.ones(4) / 2.0)
    with pytest.raises(StateFormatError):
        TripartitePureState((2, 2, 2), np.full(8, np.nan))  # NaN norm must not slip through


# --- partial trace -----------------------------------------------------------


def test_partial_trace_product(rng):
    sigma, gamma, rho = product_state(rng, 2, 3)
    assert np.allclose(partial_trace(rho, (0,)).matrix, sigma, atol=1e-12)
    assert np.allclose(partial_trace(rho, (1,)).matrix, gamma, atol=1e-12)


def test_partial_trace_bell():
    assert np.allclose(partial_trace(bell_state(), (0,)).matrix, np.eye(2) / 2)


def test_partial_trace_ghz_matches_loop_oracle():
    full = ghz_state().density_matrix()
    expected = loop_partial_trace(full.matrix, (2, 2, 2), (0, 1))
    got = partial_trace(full, (0, 1))
    assert got.dims == (2, 2)
    assert np.allclose(got.matrix, expected, atol=1e-14)
    target = np.zeros((4, 4))
    target[0, 0] = target[3, 3] = 0.5
    assert np.allclose(got.matrix, target)


def test_partial_trace_preserves_trace(rng):
    for seed in range(5):
        rho = random_density(2, 3, 2, seed)
        for keep in ((0,), (1,), (0, 1)):
            assert abs(partial_trace(rho, keep).matrix.trace() - 1.0) < 1e-12


def test_partial_trace_bad_subsystems():
    rho = bell_state()
    with pytest.raises(SubsystemError):
        partial_trace(rho, ())
    with pytest.raises(SubsystemError):
        partial_trace(rho, (2,))
    with pytest.raises(SubsystemError):
        partial_trace(rho, (0, 0))


#: Index values that are not integers; int() would truncate or misread each one.
NON_INTEGER_INDICES = [0.5, 1.7, True, False, "a", np.float64(1.0), np.bool_(True)]


@pytest.mark.parametrize("index", NON_INTEGER_INDICES, ids=repr)
def test_non_integer_subsystem_indices_are_rejected(index):
    with pytest.raises(SubsystemError, match="must be integers"):
        partial_trace(bell_state(), (index,))
    with pytest.raises(SubsystemError, match="must be integers"):
        partial_transpose(bell_state(), index)
    with pytest.raises(SubsystemError, match="must be integers"):
        ghz_state().reduction((0, index))


def test_numpy_integer_subsystem_indices_are_accepted():
    rho = random_density(2, 3, 2, seed=2)
    assert np.array_equal(partial_trace(rho, (np.int64(1),)).matrix,
                          partial_trace(rho, (1,)).matrix)
    assert np.array_equal(partial_transpose(rho, np.int64(1)), partial_transpose(rho, 1))
    psi = ghz_state()
    assert np.array_equal(psi.reduction((np.int64(0), np.int32(2))).matrix,
                          psi.reduction((0, 2)).matrix)


# --- partial transpose and PPT ----------------------------------------------


def test_partial_transpose_product_spectrum(rng):
    _, _, rho = product_state(rng, 2, 2)
    pt = partial_transpose(rho, 1)
    assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), np.sort(np.linalg.eigvalsh(rho.matrix)), atol=1e-12)


def test_partial_transpose_matches_loop_oracle():
    rho = random_density(2, 3, 3, seed=4)
    for sub in (0, 1):
        pt = partial_transpose(rho, sub)
        assert np.array_equal(pt, loop_partial_transpose(rho.matrix, rho.dims, sub))


def test_partial_transpose_involution(rng):
    # the intermediate must itself be a valid state, so use a PPT input
    _, _, rho = product_state(rng, 2, 3)
    pt = partial_transpose(rho, 1)
    back = partial_transpose(DensityMatrix(rho.dims, pt), 1)
    assert np.array_equal(back, rho.matrix)
    assert abs(np.trace(pt) - 1.0) < 1e-14


def test_bell_partial_transpose_witness():
    bell = bell_state()
    oracle = np.linalg.eigvalsh(loop_partial_transpose(bell.matrix, (2, 2), 1)).min()
    assert oracle == pytest.approx(-0.5, abs=1e-12)
    verdict = is_ppt(bell)
    assert not verdict.is_ppt
    assert verdict.witness == pytest.approx(-0.5, abs=1e-12)


def test_is_ppt_separable_mixture():
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    verdict = is_ppt(rho)
    assert verdict.is_ppt
    # zero witness: this state sits exactly on the PPT boundary
    assert verdict.marginal


def test_is_ppt_ghz_reduction():
    rho = partial_trace(ghz_state().density_matrix(), (0, 1))
    oracle = np.linalg.eigvalsh(loop_partial_transpose(rho.matrix, (2, 2), 1)).min()
    assert oracle >= -1e-12
    assert is_ppt(rho).is_ppt


def test_is_ppt_product_states_and_max_entangled(rng):
    for d in (2, 3):
        _, _, rho = product_state(rng, d, d)
        assert is_ppt(rho).is_ppt
        v = np.zeros(d * d, dtype=complex)
        v[:: d + 1] = 1 / np.sqrt(d)
        assert not is_ppt(DensityMatrix((d, d), np.outer(v, v.conj()))).is_ppt


# --- entropies ---------------------------------------------------------------


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(bell_state()) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(maximally_mixed((2, 2))) == pytest.approx(2.0, abs=1e-12)


def test_entropy_binary():
    rho = DensityMatrix((2,), np.diag([0.9, 0.1]))
    scalar = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    assert von_neumann_entropy(rho) == pytest.approx(scalar, abs=1e-12)
    assert von_neumann_entropy(rho) == pytest.approx(0.46899559358928117, abs=1e-12)


def test_coherent_information_values():
    assert coherent_information(bell_state()) == pytest.approx(1.0, abs=1e-12)
    assert coherent_information(maximally_mixed((2, 2))) == pytest.approx(-1.0, abs=1e-12)


# --- purification and complements ---------------------------------------------


def test_purify_pure_state():
    psi = purify(bell_state())
    assert psi.dims == (2, 2, 1)
    assert np.allclose(
        partial_trace(psi.density_matrix(), (0, 1)).matrix, bell_state().matrix, atol=1e-12
    )


def test_purify_classical_mixture_is_ghz_like():
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    psi = purify(rho)
    assert psi.dims == (2, 2, 2)
    # amplitudes are sqrt(1/2) on |00>|e0> and |11>|e1> for some E labeling
    nonzero = np.flatnonzero(np.abs(psi.amplitudes) > 1e-12)
    assert len(nonzero) == 2
    assert np.allclose(np.abs(psi.amplitudes[nonzero]), 1 / np.sqrt(2))


def test_purify_maximally_mixed():
    psi = purify(maximally_mixed((2, 2)))
    assert psi.dims == (2, 2, 4)
    rho_ae = partial_trace(psi.density_matrix(), (0, 2))
    assert numerical_rank(rho_ae.matrix) == 2


def test_purify_roundtrip_random():
    for seed in range(8):
        rho = sample_state(2, 3, int(1 + seed % 4), seed=seed)
        psi = purify(rho)
        back = partial_trace(psi.density_matrix(), (0, 1))
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-9


def test_complement_pure_entangled():
    comp = complement(bell_state())
    assert comp.dims == (2, 1)
    assert np.allclose(comp.matrix, np.eye(2) / 2, atol=1e-12)


def test_complement_ghz_reduction_is_itself():
    # equality only up to relabeling of the purifying register: the 0.5/0.5
    # eigenvalue tie leaves the E-basis order to the eigensolver
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    comp = complement(rho)
    assert comp.dims == (2, 2)
    assert np.allclose(comp.matrix, np.diag(np.diagonal(comp.matrix)), atol=1e-12)
    assert np.allclose(np.sort(np.diagonal(comp.matrix).real), [0.0, 0.0, 0.5, 0.5], atol=1e-12)
    assert np.allclose(partial_trace(comp, (0,)).matrix, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(comp, (1,)).matrix, np.eye(2) / 2, atol=1e-12)


def test_complement_entropy_identity():
    for seed in range(6):
        rho = sample_state(2, 3, 2, seed=seed)
        s_comp = von_neumann_entropy(complement(rho))
        s_b = von_neumann_entropy(partial_trace(rho, (1,)))
        assert abs(s_comp - s_b) <= 1e-9


def test_coherent_information_negation():
    for seed in range(6):
        rho = sample_state(3, 2, 3, seed=seed)
        assert abs(coherent_information(complement(rho)) + coherent_information(rho)) <= 1e-9


# --- conditioned marginals -----------------------------------------------------


def test_conditional_marginal_product(rng):
    sigma, gamma, rho = product_state(rng, 2, 3)
    phi = np.array([1.0, 0.0])
    got = conditional_marginal(rho, phi)
    assert np.allclose(got, sigma[0, 0] * gamma, atol=1e-12)
    assert numerical_rank(got) == numerical_rank(gamma)


def test_conditional_marginal_bell():
    got = conditional_marginal(bell_state(), [1.0, 0.0])
    expected = np.zeros((2, 2))
    expected[0, 0] = 0.5
    assert np.allclose(got, expected, atol=1e-14)
    assert numerical_rank(got) == 1


def test_conditional_marginal_requires_unit_vector():
    with pytest.raises(NotNormalizedError):
        conditional_marginal(bell_state(), [1.0, 1.0])


def test_conditional_marginal_requires_a_vector_of_length_d_a():
    with pytest.raises(SubsystemError, match="expected d_A = 2"):
        conditional_marginal(bell_state(), [1.0, 0.0, 0.0])


# --- schmidt rank ---------------------------------------------------------------


def test_schmidt_rank_examples():
    assert schmidt_rank([1.0, 0.0, 0.0, 0.0], (2, 2)) == 1
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert schmidt_rank(bell, (2, 2)) == 2


def test_schmidt_rank_gaussian_full():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v /= np.linalg.norm(v)
    # oracle: eigenvalue count of the first marginal
    m = v.reshape(4, 3)
    evals = np.linalg.eigvalsh(m @ m.conj().T)
    assert int(np.sum(evals > 1e-10 * evals.max())) == 3
    assert schmidt_rank(v, (4, 3)) == 3


def test_schmidt_rank_is_the_rank_of_either_reduced_state():
    # the common cutoff applies to the reduced state's eigenvalues: Schmidt
    # coefficients 1 and 1e-7 give eigenvalues 1 and 1e-14, below 1e-10
    tilted = np.array([1.0, 0.0, 0.0, 1e-7])
    rng = np.random.default_rng(17)
    cases = [(tilted / np.linalg.norm(tilted), (2, 2))] + [
        (gaussian_unit_vector(rng, d1 * d2), (d1, d2))
        for d1, d2 in ((2, 3), (4, 3), (3, 3), (1, 4), (5, 2))
    ]
    for v, dims in cases:
        full = np.outer(v, v.conj())
        for keep in ((0,), (1,)):
            assert schmidt_rank(v, dims) == numerical_rank(loop_partial_trace(full, dims, keep))
    assert schmidt_rank(cases[0][0], (2, 2)) == 1


def test_schmidt_rank_requires_normalization():
    with pytest.raises(NotNormalizedError):
        schmidt_rank(np.ones(4), (2, 2))
    with pytest.raises(NotNormalizedError):
        schmidt_rank([np.nan, 0.0, 0.0, 0.0], (2, 2))
    with pytest.raises(StateFormatError):
        schmidt_rank(np.eye(6)[0], (2.9, 2.1))


def test_schmidt_rank_requires_a_vector_of_the_bipartition_length():
    with pytest.raises(SubsystemError, match="does not match bipartition 2x3"):
        schmidt_rank(np.eye(4)[0], (2, 3))


@pytest.mark.parametrize("dims", [(8,), (2, 2, 2)])
def test_schmidt_rank_needs_two_factors(dims):
    with pytest.raises(SubsystemError, match="bipartition"):
        schmidt_rank(np.eye(8)[0], dims)


# --- JSON round trips -----------------------------------------------------------


def test_density_matrix_json_roundtrip():
    rho = sample_state(2, 3, 2, seed=3)
    doc = rho.to_json_dict()
    back = density_matrix_from_dict(doc)
    assert back.dims == rho.dims
    assert np.allclose(back.matrix, rho.matrix, atol=0)


def test_pure_state_json_roundtrip():
    psi = ghz_state()
    back = pure_state_from_dict(psi.to_json_dict())
    assert back.dims == psi.dims
    assert np.array_equal(back.amplitudes, psi.amplitudes)


# --- pure-state reductions and trusted construction ---------------------------


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**32 - 1))
def test_amplitude_reductions_match_loop_oracle(dims, seed):
    v = np.array([1.0, 1j]) @ np.random.default_rng(seed).standard_normal((2, np.prod(dims)))
    psi = TripartitePureState(dims, v / np.linalg.norm(v))
    full = np.outer(psi.amplitudes, psi.amplitudes.conj())
    for size in (1, 2, 3):
        for keep in combinations(range(3), size):
            got = psi.reduction(keep)
            assert got.dims == tuple(dims[i] for i in keep)
            want = loop_partial_trace(full, dims, keep)
            assert np.max(np.abs(got.matrix - want)) <= 1e-12


def test_reduction_rejects_bad_subsystems():
    with pytest.raises(SubsystemError):
        ghz_state().reduction((0, 3))
    with pytest.raises(SubsystemError):
        ghz_state().reduction(())


def test_derived_states_are_read_only_and_unaliased(monkeypatch):
    validations = []
    original = DensityMatrix.__post_init__
    monkeypatch.setattr(
        DensityMatrix, "__post_init__", lambda self: validations.append(1) or original(self)
    )
    source = np.eye(2, dtype=np.complex128) / 2
    derived = [
        ghz_state().reduction((0, 1)),
        partial_trace(bell_state(), (0,)),
        complement(bell_state()),
        DensityMatrix._trusted((2,), source),
    ]
    assert len(validations) == 2  # the two explicit bell_state() constructions only
    for rho in derived:
        assert rho.matrix.dtype == np.complex128
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
    source[0, 0] = 1.0
    assert derived[-1].matrix[0, 0] == 0.5


def test_complex_pairs_matches_the_loop_serializer(rng):
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m[0, 0], m[1, 2], m[3, 4] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)
    loop = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    assert json.dumps(complex_pairs(m), indent=2) == json.dumps(loop, indent=2)
    assert complex_pairs(m[0]) == loop[0]
