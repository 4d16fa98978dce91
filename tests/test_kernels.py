import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdistill import hermitian_eig
from lrdistill.errors import (NonConvergenceError, NoPositiveEigenvalueError, NotHermitianError,
                              NumericsError)
from lrdistill.kernels import gram_ranks, ratio_bound

from conftest import (antisymmetric_choi, conditioned, fail_solver, flagged_complement_factor,
                      gaussian, gaussian_unit_vector, loop_partial_trace, numerical_rank,
                      perturbed, random_psd, trial_ratios)
from test_tolerances import EDGE_TOLS


def reconstruct(spec):
    return (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T


def rank(m):
    return hermitian_eig(m, vectors=False).rank


def test_eig_identity():
    spec = hermitian_eig(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])


def test_eig_diagonal_descending():
    spec = hermitian_eig(np.diag([0.1, 0.9]))
    assert np.allclose(spec.eigenvalues, [0.9, 0.1])
    assert np.allclose(reconstruct(spec), np.diag([0.1, 0.9]))


def test_eig_antisymmetric_projector():
    spec = hermitian_eig(antisymmetric_choi())
    assert np.allclose(spec.eigenvalues, [1 / 3] * 3 + [0.0] * 6, atol=1e-12)


def test_eig_orthonormal_eigenvectors(rng):
    m = random_psd(rng, 6, 6)
    spec = hermitian_eig(m)
    assert np.allclose(spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(6), atol=1e-12)
    assert np.allclose(reconstruct(spec), m, atol=1e-12)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.zeros((2, 3)))


def test_eig_deterministic(rng):
    m = random_psd(rng, 5, 3)
    a = hermitian_eig(m)
    b = hermitian_eig(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_rank_zero_matrix():
    assert rank(np.zeros((2, 2))) == 0


def test_rank_bell_projector():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert rank(np.outer(v, v)) == 1


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
def test_gram_ranks_match_rank_of_each_marginal(rng, shape):
    # both Gram orientations, a zero matrix and rank-deficient products
    p, q = shape
    stack = [np.zeros(shape, dtype=complex)]
    for r in range(1, min(p, q) + 1):
        stack.append(gaussian(rng, p, r) @ gaussian(rng, r, q))
    got = gram_ranks(np.array(stack))
    assert list(got) == [numerical_rank(k @ k.conj().T) for k in stack]
    assert list(got) == list(range(min(p, q) + 1))


def isometry(rng, d, m):
    """d x m with orthonormal columns, from the QR of a complex Gaussian."""
    return np.linalg.qr(gaussian(rng, d, m))[0]


def gram_stack(rng, shape, n, spectrum):
    """n matrices K of ``shape`` whose smaller Gram matrix has eigenvalues ``spectrum()``."""
    p, q = shape
    m = min(p, q)
    return np.array([(isometry(rng, p, m) * np.sqrt(spectrum())) @ isometry(rng, q, m).conj().T
                     for _ in range(n)])


def smaller_gram(k):
    return k @ k.conj().T if k.shape[0] <= k.shape[1] else k.conj().T @ k


def conditioned_on(rng, k):
    """(factor, v): n Gaussian trial vectors on A = C^n and a factor F with K(v_i) = k[i]."""
    n = len(k)
    v = gaussian(rng, n, n)
    return np.linalg.solve(v.conj(), k.reshape(n, -1)).reshape(k.shape), v


@st.composite
def conditioned_cases(draw):
    """(factor, v, k, target, rank_tol): tall and wide trials with chosen Gram spectra."""
    p, q = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    m = min(p, q)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "deficient", "above", "below", "defer"]))
    tol = draw(st.sampled_from(EDGE_TOLS))
    if kind == "gaussian":
        def spectrum():
            return rng.uniform(0.2, 1.0, m)
    elif kind == "deficient":  # rank deficiency 1..m; m is a zero K
        deficiency = draw(st.integers(1, m))

        def spectrum():
            return np.concatenate([rng.uniform(0.2, 1.0, m - deficiency), np.zeros(deficiency)])
    elif kind in ("above", "below"):  # lambda_min a relative 1e-3 either side of the cutoff (m > 1)
        edge = tol * (1 + 1e-3 if kind == "above" else 1 - 1e-3)

        def spectrum():
            return np.concatenate([[1.0], rng.uniform(0.2, 1.0, max(m - 2, 0)), [edge]])[-m:]
    else:  # a tolerance far below the defaults
        tol = 1e-15

        def spectrum():
            return rng.uniform(0.5, 1.0, m)
    k = gram_stack(rng, (p, q), draw(st.integers(1, 6)), spectrum)
    k *= 10.0 ** draw(st.sampled_from([-150, 0, 150]))
    return (*conditioned_on(rng, k), k, m - draw(st.sampled_from([0, 0, 0, 1])), tol)


@settings(max_examples=300, deadline=None)
@given(conditioned_cases())
def test_conditioned_ranks_match_an_eigensolve_of_each_gram_matrix(case):
    # the K formed from the trial vectors, as the witness search forms it
    factor, v, k, target, tol = case
    want = [numerical_rank(smaller_gram(x), tol) == target for x in k]
    assert list(gram_ranks(conditioned(factor, v), tol) == target) == want


@pytest.mark.parametrize("shape", [(4, 3), (3, 4)])
@pytest.mark.parametrize("side", [1 + 1e-3, 1 - 1e-3])
@pytest.mark.parametrize("tol", EDGE_TOLS)
def test_ranks_survive_cancellation_in_the_conditioned_factor(shape, side, tol):
    # trial vectors near one common direction: F = conj(V)^-1 K is far larger than
    # each K, so the sums forming K cancel; lambda_min lies a relative 1e-3 from the cutoff
    rng = np.random.default_rng(7)
    edge = gram_stack(rng, shape, 8, lambda: np.r_[1.0, 0.5, tol * side])
    v = np.outer(rng.standard_normal(8), rng.standard_normal(8)) + 1e-5 * gaussian(rng, 8, 8)
    factor = np.linalg.solve(v.conj(), edge.reshape(8, -1)).reshape(edge.shape)
    want = [numerical_rank(smaller_gram(x), tol) == 3 for x in edge]
    assert list(gram_ranks(conditioned(factor, v), tol) == 3) == want


def tight_factor(size, rng):
    """(2, 4, 3) factor whose ratio bound is within a factor 3/2 of trial v = e_0's ratio.

    W[0] = [size h, c, g_0] and W[1] = [-c / alpha, 0, g_1], with h, c, g_0, g_1
    orthonormal and alpha = 0.1, rotated on both sides: u(y) = y_0 alpha e_1 + y_1 e_2
    is a kernel polynomial up to S_00 = alpha size h, P = diag(alpha^2, 1) and T =
    diag(2 + size^2, 1 / alpha^2 + 1) are least along e_0, and at v = e_0 the
    spectrum is (size^2, 1, 1).
    """
    h, c, g0, g1 = np.linalg.qr(gaussian(rng, 4, 4))[0].T
    w = np.stack([np.stack([size * h, c, g0], axis=1),
                  np.stack([-c / 0.1, np.zeros(4), g1], axis=1)])
    return w @ np.linalg.qr(gaussian(rng, 3, 3))[0]


PERTURBATIONS = [0.0, 1e-12, 1e-8, 1e-5, 1e-3]


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("size", PERTURBATIONS)
@pytest.mark.parametrize("family", ["complement 2", "complement 3", "complement 4", "tight"])
def test_ratio_bound_covers_every_sampled_trial(family, size, scale):
    # flagged-depolarizing complements plus a Gaussian perturbation of relative size
    # ``size``, and a factor whose bound is nearly attained: the bound, the same for
    # every trial, is at least each sampled trial's eigvalsh lambda_min / lambda_max
    rng = np.random.default_rng(int(size * 1e5) + 17)
    if family == "tight":
        factor = tight_factor(size, rng)
    else:
        factor = perturbed(flagged_complement_factor(int(family[-1]), 0.5), size, rng)
    d_a = factor.shape[0]
    v = np.concatenate([np.eye(d_a), np.eye(d_a) + 1e-3 * gaussian(rng, d_a, d_a),
                        gaussian(rng, 500, d_a)])
    bound, ratios = ratio_bound(factor * scale), trial_ratios(factor * scale, v)
    assert np.all(ratios <= bound)
    if family == "tight" and size >= 1e-5:
        assert bound <= 2 * ratios.max()  # nearly attained at v = e_0
    if size == 0.0:  # an exact linear kernel polynomial: no trial reaches rank m
        assert bound <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_ratio_bound_certifies_flagged_complements(d, q):
    factor = flagged_complement_factor(d, q)
    assert ratio_bound(factor) <= 1e-10
    v = gaussian(np.random.default_rng(d), 20, d)
    assert all(numerical_rank(k.conj().T @ k) < 2 * d for k in conditioned(factor, v))


def test_a_failing_ratio_bound_eigensolve_is_non_convergence(monkeypatch):
    # the bound's one stacked eigvalsh, of P for each k and of T
    factor = flagged_complement_factor(3, 0.5)
    fail_solver(monkeypatch, "eigvalsh", stacked_only=True)
    with pytest.raises(NonConvergenceError, match="^eigensolver did not converge"):
        ratio_bound(factor)


@pytest.mark.parametrize("t_over, p_over", [(1 - 1e-6, 2.0), (2.0, 1 - 1e-6), (2.0, 1 + 1e-6)])
def test_ratio_bound_subtracts_the_eigensolves_rounding(monkeypatch, t_over, p_over):
    # the stacked eigvalsh faked to give lambda_min(T) = t_over c tau and each k's
    # lambda_min(P) = p_over c ||N||_F^2, the docstring's allowances: below either, no
    # lower bound is positive and the bound is inf. T's "above" is twice its allowance,
    # since a lambda_min(T) barely above it leaves nu >= 1/2
    factor = flagged_complement_factor(3, 0.5)
    d_a, p, m = factor.shape  # d_B = 10 > r = 6, so W = F
    w = factor * 2.0 ** -np.frexp(np.abs(factor).max())[1]  # max |W| in [1/2, 1)
    eps = np.finfo(float).eps
    size_a = (p * d_a * (d_a + 1) // 2) * (d_a * m)
    c = 64 * d_a**2 * eps + 3 * (size_a + 8) * eps
    tau = np.sum(np.abs(w) ** 2)
    n_sq = np.arange(1, d_a * m + 1)  # N: the k unit right singular vectors of least value
    real = np.linalg.eigvalsh

    def faked(a):
        lams = real(a)
        lams[:-1, 0], lams[-1, 0] = p_over * c * n_sq, t_over * c * tau
        return lams

    monkeypatch.setattr(np.linalg, "eigvalsh", faked)
    assert np.isinf(ratio_bound(factor)) == (min(t_over, p_over) < 1)


def test_rank_induced_measure_marginal():
    # the AB marginal of a random pure state on 2x4x3 has rank min(d_E, d_A*d_B) = 3
    rng = np.random.default_rng(11)
    v = gaussian_unit_vector(rng, 24)
    rho = loop_partial_trace(np.outer(v, v.conj()), (2, 4, 3), (0, 1))
    assert rank(rho) == 3
    # cross-check against a plain eigenvalue count
    evals = np.linalg.eigvalsh(rho)
    assert int(np.sum(evals > 1e-10 * evals.max())) == 3


def test_support_projector_examples():
    assert np.allclose(hermitian_eig(np.eye(4)).support_projector(), np.eye(4))
    got = hermitian_eig(np.diag([0.5, 0.5, 0.0])).support_projector()
    assert np.allclose(got, np.diag([1.0, 1.0, 0.0]))


def test_pinv_sqrt_examples():
    assert np.allclose(hermitian_eig(np.eye(3)).pinv_sqrt(), np.eye(3))
    assert np.allclose(hermitian_eig(np.diag([4.0, 0.0])).pinv_sqrt(), np.diag([0.5, 0.0]))
    expected = np.diag([0.9 ** -0.5, 0.1 ** -0.5])
    assert np.allclose(hermitian_eig(np.diag([0.9, 0.1])).pinv_sqrt(), expected, atol=1e-12)


def test_pinv_sqrt_inverts_on_support(rng):
    for _ in range(40):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        m = random_psd(rng, d, r)
        spec = hermitian_eig(m)
        root = spec.pinv_sqrt()
        assert np.max(np.abs(root @ m @ root - spec.support_projector())) <= 1e-9


def test_rank_of_support_projector(rng):
    for _ in range(40):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        m = random_psd(rng, d, r)
        projector = hermitian_eig(m).support_projector()
        assert numerical_rank(projector) == numerical_rank(m) == r


def test_eigenvalue_sum_is_trace(rng):
    for _ in range(40):
        d = int(rng.integers(2, 8))
        m = random_psd(rng, d, d)
        spec = hermitian_eig(m)
        assert abs(spec.eigenvalues.sum() - m.trace().real) <= 1e-10


def test_min_positive_eigenvalue():
    assert hermitian_eig(np.diag([0.7, 0.3, 0.0])).min_positive() == pytest.approx(0.3)
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 2))).min_positive()


def test_min_positive_error_is_a_numerics_error():
    with pytest.raises(NoPositiveEigenvalueError) as info:
        hermitian_eig(np.zeros((3, 3))).min_positive()
    assert isinstance(info.value, NumericsError)


def test_eigenvalues_only_spectrum_matches_full_decomposition(rng):
    for _ in range(20):
        d = int(rng.integers(1, 9))
        m = random_psd(rng, d, int(rng.integers(1, d + 1)))
        full, values = hermitian_eig(m), hermitian_eig(m, vectors=False)
        assert values.eigenvectors is None
        assert np.max(np.abs(full.eigenvalues - values.eigenvalues)) <= 1e-12
        assert values.rank == full.rank
        assert values.entropy() == pytest.approx(full.entropy(), abs=1e-12)
