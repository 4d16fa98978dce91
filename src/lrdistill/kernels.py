"""Dense Hermitian-matrix primitives with one shared tolerance policy.

Every rank, support projector and minimum positive eigenvalue in this package
comes from one relative cutoff, decided once per spectrum, so r and lambda_min
stay consistent: an eigenvalue counts as zero when it is <= rank_tol * (largest
eigenvalue). Matrices are plain complex ndarrays, small enough (<= ~64) to be
kept dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (BadParameterError, InputError, LrdistillError, NonConvergenceError,
                     NoPositiveEigenvalueError, NotHermitianError)

#: Relative eigenvalue cutoff below which spectra are treated as zero.
DEFAULT_RANK_TOL = 1e-10

#: Max-norm tolerance of the one ``m == m.conj().T`` check, ``hermitian_part``.
HERMITICITY_TOL = 1e-10


def hermitian_part(m, error: type[LrdistillError] = NotHermitianError) -> np.ndarray:
    """(m + m^dagger) / 2, exactly Hermitian: the one check of a matrix from outside the package.

    Raises ``error`` unless ``m`` is square, finite and within ``HERMITICITY_TOL`` of m^dagger.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise error(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise error("matrix contains non-finite entries")
    if arr.size and np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
        raise error(f"matrix deviates from Hermitian symmetry by more than {HERMITICITY_TOL:g}")
    return (arr + arr.conj().T) / 2.0


def validated_tolerance(value, field: str, error: type[InputError] = BadParameterError) -> float:
    """``value`` as a tolerance: a real number strictly inside (0, 1), not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < 1.0:
        raise error(f"{field} must lie in (0, 1), got {value!r}")
    return value


def _retained(lams: np.ndarray, rank_tol: float) -> np.ndarray:
    """Eigenvalues above ``rank_tol * lambda_max``, counted per last axis; 0 if lambda_max <= 0.

    The package's one rank cutoff, and so the one check of ``rank_tol``.
    """
    validated_tolerance(rank_tol, "rank_tol")
    lam_max = np.max(lams, axis=-1, keepdims=True, initial=0.0)
    return np.sum(lams > rank_tol * lam_max, axis=-1)


def _solve(solver, *args, what: str = "eigensolver", **kwargs):
    """``solver(*args, **kwargs)``, its LinAlgError raised as NonConvergenceError naming ``what``.

    Callers pass ``np.linalg.<fn>`` as read at the call, so a patched one sees every call."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"{what} did not converge: {exc}") from exc


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition with eigenvalues sorted in descending order.

    ``eigenvectors[:, k]`` is the unit eigenvector paired with
    ``eigenvalues[k]``, or ``eigenvectors`` is None when only eigenvalues
    were computed. Ties keep the (reversed) eigensolver order, which is
    deterministic for identical input. ``rank`` counts the eigenvalues
    strictly above ``rank_tol * max(eigenvalues)``, the cutoff the spectrum
    was built with; every method reads the support off it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    rank: int

    def min_positive(self) -> float:
        """Smallest eigenvalue above the rank cutoff."""
        if self.rank == 0:
            raise NoPositiveEigenvalueError("spectrum has no eigenvalue above the rank cutoff")
        return float(self.eigenvalues[self.rank - 1])

    def entropy(self) -> float:
        """-sum lam log2 lam in bits over the eigenvalues above the rank cutoff."""
        lams = self.eigenvalues[: self.rank]
        return float(-np.sum(lams * np.log2(lams))) if self.rank else 0.0

    def support_projector(self) -> np.ndarray:
        v = self.eigenvectors[:, : self.rank]
        return v @ v.conj().T

    def pinv_sqrt(self) -> np.ndarray:
        """Inverse square root on the support, zero on the kernel."""
        v = self.eigenvectors[:, : self.rank]
        inv_sqrt = 1.0 / np.sqrt(self.eigenvalues[: self.rank])
        return (v * inv_sqrt) @ v.conj().T


def hermitian_eig(
    m, rank_tol: float = DEFAULT_RANK_TOL, *, vectors: bool = True
) -> HermitianSpectrum:
    """``solve_hermitian`` of ``hermitian_part(m)``: a user's matrix, checked and symmetrized."""
    return solve_hermitian(hermitian_part(m), rank_tol, vectors=vectors)


def solve_hermitian(
    h: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL, *, vectors: bool = True
) -> HermitianSpectrum:
    """Eigendecompose an exactly Hermitian matrix, eigenvalues descending, rank at ``rank_tol``.

    ``h`` is not checked: every matrix the package builds is exactly Hermitian.
    ``vectors=False`` makes one cheaper ``eigvalsh`` solve, for every rank,
    entropy, bound and PPT witness. Raises BadParameterError unless
    ``rank_tol`` lies in (0, 1), NonConvergenceError when the solver fails.
    """
    evals, evecs = _solve(np.linalg.eigh, h) if vectors else (_solve(np.linalg.eigvalsh, h), None)
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1].copy() if vectors else None
    return HermitianSpectrum(evals, evecs, int(_retained(evals, rank_tol)))


def gram_ranks(k: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Numerical ranks of K K^dagger for each matrix K of a stack of shape (n, p, q).

    Each rank is read off the smaller Gram matrix, K K^dagger (p x p) or
    K^dagger K (q x q), which share their nonzero eigenvalues; the whole
    stack is one ``eigvalsh`` solve. The cutoff is ``hermitian_eig``'s:
    eigenvalues strictly above ``rank_tol * lambda_max``, and rank 0 when
    lambda_max <= 0.
    """
    kh = np.conj(np.swapaxes(k, 1, 2))
    return _retained(_solve(np.linalg.eigvalsh, k @ kh if k.shape[1] <= k.shape[2] else kh @ k),
                     rank_tol)


def ratio_bound(factor: np.ndarray) -> float:
    """An upper bound on lambda_min / lambda_max for every trial at once; inf if none is found.

    ``factor`` F has shape (d_A, d_B, r). A trial v != 0 on A conditions it
    to K = sum_a conj(v_a) F[a] (d_B x r), formed for a batch of trials as
    ``(conj(v) @ F.reshape(d_A, -1)).reshape(n, d_B, r)``. Its smaller Gram
    matrix G, K^dagger K when d_B > r and K K^dagger otherwise, has size
    m = min(d_B, r); let p = max(d_B, r). The eigenvalues bounded are those
    ``gram_ranks`` gets from ``eigvalsh`` of G for every v, whatever the
    batch. So when the bound is <= rank_tol, ``gram_ranks`` gives every
    trial rank < m: no vector on A reaches rank m. It costs one ``svd`` and
    one stacked ``eigvalsh`` of d_A x d_A matrices, holds barring underflow,
    and raises NonConvergenceError when either solver fails.

    Kernel polynomials. Let W[a] = F[a] and y = conj(v) when d_B > r, and
    W[a] = F[a]^dagger and y = v otherwise, so that K or K^dagger is
    M(y) = sum_b y_b W[b] (p x m) and G = M^dagger M. A linear polynomial
    u(y) = sum_b y_b U[b] in C^m has M(y) u(y) = sum_{a<=b} y_a y_b S_ab,
    where S_aa = W[a] U[a] and S_ab = W[a] U[b] + W[b] U[a]. Let A be the map
    U -> S, a (p d_A (d_A + 1) / 2) x (d_A m) matrix whose entries are those
    of W. Take any vectors U_j as the columns of N. Read each U_j as the
    m x d_A matrix [U_j[0] .. U_j[d_A - 1]], so u_j(y) = U_j y, and let
    P = sum_j U_j^dagger U_j and T_ab = tr(W[a]^dagger W[b]) (both d_A x d_A).
    For y != 0 and Z = [u_1(y) .. u_k(y)],

        lambda_min(G) ||Z||_F^2 <= tr(Z^dagger G Z) = sum_j ||M(y) u_j(y)||^2
            <= (sum_{a<=b} |y_a y_b|^2) ||A N||_F^2 <= ||y||^4 ||A N||_F^2

    by Cauchy-Schwarz, while ||Z||_F^2 = y^dagger P y >= lambda_min(P) ||y||^2
    and tr G = y^dagger T y >= lambda_min(T) ||y||^2. So lambda_min(G) / tr G
    <= beta = ||A N||_F^2 / (lambda_min(P) lambda_min(T)), whatever y is.
    The N used are the k right singular vectors of A of least singular
    value, for each k; beta is the least of their bounds. When M(y) has a
    linear kernel polynomial, A has a null space and that beta is tiny.

    Rounding. Let u = eps / 2 and gamma_k = k u / (1 - k u). A complex inner
    product of length k errs by at most gamma_(k+2) |x|^dagger |y| in any
    summation order (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.5 and 3.6); use || |X|^dagger |Y| ||_2 <=
    ||X||_F ||Y||_F. ``eigvalsh`` of an n x n Hermitian H returns each
    eigenvalue within f(n) eps ||H||_2 of an exact one, f(n) a modestly
    growing function of n (LAPACK Users' Guide, 3rd ed., section 4.7). The
    bound takes f(n) = 64 n^2 and ||H||_2 <= tr H, as for the positive
    semidefinite matrices here: for the m x m Gram matrices, within mu0
    times the trace, mu0 = 64 m^2 eps. W is scaled by an exact power of two,
    which changes no rounding and keeps T clear of overflow; the scale
    cancels in every ratio below.

    Rounding in beta. Take A (copied from W) and N as exact. Let delta =
    (size(A) + 8) eps, at least twice every gamma_k below, and
    c = 64 d_A^2 eps + 3 delta.
    * ||A N||_F <= (||fl(A N)||_F + delta ||A||_F ||N||_F)(1 + 3 delta): an
      inner product of length d_A m errs by gamma_(d_A m + 2) |a|^T |n|.
    * The P and T that the one ``eigvalsh`` reads are within delta ||N||_F^2
      and delta tau, tau = sum_a ||W[a]||_F^2, of the exact ones in the
      2-norm. P sums m k products, m k <= size(A). T_ab is the trace over j
      of the (a, j), (b, j) entry of one GEMM of W's columns: the GEMM errs by
      gamma_(p+2) |W[a]|^dagger |W[b]| and the trace by gamma_m more. That
      ``eigvalsh`` (n = d_A) adds at most 64 d_A^2 eps times the trace. So
      lambda_min(P) >= lambda^_P - c ||N||_F^2 and lambda_min(T) >=
      lambda^_T - c tau.

    From beta to ``eigvalsh``. Let s = sum_a |v_a| ||F[a]||_F, so that
    ||K||_F <= s, and write K^ and G^ for the matrices ``gram_ranks`` forms.
    Each entry of K^ is an inner product of length d_A, so ||K^ - K||_F <=
    gamma_(d_A+2) s, and forming G^ from K^ adds at most gamma_(p+2)
    ||K^||_F^2. So ||G^ - G||_2 and |tr G^ - tr G| are at most e1 s^2, e1 ~
    2 gamma_(d_A+2) + gamma_(p+2), and with kappa = 8 (d_A^2 + 2 d_A + 3 p +
    12), kappa u >= 6 e1. Also s^2 <= ||v||^2 tau (Cauchy-Schwarz) and
    tr G >= lambda_min(T) ||v||^2, so every trial has s^2 / tr G <= Q =
    tau / lambda_min(T). So with nu = kappa u Q, lambda_min(G^) <= (beta + nu)
    tr G and tr G^ >= (1 - nu) tr G. By mu0, ``eigvalsh`` returns
    lambda^_min <= lambda_min(G^) + mu0 tr G^ and lambda^_max >= (1/m - mu0)
    tr G^. Hence

        lambda^_min / lambda^_max <= ((beta + nu) / (1 - nu) + mu0) / (1/m - mu0),

    the value returned, rounded up by (1 + delta). The result is inf unless
    the lower bounds on lambda_min(T) and on some k's lambda_min(P) are
    positive, nu < 1/2 and mu0 < 1/(2m).
    """
    d_a, d_b, r = factor.shape
    m, p = min(d_b, r), max(d_b, r)
    eps = np.finfo(float).eps
    w = factor if d_b > r else np.conj(np.swapaxes(factor, 1, 2))  # (d_A, p, m)
    w = w * 2.0 ** -np.frexp(np.max(np.abs(w), initial=0.0))[1]
    x = np.swapaxes(w, 0, 1).reshape(p, d_a * m)  # columns (a, j)
    traces = np.einsum("ajbj->ab", (x.conj().T @ x).reshape(d_a, m, d_a, m))
    norms = np.linalg.norm(w.reshape(d_a, -1), axis=1)
    mu0 = 64 * m * m * eps
    kappa_u = 4 * (d_a * d_a + 2 * d_a + 3 * p + 12) * eps  # 8 (...) u, u = eps / 2
    first, second = np.triu_indices(d_a)
    pairs = len(first)
    # Block (ab, c) of A: W[a] if c = b, plus W[b] if c = a != b.
    blocks = np.zeros((pairs, d_a, p, m), dtype=w.dtype)
    blocks[np.arange(pairs), second] = w[first]
    off = np.flatnonzero(first != second)
    blocks[off, first[off]] = w[second[off]]
    a_map = blocks.transpose(0, 2, 1, 3).reshape(pairs * p, d_a * m)
    vh = _solve(np.linalg.svd, a_map, full_matrices=False, what="singular value solver")[2]
    # Columns U_j, rows (b, i): the right singular vectors, smallest singular value first.
    vecs = vh[::-1].conj().T
    slices = vecs.reshape(d_a, m, -1)
    # P of the first k vectors, for every k, and T: one stacked eigvalsh.
    stack = np.cumsum(np.einsum("bij,cij->jbc", slices.conj(), slices), axis=0)
    lams = _solve(np.linalg.eigvalsh, np.concatenate([stack, traces[None]]))
    delta = (a_map.size + 8) * eps
    c = 64 * d_a * d_a * eps + 3 * delta
    tau = norms @ norms
    lam_t = lams[-1, 0] - c * tau
    if lam_t <= 0:
        return np.inf
    nu = kappa_u * tau / lam_t * (1 + delta)
    n_sq = np.cumsum(np.sum(np.abs(vecs) ** 2, axis=0))  # ||N||_F^2 of the first k
    lam_p = lams[:-1, 0] - c * n_sq
    kept = lam_p > 0
    if nu >= 0.5 or mu0 * m >= 0.5 or not kept.any():
        return np.inf
    resid = np.sqrt(np.cumsum(np.sum(np.abs(a_map @ vecs) ** 2, axis=0)))
    resid = (resid + delta * np.linalg.norm(a_map) * np.sqrt(n_sq)) * (1 + 3 * delta)
    beta = np.min(resid[kept] ** 2 / lam_p[kept]) / lam_t * (1 + delta)
    return ((beta + nu) / (1 - nu) + mu0) / (1 / m - mu0) * (1 + delta)
