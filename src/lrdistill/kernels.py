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
    try:
        evals, evecs = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc
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
    return _stack_ranks(_gram(k), rank_tol)


def _gram(k: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of each K of a stack: K K^dagger or K^dagger K."""
    kh = np.conj(np.swapaxes(k, 1, 2))
    return k @ kh if k.shape[1] <= k.shape[2] else kh @ k


def _stack_ranks(gram: np.ndarray, rank_tol: float) -> np.ndarray:
    """Ranks of a stack of Hermitian matrices at ``rank_tol``: one ``eigvalsh`` solve."""
    try:
        lams = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return _retained(lams, rank_tol)


class ConditionedGrams:
    """The Gram matrices of an amplitude factor conditioned on trial vectors of A.

    ``factor`` F has shape (d_A, d_B, r). A trial phi conditions it to
    K = sum_a conj(phi_a) F[a] (d_B x r), whose smaller Gram matrix G is
    K^dagger K when d_B > r and K K^dagger otherwise, of size m = min(d_B, r).
    The products T_ab = W[a]^dagger W[b], with W[a] = F[a] or F[a]^dagger, are
    formed once, so a batch of trials needs one GEMM: G = sum_ab c_ab T_ab
    with c_ab = x_a conj(x_b), x = phi or conj(phi). ``ratio_bound`` proves,
    once for all trials, when none of them can reach rank m.
    """

    def __init__(self, factor: np.ndarray):
        d_a, d_b, r = factor.shape
        self.shape, self.m, p = factor.shape, min(d_b, r), max(d_b, r)
        self._flat = factor.reshape(d_a, -1)
        self._tall = d_b > r
        w = factor if self._tall else np.conj(np.swapaxes(factor, 1, 2))  # (d_A, p, m)
        # An exact power-of-two scale, which leaves H unchanged, keeps T clear of overflow.
        w = w * 2.0 ** -np.frexp(np.max(np.abs(w), initial=0.0))[1]
        x = np.swapaxes(w, 0, 1).reshape(p, d_a * self.m)  # columns (a, j)
        t = (x.conj().T @ x).reshape(d_a, self.m, d_a, self.m)
        self._w = w
        self._products = t.transpose(1, 3, 0, 2).reshape(self.m * self.m, d_a * d_a)
        self._traces = np.einsum("ajbj->ab", t).reshape(-1)
        self._norms = np.linalg.norm(w.reshape(d_a, -1), axis=1)
        eps = np.finfo(float).eps
        self._mu0 = 64 * self.m * self.m * eps
        self._kappa_u = 4 * (d_a * d_a + 2 * d_a + 3 * p + 12) * eps  # 8 (...) u, u = eps / 2

    def conditioned(self, v: np.ndarray) -> np.ndarray:
        """K = sum_a conj(v_a) F[a] for each row v_a of ``v`` (n, d_A): shape (n, d_B, r)."""
        return (v.conj() @ self._flat).reshape(len(v), *self.shape[1:])

    def rank_equals(self, v: np.ndarray, target: int,
                    rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """``gram_ranks(self.conditioned(v), rank_tol) == target``, screening before eigensolving.

        With target = m the question is whether lambda_min > rank_tol *
        lambda_max. An LDL^dagger elimination of each trial's H = G / tr G,
        formed from the products T_ab, run on the whole batch at once and
        reading H's lower triangle as ``eigvalsh`` does, settles it for almost
        every trial. The rest, and every trial with tr G <= tiny or with a
        floor f <= 0, go to one ``eigvalsh`` of ``_gram(K)``, K formed as
        ``conditioned`` forms it: the matrices ``gram_ranks`` solves.

        The margin. With u = eps / 2, mu0 = 64 m^2 eps and p = max(d_B, r),
        trial phi gets mu = mu0 + nu, nu = kappa u s^2 / tr G, where
        s = sum_a |phi_a| ||F[a]||_F and kappa = 8 (d_A^2 + 2 d_A + 3 p + 12);
        its floor is f = rank_tol / m - (2 + rank_tol) mu. Let G^ = ``_gram(K^)``
        be the matrix ``eigvalsh`` would see, A = G^ / tr G^, and H^ the
        screen's matrix. ``eigvalsh``'s eigenvalues are those of G^ + E' with
        ||E'|| <= mu0 tr G^, and the elimination's pivots the exact pivots of
        H^ + E with ||E|| <= mu0 (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., Thm 10.3 and section 10.3; mu0 is over ten times
        the elimination's bound at unit trace, so it holds while tr H^ <= 3/2).
        Below, ||H^ - A|| <= nu, so the pivots are exact pivots of A + E''
        with ||E''|| <= mu. Then

        * rank < m when some pivot d_j lies in [-1, f]: the principal block
          of A + E'' that ends in d_j has lambda_min <= max(d_j, 0) (its Schur
          complement), so by interlacing the computed lambda_min is at most
          (f + 2 mu) tr G^, while the computed lambda_max >= (1/m - mu) tr G^.
          A pivot below -1 can only come from rounding after a tiny pivot,
          where the bound on E fails, so it decides nothing;
        * rank = m when every d_j > f and prod d_j > (1 + mu)^(m-1) (rank_tol
          (1 + mu) + 2 mu): lambda_min(A + E'') >= det / lambda_max^(m-1) with
          lambda_max(A + E'') <= 1 + mu, so the computed lambda_min exceeds
          rank_tol times the computed lambda_max.

        Why ||H^ - A||_2 <= nu. Let K be exact, G its Gram matrix and t = tr G
        = ||K||_F^2 <= s^2. Write gamma_k = k u / (1 - k u); a complex inner
        product of length k errs by at most gamma_(k+2) |x|^dagger |y|
        (Higham, sections 3.5 and 3.6) in any summation order. Use
        || |X|^dagger |Y| ||_2 <= ||X||_F ||Y||_F and
        sum_ab |phi_a| |phi_b| ||F[a]||_F ||F[b]||_F = s^2.

        1. The eigensolved matrix: ||K^ - K||_F <= gamma_(d_A+2) s, and ``_gram``
           adds at most gamma_(p+2) ||K^||_F^2. So ||G^ - G||_2 and
           |tr G^ - t| are at most e1 s^2, e1 ~ 2 gamma_(d_A+2) + gamma_(p+2).
        2. The trace: forming T^_ab errs by gamma_(p+2) |W[a]|^dagger |W[b]|,
           its trace by gamma_m more, the coefficients c_ab = x_a conj(x_b)
           by sqrt(2) gamma_2 relative, and the d_A^2-term sum by
           gamma_(d_A^2+2): |t^ - t| <= e2 s^2,
           e2 ~ gamma_(p+2) + gamma_m + gamma_4 + gamma_(d_A^2+2).
        3. The matrix: scaling c by fl(1 / t^) adds two roundings, and the
           GEMM's d_A^2-term sum gamma_(d_A^2+2). So H^ = (G + D) / t^ with
           ||D||_2 <= e3 s^2, e3 ~ gamma_(p+2) + gamma_6 + gamma_(d_A^2+2).
        4. Let q = s^2 / t^. If (e1 + e2) q <= 1/4, then t <= 5 t^ / 4 and
           tr G^ >= 3 t^ / 4, and ||H^ - A||_2 <= ||G|| |1/t^ - 1/tr G^|
           + ||D|| / t^ + e1 s^2 / tr G^ <= (3 e1 + 5 e2 / 3 + e3) q.
           That is below 1.01 (3 d_A^2 + 6 d_A + 8 p + 42) u q, and kappa is
           at least twice the sum, which covers complex GEMM variants and the
           rounding of s, mu and f. The premise holds whenever f > 0:
           then nu < mu < 1 / (2 m) and (e1 + e2) q <= nu / 4. Also
           tr H^ <= 1 + m nu <= 3/2.

        So the mask is exactly the one eigensolving every trial's G^ would
        give, barring underflow (F is scaled by a power of two, which changes
        no rounding, so that T cannot overflow). The elimination stops at a
        pivot that decides rank < m for every trial. When target != m, the
        method is ``gram_ranks(self.conditioned(v), rank_tol) == target``.
        """
        validated_tolerance(rank_tol, "rank_tol")
        n, m = len(v), self.m
        if target != m or n * m == 0:
            return gram_ranks(self.conditioned(v), rank_tol) == target
        x = v if self._tall else v.conj()
        coef = (x[:, :, None] * x.conj()[:, None, :]).reshape(n, -1)
        trace = (coef @ self._traces).real
        screened = trace > np.finfo(float).tiny
        trace = np.where(screened, trace, 1.0)
        mu = self._mu0 + self._kappa_u * (np.abs(v) @ self._norms) ** 2 / trace
        floor = rank_tol / m - (2 + rank_tol) * mu
        screened &= floor > 0
        floor = np.where(screened, floor, 1.0)
        coef *= np.where(screened, 1.0 / trace, 0.0)[:, None]
        # (m, m, n): the batch is numpy's inner loop in every elimination step.
        a = (self._products @ coef.T).reshape(m, m, n)
        for j in range(m):
            d = a[j, j].real
            if np.all((d <= floor) & (d >= -1.0)) and screened.all():
                return np.zeros(n, dtype=bool)  # this pivot decides rank < m for every trial
            col = a[j + 1:, j]
            a[j + 1:, j + 1:] -= (col / np.where(d > floor, d, np.inf))[:, None] * col.conj()
        pivots = np.diagonal(a).real
        lower = np.any((pivots >= -1.0) & (pivots <= floor[:, None]), axis=1)
        full = np.all(pivots > floor[:, None], axis=1) & (
            np.prod(pivots, axis=1) > (1 + mu) ** (m - 1) * (rank_tol * (1 + mu) + 2 * mu))
        undecided = np.flatnonzero(~(lower | full) | ~screened)
        if undecided.size:
            k = self.conditioned(v[undecided])
            full[undecided] = _stack_ranks(_gram(k), rank_tol) == target
        return full

    def ratio_bound(self) -> float:
        """An upper bound on lambda_min / lambda_max for every trial at once; inf if none is found.

        The eigenvalues are those ``eigvalsh`` returns for ``_gram(self.conditioned(v))``,
        whatever the batch or row subset v, for every v != 0. So when the bound
        is <= rank_tol, ``gram_ranks`` gives every trial rank < m: no trial
        vector reaches rank m. It costs one ``svd`` and one stacked ``eigvalsh``
        of d_A x d_A matrices, and holds barring underflow, as ``rank_equals`` does.

        Kernel polynomials. Let y = conj(v) when d_B > r and y = v otherwise,
        so that the trial's K or K^dagger is M(y) = sum_b y_b W[b] (p x m) and
        G = M^dagger M. A linear polynomial u(y) = sum_b y_b U[b] in C^m has
        M(y) u(y) = sum_{a<=b} y_a y_b S_ab, where S_aa = W[a] U[a] and S_ab =
        W[a] U[b] + W[b] U[a]. Let A be the map U -> S, a (p d_A (d_A + 1) / 2)
        x (d_A m) matrix whose entries are those of W. Take any vectors U_j as
        the columns of N. Read each U_j as the m x d_A matrix
        [U_j[0] .. U_j[d_A - 1]], so u_j(y) = U_j y, and let P = sum_j
        U_j^dagger U_j and T_ab = tr(W[a]^dagger W[b]) (both d_A x d_A). For
        y != 0 and Z = [u_1(y) .. u_k(y)],

            lambda_min(G) ||Z||_F^2 <= tr(Z^dagger G Z) = sum_j ||M(y) u_j(y)||^2
                <= (sum_{a<=b} |y_a y_b|^2) ||A N||_F^2 <= ||y||^4 ||A N||_F^2

        by Cauchy-Schwarz, while ||Z||_F^2 = y^dagger P y >= lambda_min(P) ||y||^2
        and tr G = y^dagger T y >= lambda_min(T) ||y||^2. So lambda_min(G) / tr G
        <= beta = ||A N||_F^2 / (lambda_min(P) lambda_min(T)), whatever y is.
        The N used are the k right singular vectors of A of least singular
        value, for each k; beta is the least of their bounds. When M(y) has a
        linear kernel polynomial, A has a null space and that beta is tiny.

        Rounding in beta. Take A (copied from W) and N as exact. Let delta =
        (size(A) + 8) eps, at least twice every gamma_k below, and
        c = 64 d_A^2 eps + 3 delta.
        * ||A N||_F <= (||fl(A N)||_F + delta ||A||_F ||N||_F)(1 + 3 delta): an
          inner product of length d_A m errs by gamma_(d_A m + 2) |a|^T |n|.
        * The P and T that the one ``eigvalsh`` reads are within delta ||N||_F^2
          and delta tau, tau = sum_a ||W[a]||_F^2, of the exact ones in the
          2-norm. (P sums m k products, m k <= size(A). For the T of
          ``__init__``, see ``rank_equals``'s step 2: gamma_(p+2) + gamma_m.) Its
          eigenvalues are exact for a matrix within 64 d_A^2 eps times the
          trace, the mu0 of ``rank_equals``. So lambda_min(P) >=
          lambda^_P - c ||N||_F^2 and lambda_min(T) >= lambda^_T - c tau.

        From beta to ``eigvalsh``. Write G^ for the Gram matrix ``eigvalsh``
        sees. Step 1 of ``rank_equals`` bounds ||G^ - G||_2 and |tr G^ - tr G|
        by e1 s^2, with kappa u >= 6 e1. There s = sum_a |v_a| ||F[a]||_F, and
        s^2 <= ||v||^2 tau (Cauchy-Schwarz). Together with tr G >=
        lambda_min(T) ||v||^2, every trial has s^2 / tr G <= Q = tau /
        lambda_min(T). So with nu = kappa u Q, lambda_min(G^) <= (beta + nu)
        tr G and tr G^ >= (1 - nu) tr G. With mu0, ``eigvalsh`` returns
        lambda^_min <= lambda_min(G^) + mu0 tr G^ and lambda^_max >= (1/m - mu0)
        tr G^. Hence

            lambda^_min / lambda^_max <= ((beta + nu) / (1 - nu) + mu0) / (1/m - mu0),

        the value returned, rounded up by (1 + delta). The result is inf unless
        the lower bounds on lambda_min(T) and on some k's lambda_min(P) are
        positive, nu < 1/2 and mu0 < 1/(2m).
        W's power-of-two scale cancels in every ratio.
        """
        w = self._w
        d_a, p, m = w.shape
        eps = np.finfo(float).eps
        first, second = np.triu_indices(d_a)
        pairs = len(first)
        # Block (ab, c) of A: W[a] if c = b, plus W[b] if c = a != b.
        blocks = np.zeros((pairs, d_a, p, m), dtype=w.dtype)
        blocks[np.arange(pairs), second] = w[first]
        off = np.flatnonzero(first != second)
        blocks[off, first[off]] = w[second[off]]
        a_map = blocks.transpose(0, 2, 1, 3).reshape(pairs * p, d_a * m)
        try:
            vh = np.linalg.svd(a_map, full_matrices=False)[2]
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"singular value solver did not converge: {exc}") from exc
        # Columns U_j, rows (b, i): the right singular vectors, smallest singular value first.
        vecs = vh[::-1].conj().T
        slices = vecs.reshape(d_a, m, -1)
        # P of the first k vectors, for every k, and T: one stacked eigvalsh.
        stack = np.cumsum(np.einsum("bij,cij->jbc", slices.conj(), slices), axis=0)
        try:
            lams = np.linalg.eigvalsh(np.concatenate([stack, self._traces.reshape(1, d_a, d_a)]))
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc
        delta = (a_map.size + 8) * eps
        c = 64 * d_a * d_a * eps + 3 * delta
        tau = self._norms @ self._norms
        lam_t = lams[-1, 0] - c * tau
        if lam_t <= 0:
            return np.inf
        nu = self._kappa_u * tau / lam_t * (1 + delta)
        n_sq = np.cumsum(np.sum(np.abs(vecs) ** 2, axis=0))  # ||N||_F^2 of the first k
        lam_p = lams[:-1, 0] - c * n_sq
        kept = lam_p > 0
        if nu >= 0.5 or self._mu0 * m >= 0.5 or not kept.any():
            return np.inf
        resid = np.sqrt(np.cumsum(np.sum(np.abs(a_map @ vecs) ** 2, axis=0)))
        resid = (resid + delta * np.linalg.norm(a_map) * np.sqrt(n_sq)) * (1 + 3 * delta)
        beta = np.min(resid[kept] ** 2 / lam_p[kept]) / lam_t * (1 + delta)
        return ((beta + nu) / (1 - nu) + self._mu0) / (1 / m - self._mu0) * (1 + delta)
