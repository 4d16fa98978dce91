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


def gram_rank_equals(k: np.ndarray, target: int, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """``gram_ranks(k, rank_tol) == target``, eigensolving only what a pivot screen leaves open.

    With m the size of the smaller Gram matrix G and target = m, the question
    is whether lambda_min > rank_tol * lambda_max. An LDL^dagger elimination of
    G / tr G, run on the whole stack at once and reading G's lower triangle as
    ``eigvalsh`` does, settles it for almost every K. Its pivots d_j are the
    exact pivots of G + E, and ``eigvalsh``'s eigenvalues those of G + E', with
    ||E||, ||E'|| <= mu tr G, mu = 64 m^2 eps (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm 10.3 and section 10.3). A pivot
    at or below the floor f = rank_tol / m - (2 + rank_tol) mu skips its step,
    which continues the elimination on a principal submatrix of G. Then

    * rank < m when some d_j lies in [-1, f]: the principal block that ends
      in d_j has lambda_min <= max(d_j, 0) (its Schur complement), so by
      interlacing the computed lambda_min is at most (f + 2 mu) tr G, while
      the computed lambda_max >= (1/m - mu) tr G. A pivot below -1 can only
      come from rounding after a tiny pivot, where the bound on E fails, so
      it decides nothing;
    * rank = m when every d_j > f and prod d_j > (1 + mu)^(m-1) (rank_tol
      (1 + mu) + 2 mu): lambda_min(G + E) >= det / lambda_max^(m-1) with
      lambda_max(G + E) <= (1 + mu) tr G, so the computed lambda_min exceeds
      rank_tol times the computed lambda_max.

    The margins cover both solvers' rounding, so the mask is exactly the
    one eigensolving every K would give. The elimination stops at a pivot
    that decides rank < m for every K. The K left open (and every K with
    tr G = 0) go to one ``eigvalsh`` of their Gram matrices. When target != m,
    or when f <= 0 (a tolerance too small for the screen to prove anything),
    the function is ``gram_ranks(k, rank_tol) == target``.
    """
    validated_tolerance(rank_tol, "rank_tol")
    n, m = len(k), min(k.shape[1:])
    mu = 64 * m * m * np.finfo(float).eps
    if target != m or n * m == 0 or rank_tol / m <= (2 + rank_tol) * mu:
        return gram_ranks(k, rank_tol) == target
    floor = rank_tol / m - (2 + rank_tol) * mu
    gram = _gram(k)
    trace = np.einsum("nii->n", gram).real
    screened = trace > np.finfo(float).tiny
    # (m, m, n): the stack is numpy's inner loop in every elimination step.
    scale = 1.0 / np.where(screened, trace, np.inf)
    a = (gram * scale[:, None, None]).transpose(1, 2, 0).copy()
    for j in range(m):
        d = a[j, j].real
        if d.max() <= floor and d.min() >= -1.0 and screened.all():
            return np.zeros(n, dtype=bool)  # this pivot decides rank < m for every K
        col = a[j + 1:, j]
        a[j + 1:, j + 1:] -= (col / np.where(d > floor, d, np.inf))[:, None] * col.conj()
    pivots = np.diagonal(a).real
    lower = np.any((pivots >= -1.0) & (pivots <= floor), axis=1)
    full = np.all(pivots > floor, axis=1) & (
        np.prod(pivots, axis=1) > (1 + mu) ** (m - 1) * (rank_tol * (1 + mu) + 2 * mu))
    undecided = np.flatnonzero(~(lower | full) | ~screened)
    if undecided.size:
        full[undecided] = _stack_ranks(gram[undecided], rank_tol) == target
    return full
