"""Dense Hermitian-matrix primitives with one shared tolerance policy.

Every rank, support projector and minimum positive eigenvalue in this package
is derived from the same relative cutoff: an eigenvalue counts as zero when it
is <= rank_tol * (largest eigenvalue). Tying rank and minimum-positive-
eigenvalue extraction to a single cutoff keeps r and lambda_min consistent
with each other. Matrices are plain complex ndarrays; dimensions here stay
small (<= ~64), so everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InputError, NonConvergenceError, NoPositiveEigenvalueError, NotHermitianError

#: Relative eigenvalue cutoff below which spectra are treated as zero.
DEFAULT_RANK_TOL = 1e-10

#: Max-norm tolerance for ``m == m.conj().T`` checks, in states and eigensolves alike.
HERMITICITY_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting NaN/Inf entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NotHermitianError("matrix contains non-finite entries")
    return arr


def validated_tolerance(value, field: str, error: type[InputError]) -> float:
    """``value`` as a tolerance: a real number strictly inside (0, 1), not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < 1.0:
        raise error(f"{field} must lie in (0, 1), got {value!r}")
    return value


def _retained(lams: np.ndarray, rank_tol: float) -> np.ndarray:
    """Eigenvalues above ``rank_tol * lambda_max``, counted per last axis; 0 if lambda_max <= 0."""
    lam_max = np.max(lams, axis=-1, keepdims=True, initial=0.0)
    return np.sum(lams > rank_tol * lam_max, axis=-1)


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition with eigenvalues sorted in descending order.

    ``eigenvectors[:, k]`` is the unit eigenvector paired with
    ``eigenvalues[k]``, or ``eigenvectors`` is None when only eigenvalues
    were computed. Ties keep the (reversed) eigensolver order, which is
    deterministic for identical input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def retained_count(self, rank_tol: float = DEFAULT_RANK_TOL) -> int:
        """Number of eigenvalues strictly above ``rank_tol * max(eigenvalues)``."""
        return int(_retained(self.eigenvalues, rank_tol))

    def min_positive(self, rank_tol: float = DEFAULT_RANK_TOL) -> float:
        """Smallest eigenvalue above the rank cutoff."""
        k = self.retained_count(rank_tol)
        if k == 0:
            raise NoPositiveEigenvalueError("spectrum has no eigenvalue above the rank cutoff")
        return float(self.eigenvalues[k - 1])

    def entropy(self, rank_tol: float = DEFAULT_RANK_TOL) -> float:
        """-sum lam log2 lam in bits over the eigenvalues above the rank cutoff."""
        k = self.retained_count(rank_tol)
        lams = self.eigenvalues[:k]
        return float(-np.sum(lams * np.log2(lams))) if k else 0.0

    def support_projector(self, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
        k = self.retained_count(rank_tol)
        v = self.eigenvectors[:, :k]
        return v @ v.conj().T

    def pinv_sqrt(self, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """Inverse square root on the support, zero on the kernel."""
        k = self.retained_count(rank_tol)
        v = self.eigenvectors[:, :k]
        inv_sqrt = 1.0 / np.sqrt(self.eigenvalues[:k])
        return (v * inv_sqrt) @ v.conj().T


def hermitian_eig(m, *, vectors: bool = True) -> HermitianSpectrum:
    """Eigendecompose a Hermitian matrix, eigenvalues descending.

    With ``vectors=False`` only the eigenvalues are computed (one cheaper
    ``eigvalsh`` solve); that serves every rank, entropy, bound and PPT
    witness, which never read the eigenvectors.

    Raises NotHermitianError when ``max|m - m^dagger|`` exceeds
    ``HERMITICITY_TOL`` and NonConvergenceError when the underlying solver
    fails. The matrix is symmetrized before the solve so that sub-tolerance
    asymmetry cannot leak into the output.
    """
    arr = as_complex_matrix(m)
    if arr.size and np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
        raise NotHermitianError(
            f"matrix deviates from Hermitian symmetry by more than {HERMITICITY_TOL:g}"
        )
    sym = (arr + arr.conj().T) / 2.0
    try:
        if not vectors:
            return HermitianSpectrum(np.linalg.eigvalsh(sym)[::-1].copy(), None)
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return HermitianSpectrum(evals[::-1].copy(), evecs[:, ::-1].copy())


def gram_ranks(k: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Numerical ranks of K K^dagger for each matrix K of a stack of shape (n, p, q).

    Each rank is read off the smaller Gram matrix, K K^dagger (p x p) or
    K^dagger K (q x q), which share their nonzero eigenvalues; the whole
    stack is one ``eigvalsh`` solve. The cutoff is ``retained_count``'s:
    eigenvalues strictly above ``rank_tol * lambda_max``, and rank 0 when
    lambda_max <= 0.
    """
    kh = np.conj(np.swapaxes(k, 1, 2))
    gram = k @ kh if k.shape[1] <= k.shape[2] else kh @ k
    try:
        lams = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return _retained(lams, rank_tol)
