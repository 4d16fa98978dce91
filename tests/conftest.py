"""Shared helpers: independent oracles, random-state generators, the in-process CLI
runner, and the one spy on the ``numpy.linalg`` solvers.

The oracle implementations here deliberately avoid the library's code paths
(explicit index loops instead of einsum, isometry construction instead of
Choi plumbing) so that test expectations stay independent of what they check.
"""

from collections import Counter

import numpy as np
import pytest

from lrdistill import (DensityMatrix, complement, flagged_depolarizing_channel, local_filter,
                       partial_trace, partial_transpose)
from lrdistill.cli import main
from lrdistill.kernels import DEFAULT_RANK_TOL

#: The ``numpy.linalg`` solvers that only ``lrdistill.kernels`` may call.
SOLVERS = ("eigh", "eigvalsh", "eig", "svd")


def loop_partial_trace(mat, dims, keep):
    """Partial trace by explicit index summation."""
    n = len(dims)
    keep = sorted(keep)
    t = np.asarray(mat, dtype=complex).reshape(*dims, *dims)
    kd = [dims[i] for i in keep]
    d_keep = int(np.prod(kd))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in range(n) if i not in keep):
                continue
            r = 0
            c = 0
            for i in keep:
                r = r * dims[i] + row[i]
                c = c * dims[i] + col[i]
            out[r, c] += t[row + col]
    return out


def loop_partial_transpose(mat, dims, subsystem):
    """Partial transpose by explicit index bookkeeping (bipartite only)."""
    d0, d1 = dims
    out = np.zeros_like(np.asarray(mat, dtype=complex))
    for a in range(d0):
        for b in range(d1):
            for c in range(d0):
                for d in range(d1):
                    if subsystem == 0:
                        out[a * d1 + b, c * d1 + d] = mat[c * d1 + b, a * d1 + d]
                    else:
                        out[a * d1 + b, c * d1 + d] = mat[a * d1 + d, c * d1 + b]
    return out


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


def numerical_rank(m, rank_tol=1e-10):
    """Count of eigenvalues of the Hermitian part above rank_tol * lambda_max.

    0 when lambda_max <= 0: the library's documented rank cutoff, in plain numpy.
    """
    m = np.asarray(m, dtype=complex)
    lams = np.linalg.eigvalsh((m + m.conj().T) / 2)
    lam_max = lams[-1] if lams.size else 0.0
    return int(np.sum(lams > rank_tol * lam_max)) if lam_max > 0 else 0


def gaussian(rng, *shape):
    """Complex Gaussian array of the given shape."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gaussian_unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_psd(rng, d, r):
    """Unit-trace d x d Gram matrix of a complex Gaussian d x r matrix: rank r almost surely."""
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return m / m.trace()


def antisymmetric_choi():
    """(1 - SWAP) / 6 on C^3 (x) C^3, built entrywise, independent of the channels module."""
    d = 3
    swap = np.zeros((9, 9), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return (np.eye(9) - swap) / 6.0


def random_density(d_a, d_b, d_e, seed):
    """Random induced-measure state built directly with numpy."""
    rng = np.random.default_rng(seed)
    v = gaussian_unit_vector(rng, d_a * d_b * d_e)
    full = np.outer(v, v.conj())
    mat = loop_partial_trace(full, (d_a, d_b, d_e), (0, 1))
    return DensityMatrix((d_a, d_b), mat)


def random_separable(rng, d_a, d_b, r):
    """sum_i p_i |a_i b_i><a_i b_i| with r Gaussian product terms, no weight negligible."""
    weights = 1.0 + rng.random(r)
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for p in weights / weights.sum():
        v = np.kron(gaussian_unit_vector(rng, d_a), gaussian_unit_vector(rng, d_b))
        mat += p * np.outer(v, v.conj())
    return DensityMatrix((d_a, d_b), mat)


def random_isometry(rng, d_in, d_out):
    """Isometry from a QR decomposition of a Gaussian matrix (d_out >= d_in)."""
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, r = np.linalg.qr(g)
    # fix the QR phase ambiguity for determinism
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_choi(d_in, d_out, d_env, seed):
    """Choi state of a random channel, built from a Stinespring isometry."""
    rng = np.random.default_rng(seed)
    v = random_isometry(rng, d_in, d_out * d_env)
    # |psi> = (1/sqrt(d_in)) sum_i |i> (x) V|i>, then trace out the environment
    psi = (v.T / np.sqrt(d_in)).reshape(-1)
    full = np.outer(psi, psi.conj())
    mat = loop_partial_trace(full, (d_in, d_out, d_env), (0, 1))
    return DensityMatrix((d_in, d_out), mat)


def flagged_complement_factor(d, q):
    """Amplitude factor (d, d^2 + 1, 2d) of the complement of the flagged-depolarizing channel.

    The channel's Choi state on A (x) output is purified in plain numpy; its
    purifying register E (rank d^2 + 1) carries the complement's output, and
    the 2d-dimensional channel output purifies the complement's Choi state.
    """
    j = flagged_depolarizing_channel(d, q).choi.matrix
    lams, vecs = np.linalg.eigh(j)
    keep = lams > 1e-10 * lams[-1]
    psi = (vecs[:, keep] * np.sqrt(lams[keep])).reshape(d, 2 * d, -1)
    return psi.transpose(0, 2, 1)


def derived_matrices(rho, rank_tol=1e-10):
    """Every matrix the library derives from a bipartite state, with a label for each."""
    out = {"state": rho.matrix, "complement": complement(rho, rank_tol).matrix}
    for k in (0, 1):
        out[f"partial_trace {k}"] = partial_trace(rho, (k,)).matrix
        out[f"partial_transpose {k}"] = partial_transpose(rho, k)
    for side in ("A", "B"):
        out[f"filtered {side}"] = local_filter(rho, side, rank_tol).filtered_state.matrix
    return out


def run_cli(capsys, *args):
    """``lrdistill.cli.main(args)`` in process: its exit code, stdout and stderr."""
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts, by name, of the ``SOLVERS`` calls made since the test started.

    Calls made while a test builds its input count too: a test that counts only
    the call under test clears the counter after building its input.
    """
    calls = Counter()

    def spy(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in SOLVERS:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


def fail_solver(monkeypatch, name, stacked_only=False):
    """Make ``np.linalg.<name>`` raise LinAlgError; with ``stacked_only``, only on a stack."""
    real = getattr(np.linalg, name)

    def fail(a, *args, **kwargs):
        if stacked_only and np.ndim(a) != 3:
            return real(a, *args, **kwargs)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, name, fail)
