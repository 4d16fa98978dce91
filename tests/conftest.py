"""The one home of the tests' plain-numpy references: independent oracles,
random-state generators, the channel and document builders that the golden
corpus (``tests/golden/build_corpus.py``) is made from, and the witness
certificate's factor families (which ``tools/witness_certificate_grid.py``
also samples). Also the in-process CLI runner, the one spy on the
``numpy.linalg`` solvers, the one spy on ``DensityMatrix`` validation and the
one hypothesis profile of the property tests.

The references deliberately avoid the library's code paths (explicit index
loops instead of einsum, isometry construction and entrywise Choi matrices
instead of the library's channels) so that test expectations stay
independent of what they check.
"""

from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import settings

from lrdistill import (DensityMatrix, TripartitePureState, complement, local_filter,
                       partial_trace, partial_transpose)
from lrdistill.cli import main
from lrdistill.kernels import DEFAULT_RANK_TOL

#: The ``numpy.linalg`` solvers that only ``lrdistill.kernels`` may call.
SOLVERS = ("eigh", "eigvalsh", "eig", "svd")

# Every property test draws the same examples on every run. A test sets its own
# ``@settings`` only for another ``max_examples`` or a health-check suppression.
settings.register_profile("lrdistill", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("lrdistill")


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


def loop_reductions(vector, dims, *keeps):
    """The reductions of |v><v| to each tuple of parties in ``keeps``, by ``loop_partial_trace``."""
    full = np.outer(vector, np.conj(vector))
    return [loop_partial_trace(full, dims, keep) for keep in keeps]


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


def npt_witness(matrix, dims):
    """Smallest eigenvalue of the partial transpose on B, taken by index bookkeeping."""
    return np.linalg.eigvalsh(loop_partial_transpose(matrix, dims, 1))[0]


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
    v = gaussian(rng, n)
    return v / np.linalg.norm(v)


def random_psd(rng, d, r):
    """Unit-trace d x d Gram matrix of a complex Gaussian d x r matrix: rank r almost surely."""
    g = gaussian(rng, d, r)
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


def bell_with_trivial_env():
    v = np.zeros(8, dtype=complex)
    v[0] = v[6] = 1 / np.sqrt(2)  # |000> + |110>: Bell on AB, |0> on E
    return TripartitePureState((2, 2, 2), v)


def haar_state(dims, seed):
    """Pure state on ``dims`` with the Gaussian unit vector that ``seed`` draws."""
    rng = np.random.default_rng(seed)
    return TripartitePureState(dims, gaussian_unit_vector(rng, int(np.prod(dims))))


def tilted_state():
    """sqrt(0.9)|00> + sqrt(0.1)|11> -- the worked scalar example."""
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(0.9)
    v[3] = np.sqrt(0.1)
    return DensityMatrix((2, 2), np.outer(v, v.conj()))


def tiles_upb_state():
    """(1 - P) / 4 on C^3 (x) C^3, P the projector onto the five Tiles product vectors.

    The Tiles unextendible product basis of Bennett et al., PRL 82, 5385
    (1999): the state is PPT and entangled, of rank 4 > rank(rho_A) =
    rank(rho_B) = 3, with eigenvalues 1/4 on its support. A real array with
    rational entries.
    """
    tiles = [((1, 0, 0), (1, -1, 0)), ((1, -1, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, -1)),
             ((0, 1, -1), (1, 0, 0)), ((1, 1, 1), (1, 1, 1))]
    proj = np.zeros((9, 9))
    for a, b in tiles:
        v = np.kron(a, b)
        proj += np.outer(v, v) / (v @ v)
    return (np.eye(9) - proj) / 4


def random_density(d_a, d_b, d_e, seed):
    """Random induced-measure state built directly with numpy."""
    v = gaussian_unit_vector(np.random.default_rng(seed), d_a * d_b * d_e)
    return DensityMatrix((d_a, d_b), loop_reductions(v, (d_a, d_b, d_e), (0, 1))[0])


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
    q, r = np.linalg.qr(gaussian(rng, d_out, d_in))
    # fix the QR phase ambiguity for determinism
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_choi(d_in, d_out, d_env, seed):
    """Choi state of a random channel, built from a Stinespring isometry."""
    rng = np.random.default_rng(seed)
    v = random_isometry(rng, d_in, d_out * d_env)
    # |psi> = (1/sqrt(d_in)) sum_i |i> (x) V|i>, then trace out the environment
    psi = (v.T / np.sqrt(d_in)).reshape(-1)
    return DensityMatrix((d_in, d_out), loop_reductions(psi, (d_in, d_out, d_env), (0, 1))[0])


def flagged_depolarizing_choi(d, q):
    """(|W><W| (+) [(1-q)|W><W| + q 1/d^2]) / 2 in two orthogonal output blocks, a real array.

    The Choi state, on C^d (x) C^2d, of the flagged-depolarizing channel.
    """
    omega = np.zeros(d * d)
    omega[:: d + 1] = 1.0 / np.sqrt(d)
    proj = np.outer(omega, omega).reshape(d, d, d, d)
    j4 = np.zeros((d, 2 * d, d, 2 * d))
    j4[:, :d, :, :d] = 0.5 * proj
    j4[:, d:, :, d:] = 0.5 * ((1.0 - q) * proj + q * np.eye(d * d).reshape(d, d, d, d) / d**2)
    return j4.reshape(2 * d * d, 2 * d * d)


def purification_factor(matrix, d_a, d_b):
    """Amplitudes (d_a, d_b, k) of a purification of ``matrix`` on C^d_a (x) C^d_b.

    One ``eigh``; the purifying register keeps the k eigenvalues above
    1e-10 * lambda_max.
    """
    lams, vecs = np.linalg.eigh(matrix)
    keep = lams > 1e-10 * lams[-1]
    return (vecs[:, keep] * np.sqrt(lams[keep])).reshape(d_a, d_b, -1)


def complement_matrix(matrix, d_a, d_b):
    """rho_AE of ``purification_factor``'s purification, on C^d_a (x) C^k: the complement."""
    amp = purification_factor(matrix, d_a, d_b)
    k = amp.shape[2]
    return np.einsum("abe,cbf->aecf", amp, amp.conj()).reshape(d_a * k, d_a * k)


def flagged_complement_factor(d, q):
    """Amplitude factor (d, d^2 + 1, 2d) of the complement of the flagged-depolarizing channel.

    The channel's Choi state on A (x) output is purified; its purifying
    register E (rank d^2 + 1) carries the complement's output, and the
    2d-dimensional channel output purifies the complement's Choi state. The
    ``eigh`` is of the complex array: on the real one it picks another basis
    of the degenerate eigenspaces.
    """
    return purification_factor(flagged_depolarizing_choi(d, q).astype(complex), d, 2 * d
                               ).transpose(0, 2, 1)


def perturbed(factor, size, rng):
    """``factor`` plus Gaussian noise of relative Frobenius size ``size``, the noise drawn first."""
    noise = gaussian(rng, *factor.shape)
    return factor + size * noise * (np.linalg.norm(factor) / np.linalg.norm(noise))


def kronecker_l2_factor(rng, ay=False):
    """(2, 5, 3) factor with K(v) = V [L_2(y); 0] R: rank 2, and no linear kernel polynomial.

    L_2(y) = [[y_0, y_1, 0], [0, y_0, y_1]] is a Kronecker block whose kernel,
    (y_1^2, -y_0 y_1, y_0^2), is quadratic in y. With ``ay``, the (3, 5, 3)
    factor of L_2(A y), A a Gaussian 2 x 3 matrix drawn first: every K has
    rank 2 < m = 3 and K = 0 on A's null space, so the ratio bound's trace
    form T is singular to rounding (lambda_min / lambda_max about 1e-17).
    """
    l2 = np.array([[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]], dtype=complex)
    if ay:  # slice a is sum_c A[c, a] L_2[c]
        l2 = np.einsum("ca,cij->aij", gaussian(rng, 2, 3), l2)
    iso = np.linalg.qr(gaussian(rng, 5, 5))[0][:, :2]
    return np.einsum("pi,aij,jr->apr", iso, l2, gaussian(rng, 3, 3))


def singular_p_factor(rng):
    """(3, 4, 3) factor whose one linear kernel polynomial has a P singular to rounding.

    Slices W[0] = [c, 0, x_0], W[1] = [0, c, x_1] and W[2] = [0, 0, x_2], rotated
    on both sides and with A's basis changed: every K has rank 2 < m = 3 and
    the kernel polynomial (y_1, -y_0, 0) before the changes.
    """
    w = np.zeros((3, 4, 3), dtype=complex)
    w[0, :, 0] = w[1, :, 1] = gaussian(rng, 4)
    w[:, :, 2] = gaussian(rng, 3, 4)
    rot = np.linalg.qr(gaussian(rng, 4, 4))[0]
    return np.einsum("ac,pq,cqm,mr->apr", gaussian(rng, 3, 3), rot, w, gaussian(rng, 3, 3))


#: The factor families that no trial brings to rank m but whose ratio bound declines.
DECLINING_FACTORS = {"L2": kronecker_l2_factor, "L2(Ay)": partial(kronecker_l2_factor, ay=True),
                     "singular P": singular_p_factor}


def conditioned(factor, v):
    """K = sum_a conj(v_a) F[a] for each row v_a of v, formed as the witness search forms it."""
    return (v.conj() @ factor.reshape(len(factor), -1)).reshape(len(v), *factor.shape[1:])


def trial_ratios(factor, v):
    """lambda_min / lambda_max of eigvalsh of each trial's smaller Gram matrix, in plain numpy."""
    k = conditioned(factor, v)
    kh = np.conj(np.swapaxes(k, 1, 2))
    lams = np.linalg.eigvalsh(k @ kh if k.shape[1] <= k.shape[2] else kh @ k)
    return lams[:, 0] / lams[:, -1]


def pairs(values):
    """A complex array as nested ``[re, im]`` lists, the form a JSON document holds."""
    values = np.asarray(values)
    return np.stack((values.real, values.imag), axis=-1).tolist()


def matrix_doc(matrix, dims):
    """The JSON document of ``matrix``'s Hermitian part on ``dims``."""
    matrix = (matrix + matrix.conj().T) / 2.0
    return {"dims": list(dims), "matrix": pairs(matrix)}


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


@pytest.fixture
def validations(monkeypatch):
    """One entry per ``DensityMatrix`` validation (a ``__post_init__`` run) since the test
    started; a test that counts only the call under test clears it first."""
    runs = []
    original = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: runs.append(1) or original(self))
    return runs


def fail_solver(monkeypatch, name, stacked_only=False):
    """Make ``np.linalg.<name>`` raise LinAlgError; with ``stacked_only``, only on a stack."""
    real = getattr(np.linalg, name)

    def fail(a, *args, **kwargs):
        if stacked_only and np.ndim(a) != 3:
            return real(a, *args, **kwargs)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, name, fail)
