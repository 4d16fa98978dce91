"""Multipartite density matrices: reductions, partial transpose, purification,
complements, entropies, and conditioned marginals.

Conventions (these matter for partial trace/transpose):
  * ``dims`` lists subsystem dimensions left to right in tensor-factor order.
  * Flattening is row-major, so basis state |a b e> sits at index
    ``(a * d_B + b) * d_E + e``.
  * Subsystems are indexed from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt
from numbers import Integral, Real
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (BadParameterError, InputError, NotNormalizedError, StateFormatError,
                     SubsystemError)
from .kernels import (DEFAULT_RANK_TOL, gram_ranks, hermitian_part, solve_hermitian,
                      validated_tolerance)

#: Validation tolerances for density-matrix invariants (Hermiticity: ``kernels.hermitian_part``).
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

#: Unit-norm tolerance for pure-state amplitude vectors.
NORM_TOL = 1e-12

#: Default threshold on the partial-transpose witness eigenvalue.
DEFAULT_PPT_TOL = 1e-9


def validated_dimension(value, field: str, error: type[InputError] = StateFormatError) -> int:
    """``value`` as a dimension: a number with an integral value >= 1, not a bool."""
    integral = isinstance(value, Integral) or (
        isinstance(value, Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral or value < 1:
        raise error(f"{field} must be an integer >= 1, got {value!r}")
    return int(value)


def validated_count(value, field: str) -> int:
    """``value`` as a count, such as a seed or a witness budget: an integer >= 0, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise BadParameterError(f"{field} must be an integer >= 0, got {value!r}")
    return int(value)


def validated_seed(value, *, sequence: bool = False):
    """``value`` as a PRNG seed: a count; also a SeedSequence if ``sequence``.

    An integer is decided first, so that checking one never loads ``numpy.random``.
    """
    if sequence and not isinstance(value, Integral) and isinstance(value, np.random.SeedSequence):
        return value
    return validated_count(value, "seed")


def validated_size(entries: int, what: str) -> None:
    """BadParameterError naming ``what`` unless numpy can size ``entries`` complex128 entries."""
    # numpy caps an array's size in bytes, 16 per complex128 entry, at intp's maximum
    if 16 * entries > np.iinfo(np.intp).max:
        raise BadParameterError(f"{what} exceeds the largest array size")


def _unit_vector(vector, what: str, tol: float = 1e-9) -> np.ndarray:
    """``vector`` as a flat complex array; NotNormalizedError unless its norm is 1 +- ``tol``."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    with np.errstate(over="ignore"):  # an overflowed norm is inf, which fails the check
        nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= tol:
        raise NotNormalizedError(f"{what} norm {nrm:.15g} is not 1 within {tol:g}")
    return v


def _validated_dims(dims: Sequence[int]) -> tuple[int, ...]:
    entries = tuple(dims) if isinstance(dims, Iterable) else ()
    if not entries:
        raise StateFormatError(f"dims must be a nonempty list of integers, got {dims!r}")
    return tuple(validated_dimension(d, "dims entry") for d in entries)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix over a list of subsystems.

    Construction validates the state invariants: Hermiticity within 1e-10,
    unit trace within 1e-10, and eigenvalues >= -1e-10. States derived inside
    the package from valid ones (reductions, the filtered state, complements)
    and the built-in named states, valid by construction, are built with
    ``_trusted`` and not validated again. Either way ``matrix`` is exactly
    Hermitian, so internal solves need no check.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _validated_dims(self.dims)
        arr = np.asarray(self.matrix, dtype=np.complex128)
        d = prod(dims)
        if arr.shape != (d, d):
            raise StateFormatError(
                f"matrix shape {arr.shape} does not match dims {dims} (total {d})"
            )
        herm = hermitian_part(arr)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN trace fails the check
            tr = herm.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateFormatError(f"trace {tr:.12g} is not 1 within {TRACE_TOL:g}")
        min_eig = float(solve_hermitian(herm, vectors=False).eigenvalues[-1])
        if not min_eig >= EIGENVALUE_FLOOR:
            raise StateFormatError(
                f"matrix has negative eigenvalue {min_eig:.3e} below {EIGENVALUE_FLOOR:g}"
            )
        herm.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", herm)

    @classmethod
    def _trusted(cls, dims: Sequence[int], matrix) -> "DensityMatrix":
        """A state valid by construction, unchecked; stores a new read-only (m + m^dagger) / 2."""
        arr = np.asarray(matrix, dtype=np.complex128)
        herm = (arr + arr.conj().T) / 2.0
        herm.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", tuple(dims))
        object.__setattr__(rho, "matrix", herm)
        return rho

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def to_json_dict(self) -> dict:
        return {"dims": list(self.dims), "matrix": complex_pairs(self.matrix)}


@dataclass(frozen=True, eq=False)
class TripartitePureState:
    """Unit vector over A (x) B (x) E with ``dims = (d_A, d_B, d_E)``."""

    dims: tuple[int, int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _validated_dims(self.dims)
        if len(dims) != 3:
            raise StateFormatError(f"expected three subsystem dimensions, got {dims}")
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.size != prod(dims):
            raise StateFormatError(
                f"amplitude count {amp.size} does not match dims {dims}"
            )
        if not np.all(np.isfinite(amp)):
            raise StateFormatError("amplitude vector contains non-finite entries")
        _unit_vector(amp, "state", NORM_TOL)
        amp.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))

    def reduction(self, keep: Iterable[int]) -> DensityMatrix:
        """Reduced state on ``keep`` (ascending order), straight from the amplitudes.

        It is the Gram matrix M M^dagger of the amplitude tensor M with the
        kept factors as rows and the traced-out factors as columns, e.g.
        rho_AB with M of shape (d_A d_B) x d_E; |psi><psi| is never formed.
        """
        keep = sorted(_check_subsystems(self.dims, keep))
        kept_dims = tuple(self.dims[i] for i in keep)
        m = np.moveaxis(self.amplitudes.reshape(self.dims), keep, range(len(keep)))
        m = m.reshape(prod(kept_dims), -1)
        return DensityMatrix._trusted(kept_dims, m @ m.conj().T)

    def to_json_dict(self) -> dict:
        return {"dims": list(self.dims), "vector": complex_pairs(self.amplitudes)}


class PptVerdict(NamedTuple):
    """PPT decision plus the minimum partial-transpose eigenvalue as witness.

    ``marginal`` flags near-boundary verdicts with ``|witness| < 10 * tol``.
    """

    is_ppt: bool
    witness: float
    marginal: bool


def _check_subsystems(dims: tuple[int, ...], subsystems: Iterable[int]) -> tuple[int, ...]:
    subs = tuple(subsystems)
    if any(isinstance(s, bool) or not isinstance(s, Integral) for s in subs):
        raise SubsystemError(f"subsystem indices must be integers, got {subs}")
    subs = tuple(map(int, subs))
    if not subs:
        raise SubsystemError("subsystem set must be nonempty")
    if len(set(subs)) != len(subs):
        raise SubsystemError(f"duplicate subsystem indices in {subs}")
    if any(s < 0 or s >= len(dims) for s in subs):
        raise SubsystemError(f"subsystem indices {subs} out of range for dims {dims}")
    return subs


def _require_bipartite(rho: DensityMatrix, what: str):
    if len(rho.dims) != 2:
        raise SubsystemError(f"{what} needs a bipartite state, got dims {rho.dims}")


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every subsystem not in ``keep``.

    Kept subsystems stay in ascending index order.
    """
    keep_set = sorted(_check_subsystems(rho.dims, keep))
    n = len(rho.dims)
    tensor = rho.matrix.reshape(*rho.dims, *rho.dims)
    # Axis i is row index i and axis n + i its column index; traced axes share one label.
    cols = [n + i if i in keep_set else i for i in range(n)]
    reduced = np.einsum(tensor, [*range(n), *cols], [*keep_set, *(n + i for i in keep_set)])
    kept_dims = tuple(rho.dims[i] for i in keep_set)
    return DensityMatrix._trusted(kept_dims, reduced.reshape(prod(kept_dims), -1))


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor: a permutation of entries, exactly Hermitian, maybe not PSD."""
    (sub,) = _check_subsystems(rho.dims, (subsystem,))
    n = len(rho.dims)
    tensor = rho.matrix.reshape(*rho.dims, *rho.dims)
    transposed = np.swapaxes(tensor, sub, n + sub)
    return np.ascontiguousarray(transposed.reshape(rho.dim, rho.dim))


def is_ppt(rho: DensityMatrix, tol: float = DEFAULT_PPT_TOL) -> PptVerdict:
    """PPT test for a bipartite state: min partial-transpose eigenvalue >= -tol."""
    _require_bipartite(rho, "PPT test")
    validated_tolerance(tol, "ppt_tol")
    witness = float(solve_hermitian(partial_transpose(rho, 1), vectors=False).eigenvalues[-1])
    return PptVerdict(witness >= -tol, witness, abs(witness) < 10.0 * tol)


def von_neumann_entropy(rho: DensityMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Entropy -Tr(rho log2 rho) in bits; eigenvalues below the cutoff contribute 0."""
    return solve_hermitian(rho.matrix, rank_tol, vectors=False).entropy()


def coherent_information(rho: DensityMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """S(second marginal) - S(state) in bits; the hashing rate toward the second party."""
    _require_bipartite(rho, "coherent information")
    return von_neumann_entropy(partial_trace(rho, (1,)), rank_tol) - von_neumann_entropy(
        rho, rank_tol
    )


def purify(rho: DensityMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> TripartitePureState:
    """Canonical purification of a bipartite state.

    The purifying register E has dimension rank(rho) and carries the standard
    basis paired with eigenvalues in descending order, which pins down the
    isometric freedom and makes the output reproducible. Degenerate
    eigenvalues keep the eigensolver's order.
    """
    _require_bipartite(rho, "purification")
    spectrum = solve_hermitian(rho.matrix, rank_tol)
    k = spectrum.rank
    lams = spectrum.eigenvalues[:k]
    vecs = spectrum.eigenvectors[:, :k]
    # amp[(a*dB + b), e] = sqrt(lam_e) <ab|e_e>; C-order ravel is (a, b, e) row-major.
    amp = (vecs * np.sqrt(lams)).ravel()
    amp = amp / np.linalg.norm(amp)
    return TripartitePureState((rho.dims[0], rho.dims[1], k), amp)


def complement(rho: DensityMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> DensityMatrix:
    """AE reduction of the canonical purification of a bipartite state."""
    return purify(rho, rank_tol).reduction((0, 2))


def conditional_marginal(rho: DensityMatrix, phi) -> np.ndarray:
    """Unnormalized B-marginal after projecting A onto |phi>.

    Returns Tr_A[(|phi><phi| (x) 1_B) rho] as a PSD matrix with trace
    <phi|rho_A|phi> <= 1. Left unnormalized on purpose: its rank is the
    quantity of interest and the trace can be arbitrarily small.
    """
    _require_bipartite(rho, "conditioned marginal")
    v = _unit_vector(phi, "conditioning vector")
    if v.size != rho.dims[0]:
        raise SubsystemError(
            f"conditioning vector has length {v.size}, expected d_A = {rho.dims[0]}"
        )
    tensor = rho.matrix.reshape(*rho.dims, *rho.dims)
    return np.einsum("a,abcd,c->bd", v.conj(), tensor, v)


def schmidt_rank(vector, dims: Sequence[int], rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical Schmidt rank of a bipartite unit vector.

    The vector is reshaped to a ``dims[0] x dims[1]`` coefficient matrix C;
    the rank is that of the reduced state C C^dagger at the common cutoff
    (eigenvalues above ``rank_tol * lambda_max``), i.e. singular values of C
    above ``sqrt(rank_tol) * s_max``.
    """
    dims = _validated_dims(dims)
    if len(dims) != 2:
        raise SubsystemError(f"Schmidt rank needs a bipartition, got dims {dims}")
    d1, d2 = dims
    v = _unit_vector(vector, "vector")
    if v.size != d1 * d2:
        raise SubsystemError(f"vector of length {v.size} does not match bipartition {d1}x{d2}")
    return int(gram_ranks(v.reshape(1, d1, d2), rank_tol)[0])


# --- named small states used across tests and the CLI ---------------------


def bell_state() -> DensityMatrix:
    """(|00> + |11>)/sqrt(2) as a two-qubit density matrix."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / sqrt(2.0)
    return DensityMatrix._trusted((2, 2), np.outer(v, v.conj()))


def ghz_state() -> TripartitePureState:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    v = np.zeros(8, dtype=np.complex128)
    v[0] = v[7] = 1.0 / sqrt(2.0)
    return TripartitePureState((2, 2, 2), v)


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    dims = _validated_dims(dims)
    return DensityMatrix._trusted(dims, np.eye(prod(dims), dtype=np.complex128) / prod(dims))


# --- JSON document handling -------------------------------------------------


def complex_pairs(a) -> list:
    """A complex array of any shape as nested lists with ``[re, im]`` leaves."""
    a = np.asarray(a)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _pairs_to_complex(entries, what: str) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise StateFormatError(f"{what}: entries must be [re, im] pairs of floats") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise StateFormatError(f"{what}: entries must be [re, im] pairs of floats")
    with np.errstate(invalid="ignore"):  # 1j * inf is not finite, which the constructors reject
        return arr[..., 0] + 1j * arr[..., 1]


def density_matrix_from_dict(doc: dict) -> DensityMatrix:
    if not isinstance(doc, dict) or not {"dims", "matrix"} <= set(doc):
        raise StateFormatError('density-matrix document needs "dims" and "matrix" keys')
    return DensityMatrix(doc["dims"], _pairs_to_complex(doc["matrix"], "matrix"))


def pure_state_from_dict(doc: dict) -> TripartitePureState:
    if "dims" not in doc or "vector" not in doc:
        raise StateFormatError('pure-state document needs "dims" and "vector" keys')
    vector = _pairs_to_complex(doc["vector"], "vector")
    if vector.ndim != 1:
        raise StateFormatError("vector must be a flat list of [re, im] pairs")
    return TripartitePureState(doc["dims"], vector)
