"""Seeded Haar-random state generation and the Monte Carlo harness that
checks the generic behaviour of randomly sampled low-rank bipartite states.

PRNG contract: numpy's PCG64 via ``numpy.random.default_rng``. Per-sample
streams are derived as ``SeedSequence(entropy=seed, spawn_key=(index,))`` and
witness-search streams as ``spawn_key=(index, 1)``, so samples are
independent, order-deterministic, and reproducible from (spec, version)
alone.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .distill import DEFAULT_WITNESS_BUDGET, _saturation_search
from .errors import EnsembleSpecError
from .kernels import DEFAULT_RANK_TOL, gram_ranks, solve_hermitian, validated_tolerance
from .states import (DensityMatrix, TripartitePureState, partial_trace, validated_count,
                     validated_dimension, validated_seed)


def sample_pure(
    d_a: int, d_b: int, d_e: int, seed: int | np.random.SeedSequence = 0
) -> TripartitePureState:
    """Haar-random pure state on A (x) B (x) E.

    A vector of i.i.d. standard complex Gaussian entries, normalized; this is
    exactly the Haar distribution on the unit sphere. Bit-identical output
    for identical seed within one package version.
    """
    dims = tuple(validated_dimension(d, "dimension", EnsembleSpecError) for d in (d_a, d_b, d_e))
    n = dims[0] * dims[1] * dims[2]
    if n > np.iinfo(np.intp).max:
        raise EnsembleSpecError(f"d_A * d_B * d_E = {n} exceeds the largest array size")
    rng = np.random.default_rng(validated_seed(seed, EnsembleSpecError, sequence=True))
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return TripartitePureState(dims, amp / np.linalg.norm(amp))


def sample_state(
    d_a: int, d_b: int, d_e: int, seed: int | np.random.SeedSequence = 0
) -> DensityMatrix:
    """AB reduction of a Haar-random pure state: the induced measure with
    environment dimension d_E."""
    return sample_pure(d_a, d_b, d_e, seed).reduction((0, 1))


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of one sampling experiment."""

    d_a: int
    d_b: int
    d_e: int
    n_samples: int
    seed: int = 0
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        for name in ("d_a", "d_b", "d_e", "n_samples"):
            value = validated_dimension(getattr(self, name), name, EnsembleSpecError)
            object.__setattr__(self, name, value)
        validated_tolerance(self.rank_tol, "rank_tol", EnsembleSpecError)
        object.__setattr__(self, "seed", validated_seed(self.seed, EnsembleSpecError))

    def to_json_dict(self) -> dict:
        return {
            "d_A": self.d_a,
            "d_B": self.d_b,
            "d_E": self.d_e,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "rank_tol": self.rank_tol,
        }


@dataclass(frozen=True)
class SampleRecord:
    """Per-sample check results plus eigenvalue data for tolerance audits."""

    index: int
    rank_state: int
    expected_rank_state: int
    rank_state_ok: bool
    rank_marginal: int
    expected_rank_marginal: int
    rank_marginal_ok: bool
    schmidt_ranks: tuple[int, ...]
    schmidt_ok: bool
    low_rank: bool
    witness_found: bool
    witness_trials: int
    smallest_retained: float
    largest_discarded: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EnsembleReport:
    """Per-sample records (in sample-index order) and their aggregate frequencies."""

    spec: EnsembleSpec
    witness_budget: int
    samples: tuple[SampleRecord, ...] = field(repr=False)

    @property
    def frequencies(self) -> dict[str, float]:
        """The share of samples that pass each check."""
        n = float(len(self.samples))
        return {
            "rank_state": sum(r.rank_state_ok for r in self.samples) / n,
            "rank_marginal": sum(r.rank_marginal_ok for r in self.samples) / n,
            "schmidt_full": sum(r.schmidt_ok for r in self.samples) / n,
            "witness_found": sum(r.witness_found for r in self.samples) / n,
        }

    def to_json_dict(self) -> dict:
        return {
            "schema": "ensemble-report/1",
            "spec": self.spec.to_json_dict(),
            "witness_budget": self.witness_budget,
            "frequencies": dict(self.frequencies),
            "samples": [s.to_json_dict() for s in self.samples],
        }

    def to_csv(self) -> str:
        """One row per sample in ``SampleRecord`` field order, Schmidt ranks
        joined by ``;``, None as an empty cell and floats as their ``repr``."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(SampleRecord))
        writer.writerows(
            [";".join(map(str, v)) if isinstance(v, tuple) else v for v in astuple(s)]
            for s in self.samples
        )
        return buf.getvalue()


def run_experiment(
    spec: EnsembleSpec, witness_budget: int = DEFAULT_WITNESS_BUDGET
) -> EnsembleReport:
    """Sample n states from the induced measure and audit each one.

    Per sample: (i) rank of the state equals min(d_E, d_A*d_B); (ii) rank of
    the B marginal equals min(d_B, d_A*d_E); (iii) every column of the
    amplitude matrix (the BE vector conditioned on a basis vector of A) has
    full Schmidt rank min(d_B, d_E), the rank of its reduced state on B at
    the common cutoff; (iv) the one-way witness search finds a saturating
    vector. All four hold with probability one for continuous
    sampling, so the reported frequencies are expected to be exactly 1.0; a
    lower value points at a tolerance problem, not at statistics.

    Requires d_E < d_B so that sampled states are generically low rank.
    """
    witness_budget = validated_count(witness_budget, "budget")
    if spec.d_e >= spec.d_b:
        raise EnsembleSpecError(
            f"experiment needs d_E < d_B, got d_E = {spec.d_e}, d_B = {spec.d_b}"
        )
    expected_rank_state = min(spec.d_e, spec.d_a * spec.d_b)
    expected_rank_marginal = min(spec.d_b, spec.d_a * spec.d_e)
    expected_schmidt = min(spec.d_b, spec.d_e)
    records = []
    for k in range(spec.n_samples):
        psi = sample_pure(
            spec.d_a, spec.d_b, spec.d_e,
            np.random.SeedSequence(entropy=spec.seed, spawn_key=(k,)),
        )
        amps = psi.amplitudes.reshape(psi.dims)
        rho = partial_trace(psi.density_matrix(), (0, 1))
        spectrum = solve_hermitian(rho.matrix, spec.rank_tol, vectors=False)
        rank_state, lams = spectrum.rank, spectrum.eigenvalues
        largest_discarded = float(lams[rank_state]) if rank_state < lams.size else None
        rank_marginal = solve_hermitian(partial_trace(rho, (1,)).matrix, spec.rank_tol,
                                        vectors=False).rank
        basis_ranks = gram_ranks(amps, spec.rank_tol)
        schmidt_ranks = tuple(int(r) for r in basis_ranks)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=spec.seed, spawn_key=(k, 1))
        )
        phi, trials = _saturation_search(
            amps, basis_ranks, min(rank_state, rank_marginal), witness_budget, rng, spec.rank_tol
        )
        records.append(
            SampleRecord(
                index=k,
                rank_state=rank_state,
                expected_rank_state=expected_rank_state,
                rank_state_ok=rank_state == expected_rank_state,
                rank_marginal=rank_marginal,
                expected_rank_marginal=expected_rank_marginal,
                rank_marginal_ok=rank_marginal == expected_rank_marginal,
                schmidt_ranks=schmidt_ranks,
                schmidt_ok=all(s == expected_schmidt for s in schmidt_ranks),
                low_rank=rank_state < rank_marginal,
                witness_found=phi is not None,
                witness_trials=trials,
                smallest_retained=spectrum.min_positive(),
                largest_discarded=largest_discarded,
            )
        )
    return EnsembleReport(spec=spec, witness_budget=witness_budget, samples=tuple(records))
