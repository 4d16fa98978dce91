"""Seeded Haar-random state generation and the Monte Carlo harness that
checks the generic behaviour of randomly sampled low-rank bipartite states.

PRNG contract: numpy's PCG64 via ``numpy.random.default_rng``. Per-sample
streams are derived as ``SeedSequence(entropy=seed, spawn_key=(index,))`` and
witness-search streams as ``spawn_key=(index, 1)``, so samples are
independent, order-deterministic, and reproducible from (spec, version)
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distill import DEFAULT_WITNESS_BUDGET, _saturation_search, _spawned_rng
from .errors import BadParameterError
from .kernels import (DEFAULT_RANK_TOL, HermitianSpectrum, gram_ranks, solve_hermitian,
                      validated_tolerance)
from .states import (DensityMatrix, TripartitePureState, partial_trace, validated_count,
                     validated_dimension, validated_seed, validated_size)


def sample_pure(
    d_a: int, d_b: int, d_e: int, seed: int | np.random.SeedSequence = 0
) -> TripartitePureState:
    """Haar-random pure state on A (x) B (x) E.

    A vector of i.i.d. standard complex Gaussian entries, normalized; this is
    exactly the Haar distribution on the unit sphere. Bit-identical output
    for identical seed within one package version.
    """
    dims = tuple(validated_dimension(d, "dimension", BadParameterError) for d in (d_a, d_b, d_e))
    n = dims[0] * dims[1] * dims[2]
    validated_size(n, f"d_A * d_B * d_E = {n}")
    rng = np.random.default_rng(validated_seed(seed, sequence=True))
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
            value = validated_dimension(getattr(self, name), name, BadParameterError)
            object.__setattr__(self, name, value)
        validated_tolerance(self.rank_tol, "rank_tol")
        object.__setattr__(self, "seed", validated_seed(self.seed))

    def to_json_dict(self) -> dict:
        return {
            "d_A": self.d_a,
            "d_B": self.d_b,
            "d_E": self.d_e,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "rank_tol": self.rank_tol,
        }


#: A sample's JSON keys and CSV columns, in this order: its stored fields and derived checks.
SAMPLE_COLUMNS = ("index", "rank_state", "expected_rank_state", "rank_state_ok", "rank_marginal",
                  "expected_rank_marginal", "rank_marginal_ok", "schmidt_ranks", "schmidt_ok",
                  "low_rank", "witness_found", "witness_trials", "smallest_retained",
                  "largest_discarded")


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """What one sample drawn under ``spec`` measured; its expected ranks and checks are derived.

    ``spectrum`` is the eigenvalue-only spectrum of rho_AB the sample was decided from:
    ``rank_state`` and the tolerance evidence around its cutoff are read off it.
    """

    spec: EnsembleSpec = field(repr=False)
    index: int
    spectrum: HermitianSpectrum
    rank_marginal: int
    schmidt_ranks: tuple[int, ...]
    witness_found: bool
    witness_trials: int

    @property
    def rank_state(self) -> int:
        return self.spectrum.rank

    @property
    def smallest_retained(self) -> float:
        return self.spectrum.min_positive()

    @property
    def largest_discarded(self) -> float | None:
        """The largest eigenvalue at or below the rank cutoff, or None when every one is kept."""
        r, lams = self.spectrum.rank, self.spectrum.eigenvalues
        return float(lams[r]) if r < lams.size else None

    @property
    def expected_rank_state(self) -> int:
        return min(self.spec.d_e, self.spec.d_a * self.spec.d_b)

    @property
    def expected_rank_marginal(self) -> int:
        return min(self.spec.d_b, self.spec.d_a * self.spec.d_e)

    @property
    def rank_state_ok(self) -> bool:
        return self.rank_state == self.expected_rank_state

    @property
    def rank_marginal_ok(self) -> bool:
        return self.rank_marginal == self.expected_rank_marginal

    @property
    def schmidt_ok(self) -> bool:
        return all(s == min(self.spec.d_b, self.spec.d_e) for s in self.schmidt_ranks)

    @property
    def low_rank(self) -> bool:
        return self.rank_state < self.rank_marginal

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in SAMPLE_COLUMNS}


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
        """One row per sample in ``SAMPLE_COLUMNS`` order, Schmidt ranks joined by ``;``, None as
        an empty cell and the rest as their ``str``; no cell holds a comma, quote or newline."""
        rows = [SAMPLE_COLUMNS]
        rows += [[";".join(map(str, v)) if type(v) is tuple else "" if v is None else str(v)
                  for v in s.to_json_dict().values()] for s in self.samples]
        return "".join(",".join(row) + "\n" for row in rows)


def run_experiment(
    spec: EnsembleSpec, witness_budget: int = DEFAULT_WITNESS_BUDGET
) -> EnsembleReport:
    """Sample n states from the induced measure and record what each one measured.

    Each ``SampleRecord`` derives four checks: (i) ``rank_state_ok``, the rank of the state
    equals min(d_E, d_A*d_B); (ii) ``rank_marginal_ok``, the rank of the B marginal equals
    min(d_B, d_A*d_E); (iii) ``schmidt_ok``, every column of the amplitude matrix (the BE
    vector conditioned on a basis vector of A) has full Schmidt rank min(d_B, d_E), the rank
    of its reduced state on B at the common cutoff; (iv) ``witness_found``, the one-way
    witness search found a saturating vector. All four hold with probability one for
    continuous sampling, so the reported frequencies are expected to be exactly 1.0; a lower
    value points at a tolerance problem, not at statistics. Requires d_E < d_B so that
    sampled states are generically low rank.
    """
    witness_budget = validated_count(witness_budget, "budget")
    if spec.d_e >= spec.d_b:
        raise BadParameterError(
            f"experiment needs d_E < d_B, got d_E = {spec.d_e}, d_B = {spec.d_b}"
        )
    records = []
    for k in range(spec.n_samples):
        psi = sample_pure(spec.d_a, spec.d_b, spec.d_e,
                          np.random.SeedSequence(entropy=spec.seed, spawn_key=(k,)))
        amps = psi.amplitudes.reshape(psi.dims)
        rho = partial_trace(psi.density_matrix(), (0, 1))
        spectrum = solve_hermitian(rho.matrix, spec.rank_tol, vectors=False)
        rank_marginal = solve_hermitian(psi.reduction((1,)).matrix, spec.rank_tol,
                                        vectors=False).rank
        basis_ranks = gram_ranks(amps, spec.rank_tol)
        phi, trials = _saturation_search(amps, basis_ranks, min(spectrum.rank, rank_marginal),
                                         witness_budget, _spawned_rng(spec.seed, k, 1),
                                         spec.rank_tol)
        records.append(SampleRecord(spec, k, spectrum, rank_marginal,
                                    tuple(int(r) for r in basis_ranks), phi is not None, trials))
    return EnsembleReport(spec=spec, witness_budget=witness_budget, samples=tuple(records))
