"""Local filtering protocols, distillable-entanglement rate bounds, one-way
distillability witnesses, and the full-undistillability classifier for
tripartite pure states.

The central objects:

  * ``local_filter`` implements the probabilistic local measurement
    {Y, sqrt(1 - Y^dagger Y)} with Y = sqrt(lambda_min) * rho_side^{-1/2}.
    Its success branch flattens the chosen marginal to (support projector)/r.
  * ``low_rank_rate_bound`` is the guaranteed two-way rate
    lambda_min * r_side * (log2 r_side - log2 r) available from
    filter-then-hash whenever rank(state) < rank(marginal).
  * ``find_one_way_witness`` looks for a local vector |phi> on A whose
    conditioned marginal on B has full rank min(r, r_B) = r; such a vector
    certifies positive one-way (A -> B) distillable entanglement.
  * ``classify`` decides full undistillability of a tripartite pure state:
    it is fully undistillable (in every classical-communication
    configuration that includes a two-way link) exactly when both the AB and
    AE reductions are PPT, in which case both are separable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Literal

import numpy as np

from .errors import BadParameterError, RankNotLowError
from .kernels import DEFAULT_RANK_TOL, HermitianSpectrum, gram_ranks, hermitian_eig
from .states import (
    DEFAULT_PPT_TOL,
    DensityMatrix,
    PptVerdict,
    TripartitePureState,
    _require_bipartite,
    complex_pairs,
    is_ppt,
    partial_trace,
    purify,
    von_neumann_entropy,
)

Side = Literal["A", "B"]

DEFAULT_WITNESS_BUDGET = 50

#: Haar trials of the witness search ranked together in one batched eigensolve.
_BATCH = 64

#: A rate above this threshold counts as numerically positive evidence.
POSITIVE_RATE_TOL = 1e-9

CLASS_FULLY_UNDISTILLABLE = "FULLY_UNDISTILLABLE_SEPARABLE"
CLASS_SOME_2WAY = "SOME_REDUCTION_2WAY_DISTILLABLE"

RATE_ZERO = "zero"
RATE_POSITIVE = "positive"
RATE_UNKNOWN = "unknown"

VERDICT_SEPARABLE = "separable"
VERDICT_DISTILLABLE = "entangled, 2-way distillable"
VERDICT_PPT_UNDECIDED = "PPT but separability undecided by this tool"
VERDICT_NPT_UNDECIDED = "entangled (NPT), 2-way distillability undecided"


def _side_index(side: Side) -> int:
    if side not in ("A", "B"):
        raise BadParameterError(f"side must be 'A' or 'B', got {side!r}")
    return 0 if side == "A" else 1


def _eigenvalues(rho: DensityMatrix) -> HermitianSpectrum:
    """The state's spectrum without eigenvectors: enough for ranks, bounds and entropies."""
    return hermitian_eig(rho.matrix, vectors=False)


def _rate_bound(r: int, r_side: int, lam_min: float) -> float | None:
    """lambda_min * r_side * (log2 r_side - log2 r) if r < r_side, else None."""
    return lam_min * r_side * (log2(r_side) - log2(r)) if r < r_side else None


def _marginal_bound(r: int, marginal: HermitianSpectrum, rank_tol: float) -> float | None:
    return _rate_bound(r, marginal.retained_count(rank_tol), marginal.min_positive(rank_tol))


@dataclass(frozen=True, eq=False)
class FilterOutcome:
    """Success branch of the local filtering measurement on one side.

    ``filter_operator`` acts on the filtering subsystem only. ``p_succ``
    equals lambda_min * r_side up to rounding, and the filtered marginal on
    the filtering side is ``support_projector / r_side``.
    """

    side: Side
    filter_operator: np.ndarray
    p_succ: float
    filtered_state: DensityMatrix
    support_projector: np.ndarray
    rank: int
    rank_side: int
    lambda_min: float

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "p_succ": self.p_succ,
            "rank": self.rank,
            "rank_side": self.rank_side,
            "lambda_min": self.lambda_min,
            "filter_operator": complex_pairs(self.filter_operator),
            "support_projector": complex_pairs(self.support_projector),
            "filtered_state": self.filtered_state.to_json_dict(),
        }

    def rate_bound(self) -> float:
        """``low_rank_rate_bound`` on this side, from the ranks and lambda_min found here."""
        bound = _rate_bound(self.rank, self.rank_side, self.lambda_min)
        if bound is None:
            raise RankNotLowError(
                f"rank(state) = {self.rank} >= {self.rank_side} = rank(marginal {self.side}); "
                "bound does not apply"
            )
        return bound

    def hashing_rate(self, rank_tol: float = DEFAULT_RANK_TOL) -> float:
        """``filtered_hashing_rate`` on this side, from the filtered state found here."""
        marginal = partial_trace(self.filtered_state, (_side_index(self.side),))
        return self.p_succ * (
            von_neumann_entropy(marginal, rank_tol)
            - von_neumann_entropy(self.filtered_state, rank_tol)
        )


def local_filter(
    rho: DensityMatrix, side: Side, rank_tol: float = DEFAULT_RANK_TOL
) -> FilterOutcome:
    """Apply the marginal-flattening filter on one side of a bipartite state.

    Every valid state is filterable; the success probability is positive by
    construction and equals 1 exactly when the chosen marginal is already
    maximally mixed on its support.
    """
    _require_bipartite(rho, "local filter")
    idx = _side_index(side)
    spectrum = hermitian_eig(partial_trace(rho, (idx,)).matrix)
    r_side = spectrum.retained_count(rank_tol)
    lam_min = spectrum.min_positive(rank_tol)
    y = np.sqrt(lam_min) * spectrum.pinv_sqrt(rank_tol)
    projector = spectrum.support_projector(rank_tol)
    if idx == 0:
        op = np.kron(y, np.eye(rho.dims[1]))
    else:
        op = np.kron(np.eye(rho.dims[0]), y)
    unnormalized = op @ rho.matrix @ op.conj().T
    p_succ = float(unnormalized.trace().real)
    filtered = DensityMatrix._trusted(rho.dims, unnormalized / p_succ)
    return FilterOutcome(
        side=side,
        filter_operator=y,
        p_succ=p_succ,
        filtered_state=filtered,
        support_projector=projector,
        rank=_eigenvalues(rho).retained_count(rank_tol),
        rank_side=r_side,
        lambda_min=lam_min,
    )


def low_rank_rate_bound(
    rho: DensityMatrix, side: Side, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Two-way distillable-entanglement lower bound for a low-rank state.

    Requires rank(state) < rank(chosen marginal) strictly; then the
    filter-then-hash protocol guarantees at least
    lambda_min * r_side * (log2 r_side - log2 r) ebits per copy.
    """
    return local_filter(rho, side, rank_tol).rate_bound()


def filtered_hashing_rate(
    rho: DensityMatrix, side: Side, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Achievable rate of filter-then-hash: p_succ * [S(filtered marginal) - S(filtered state)].

    The entropy difference is the coherent information of the filtered state
    with the filtering side as the target marginal; since filtering flattens
    that marginal to log2(r_side) bits of entropy, this rate always dominates
    ``low_rank_rate_bound`` on the same side.
    """
    return local_filter(rho, side, rank_tol).hashing_rate(rank_tol)


@dataclass(frozen=True, eq=False)
class WitnessSearchOutcome:
    """Result of the one-way witness search.

    ``found = False`` means no certificate within the budget; it never proves
    one-way undistillability, although it is the expected outcome for states
    that are one-way undistillable.
    """

    performed: bool
    found: bool
    phi: np.ndarray | None
    trials_used: int
    note: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "performed": self.performed,
            "found": self.found,
            "phi": None if self.phi is None else complex_pairs(self.phi),
            "trials_used": self.trials_used,
            "note": self.note,
        }


def _saturation_search(
    factor: np.ndarray,
    basis_ranks: np.ndarray,
    target_rank: int,
    budget: int,
    rng: np.random.Generator,
    rank_tol: float,
) -> tuple[np.ndarray | None, int]:
    """First |phi> on A with rank(conditioned B-marginal) == target_rank, and the trials used.

    ``factor`` is an amplitude tensor F of shape (d_A, d_B, r) with
    rho = F F^dagger, F read as a (d_A d_B) x r matrix. The marginal
    conditioned on |phi> is K K^dagger with K = sum_a conj(phi_a) F[a].

    Tries the d_A computational basis vectors first (they catch structured
    states cheaply), then ``budget`` Haar-random vectors, ``_BATCH`` of them
    per rank solve. ``basis_ranks`` is ``gram_ranks(factor, rank_tol)``, the
    basis vectors' ranks, which callers that also report them compute once.
    Trial order, random draws and the returned vector are those of trying
    one vector at a time, so the outcome is deterministic given
    (state, budget, seed).
    """
    if budget < 0:
        raise BadParameterError(f"budget must be >= 0, got {budget}")
    d_a = factor.shape[0]
    hits = np.flatnonzero(basis_ranks == target_rank)
    if hits.size:
        return np.eye(d_a, dtype=np.complex128)[hits[0]], int(hits[0]) + 1
    flat = factor.reshape(d_a, -1)
    for done in range(0, budget, _BATCH):
        n = min(_BATCH, budget - done)
        # Per trial d_A real parts, then d_A imaginary parts: the same stream
        # as drawing each trial's two parts on its own.
        g = rng.standard_normal((n, 2, d_a))
        v = g[:, 0] + 1j * g[:, 1]
        k = (v.conj() @ flat).reshape(n, *factor.shape[1:])
        hits = np.flatnonzero(gram_ranks(k, rank_tol) == target_rank)
        if hits.size:
            phi = v[hits[0]]
            return phi / np.linalg.norm(phi), d_a + done + int(hits[0]) + 1
    return None, d_a + budget


def find_one_way_witness(
    rho: DensityMatrix,
    budget: int = DEFAULT_WITNESS_BUDGET,
    seed: int | np.random.SeedSequence = 0,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> WitnessSearchOutcome:
    """Search for a vector certifying one-way (A -> B) distillability.

    Preconditions: rank(state) < rank(B marginal) strictly (otherwise
    RankNotLowError). A returned vector phi satisfies
    rank(conditioned marginal) = rank(state), which certifies a positive
    one-way rate. ``found = False`` is inconclusive by itself.
    """
    _require_bipartite(rho, "one-way witness search")
    psi = purify(rho, rank_tol)
    r = psi.dims[2]  # the purifying register has dimension rank(rho)
    r_b = _eigenvalues(partial_trace(rho, (1,))).retained_count(rank_tol)
    if r >= r_b:
        raise RankNotLowError(
            f"rank(state) = {r} >= {r_b} = rank(marginal B); witness search does not apply"
        )
    return _witness_search(psi.amplitudes.reshape(psi.dims), r, budget, seed, rank_tol)


def _witness_search(
    factor: np.ndarray,
    r: int,
    budget: int,
    seed: int | np.random.SeedSequence,
    rank_tol: float,
) -> WitnessSearchOutcome:
    """``find_one_way_witness`` once its preconditions hold and r = rank(state) is known.

    ``factor`` is the state's amplitude factor, as ``_saturation_search`` takes it.
    """
    phi, trials = _saturation_search(
        factor, gram_ranks(factor, rank_tol), r, budget, np.random.default_rng(seed), rank_tol
    )
    if phi is None:
        return WitnessSearchOutcome(
            True, False, None, trials, note="budget exhausted without certificate"
        )
    return WitnessSearchOutcome(True, True, phi, trials)


@dataclass(frozen=True, eq=False)
class ReductionAnalysis:
    """Distillability data for one reduction (AB or AE) of a tripartite state."""

    label: str
    parties: tuple[str, str]
    dims: tuple[int, int]
    rank: int
    rank_first: int
    rank_second: int
    ppt: PptVerdict
    low_rank_bound_first: float | None
    low_rank_bound_second: float | None
    hashing_rate: float
    witness: WitnessSearchOutcome

    @property
    def two_way_heuristic(self) -> bool:
        """Exhausted witness budget on a low-rank state.

        Every failed trial had a conditioned-marginal rank strictly below
        min(rank, rank of second marginal); if that failure were universal it
        would imply two-way distillability by known results. Heuristic only:
        a finite budget cannot prove the universal statement.
        """
        return self.witness.performed and not self.witness.found

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "parties": list(self.parties),
            "dims": list(self.dims),
            "rank": self.rank,
            "rank_first": self.rank_first,
            "rank_second": self.rank_second,
            "ppt": self.ppt._asdict(),
            "low_rank_bound_first": self.low_rank_bound_first,
            "low_rank_bound_second": self.low_rank_bound_second,
            "hashing_rate": self.hashing_rate,
            "witness_search": self.witness.to_json_dict(),
            "two_way_heuristic": self.two_way_heuristic,
        }


@dataclass(frozen=True, eq=False)
class DistillabilityReport:
    """Classification of a tripartite pure state plus all supporting numerics.

    ``rates`` carries a three-valued status (zero / positive / unknown) for
    the best achievable rate under each configuration of classical
    communication links: keys name the AB link first and the AE link second.
    """

    dims: tuple[int, int, int]
    reduction_ab: ReductionAnalysis
    reduction_ae: ReductionAnalysis
    classification: str
    npt_reductions: tuple[str, ...]
    rates: dict[str, str]
    params: dict

    def to_json_dict(self) -> dict:
        red_ab, red_ae = self.reduction_ab, self.reduction_ae
        return {
            "schema": "distillability-report/1",
            "params": dict(self.params),
            "dims": list(self.dims),
            "classification": self.classification,
            "npt_reductions": list(self.npt_reductions),
            "rates": dict(self.rates),
            "ranks": {
                "AB": red_ab.rank,
                "A": red_ab.rank_first,
                "B": red_ab.rank_second,
                "E": red_ae.rank_second,
            },
            "low_rank_bound_A": red_ab.low_rank_bound_first,
            "low_rank_bound_B": red_ab.low_rank_bound_second,
            "hashing_rate": red_ab.hashing_rate,
            "witness_phi": red_ab.witness.to_json_dict()["phi"],
            "reductions": {"AB": red_ab.to_json_dict(), "AE": red_ae.to_json_dict()},
        }

    def separability_ab(self) -> "SeparabilityRecord":
        """``separability_verdict`` of rho_AB, read off this report.

        |psi> purifies rho_AB, so its AE and E ranks are those of the
        canonical purification that ``separability_verdict`` builds.
        """
        ab, ae = self.reduction_ab, self.reduction_ae
        return SeparabilityRecord(
            ab.dims, ab.rank, ab.rank_first, ab.rank_second, ae.rank, ae.rank_second,
            ab.ppt, ab.low_rank_bound_first, ab.low_rank_bound_second,
        )


def _analyze_reduction(
    label: str,
    rho: DensityMatrix,
    factor: np.ndarray,
    first: HermitianSpectrum,
    second: HermitianSpectrum,
    rank_tol: float,
    ppt_tol: float,
    witness_budget: int,
    seedseq: np.random.SeedSequence,
) -> ReductionAnalysis:
    """Analysis of the reduction ``rho`` of the parties in ``label``, from its marginal spectra.

    ``factor`` is the amplitude tensor with rho = F F^dagger that the witness search ranks.
    """
    state = _eigenvalues(rho)
    r, r_first, r_second = (s.retained_count(rank_tol) for s in (state, first, second))
    if r < r_second:
        witness = _witness_search(factor, r, witness_budget, seedseq, rank_tol)
    else:
        note = f"rank(state) = {r} >= {r_second} = rank(marginal): search does not apply"
        witness = WitnessSearchOutcome(False, False, None, 0, note=note)
    return ReductionAnalysis(
        label=label,
        parties=tuple(label),
        dims=rho.dims,
        rank=r,
        rank_first=r_first,
        rank_second=r_second,
        ppt=is_ppt(rho, ppt_tol),
        low_rank_bound_first=_marginal_bound(r, first, rank_tol),
        low_rank_bound_second=_marginal_bound(r, second, rank_tol),
        hashing_rate=second.entropy(rank_tol) - state.entropy(rank_tol),
        witness=witness,
    )


def classify(
    psi: TripartitePureState,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    ppt_tol: float = DEFAULT_PPT_TOL,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
    seed: int = 0,
) -> DistillabilityReport:
    """Decide full undistillability of a tripartite pure state.

    The state is fully undistillable (best rate zero under every
    communication configuration with at least one two-way link) exactly when
    both reductions are PPT; both are then separable as well. Otherwise every
    configuration with a two-way link achieves a positive rate; the
    both-one-way configuration is reported positive only when a one-way
    certificate (witness vector or positive hashing rate) exists, and unknown
    otherwise.
    """
    marginals = [_eigenvalues(psi.reduction((k,))) for k in range(3)]
    amps = psi.amplitudes.reshape(psi.dims)
    red_ab, red_ae = (
        _analyze_reduction(
            label, psi.reduction((0, k)), factor, marginals[0], marginals[k], rank_tol,
            ppt_tol, witness_budget, np.random.SeedSequence(entropy=seed, spawn_key=(k - 1,)),
        )
        for k, label, factor in ((1, "AB", amps), (2, "AE", amps.swapaxes(1, 2)))
    )
    both_ppt = red_ab.ppt.is_ppt and red_ae.ppt.is_ppt
    npt = tuple(red.label for red in (red_ab, red_ae) if not red.ppt.is_ppt)
    if both_ppt:
        rates = {key: RATE_ZERO for key in (
            "both_two_way", "ab_two_way_ae_one_way", "ab_one_way_ae_two_way", "both_one_way",
        )}
        classification = CLASS_FULLY_UNDISTILLABLE
    else:
        one_way_evidence = any(
            red.witness.found or red.hashing_rate > POSITIVE_RATE_TOL
            for red in (red_ab, red_ae)
        )
        rates = {
            "both_two_way": RATE_POSITIVE,
            "ab_two_way_ae_one_way": RATE_POSITIVE,
            "ab_one_way_ae_two_way": RATE_POSITIVE,
            "both_one_way": RATE_POSITIVE if one_way_evidence else RATE_UNKNOWN,
        }
        classification = CLASS_SOME_2WAY
    return DistillabilityReport(
        dims=psi.dims,
        reduction_ab=red_ab,
        reduction_ae=red_ae,
        classification=classification,
        npt_reductions=npt,
        rates=rates,
        params={"rank_tol": rank_tol, "ppt_tol": ppt_tol,
                "witness_budget": witness_budget, "seed": seed},
    )


@dataclass(frozen=True, eq=False)
class SeparabilityRecord:
    """Rank-regime analysis of a bipartite state.

    When rank(state) <= max(rank A, rank B), PPT is equivalent to
    separability (and to two-way undistillability), so the PPT verdict
    upgrades to a separability verdict. Outside that regime the tool reports
    the PPT witness but leaves separability undecided.
    """

    dims: tuple[int, int]
    rank: int
    rank_a: int
    rank_b: int
    rank_ae: int
    rank_e: int
    ppt: PptVerdict
    low_rank_bound_a: float | None
    low_rank_bound_b: float | None

    @property
    def rank_pattern_holds(self) -> bool:
        """rank(AB) = rank(E) <= rank(AE) = rank(B)."""
        return self.rank == self.rank_e <= self.rank_ae == self.rank_b

    @property
    def regime_applies(self) -> bool:
        return self.rank <= max(self.rank_a, self.rank_b)

    @property
    def verdict(self) -> str:
        if self.regime_applies:
            return VERDICT_SEPARABLE if self.ppt.is_ppt else VERDICT_DISTILLABLE
        return VERDICT_PPT_UNDECIDED if self.ppt.is_ppt else VERDICT_NPT_UNDECIDED

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "ranks": {"AB": self.rank, "A": self.rank_a, "B": self.rank_b,
                      "AE": self.rank_ae, "E": self.rank_e},
            "rank_pattern_holds": self.rank_pattern_holds,
            "regime_applies": self.regime_applies,
            "ppt": self.ppt._asdict(),
            "verdict": self.verdict,
            "low_rank_bound_A": self.low_rank_bound_a,
            "low_rank_bound_B": self.low_rank_bound_b,
        }


def separability_verdict(
    rho: DensityMatrix,
    rank_tol: float = DEFAULT_RANK_TOL,
    ppt_tol: float = DEFAULT_PPT_TOL,
) -> SeparabilityRecord:
    """Classify a bipartite state through its rank regime and PPT verdict.

    Also reports whether the complement rank pattern
    rank(AB) = rank(E) <= rank(AE) = rank(B) holds for the canonical
    purification.
    """
    _require_bipartite(rho, "separability verdict")
    psi = purify(rho, rank_tol)
    r = psi.dims[2]  # the purifying register has dimension rank(rho)
    spec_a, spec_b = (_eigenvalues(partial_trace(rho, (k,))) for k in (0, 1))
    r_ae, r_e = (_eigenvalues(psi.reduction(keep)).retained_count(rank_tol)
                 for keep in ((0, 2), (2,)))
    return SeparabilityRecord(
        rho.dims, r, spec_a.retained_count(rank_tol), spec_b.retained_count(rank_tol),
        r_ae, r_e, is_ppt(rho, ppt_tol),
        _marginal_bound(r, spec_a, rank_tol), _marginal_bound(r, spec_b, rank_tol),
    )
