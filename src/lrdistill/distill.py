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
from typing import Callable, Literal

import numpy as np

from .errors import BadParameterError, RankNotLowError, SubsystemError
from .kernels import (DEFAULT_RANK_TOL, HermitianSpectrum, gram_ranks, ratio_bound,
                      solve_hermitian)
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
    validated_count,
    validated_seed,
)

Side = Literal["A", "B"]

DEFAULT_WITNESS_BUDGET = 50

#: Haar trials per batch of the witness search; the last batch holds what is left.
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


def _filter_operator(marginal: HermitianSpectrum) -> np.ndarray:
    """Y = sqrt(lambda_min) * rho_side^{-1/2} on the marginal's support, zero on its kernel."""
    return np.sqrt(marginal.min_positive()) * marginal.pinv_sqrt()


def _rate_bound(r: int, r_side: int, lam_min: float) -> float | None:
    """lambda_min * r_side * (log2 r_side - log2 r) if r < r_side, else None."""
    return lam_min * r_side * (log2(r_side) - log2(r)) if r < r_side else None


@dataclass(frozen=True, eq=False)
class FilterOutcome:
    """Success branch of the local filtering measurement on one side.

    ``filtered`` is the normalized filtered purification, and
    ``filtered_state`` its AB reduction. ``filter_operator`` acts on the
    filtering subsystem only. ``p_succ`` equals lambda_min * r_side up to
    rounding, and the filtered marginal on the filtering side is
    ``support_projector / r_side``.

    Every other array, rank, rate and bound is read off the spectra it was
    decided from: ``marginal`` is the filtering side's marginal, and
    ``filtered_spectrum`` has the eigenvalues of the filtered state's
    purifying register, whose dimension is rank(state). ``hashing_rate`` is
    ``filtered_hashing_rate`` on this side, and ``low_rank_bound`` is
    ``low_rank_rate_bound``'s value, or None with ``low_rank_bound_note``
    saying why it does not apply.
    """

    side: Side
    p_succ: float
    filtered: TripartitePureState
    marginal: HermitianSpectrum
    filtered_spectrum: HermitianSpectrum

    @property
    def filter_operator(self) -> np.ndarray:
        return _filter_operator(self.marginal)

    @property
    def support_projector(self) -> np.ndarray:
        return self.marginal.support_projector()

    @property
    def filtered_state(self) -> DensityMatrix:
        return self.filtered.reduction((0, 1))

    @property
    def rank(self) -> int:
        return self.filtered_spectrum.eigenvalues.size

    @property
    def rank_side(self) -> int:
        return self.marginal.rank

    @property
    def lambda_min(self) -> float:
        return self.marginal.min_positive()

    @property
    def hashing_rate(self) -> float:
        return self.p_succ * (log2(self.rank_side) - self.filtered_spectrum.entropy())

    @property
    def low_rank_bound(self) -> float | None:
        return _rate_bound(self.rank, self.rank_side, self.lambda_min)

    @property
    def low_rank_bound_note(self) -> str | None:
        if self.low_rank_bound is not None:
            return None
        return (f"rank(state) = {self.rank} >= {self.rank_side} = rank(marginal {self.side}); "
                "bound does not apply")

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
    psi = purify(rho, rank_tol)  # rho = F F^dagger, F of shape (d_A, d_B, r)
    spectrum = solve_hermitian(psi.reduction((idx,)).matrix, rank_tol)
    y = _filter_operator(spectrum)
    # G = (Y (x) 1) F; the filtered state, AB of G / sqrt(p_succ), is positive by construction.
    g = np.moveaxis(np.tensordot(y, psi.amplitudes.reshape(psi.dims), (1, idx)), 0, idx)
    p_succ = float(np.vdot(g, g).real)
    filtered = TripartitePureState(psi.dims, g / np.sqrt(p_succ))
    # S(filtered state) from the r x r E-marginal
    e_spectrum = solve_hermitian(filtered.reduction((2,)).matrix, rank_tol, vectors=False)
    return FilterOutcome(side, p_succ, filtered, spectrum, e_spectrum)


def low_rank_rate_bound(
    rho: DensityMatrix, side: Side, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Two-way distillable-entanglement lower bound for a low-rank state.

    Requires rank(state) < rank(chosen marginal) strictly; then the
    filter-then-hash protocol guarantees at least
    lambda_min * r_side * (log2 r_side - log2 r) ebits per copy.
    """
    outcome = local_filter(rho, side, rank_tol)
    if outcome.low_rank_bound is None:
        raise RankNotLowError(outcome.low_rank_bound_note)
    return outcome.low_rank_bound


def filtered_hashing_rate(
    rho: DensityMatrix, side: Side, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Achievable rate of filter-then-hash: p_succ * [S(filtered marginal) - S(filtered state)].

    The entropy difference is the coherent information of the filtered state
    with the filtering side as the target marginal; since filtering flattens
    that marginal to log2(r_side) bits of entropy, this rate always dominates
    ``low_rank_rate_bound`` on the same side.
    """
    return local_filter(rho, side, rank_tol).hashing_rate


@dataclass(frozen=True, eq=False)
class WitnessSearchOutcome:
    """Result of the one-way witness search.

    ``found = False`` (no ``phi``) means no certificate within the budget; it
    never proves one-way undistillability, although it is the expected
    outcome for states that are one-way undistillable.
    """

    performed: bool
    phi: np.ndarray | None
    trials_used: int
    note: str | None

    @property
    def found(self) -> bool:
        return self.phi is not None

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
    make_rng: Callable[[], np.random.Generator],
    rank_tol: float,
) -> tuple[np.ndarray | None, int]:
    """First |phi> on A with rank(conditioned B-marginal) == target_rank, and the trials used.

    ``factor`` is an amplitude tensor F of shape (d_A, d_B, r) with
    rho = F F^dagger, F read as a (d_A d_B) x r matrix. The marginal
    conditioned on |phi> is K K^dagger with K = sum_a conj(phi_a) F[a].

    Tries the d_A computational basis vectors first (they catch structured
    states cheaply), then ``budget`` Haar-random vectors (a budget the caller
    has validated) in batches of ``_BATCH`` trials, the last one holding
    what is left. Each batch forms its trials' K in one matrix product and
    ranks them with one ``gram_ranks`` solve. ``basis_ranks`` is
    ``gram_ranks(factor, rank_tol)``, the basis vectors' ranks, which callers
    that also report them compute once. Trial order, random draws and the
    returned vector are those of trying one vector at a time, so the outcome
    is deterministic given (state, budget, seed).

    ``make_rng`` builds the search's random generator. It is called once,
    right before the first Haar batch, so a search that needs no Haar trial
    never builds one (nor loads ``numpy.random``): one whose basis vector
    hits, one with budget 0, and one that ``ratio_bound`` certifies. When
    the basis vectors miss, the budget is positive and target_rank = m, the
    smaller side of F's slices, ``ratio_bound`` is checked before any
    Haar draw. If it is <= rank_tol, it proves that no vector on A reaches
    rank m (as when K has a kernel linear in phi), so every trial would
    miss: the search returns the exhausted result, (None, d_A + budget).
    """
    d_a = factor.shape[0]
    hits = np.flatnonzero(basis_ranks == target_rank)
    if hits.size:
        return np.eye(d_a, dtype=np.complex128)[hits[0]], int(hits[0]) + 1
    if not budget or (target_rank == min(factor.shape[1:]) and ratio_bound(factor) <= rank_tol):
        return None, d_a + budget
    flat, rng = factor.reshape(d_a, -1), make_rng()
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
    budget = validated_count(budget, "budget")
    seed = validated_seed(seed, sequence=True)
    psi = purify(rho, rank_tol)  # its purifying register has dimension rank(rho)
    r_b = solve_hermitian(partial_trace(rho, (1,)).matrix, rank_tol, vectors=False).rank
    outcome = _witness_search(psi.amplitudes.reshape(psi.dims), psi.dims[2], r_b, budget,
                              lambda: np.random.default_rng(seed), rank_tol)
    if not outcome.performed:
        raise RankNotLowError(outcome.note)
    return outcome


def _spawned_rng(seed: int, *spawn_key: int) -> Callable[[], np.random.Generator]:
    """A factory of ``default_rng(SeedSequence(entropy=seed, spawn_key=spawn_key))``."""
    return lambda: np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


def _witness_search(
    factor: np.ndarray,
    r: int,
    r_second: int,
    budget: int,
    make_rng: Callable[[], np.random.Generator],
    rank_tol: float,
) -> WitnessSearchOutcome:
    """``find_one_way_witness`` from r = rank(state) and r_second = rank(second marginal);
    not performed when r >= r_second. ``factor`` and ``make_rng`` are ``_saturation_search``'s."""
    if r >= r_second:
        note = f"rank(state) = {r} >= {r_second} = rank(marginal): search does not apply"
        return WitnessSearchOutcome(False, None, 0, note)
    phi, trials = _saturation_search(factor, gram_ranks(factor, rank_tol), r, budget, make_rng,
                                     rank_tol)
    note = None if phi is not None else "budget exhausted without certificate"
    return WitnessSearchOutcome(True, phi, trials, note)


@dataclass(frozen=True, eq=False)
class ReductionAnalysis:
    """Distillability data for one reduction (AB or AE) of a tripartite state."""

    separability: SeparabilityRecord
    witness: WitnessSearchOutcome

    @property
    def label(self) -> str:
        """The reduction's parties, "AB" or "AE": those of its rank-regime record."""
        return self.separability.parties

    @property
    def hashing_rate(self) -> float:
        """S(second) - S(state), the coherent information with the second party as target."""
        return self.separability.second.entropy() - self.separability.spectrum.entropy()

    @property
    def two_way_heuristic(self) -> bool:
        """The witness search ran and found no vector: its budget ran out or a bound ruled one out.

        When ``ratio_bound`` certifies at ``rank_tol``, it proves that no
        one-way witness phi exists at that tolerance. Neither that proof nor
        an exhausted budget proves the reduction one-way undistillable. The
        search runs only when r < r_second, and then ``low_rank_bound_second``
        > 0 already proves the reduction two-way distillable.
        """
        return self.witness.performed and not self.witness.found

    def to_json_dict(self) -> dict:
        record = self.separability
        return {
            "label": self.label,
            "parties": list(self.label),
            "dims": list(record.dims),
            "rank": record.rank,
            "rank_first": record.rank_a,
            "rank_second": record.rank_b,
            "ppt": record.ppt._asdict(),
            "low_rank_bound_first": record.low_rank_bound_a,
            "low_rank_bound_second": record.low_rank_bound_b,
            "hashing_rate": self.hashing_rate,
            "witness_search": self.witness.to_json_dict(),
            "two_way_heuristic": self.two_way_heuristic,
        }


@dataclass(frozen=True, eq=False)
class DistillabilityReport:
    """Classification of a tripartite pure state plus all supporting numerics.

    ``dims``, ``npt_reductions``, ``classification`` and ``rates`` are read
    off the two reductions, by the rule that ``classify`` states. ``rates``
    carries a three-valued status (zero / positive / unknown) for the best
    achievable rate under each configuration of classical communication
    links: keys name the AB link first and the AE link second.
    """

    reduction_ab: ReductionAnalysis
    reduction_ae: ReductionAnalysis
    params: dict

    @property
    def dims(self) -> tuple[int, int, int]:
        return (*self.reduction_ab.separability.dims, self.reduction_ae.separability.dims[1])

    @property
    def npt_reductions(self) -> tuple[str, ...]:
        return tuple(red.label for red in (self.reduction_ab, self.reduction_ae)
                     if not red.separability.ppt.is_ppt)

    @property
    def classification(self) -> str:
        return CLASS_SOME_2WAY if self.npt_reductions else CLASS_FULLY_UNDISTILLABLE

    @property
    def rates(self) -> dict[str, str]:
        keys = ("both_two_way", "ab_two_way_ae_one_way", "ab_one_way_ae_two_way", "both_one_way")
        if not self.npt_reductions:
            return dict.fromkeys(keys, RATE_ZERO)
        rates = dict.fromkeys(keys, RATE_POSITIVE)
        if not any(red.witness.found or red.hashing_rate > POSITIVE_RATE_TOL
                   for red in (self.reduction_ab, self.reduction_ae)):
            rates["both_one_way"] = RATE_UNKNOWN
        return rates

    def to_json_dict(self) -> dict:
        red_ab, ab = self.reduction_ab, self.reduction_ab.separability
        return {
            "schema": "distillability-report/1",
            "params": dict(self.params),
            "dims": list(self.dims),
            "classification": self.classification,
            "npt_reductions": list(self.npt_reductions),
            "rates": dict(self.rates),
            "ranks": {"AB": ab.rank, "A": ab.rank_a, "B": ab.rank_b, "E": ab.rank_e},
            "low_rank_bound_A": ab.low_rank_bound_a,
            "low_rank_bound_B": ab.low_rank_bound_b,
            "hashing_rate": red_ab.hashing_rate,
            "witness_phi": red_ab.witness.to_json_dict()["phi"],
            "reductions": {"AB": red_ab.to_json_dict(), "AE": self.reduction_ae.to_json_dict()},
        }


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

    Only the one-party marginals A, B and E are diagonalized: rho_AB has
    rho_E's nonzero spectrum and rho_AE rho_B's, so the AE hashing rate
    S(E) - S(B) is exactly minus the AB one.
    """
    if not isinstance(psi, TripartitePureState):
        raise SubsystemError("classify needs a TripartitePureState, got "
                             f"{type(psi).__name__}; use purify(rho) for a bipartite rho")
    witness_budget = validated_count(witness_budget, "budget")
    seed = validated_seed(seed)
    marginals = [solve_hermitian(psi.reduction((k,)).matrix, rank_tol, vectors=False)
                 for k in range(3)]
    amps = psi.amplitudes.reshape(psi.dims)
    reductions = []
    # rho_0k = F F^dagger has the marginals A and k; the remaining party has its
    # nonzero spectrum (Schmidt duality), so no two-party reduction is diagonalized.
    for k, label, factor in ((1, "AB", amps), (2, "AE", amps.swapaxes(1, 2))):
        second, third = marginals[k], marginals[3 - k]
        witness = _witness_search(factor, third.rank, second.rank, witness_budget,
                                  _spawned_rng(seed, k - 1), rank_tol)
        record = SeparabilityRecord(third, marginals[0], second,
                                    is_ppt(psi.reduction((0, k)), ppt_tol), label)
        reductions.append(ReductionAnalysis(record, witness))
    return DistillabilityReport(*reductions, {"rank_tol": rank_tol, "ppt_tol": ppt_tol,
                                              "witness_budget": witness_budget, "seed": seed})


@dataclass(frozen=True, eq=False)
class SeparabilityRecord:
    """Rank-regime analysis of a bipartite state.

    When rank(state) <= max(rank A, rank B), PPT is equivalent to
    separability (and to two-way undistillability), so the PPT verdict
    upgrades to a separability verdict. Outside that regime the tool reports
    the PPT witness but leaves separability undecided.

    Every rank, bound and ``dims`` is read off the eigenvalue-only spectra it
    was decided from: ``spectrum`` has the state's nonzero eigenvalues (its
    own or its purifier's); ``first`` and ``second`` are its two ``parties``'
    marginals, filling the ``_a`` and ``_b`` slots. The purifying party is
    the third of A, B and E. The JSON names every rank and bound by these
    parties: for ``parties = "AE"`` its ranks are AE, A, E, AB and B.
    """

    spectrum: HermitianSpectrum
    first: HermitianSpectrum
    second: HermitianSpectrum
    ppt: PptVerdict
    parties: str = "AB"

    @property
    def dims(self) -> tuple[int, int]:
        return (self.first.eigenvalues.size, self.second.eigenvalues.size)

    @property
    def rank(self) -> int:
        return self.spectrum.rank

    @property
    def rank_a(self) -> int:
        return self.first.rank

    @property
    def rank_b(self) -> int:
        return self.second.rank

    @property
    def low_rank_bound_a(self) -> float | None:
        return _rate_bound(self.rank, self.rank_a, self.first.min_positive())

    @property
    def low_rank_bound_b(self) -> float | None:
        return _rate_bound(self.rank, self.rank_b, self.second.min_positive())

    @property
    def rank_e(self) -> int:
        return self.rank  # E of any purification has rho's nonzero spectrum

    @property
    def rank_ae(self) -> int:
        return self.rank_b  # and AE has rho_B's

    @property
    def rank_pattern_holds(self) -> bool:
        """rank(AB) = rank(E) <= rank(AE) = rank(B), i.e. rank(AB) <= rank(B): the
        equalities hold for any purification (``rank_e``, ``rank_ae``)."""
        return self.rank <= self.rank_b

    @property
    def regime_applies(self) -> bool:
        return self.rank <= max(self.rank_a, self.rank_b)

    @property
    def verdict(self) -> str:
        if self.regime_applies:
            return VERDICT_SEPARABLE if self.ppt.is_ppt else VERDICT_DISTILLABLE
        return VERDICT_PPT_UNDECIDED if self.ppt.is_ppt else VERDICT_NPT_UNDECIDED

    def to_json_dict(self) -> dict:
        first, second = self.parties
        third = next(p for p in "ABE" if p not in self.parties)
        return {
            "dims": list(self.dims),
            "ranks": {self.parties: self.rank, first: self.rank_a, second: self.rank_b,
                      first + third: self.rank_ae, third: self.rank_e},
            "rank_pattern_holds": self.rank_pattern_holds,
            "regime_applies": self.regime_applies,
            "ppt": self.ppt._asdict(),
            "verdict": self.verdict,
            f"low_rank_bound_{first}": self.low_rank_bound_a,
            f"low_rank_bound_{second}": self.low_rank_bound_b,
        }


def separability_verdict(
    rho: DensityMatrix,
    rank_tol: float = DEFAULT_RANK_TOL,
    ppt_tol: float = DEFAULT_PPT_TOL,
) -> SeparabilityRecord:
    """Classify a bipartite state through its rank regime and PPT verdict.

    Also reports whether the complement rank pattern
    rank(AB) = rank(E) <= rank(AE) = rank(B) holds for a purification; its
    E and AE ranks are rank(AB) and rank(B), so no purification is built.
    """
    _require_bipartite(rho, "separability verdict")
    spectra = (solve_hermitian(state.matrix, rank_tol, vectors=False)
               for state in (rho, partial_trace(rho, (0,)), partial_trace(rho, (1,))))
    return SeparabilityRecord(*spectra, is_ppt(rho, ppt_tol))
