"""Channels represented by their Choi states, channel/complement duality, and
the named channel constructions used throughout the test suite and CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    DimensionMismatchError,
    NotTracePreservingError,
    StateFormatError,
)
from .kernels import DEFAULT_RANK_TOL, validated_tolerance
from .states import (DensityMatrix, _require_bipartite, complement, density_matrix_from_dict,
                     partial_trace, validated_dimension, validated_size)

#: Max deviation of the Choi input marginal from 1/d_in accepted on load.
TRACE_PRESERVATION_TOL = 1e-6


def maximally_entangled(d: int) -> np.ndarray:
    """Unit vector (1/sqrt(d)) sum_i |ii> on C^d (x) C^d."""
    d = validated_dimension(d, "dimension", BadParameterError)
    validated_size(d * d, f"dimension {d}: d^2 = {d * d}")
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


@dataclass(frozen=True, eq=False)
class ChoiChannel:
    """Completely positive trace-preserving map stored as its Choi state.

    The Choi state is the channel applied to half of a maximally entangled
    pair, a bipartite density matrix with dims ``(d_in, d_out)`` whose input
    marginal must equal 1/d_in.
    """

    choi: DensityMatrix

    def __post_init__(self):
        if not isinstance(self.choi, DensityMatrix):
            raise StateFormatError(f"Choi state {type(self.choi).__name__} is not a DensityMatrix")
        _require_bipartite(self.choi, "Choi channel")
        marginal = partial_trace(self.choi, (0,)).matrix
        dev = np.max(np.abs(marginal - np.eye(self.d_in) / self.d_in))
        if dev > TRACE_PRESERVATION_TOL:
            raise NotTracePreservingError(
                f"Choi input marginal deviates from 1/d_in by {dev:.3e}"
            )

    @property
    def d_in(self) -> int:
        return self.choi.dims[0]

    @property
    def d_out(self) -> int:
        return self.choi.dims[1]

    def apply(self, x) -> np.ndarray:
        """Channel action d_in * Tr_in[(x^T (x) 1) J] on a d_in x d_in matrix."""
        arr = np.asarray(x, dtype=np.complex128)
        if arr.shape != (self.d_in, self.d_in):
            raise DimensionMismatchError(
                f"operator shape {arr.shape} does not match input dimension {self.d_in}"
            )
        j4 = self.choi.matrix.reshape(self.d_in, self.d_out, self.d_in, self.d_out)
        return self.d_in * np.einsum("ca,cbad->bd", arr, j4)

    def to_json_dict(self) -> dict:
        return {"d_in": self.d_in, "d_out": self.d_out, "choi": self.choi.to_json_dict()}


def channel_from_dict(doc: dict) -> ChoiChannel:
    if not isinstance(doc, dict) or not {"d_in", "d_out", "choi"} <= set(doc):
        raise StateFormatError('channel document needs "d_in", "d_out" and "choi" keys')
    dims = tuple(validated_dimension(doc[key], key) for key in ("d_in", "d_out"))
    choi = density_matrix_from_dict(doc["choi"])
    if choi.dims != dims:
        raise DimensionMismatchError(f"Choi dims {choi.dims} do not match {dims}")
    return ChoiChannel(choi)


def complement_channel(channel: ChoiChannel, rank_tol: float = DEFAULT_RANK_TOL) -> ChoiChannel:
    """Complementary channel to the environment.

    Obtained by purifying the Choi state canonically and regrouping the
    purifying register as the output, so the environment dimension equals the
    Choi rank. The result is unique up to an isometry on the environment;
    rank, spectrum, entropy and PPT data do not depend on that freedom.
    """
    comp = complement(channel.choi, rank_tol)
    return ChoiChannel(comp)


def werner_holevo_channel() -> ChoiChannel:
    """Qutrit channel X -> (Tr(X) 1_3 - X^T) / 2.

    Its Choi state is the normalized projector onto the antisymmetric
    subspace, (1_9 - SWAP)/6, with spectrum (1/3, 1/3, 1/3, 0, ..., 0).
    """
    d = 3
    swap = np.eye(d * d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    choi = DensityMatrix._trusted((d, d), (np.eye(d * d) - swap) / (d * (d - 1)))
    return ChoiChannel(choi)


def flagged_depolarizing_channel(d: int, q: float = 0.5) -> ChoiChannel:
    """Even mixture of the identity and a depolarizing channel with an output flag.

    The channel maps X to (X (+) Lambda(X)) / 2 on a 2d-dimensional output
    whose first block records "kept" and second block "depolarized with
    strength q". Because the blocks are orthogonal, the Choi rank is
    1 + d^2: a rank-one maximally entangled block plus a full-rank
    depolarizing block. Its complementary channel is antidegradable (the
    environment can be simulated from the output), so the complement has
    zero one-way quantum capacity.
    """
    d = validated_dimension(d, "input dimension", BadParameterError)
    if d < 2:
        raise BadParameterError(f"input dimension must be >= 2, got {d}")
    validated_tolerance(q, "depolarizing strength q")
    validated_size((2 * d * d) ** 2, f"input dimension {d}: Choi matrix")
    omega = maximally_entangled(d)
    j_identity = np.outer(omega, omega.conj())
    # Choi state of the depolarizing channel (1-q) X + q Tr(X) 1/d, full rank for q in (0, 1).
    j_depol = (1.0 - q) * j_identity + q * np.eye(d * d) / (d * d)
    # Embed both Choi blocks into output blocks [0, d) and [d, 2d).
    j = np.zeros((2 * d * d, 2 * d * d), dtype=np.complex128)
    j4 = j.reshape(d, 2 * d, d, 2 * d)
    j4[:, :d, :, :d] = 0.5 * j_identity.reshape(d, d, d, d)
    j4[:, d:, :, d:] = 0.5 * j_depol.reshape(d, d, d, d)
    return ChoiChannel(DensityMatrix._trusted((d, 2 * d), j))
