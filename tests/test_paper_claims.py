"""The paper's claims on states whose answers are known from how they were built.

A separable state is built in plain numpy as sum_i p_i |a_i b_i><a_i b_i| with
r <= min(d_A, d_B) Gaussian product terms. Such a state generically has
rank(rho) = rank(rho_A) = rank(rho_B) = r, the regime of Horodecki,
Lewenstein, Vidal & Cirac, PRA 62, 032310 (2000), in which a PPT state is
separable; the expected verdicts come from the construction, not from the
code under test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdistill import (
    DensityMatrix,
    TripartitePureState,
    classify,
    purify,
    separability_verdict,
)

from conftest import gaussian_unit_vector, random_isometry

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def separable_states(draw):
    d_a, d_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = draw(st.integers(1, min(d_a, d_b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = 1.0 + rng.random(r)  # no term is negligible against another
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for p in weights / weights.sum():
        v = np.kron(gaussian_unit_vector(rng, d_a), gaussian_unit_vector(rng, d_b))
        mat += p * np.outer(v, v.conj())
    return DensityMatrix((d_a, d_b), mat)


@PROPERTY
@given(rho=separable_states())
def test_separable_by_construction_gets_the_separable_verdict(rho):
    record = separability_verdict(rho)
    assert record.ppt.is_ppt
    assert record.regime_applies
    assert record.verdict == "separable"


@PROPERTY
@given(rho=separable_states())
def test_both_reductions_ppt_means_fully_undistillable_and_separable(rho):
    psi = purify(rho)
    report = classify(psi)
    assert report.reduction_ab.ppt.is_ppt  # rho_AB = rho is separable
    if report.reduction_ae.ppt.is_ppt:
        assert report.classification == "FULLY_UNDISTILLABLE_SEPARABLE"
        assert set(report.rates.values()) == {"zero"}
        assert separability_verdict(psi.reduction((0, 2))).verdict == "separable"
    else:
        assert report.classification == "SOME_REDUCTION_2WAY_DISTILLABLE"


@st.composite
def tripartite_states(draw):
    """Purifications of the separable states, or Haar states on a block of the
    computational basis: their witness searches run, and their marginals are
    rank-deficient in a basis that the local unitaries then rotate away."""
    if draw(st.booleans()):
        return purify(draw(separable_states()))
    dims = draw(st.tuples(*[st.integers(1, 4)] * 3))
    block = tuple(draw(st.integers(1, d)) for d in dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(dims, dtype=complex)
    sub = gaussian_unit_vector(rng, int(np.prod(block)))
    amps[tuple(slice(k) for k in block)] = sub.reshape(block)
    return TripartitePureState(dims, amps.reshape(-1))


def _decisions(report):
    """Everything in a ``classify`` report that local unitaries must leave alone."""
    doc = report.to_json_dict()
    return (
        doc["classification"],
        doc["rates"],
        doc["ranks"],
        [(red.rank, red.rank_first, red.rank_second, red.ppt.is_ppt)
         for red in (report.reduction_ab, report.reduction_ae)],
    )


@PROPERTY
@given(psi=tripartite_states(), seed=st.integers(0, 2**32 - 1))
def test_classify_decisions_are_invariant_under_local_unitaries(psi, seed):
    rng = np.random.default_rng(seed)
    u_a, u_b, u_e = (random_isometry(rng, d, d) for d in psi.dims)
    amps = np.einsum(
        "ia,jb,ke,abe->ijk", u_a, u_b, u_e, psi.amplitudes.reshape(psi.dims)
    )
    rotated = TripartitePureState(psi.dims, amps.reshape(-1))
    assert _decisions(classify(rotated)) == _decisions(classify(psi))
